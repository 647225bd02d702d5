"""Command-line front end and the group-definition file format.

Group files are line-oriented; '#' starts a comment:

    group <name>
    arity <m>            |  arity seq <m1> <m2> ... cycle <k>
    rooted <g> = (<cycle notation>)             # e.g. rooted a = (1 2 3)
    recursive <g> = (<entry>,...,<entry>) [<rooted name>]
        entry ::= generator | generator^<int> | 1

Exit codes: 0 success/true, 1 predicate false, 2 usage or parse error,
3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import decision, quotients, schreier, spectra
from .conjugacy import q_set
from .errors import ResourceBoundExceeded, ValidationError
from .groups import GroupDefinition, builtin, explicit_group
from .automorphisms import format_perm, perm_from_cycles
from .shapes import TreeShape, format_vertex, parse_vertex

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class GroupFileError(ValueError):
    def __init__(self, line_no: int, column: int, message: str):
        self.line_no = line_no
        self.column = column
        super().__init__(f"line {line_no}, column {column}: {message}")


def parse_group_file(text: str) -> GroupDefinition:
    """Parse the group-definition DSL into an explicit-recursion group."""
    name: Optional[str] = None
    shape: Optional[TreeShape] = None
    rooted: dict = {}
    recursive: dict = {}
    order: list = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "group":
            if len(tokens) != 2:
                raise GroupFileError(line_no, 1, "expected: group <name>")
            name = tokens[1]
        elif head == "arity":
            if len(tokens) >= 2 and tokens[1] == "seq":
                try:
                    cyc_at = tokens.index("cycle")
                except ValueError:
                    raise GroupFileError(line_no, 1, "arity seq needs 'cycle <k>'")
                try:
                    seq = [int(t) for t in tokens[2:cyc_at]]
                    k = int(tokens[cyc_at + 1])
                except (ValueError, IndexError):
                    raise GroupFileError(line_no, 1, "bad arity sequence")
                if k < 1 or k > len(seq):
                    raise GroupFileError(line_no, 1, f"cycle length {k} out of range")
                shape = TreeShape(tuple(seq[:-k]), tuple(seq[-k:]))
            elif len(tokens) == 2:
                try:
                    m = int(tokens[1])
                except ValueError:
                    raise GroupFileError(line_no, 1, f"bad arity {tokens[1]!r}")
                shape = TreeShape.regular(m)
            else:
                raise GroupFileError(line_no, 1, "expected: arity <m>")
        elif head in ("rooted", "recursive"):
            if shape is None:
                raise GroupFileError(line_no, 1, "arity must come before generators")
            body = line[len(head):].strip()
            if "=" not in body:
                raise GroupFileError(line_no, 1, "expected '='")
            gen_name, rhs = (part.strip() for part in body.split("=", 1))
            if not gen_name.isidentifier():
                raise GroupFileError(line_no, 1, f"bad generator name {gen_name!r}")
            if gen_name in rooted or gen_name in recursive:
                raise GroupFileError(line_no, 1, f"duplicate generator {gen_name!r}")
            if head == "rooted":
                rooted[gen_name] = _parse_cycles(rhs, shape.branching(0), line_no)
            else:
                recursive[gen_name] = _parse_recursion(
                    rhs, shape, rooted, line_no
                )
            order.append(gen_name)
        else:
            raise GroupFileError(line_no, 1, f"unknown directive {head!r}")

    if name is None:
        raise GroupFileError(1, 1, "missing 'group <name>'")
    if shape is None:
        raise GroupFileError(1, 1, "missing 'arity'")
    for gen_name, (entries, _) in recursive.items():
        for entry in entries:
            for ref, _exp in entry:
                if ref not in rooted and ref not in recursive:
                    raise GroupFileError(1, 1, f"unknown symbol {ref!r} in {gen_name}")
    return explicit_group(name, shape, rooted, recursive)


def _parse_cycles(rhs: str, m: int, line_no: int):
    rhs = rhs.strip()
    if not (rhs.startswith("(") and rhs.endswith(")")):
        raise GroupFileError(line_no, 1, "cycle notation must be parenthesized")
    cycles = []
    for chunk in rhs[1:-1].split(")("):
        pts = chunk.split()
        if not all(p.isdigit() for p in pts):
            raise GroupFileError(line_no, 1, f"bad cycle {chunk!r}")
        pts = [int(p) - 1 for p in pts]
        if any(p < 0 or p >= m for p in pts):
            raise GroupFileError(line_no, 1, f"cycle point out of range 1..{m}")
        cycles.append(pts)
    return perm_from_cycles(m, cycles)


def _parse_recursion(rhs: str, shape: TreeShape, rooted: dict, line_no: int):
    rhs = rhs.strip()
    if not rhs.startswith("("):
        raise GroupFileError(line_no, 1, "recursion must start with '('")
    close = rhs.rfind(")")
    if close < 0:
        raise GroupFileError(line_no, 1, "missing ')'")
    inner = rhs[1:close]
    tail = rhs[close + 1:].strip()
    entries = []
    for part in inner.split(","):
        part = part.strip()
        if part == "1":
            entries.append([])
            continue
        if "^" in part:
            base, exp_text = part.split("^", 1)
            try:
                exp = int(exp_text)
            except ValueError:
                raise GroupFileError(line_no, 1, f"bad exponent {exp_text!r}")
        else:
            base, exp = part, 1
        base = base.strip()
        if not base.isidentifier():
            raise GroupFileError(line_no, 1, f"bad entry {part!r}")
        entries.append([(base, exp)])
    if len(entries) != shape.branching(0):
        raise GroupFileError(
            line_no, 1,
            f"expected {shape.branching(0)} entries, got {len(entries)}",
        )
    root_perm = None
    if tail:
        if tail not in rooted:
            raise GroupFileError(line_no, 1, f"unknown rooted name {tail!r}")
        root_perm = rooted[tail]
    return (entries, root_perm)


def format_group_file(group: GroupDefinition) -> str:
    """Inverse of parse_group_file for explicit-recursion groups."""
    shape = group.shape
    lines = [f"group {group.name}"]
    if not shape.prefix and len(shape.cycle) == 1:
        lines.append(f"arity {shape.cycle[0]}")
    else:
        seq = " ".join(str(m) for m in shape.prefix + shape.cycle)
        lines.append(f"arity seq {seq} cycle {len(shape.cycle)}")
    rooted_names = {}
    for name, state in group.states.items():
        if all(c.is_identity for c in state.children):
            lines.append(f"rooted {name} = {format_perm(state.root_perm)}")
            rooted_names[state.root_perm] = name
    for name, state in group.states.items():
        if all(c.is_identity for c in state.children):
            continue
        entries = []
        for child in state.children:
            if child.is_identity:
                entries.append("1")
                continue
            for nm, st in group.states.items():
                if st is child:
                    entries.append(nm)
                    break
                if st is not child and child is st.inverse():
                    entries.append(f"{nm}^-1")
                    break
            else:
                raise ValueError(f"section of {name} is not a named generator")
        root = ""
        if state.root_perm != tuple(range(len(state.root_perm))):
            nm = rooted_names.get(state.root_perm)
            if nm is None:
                raise ValueError(
                    f"root permutation of {name} is not a named rooted generator"
                )
            root = f" {nm}"
        lines.append(f"recursive {name} = ({', '.join(entries)}){root}")
    return "\n".join(lines) + "\n"


def load_group(source: str) -> GroupDefinition:
    """A built-in name, or a path to a .grp definition file."""
    if os.path.sep in source or source.endswith(".grp") or os.path.exists(source):
        with open(source) as fh:
            return parse_group_file(fh.read())
    return builtin(source)


def level(text: str) -> int:
    """argparse type for a tree level: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"level must be non-negative, got {value}")
    return value


# -- subcommands -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="branchgroups",
        description="Tree-automorphism calculus for self-similar groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="first-level decomposition or vertex image")
    p.add_argument("group")
    p.add_argument("word")
    p.add_argument("--vertex", help="act on this vertex instead")

    p = sub.add_parser("trivial", help="word problem: is the word trivial?")
    p.add_argument("group")
    p.add_argument("word")

    p = sub.add_parser("equal", help="do two words represent the same element?")
    p.add_argument("group")
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("order", help="element order with certificate")
    p.add_argument("group")
    p.add_argument("word")
    p.add_argument("--bound", type=int, default=1 << 20)

    p = sub.add_parser("conj", help="conjugacy in the first Grigorchuk group")
    p.add_argument("group")
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("quotient", help="finite level quotient invariants")
    p.add_argument("group")
    p.add_argument("--level", type=level, required=True)
    p.add_argument("--order", action="store_true")
    p.add_argument("--ranks", type=int, metavar="KMAX",
                   help="log_p |gamma_k/gamma_{k+1}| for k = 1..KMAX, p the prime of "
                        "the root branching index; the F_p-rank only when the "
                        "factor is elementary abelian")
    p.add_argument("--derived", type=int, metavar="KMAX")
    p.add_argument("--suborbits", action="store_true")
    p.add_argument("--hausdorff", action="store_true")
    p.add_argument("--rist", metavar="VERTEX")

    p = sub.add_parser("schreier", help="Schreier graph of the level action")
    p.add_argument("group")
    p.add_argument("--level", type=level, required=True)
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--growth", action="store_true")
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--substitution", action="store_true",
                   help="build by substitutional rules instead of the action")

    p = sub.add_parser("spectrum", help="spectrum of the Hecke-Laplace operator")
    p.add_argument("group")
    p.add_argument("--level", type=level, required=True)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--closed-form", action="store_true")

    p = sub.add_parser("present", help="expand/verify endomorphic presentations")
    group_arg = p.add_mutually_exclusive_group(required=True)
    group_arg.add_argument("--name")
    group_arg.add_argument("--file")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--verify", metavar="GROUP", nargs="?", const="auto")

    p = sub.add_parser("ball", help="ball sizes (growth values)")
    p.add_argument("group")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("torsion-growth", help="max element order on a ball")
    p.add_argument("group")
    p.add_argument("--radius", type=int, required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (GroupFileError, ValidationError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBoundExceeded as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource bound exceeded: out of memory (MemoryError)", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("resource bound exceeded: recursion deeper than the interpreter's "
              f"limit of {sys.getrecursionlimit()} (RecursionError)", file=sys.stderr)
        return EXIT_RESOURCE


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "present":
        from .presentations import (
            format_free_word,
            parse_presentation_file,
            presentation,
            verify as verify_presentation,
        )

        if args.file:
            with open(args.file) as fh:
                pres, gname, amap = parse_presentation_file(fh.read())
        else:
            pres, gname, amap = presentation(args.name)
        relators = pres.expand(args.depth)

        for rel in relators:
            print(format_free_word(rel))
        if args.verify is not None:
            target = gname if args.verify == "auto" else args.verify
            if target is None:
                raise ValueError("no verification group declared; pass --verify GROUP")
            rep = verify_presentation(pres, builtin(target), args.depth, amap)
            if rep.ok:
                print(f"all {rep.total} relators trivial in {target}")
                return EXIT_OK
            print(f"FAILED: {len(rep.failures)} of {rep.total} nontrivial; "
                  f"first: {rep.first_failure()}")
            return EXIT_FALSE
        return EXIT_OK

    group = load_group(args.group)

    if cmd == "eval":
        word = group.parse_word(args.word)
        if args.vertex:
            v = parse_vertex(args.vertex)
            state = group.state_of_word(word)
            print(format_vertex(state.act(v)))
            return EXIT_OK
        root, sections = group.first_level_sections(word.letters)
        print(f"root: {format_perm(root)}")
        for i, s in enumerate(sections):
            print(f"section {i + 1}: {group.format_word(s, group.shifted())}")
        return EXIT_OK

    if cmd == "trivial":
        return EXIT_OK if decision.is_trivial(group, args.word) else EXIT_FALSE

    if cmd == "equal":
        return EXIT_OK if decision.equal(group, args.word1, args.word2) else EXIT_FALSE

    if cmd == "order":
        result = decision.order(group, args.word, bound=args.bound)
        print(result)
        return EXIT_RESOURCE if result.kind == "unknown" else EXIT_OK

    if cmd == "conj":
        if group.name != "Gg":
            raise ValueError("the conjugacy algorithm is specific to Gg")
        qs = q_set(group.parse_word(args.word1), group.parse_word(args.word2))
        if qs:
            print(f"conjugate; Q(g,h) = {qs}")
            return EXIT_OK
        print("not conjugate")
        return EXIT_FALSE

    if cmd == "quotient":
        q = quotients.level_quotient(group, args.level)
        if args.order or not any((args.ranks, args.derived, args.suborbits,
                                  args.hausdorff, args.rist)):
            print(f"order: {quotients.format_order(q.order())}")
        if args.ranks:
            ranks = quotients.lower_central_ranks(group, args.level, args.ranks)
            print(f"lower central ranks: {ranks}")
        if args.derived:
            orders = quotients.derived_series_orders(q, args.derived)
            print("derived series orders: "
                  + " ".join(quotients.format_order(o) for o in orders))
        if args.suborbits:
            print(f"suborbits: {quotients.suborbit_profile(group, args.level)}")
        if args.hausdorff:
            r = quotients.hausdorff_ratio(group, args.level)
            print(f"hausdorff ratio: {r:.6f}")
        if args.rist:
            v = parse_vertex(args.rist)
            handle = quotients.rigid_stabilizer(group, args.level, v)
            print(f"rigid stabilizer index: {handle.index()}")
        return EXIT_OK

    if cmd == "schreier":
        if args.substitution:
            graph = schreier.substitutional_expand(group.name, args.level)
        else:
            graph = schreier.schreier_graph(group, args.level)
        print(f"vertices: {len(graph.vertices)}, edges: {len(graph.edges)}, "
              f"basepoint: {format_vertex(graph.basepoint)}")
        if args.growth or args.diameter:
            diameter, series = graph.growth()
            if args.diameter:
                print(f"diameter: {diameter}")
            if args.growth:
                print(f"growth: {series}")
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(graph.to_dot())
            print(f"wrote {args.dot}")
        return EXIT_OK

    if cmd == "spectrum":
        report = spectra.spectral_report(group, args.level)
        if args.closed_form and report.max_deviation is not None:
            print(f"max deviation from closed form: {report.max_deviation:.3e}")
        values = report.eigenvalues
        print(f"{len(values)} eigenvalues in [{values[0]:.6f}, {values[-1]:.6f}]")
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(report.to_csv())
            print(f"wrote {args.csv}")
        return EXIT_OK

    if cmd == "ball":
        elements = decision.ball(group, args.radius)
        print(f"gamma({args.radius}) = {len(elements)}")
        if args.list:
            for w in elements:
                print(group.format_word(w))
        return EXIT_OK

    if cmd == "torsion-growth":
        value = decision.torsion_growth(group, args.radius)
        print(f"pi({args.radius}) = {value}")
        return EXIT_OK

    raise ValueError(f"unhandled command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
