"""Command-line front end and the group-definition file format.

Group files are line-oriented; '#' starts a comment:

    group <name>
    arity <m>            |  arity seq <m1> <m2> ... cycle <k>
    rooted <g> = (<cycle notation>)             # e.g. rooted a = (1 2 3)
    recursive <g> = (<entry>,...,<entry>) [<rooted name>]
        entry ::= a group word (1, products, ', ^k, [x,y], x^y) over all generators

Branching indices are at most quotients.LEVEL_DEGREE_CAP.

Exit codes: 0 success/true, 1 predicate false, 2 usage or parse error,
3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import groupby
from typing import Optional

from . import decision, presentations, quotients, schreier, spectra
from .conjugacy import q_set
from .errors import ResourceBoundExceeded
from .groups import GroupDefinition, builtin, explicit_group, parse_letters, parse_list, read_lines
from .automorphisms import format_perm, perm_from_cycles, perm_order
from .shapes import TreeShape, format_vertex, parse_vertex

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class GroupFileError(ValueError):
    """A malformed group file; an error on a line names the line."""


def parse_group_file(text: str) -> GroupDefinition:
    """Parse the group-definition DSL into an explicit-recursion group."""
    name: Optional[str] = None
    shape: Optional[TreeShape] = None
    rooted: dict = {}
    recursive: dict = {}

    def entry_word(text: str) -> list:
        """An entry as (name, exponent) pairs, each run of one name folded
        into one pair, so that explicit_group names a section such as x^2."""
        letters = parse_letters(text, (*rooted, *recursive), lambda s: (s, 1),
                                lambda x: (x[0], -x[1]),
                                lambda x: perm_order(rooted[x[0]]) if x[0] in rooted else None)
        runs = [(ref, sum(exp for _, exp in run)) for ref, run in groupby(letters, lambda x: x[0])]
        return [(ref, exp) for ref, exp in runs if exp]

    def directive(head: str, rest: str):
        nonlocal name, shape
        tokens = rest.split()
        if head == "group":
            if len(tokens) != 1:
                raise ValueError("expected: group <name>")
            name = rest
        elif head == "arity":
            if shape is not None:
                raise ValueError("arity given twice; it comes once, before the generators")
            if tokens[:1] == ["seq"]:
                indices, _, k = rest[3:].partition("cycle")
            elif len(tokens) == 1:
                indices, k = rest, "1"
            else:
                raise ValueError("expected: arity <m> or arity seq <m1> ... cycle <k>")
            try:
                seq, k = [int(t) for t in indices.split()], int(k)
            except ValueError:
                raise ValueError(f"bad arity {rest!r}")
            if not 1 <= k <= len(seq):
                raise ValueError(f"cycle length {k} out of range")
            if max(seq) > quotients.LEVEL_DEGREE_CAP:
                raise ResourceBoundExceeded(
                    f"branching index {max(seq)} is over the bound {quotients.LEVEL_DEGREE_CAP} "
                    "on the level degree (quotients.LEVEL_DEGREE_CAP)")
            shape = TreeShape(tuple(seq[:-k]), tuple(seq[-k:]))
        elif head in ("rooted", "recursive"):
            if shape is None:
                raise ValueError("arity must come before generators")
            gen_name, eq, rhs = (part.strip() for part in rest.partition("="))
            if not eq:
                raise ValueError("expected '='")
            if not gen_name.isidentifier():
                raise ValueError(f"bad generator name {gen_name!r}")
            if gen_name in rooted or gen_name in recursive:
                raise ValueError(f"duplicate generator {gen_name!r}")
            if head == "rooted":
                rooted[gen_name] = _parse_cycles(rhs, shape.branching(0))
                return None
            close = rhs.rfind(")")
            if not rhs.startswith("(") or close < 0:
                raise ValueError("expected: (<entry>, ..., <entry>) [<rooted name>]")
            m, tail = shape.branching(0), rhs[close + 1:].strip()
            recursive[gen_name] = None  # named now; its entries are read after the last line

            def finish():
                entries = parse_list(rhs[1:close], entry_word)
                if len(entries) != m:
                    raise ValueError(f"expected {m} entries, got {len(entries)}")
                if tail and tail not in rooted:
                    raise ValueError(f"unknown rooted name {tail!r}")
                recursive[gen_name] = (entries, rooted.get(tail))
            return finish
        else:
            raise ValueError(f"unknown directive {head!r}")
        return None

    read_lines(text, directive, GroupFileError)
    if name is None:
        raise GroupFileError("missing 'group <name>'")
    if shape is None:
        raise GroupFileError("missing 'arity'")
    return explicit_group(name, shape, rooted, recursive)


def _parse_cycles(rhs: str, m: int):
    if not re.fullmatch(r"(\([\d\s]*\))+", rhs):
        raise ValueError(f"bad cycle notation {rhs!r}")
    cycles = [[int(p) - 1 for p in cycle.split()] for cycle in re.findall(r"\(([^)]*)\)", rhs)]
    points = [p for cycle in cycles for p in cycle]
    if len(set(points)) < len(points) or any(not 0 <= p < m for p in points):
        raise ValueError(f"cycle points must be distinct and in 1..{m}")
    return perm_from_cycles(m, cycles)


def _is_group_file(source: str) -> bool:
    return os.path.sep in source or source.endswith(".grp") or os.path.exists(source)


def load_group(source: str) -> GroupDefinition:
    """A built-in name, or a path to a .grp definition file."""
    if _is_group_file(source):
        with open(source) as fh:
            return parse_group_file(fh.read())
    return builtin(source)


def non_negative(what: str):
    """argparse type for a level or a count: a non-negative integer."""
    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be non-negative, got {value}")
        return value

    parse.__name__ = what  # argparse names the type in "invalid <what> value"
    return parse


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
    p.add_argument("--bound", type=non_negative("bound"), default=decision.ORDER_BOUND)

    p = sub.add_parser("conj", help="conjugacy in the first Grigorchuk group")
    p.add_argument("group")
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("quotient", help="finite level quotient invariants")
    p.add_argument("group")
    p.add_argument("--level", type=non_negative("level"), required=True)
    p.add_argument("--order", action="store_true")
    p.add_argument("--ranks", type=non_negative("count"), metavar="KMAX",
                   help="log_p |gamma_k/gamma_{k+1}| for k = 1..KMAX, p the prime of "
                        "the root branching index; the F_p-rank only when the "
                        "factor is elementary abelian")
    p.add_argument("--derived", type=non_negative("count"), metavar="KMAX")
    p.add_argument("--suborbits", action="store_true")
    p.add_argument("--hausdorff", action="store_true")
    p.add_argument("--rist", metavar="VERTEX")

    p = sub.add_parser("schreier", help="Schreier graph of the level action")
    p.add_argument("group")
    p.add_argument("--level", type=non_negative("level"), required=True)
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--growth", action="store_true")
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--substitution", action="store_true",
                   help="build by substitutional rules instead of the action")

    p = sub.add_parser("spectrum", help="spectrum of the Hecke-Laplace operator")
    p.add_argument("group")
    p.add_argument("--level", type=non_negative("level"), required=True)
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--closed-form", action="store_true")

    p = sub.add_parser("present", help="expand/verify endomorphic presentations")
    group_arg = p.add_mutually_exclusive_group(required=True)
    group_arg.add_argument("--name")
    group_arg.add_argument("--file")
    p.add_argument("--depth", type=non_negative("depth"), default=2)
    p.add_argument("--verify", metavar="GROUP", nargs="?", const="auto")

    p = sub.add_parser("ball", help="ball sizes (growth values)")
    p.add_argument("group")
    p.add_argument("--radius", type=non_negative("radius"), required=True)
    p.add_argument("--list", action="store_true")

    p = sub.add_parser("torsion-growth", help="max element order on a ball")
    p.add_argument("group")
    p.add_argument("--radius", type=non_negative("radius"), required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
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
        if args.file:
            with open(args.file) as fh:
                pres, gname, amap = presentations.parse_presentation_file(fh.read())
        else:
            pres, gname, amap = presentations.presentation(args.name)
        relators = pres.expand(args.depth)

        for rel in relators:
            print(presentations.format_free_word(rel))
        if args.verify is not None:
            target = gname if args.verify == "auto" else args.verify
            if target is None:
                raise ValueError("no verification group declared; pass --verify GROUP")
            rep = presentations.verify(pres, builtin(target), args.depth, amap)
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
        if args.vertex is not None:
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
        if result.kind == "unknown":
            print(f"resource bound exceeded: no finite order up to the bound {args.bound} "
                  "(raise it with --bound)", file=sys.stderr)
            return EXIT_RESOURCE
        return EXIT_OK

    if cmd == "conj":
        # the tables are the built-in's; a file may reuse its name
        if group is not builtin("Gg"):
            if _is_group_file(args.group):
                raise ValueError(f"the conjugacy algorithm belongs to the built-in Gg; "
                                 f"{args.group} is a group file")
            raise ValueError("the conjugacy algorithm is specific to Gg")
        qs = q_set(group.parse_word(args.word1), group.parse_word(args.word2))
        if qs:
            print(f"conjugate; Q(g,h) = {qs}")
            return EXIT_OK
        print("not conjugate")
        return EXIT_FALSE

    if cmd == "quotient":
        q = quotients.level_quotient(group, args.level)
        if args.order or not any((args.ranks is not None, args.derived is not None,
                                  args.suborbits, args.hausdorff, args.rist is not None)):
            print(f"order: {quotients.format_order(q.order())}")
        if args.ranks is not None:
            ranks = quotients.lower_central_ranks(group, args.level, args.ranks)
            print(f"lower central ranks: {ranks}")
        if args.derived is not None:
            orders = quotients.derived_series_orders(q, args.derived)
            print("derived series orders: "
                  + " ".join(quotients.format_order(o) for o in orders))
        if args.suborbits:
            print(f"suborbits: {quotients.suborbit_profile(group, args.level)}")
        if args.hausdorff:
            r = quotients.hausdorff_ratio(group, args.level)
            print(f"hausdorff ratio: {r:.6f}")
        if args.rist is not None:
            v = parse_vertex(args.rist)
            handle = quotients.rigid_stabilizer(group, args.level, v)
            print(f"rigid stabilizer index: {handle.index()}")
        return EXIT_OK

    if cmd == "schreier":
        if args.substitution:
            # the rules are written for the built-ins; a file may reuse a built-in's name
            if _is_group_file(args.group):
                raise ValueError(f"substitution rules belong to the built-in groups; "
                                 f"{args.group} is a group file")
            graph = schreier.substitutional_expand(args.group, args.level)
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
        # the closed forms are written for the built-ins; a file may reuse a built-in's name
        if args.closed_form and _is_group_file(args.group):
            raise ValueError(f"closed forms belong to the built-in groups; "
                             f"{args.group} is a group file")
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
