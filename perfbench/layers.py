"""What the traced run wraps in each layer, and the per-layer metrics.

Every ``*_s`` metric is a self time (span duration minus child spans).
Counts come from the wrappers; ``*_entries``, ``*_states`` and
``*_nodes`` come from the end-of-run snapshot, a read-only count of the
library's caches taken after the timed phase.
"""

from __future__ import annotations

from branchgroups import (automorphisms, conjugacy, decision, groups,
                          presentations, quotients, schreier, spectra)

# name -> unit, in the order the traced run prints them
PER_LAYER = {
    "groups.reduce_calls": "count",
    "groups.reduce_self_s": "s",
    "groups.cyclic_reduce_self_s": "s",
    "groups.first_level_sections_calls": "count",
    "groups.first_level_sections_self_s": "s",
    "decision.is_trivial_calls": "count",
    "decision.is_trivial_self_s": "s",
    "decision.order_calls": "count",
    "decision.order_self_s": "s",
    "decision.memo_trivial_entries": "count",
    "decision.memo_order_entries": "count",
    "decision.sections_per_trivial": "ratio",
    "automorphisms.interned_states": "count",
    "automorphisms.intern_word_calls": "count",
    "automorphisms.intern_word_self_s": "s",
    "automorphisms.act_calls": "count",
    "automorphisms.act_self_s": "s",
    "quotients.level_quotient_calls": "count",
    "quotients.level_quotient_self_s": "s",
    "quotients.chain_builds": "count",
    "quotients.chain_build_s": "s",
    "quotients.sift_calls": "count",
    "quotients.sift_self_s": "s",
    "quotients.strong_generators": "count",
    "quotients.base_length": "count",
    "quotients.normal_closure_s": "s",
    "quotients.image_cache_entries": "count",
    "quotients.image_cache_bytes": "bytes",
    "quotients.contains_calls": "count",
    "conjugacy.coset_lookups": "count",
    "conjugacy.contains_per_coset": "ratio",
    "conjugacy.fixpoint_nodes": "count",
    "conjugacy.ensure_self_s": "s",
    "conjugacy.solve_self_s": "s",
    "schreier.graph_build_s": "s",
    "schreier.growth_s": "s",
    "schreier.bfs_calls": "count",
    "schreier.adjacency_builds": "count",
    "spectra.delta_build_s": "s",
    "spectra.eigvalsh_s": "s",
    "spectra.matrix_bytes": "bytes",
    "presentations.relators": "count",
    "presentations.expand_s": "s",
    "presentations.translate_s": "s",
}


def _chain_built(tracer, chain):
    tracer.add("base_length", len(chain.levels))
    tracer.add("strong_generators", len(chain.strong_generators()))


def _closure_built(tracer, handle):
    _chain_built(tracer, handle.chain())


def _delta_built(tracer, matrix):
    tracer.add("matrix_bytes", matrix.shape[0] * matrix.shape[1] * matrix.itemsize)


def _expanded(tracer, relators):
    tracer.add("relators", len(relators))


def targets():
    """(span name, owner, attribute, wrapper options) for every wrapped call."""
    G, S, Q = groups.GroupDefinition, schreier.SchreierGraph, quotients.StabilizerChain
    C = conjugacy.GgConjugacy
    return [
        ("groups.reduce", G, "reduce", {}),
        ("groups.cyclic_reduce", G, "cyclic_reduce", {}),
        ("groups.first_level_sections", G, "first_level_sections", {}),
        ("decision.is_trivial", decision, "is_trivial", {}),
        ("decision.order", decision, "order", {}),
        ("automorphisms.intern_word", automorphisms, "intern_word", {}),
        ("automorphisms.act", automorphisms.TreeAutomorphism, "act", {}),
        ("quotients.level_quotient", quotients, "level_quotient", {}),
        ("quotients.chain_build", quotients, "chain_from_generators",
         {"on_result": _chain_built}),
        ("quotients.normal_closure", quotients, "normal_closure",
         {"on_result": _closure_built}),
        ("quotients.sift", Q, "sift", {}),
        ("quotients.contains", Q, "contains", {}),
        ("conjugacy.coset_of_perm", C, "coset_of_perm", {}),
        ("conjugacy.ensure", C, "ensure", {}),
        ("conjugacy.solve", C, "solve", {}),
        ("schreier.schreier_graph", schreier, "schreier_graph", {}),
        ("schreier.substitutional_expand", schreier, "substitutional_expand", {}),
        ("schreier.growth", S, "growth", {}),
        ("schreier.distances_from", S, "distances_from", {"span": False}),
        ("schreier.adjacency", S, "adjacency", {"span": False}),
        ("spectra.delta_matrix", spectra, "delta_matrix", {"on_result": _delta_built}),
        ("spectra.spectrum_eigenvalues", spectra, "spectrum_eigenvalues", {}),
        ("presentations.expand", presentations.EndomorphicPresentation, "expand",
         {"on_result": _expanded}),
        ("presentations.translate", presentations, "translate", {}),
    ]


def install(tracer):
    ids = tracer.install(targets())
    tracer.count_inside(ids["groups.first_level_sections"], ids["decision.is_trivial"],
                        "sections_in_trivial")
    tracer.count_inside(ids["quotients.contains"], ids["conjugacy.coset_of_perm"],
                        "contains_in_coset")
    return ids


def snapshot(held_groups):
    """Read-only sizes of the library's process-global caches.

    ``held_groups`` are the groups the workload built itself (the
    built-in cache is read directly); memo tables live on each group's
    shift-0 member.
    """
    roots = {}
    for g in list(groups._BUILTIN_CACHE.values()) + list(held_groups):
        roots[id(g.root_def())] = g.root_def()
    ctx = conjugacy.GgConjugacy._instance
    held_chain = ctx.quotient._chain if ctx is not None else None
    return {
        "interned_states": len(automorphisms._INTERN),
        "image_cache_entries": len(quotients._IMAGE_CACHE),
        "image_cache_bytes": sum(a.nbytes for a in quotients._IMAGE_CACHE.values()),
        "memo_trivial_entries": sum(len(g._memo_trivial) for g in roots.values()),
        "memo_order_entries": sum(len(g._memo_order) for g in roots.values()),
        "fixpoint_nodes": len(ctx.values) if ctx is not None else 0,
        "held_chain_base_length": len(held_chain.levels) if held_chain else 0,
        "held_chain_strong_generators":
            len(held_chain.strong_generators()) if held_chain else 0,
    }


def per_layer_metrics(tracer, ids, snap):
    def calls(name):
        return tracer.calls[ids[name]]

    def self_s(*names):
        return sum(tracer.self_s[ids[n]] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "groups.reduce_calls": calls("groups.reduce"),
        "groups.reduce_self_s": self_s("groups.reduce"),
        "groups.cyclic_reduce_self_s": self_s("groups.cyclic_reduce"),
        "groups.first_level_sections_calls": calls("groups.first_level_sections"),
        "groups.first_level_sections_self_s": self_s("groups.first_level_sections"),
        "decision.is_trivial_calls": calls("decision.is_trivial"),
        "decision.is_trivial_self_s": self_s("decision.is_trivial"),
        "decision.order_calls": calls("decision.order"),
        "decision.order_self_s": self_s("decision.order"),
        "decision.memo_trivial_entries": snap["memo_trivial_entries"],
        "decision.memo_order_entries": snap["memo_order_entries"],
        "decision.sections_per_trivial": ratio(tracer.pairs["sections_in_trivial"],
                                               calls("decision.is_trivial")),
        "automorphisms.interned_states": snap["interned_states"],
        "automorphisms.intern_word_calls": calls("automorphisms.intern_word"),
        "automorphisms.intern_word_self_s": self_s("automorphisms.intern_word"),
        "automorphisms.act_calls": calls("automorphisms.act"),
        "automorphisms.act_self_s": self_s("automorphisms.act"),
        "quotients.level_quotient_calls": calls("quotients.level_quotient"),
        "quotients.level_quotient_self_s": self_s("quotients.level_quotient"),
        "quotients.chain_builds": calls("quotients.chain_build"),
        "quotients.chain_build_s": self_s("quotients.chain_build"),
        "quotients.sift_calls": calls("quotients.sift"),
        "quotients.sift_self_s": self_s("quotients.sift"),
        "quotients.strong_generators": tracer.totals.get("strong_generators", 0),
        "quotients.base_length": tracer.totals.get("base_length", 0),
        "quotients.normal_closure_s": self_s("quotients.normal_closure"),
        "quotients.image_cache_entries": snap["image_cache_entries"],
        "quotients.image_cache_bytes": snap["image_cache_bytes"],
        "quotients.contains_calls": calls("quotients.contains"),
        "conjugacy.coset_lookups": calls("conjugacy.coset_of_perm"),
        "conjugacy.contains_per_coset": ratio(tracer.pairs["contains_in_coset"],
                                              calls("conjugacy.coset_of_perm")),
        "conjugacy.fixpoint_nodes": snap["fixpoint_nodes"],
        "conjugacy.ensure_self_s": self_s("conjugacy.ensure"),
        "conjugacy.solve_self_s": self_s("conjugacy.solve"),
        "schreier.graph_build_s": self_s("schreier.schreier_graph",
                                         "schreier.substitutional_expand"),
        "schreier.growth_s": self_s("schreier.growth"),
        "schreier.bfs_calls": calls("schreier.distances_from"),
        "schreier.adjacency_builds": calls("schreier.adjacency"),
        "spectra.delta_build_s": self_s("spectra.delta_matrix"),
        "spectra.eigvalsh_s": self_s("spectra.spectrum_eigenvalues"),
        "spectra.matrix_bytes": tracer.totals.get("matrix_bytes", 0),
        "presentations.relators": tracer.totals.get("relators", 0),
        "presentations.expand_s": self_s("presentations.expand"),
        "presentations.translate_s": self_s("presentations.translate"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
