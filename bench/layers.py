"""Hook targets and per-layer metrics of the traced run.

Each metric names the end-to-end figure it is expected to move (see
README.md).  Time metrics ending in ``_s`` are the total time inside
the named function, counted once per outermost call; ``search_s`` and
``document_s`` are self times, the part of the phase that no other
hook covers.  Counts are calls per pass.
"""

from __future__ import annotations

import gc
import importlib

from spans import COUNT, GEN, SPAN, Hook, Metric, ratio

MEMO_CAP = 500000        # words.SurfaceGroup memo dicts stop filling here


def _size(stat, args, result):
    stat.extra["size"] = len(result)


def _found(stat, args, result):
    stat.add("found", len(result))


def _solve(stat, args, result):
    rows = args[0]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    stat.extra["rows"] = max(stat.extra.get("rows", 0), n_rows)
    stat.extra["cols"] = max(stat.extra.get("cols", 0), n_cols)
    stat.add("nonzeros", sum(1 for row in rows for v in row if v))
    stat.add("cells", n_rows * n_cols)
    stat.add("solved", result is not None)


def _linked(stat, args, result):
    stat.add("linked", bool(result))


E, A, W = "sft_lab.enumerator", "sft_lab.algebra", "sft_lab.words"
C = "sft_lab.cobracket"

HOOKS = [
    Hook("enum.menu", E, "component_menu", SPAN, _size),
    Hook("enum.search", E, "enumerate_buildings", SPAN, _found),
    Hook("enum.multiset", E, "_multiset", COUNT),
    Hook("enum.matchings", E, "_level_matchings", GEN),
    Hook("enum.connected", E, "_connected", COUNT),
    Hook("enum.canonical", E, "_canonical", SPAN),
    Hook("enum.pairing", E, "pair_cancellation", SPAN),
    Hook("enum.document", E, "classification_document", SPAN),
    Hook("jsonio.dumps", "sft_lab.jsonio", "canonical_dumps", SPAN),
    Hook("alg.solve", A, "solve_exact", SPAN, _solve),
    Hook("alg.basis", A, "basis_monomials", SPAN, _found),
    Hook("alg.apply_D", A, "apply_D_exact", SPAN),
    Hook("alg.multiply", A, "multiply_generator", COUNT),
    Hook("alg.derive", A, "derive_generator", COUNT),
    Hook("alg.square", A, "check_square_zero", SPAN),
    Hook("words.canonical_class", W, "SurfaceGroup.canonical_class", SPAN),
    Hook("words.canonical_element", W, "SurfaceGroup.canonical_element",
         SPAN),
    Hook("words.reduce_word", W, "SurfaceGroup.reduce_word", SPAN),
    Hook("words.ray_normalize", W, "_normalize_ray_cached", SPAN),
    Hook("words.segments", W, "SurfaceGroup._relator_segments", COUNT),
    Hook("cob.linked", W, "BoundaryOrder.linked", SPAN, _linked),
    Hook("cob.orbit_key", C, "StringTopology._pair_orbit_key", SPAN),
    Hook("cob.self_intersection", C,
         "StringTopology.self_intersection_pairs", SPAN, _found),
]


def _calls(hook):
    return lambda s, o: s[hook].calls


def _total(hook):
    return lambda s, o: s[hook].total


def _self(hook):
    return lambda s, o: s[hook].self_time


def _extra(hook, key):
    return lambda s, o: s[hook].extra.get(key, 0)


def _ray_misses(stats, originals):
    return originals["words.ray_normalize"].cache_info().misses


def _memo_dicts():
    """Memo dicts of every live SurfaceGroup, wherever it was created."""
    group_type = importlib.import_module(W).SurfaceGroup
    for group in gc.get_objects():
        if not isinstance(group, group_type):
            continue
        for attr, value in vars(group).items():
            if attr.startswith("_memo_") and isinstance(value, dict):
                yield value


def _cache_entries(stats, originals):
    memo = sum(len(d) for d in _memo_dicts())
    return memo + originals["words.ray_normalize"].cache_info().currsize


def _cap_hits(stats, originals):
    return sum(1 for d in _memo_dicts() if len(d) >= MEMO_CAP)


def m(name, unit, needs, value):
    return Metric(name, unit, tuple(needs), value)


COUNT_U, SEC, RATIO = "count", "s", "ratio"

METRICS = [
    # enumerator: classify wall_s; single-pass search moves case_s.0_1
    m("enumerator.menu_s", SEC, ["enum.menu"], _total("enum.menu")),
    m("enumerator.menu_components", COUNT_U, ["enum.menu"],
      _extra("enum.menu", "size")),
    m("enumerator.search_s", SEC, ["enum.search"], _self("enum.search")),
    m("enumerator.multiset_calls", COUNT_U, ["enum.multiset"],
      _calls("enum.multiset")),
    m("enumerator.matchings_calls", COUNT_U, ["enum.matchings"],
      _calls("enum.matchings")),
    m("enumerator.matchings_s", SEC, ["enum.matchings"],
      _total("enum.matchings")),
    m("enumerator.connected_checks", COUNT_U, ["enum.connected"],
      _calls("enum.connected")),
    m("enumerator.canonicalized", COUNT_U, ["enum.canonical"],
      _calls("enum.canonical")),
    m("enumerator.canonical_s", SEC, ["enum.canonical"],
      _total("enum.canonical")),
    m("enumerator.buildings", COUNT_U, ["enum.search"],
      _extra("enum.search", "found")),
    m("enumerator.dedup_ratio", RATIO, ["enum.search", "enum.canonical"],
      lambda s, o: ratio(s["enum.search"].extra.get("found", 0),
                         s["enum.canonical"].calls)),
    m("enumerator.pairing_s", SEC, ["enum.pairing"],
      _total("enum.pairing")),
    m("enumerator.document_s", SEC, ["enum.document"],
      _self("enum.document")),
    m("enumerator.document_failures", COUNT_U, ["enum.document"],
      lambda s, o: s["enum.document"].errors),
    m("jsonio.dumps_s", SEC, ["jsonio.dumps"], _total("jsonio.dumps")),
    # algebra solver: torsion wall_s and item_p90_s
    m("algebra.solve_calls", COUNT_U, ["alg.solve"], _calls("alg.solve")),
    m("algebra.solve_s", SEC, ["alg.solve"], _total("alg.solve")),
    m("algebra.solve_rows", COUNT_U, ["alg.solve"],
      _extra("alg.solve", "rows")),
    m("algebra.solve_cols", COUNT_U, ["alg.solve"],
      _extra("alg.solve", "cols")),
    m("algebra.solve_fill", RATIO, ["alg.solve"],
      lambda s, o: ratio(s["alg.solve"].extra.get("nonzeros", 0),
                         s["alg.solve"].extra.get("cells", 0))),
    m("algebra.certified_ratio", RATIO, ["alg.solve"],
      lambda s, o: ratio(s["alg.solve"].extra.get("solved", 0),
                         s["alg.solve"].calls)),
    # algebra differential: square_zero wall_s
    m("algebra.basis_monomials", COUNT_U, ["alg.basis"],
      _extra("alg.basis", "found")),
    m("algebra.basis_s", SEC, ["alg.basis"], _total("alg.basis")),
    m("algebra.apply_D_calls", COUNT_U, ["alg.apply_D"],
      _calls("alg.apply_D")),
    m("algebra.apply_D_s", SEC, ["alg.apply_D"], _total("alg.apply_D")),
    m("algebra.koszul_ops", COUNT_U, ["alg.multiply", "alg.derive"],
      lambda s, o: s["alg.multiply"].calls + s["alg.derive"].calls),
    m("algebra.square_check_s", SEC, ["alg.square"], _total("alg.square")),
    # words: loops item_p50_s, wall_s, peak_rss_mb
    m("words.canonical_class_calls", COUNT_U, ["words.canonical_class"],
      _calls("words.canonical_class")),
    m("words.canonical_class_s", SEC, ["words.canonical_class"],
      _total("words.canonical_class")),
    m("words.canonical_element_calls", COUNT_U, ["words.canonical_element"],
      _calls("words.canonical_element")),
    m("words.canonical_element_s", SEC, ["words.canonical_element"],
      _total("words.canonical_element")),
    m("words.reduce_word_calls", COUNT_U, ["words.reduce_word"],
      _calls("words.reduce_word")),
    m("words.reduce_word_s", SEC, ["words.reduce_word"],
      _total("words.reduce_word")),
    m("words.ray_normalize_calls", COUNT_U, ["words.ray_normalize"],
      _calls("words.ray_normalize")),
    m("words.ray_normalize_misses", COUNT_U, ["words.ray_normalize"],
      _ray_misses),
    m("words.ray_normalize_s", SEC, ["words.ray_normalize"],
      _total("words.ray_normalize")),
    m("words.segment_table_builds", COUNT_U, ["words.segments"],
      _calls("words.segments")),
    m("words.cache_entries", COUNT_U, ["words.ray_normalize"],
      _cache_entries),
    m("words.cache_cap_hits", COUNT_U, [], _cap_hits),
    # cobracket: loops item_p90_s and wall_s
    m("cobracket.rotation_pairs", COUNT_U, ["cob.linked"],
      _calls("cob.linked")),
    m("cobracket.linked_pairs", COUNT_U, ["cob.linked"],
      _extra("cob.linked", "linked")),
    m("cobracket.linked_share", RATIO, ["cob.linked"],
      lambda s, o: ratio(s["cob.linked"].extra.get("linked", 0),
                         s["cob.linked"].calls)),
    m("cobracket.linking_s", SEC, ["cob.linked"], _total("cob.linked")),
    m("cobracket.orbit_key_calls", COUNT_U, ["cob.orbit_key"],
      _calls("cob.orbit_key")),
    m("cobracket.orbit_key_s", SEC, ["cob.orbit_key"],
      _total("cob.orbit_key")),
    m("cobracket.crossings", COUNT_U, ["cob.self_intersection"],
      _extra("cob.self_intersection", "found")),
    m("cobracket.self_intersection_s", SEC, ["cob.self_intersection"],
      _total("cob.self_intersection")),
]
