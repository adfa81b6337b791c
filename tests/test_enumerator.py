import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from sft_lab import enumerator
from sft_lab.enumerator import (Building, CASE_CYLINDER, CASE_TORUS,
                                Component, check_constraints,
                                classification_document, component_menu,
                                enumerate_buildings, is_sporadic,
                                model_count_table_entries, obstruction_data,
                                pair_cancellation, sporadic_signature, twin)
from sft_lab.errors import ConfigurationError, ConsistencyError, NoTwinError
from sft_lab.indexcalc import (SIGMA_HYP_LEFT, SIGMA_MIN, OrbitType,
                               normal_index, regularity_transfer)
from sft_lab.jsonio import canonical_dumps
from sft_lab.model import PAGE_MAX_MIN, Leaf, paper_model

CFG = paper_model()
CASE1 = enumerate_buildings(CFG, 0, 1)
CASE2 = enumerate_buildings(CFG, 0, 2)
CASE3 = enumerate_buildings(CFG, 1, 1)


class TestCounts:
    def test_plane_case_is_empty(self):
        assert CASE1 == []

    def test_cylinder_case_has_six(self):
        assert len(CASE2) == 6

    def test_cylinder_split_one_left_five_right(self):
        left = [b for b in CASE2 if b.components[0].side == "left"]
        assert len(left) == 1
        assert len(CASE2) - len(left) == 5

    def test_torus_case_has_twenty_nine(self):
        assert len(CASE3) == 29

    def test_total_is_thirty_five(self):
        assert len(CASE1) + len(CASE2) + len(CASE3) == 35

    def test_case_labels(self):
        assert all(b.case_label() == CASE_CYLINDER for b in CASE2)
        assert all(b.case_label() == CASE_TORUS for b in CASE3)

    def test_genus_plus_ends_above_two_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_buildings(CFG, 1, 2)


def _euler(c) -> int:
    return 2 - 2 * c.genus - len(c.pos) - len(c.neg)


class TestAudits:
    def test_total_index_recomputed_is_one(self):
        for b in CASE2 + CASE3:
            assert b.total_index == 1

    def test_constraints_clean(self):
        for b in CASE2 + CASE3:
            ok, violation = check_constraints(CFG, b)
            assert ok, violation

    def test_action_budget(self):
        for b in CASE2 + CASE3:
            total = sum((o.action(CFG) for o in b.top_ends), Fraction(0))
            assert total <= CFG.action_threshold

    def test_left_configuration_matches_flow_line_picture(self):
        (left,) = [b for b in CASE2 if b.components[0].side == "left"]
        assert len(left.levels) == 2
        kinds = sorted(c.leaf.kind for c in left.levels[1])
        assert kinds == ["cyl", "flow1"]

    def test_main_components_have_rank_one_obstruction(self):
        for b in CASE2:
            audits = obstruction_data(b)
            mains = [a for a in audits if "page(" in a.component]
            assert len(mains) == 1
            assert mains[0].rank == 1 and mains[0].normal_index == 0

    def test_transfer_gives_rank_zero(self):
        # regularity transfers, so N is onto and dim ker N = ind_N, above
        # the index drop 1 of the leaf
        audits = {a.component: a for b in CASE3 for a in obstruction_data(b)}
        for label in ("max;s+max;s [g0 page(max:hyp-)]",
                      "min+min [g0 page(hyp+:min)]"):
            a = audits[label]
            assert (a.normal_index, a.dim_ker, a.rank, a.regular) \
                == (2, 2, 0, True)

    def test_leaf_constant_above_normal_index_raises(self):
        # a curve in a leaf of index drop 2 whose normal index is 1, and
        # whose regularity would transfer: dim ker N cannot be both
        comp = Component(leaf=Leaf("page", PAGE_MAX_MIN), genus=0,
                         pos=(OrbitType(SIGMA_MIN),),
                         neg=(OrbitType(SIGMA_HYP_LEFT),))
        assert normal_index(comp.profile) == 1
        assert regularity_transfer(comp.profile, True)
        with pytest.raises(ConsistencyError, match="outside"):
            obstruction_data(Building(levels=((comp,),), edges=()))

    def test_genus_audit(self):
        assert all(b.arithmetic_genus == 0 for b in CASE2)
        assert all(b.arithmetic_genus == 1 for b in CASE3)

    def test_euler_characteristic_adds_up(self):
        for b in CASE2 + CASE3:
            assert sum(-_euler(c) for c in b.components) \
                == 2 * b.arithmetic_genus - 2 + b.positive_end_count

    def test_bottom_level_is_one_component(self):
        assert all(len(b.levels[0]) == 1 for b in CASE2 + CASE3)

    def test_levels_are_at_most_two_wide(self):
        assert all(len(level) <= 2 for b in CASE2 + CASE3
                   for level in b.levels)


class TestTwin:
    def test_involution(self):
        for b in CASE2 + [b for b in CASE3 if b.twistable]:
            assert twin(twin(b)).key() == b.key()

    def test_twin_flips_every_twistable_leaf(self):
        b = CASE2[0]
        flipped = twin(b)
        for lv_a, lv_b in zip(b.levels, flipped.levels):
            for c_a, c_b in zip(lv_a, lv_b):
                if c_a.leaf.twistable:
                    assert c_b.leaf.flavor == 1 - c_a.leaf.flavor
                else:
                    assert c_b.leaf == c_a.leaf

    def test_sporadic_has_no_twin(self):
        with pytest.raises(NoTwinError):
            twin(sporadic_signature())


class TestPairing:
    def test_all_thirty_five_leave_one_unpaired(self):
        pairing = pair_cancellation(CASE2 + CASE3)
        assert len(pairing.unpaired) == 1
        assert is_sporadic(pairing.unpaired[0])

    def test_unpaired_matches_signature(self):
        pairing = pair_cancellation(CASE3)
        (lone,) = pairing.unpaired
        assert lone.key() == sporadic_signature().key()

    def test_cylinders_fully_paired(self):
        pairing = pair_cancellation(CASE2)
        assert pairing.unpaired == ()
        assert len(pairing.pairs) == len(CASE2)

    def test_sporadic_alone(self):
        pairing = pair_cancellation([sporadic_signature()])
        assert pairing.pairs == () and len(pairing.unpaired) == 1

    def test_twins_distinct_convention(self):
        # both flavors are listed, and the families are paired
        doc = classification_document(CFG, 0, 2, "twins-distinct")
        assert doc["summary"] == {"configurations": 12, "pairs": 6,
                                  "unpaired": 0, "sporadic": 0}
        assert _sha256(canonical_dumps(doc)) == (
            "dfbc56897fd9bc1a82e9e82777752c93"
            "974a281679cbcb2634bc3761558fca4f")
        assert _sha256(canonical_dumps(classification_document(
            CFG, 0, 1, "twins-distinct"))) == (
            "b3b4351daab2b9a6bae2ac0216a5fff1"
            "8ee4d565f5e5f76da18b0c83fa840223")

    def test_unknown_convention_raises(self):
        with pytest.raises(ConfigurationError, match="unknown pairing"):
            classification_document(CFG, 0, 2, "twins-merged")


class TestSporadicSignature:
    def test_shape(self):
        lone = sporadic_signature()
        assert lone.arithmetic_genus == 1
        assert lone.positive_end_count == 1
        (comp,) = lone.components
        assert comp.leaf.kind == "cyl" and comp.leaf.name == "min"
        assert comp.profile.pos == (1, 0, 0)

    def test_normal_index_vanishes(self):
        from sft_lab.indexcalc import normal_index
        (comp,) = sporadic_signature().components
        assert normal_index(comp.profile) == 0

    def test_enumerated(self):
        assert any(is_sporadic(b) for b in CASE3)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _keys_digest(buildings) -> str:
    return _sha256(repr([b.key() for b in buildings]))


class TestDeterminism:
    def test_two_runs_identical(self):
        enumerator._search.cache_clear()     # search again, not the memo
        again = enumerate_buildings(CFG, 0, 2)
        assert [b.key() for b in again] == [b.key() for b in CASE2]

    def test_returned_list_is_a_copy(self):
        first = enumerate_buildings(CFG, 0, 2)
        first.clear()
        first.append(sporadic_signature())
        assert [b.key() for b in enumerate_buildings(CFG, 0, 2)] \
            == [b.key() for b in CASE2]

    def test_documents_byte_identical_to_reference(self):
        # reference digests of the per-case search this one replaced
        assert _sha256(canonical_dumps(classification_document(
            CFG, 0, 1))) == ("ea07ab0d1a0e07708feea44d0212f864"
                             "937237ce79fece43a6a8a55eec709991")
        assert _sha256(canonical_dumps(classification_document(
            CFG, 0, 2))) == ("ba0a23be9b0c2b89f6939df36ddcd508"
                             "87543c86c804ecf9d33a93a16085dd27")
        assert _keys_digest(CASE3) == ("4c06f98747941c7f4d3e5c767a14a6b3"
                                       "cc81eee1a283bfb4ac5c328fda909725")

    def test_torus_documents_pinned(self):
        doc = classification_document(CFG, 1, 1)
        assert doc["summary"] == {"configurations": 29, "pairs": 28,
                                  "unpaired": 1, "sporadic": 1}
        assert _sha256(canonical_dumps(doc)) == (
            "06fd1501a1eb2c964b33d2350c9c85fe"
            "ba7a48ca9c37532b0f4099d9fe315e6b")
        assert _sha256(canonical_dumps(classification_document(
            CFG, 1, 1, "twins-distinct"))) == (
            "c7437736bf8a6400c0136bbba83a7101"
            "878d2b12783b2bda34249b1200cc26f1")

    @pytest.mark.parametrize("overrides, expected", [
        (dict(max_levels=2), [
            (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5"
                "ed12ab4d8e11ba873c2f11161202b945"),
            (6, "4a45031436f56ea8a7c0fa403be1b36f"
                "f887c16d6b56b3db74bb5301abf435d1"),
            (20, "e20eac0c579cdc8f261690d450e2259d"
                 "0d79a119fd87e059ef148d987a36b69e")]),
        (dict(cover_threshold=1), [
            (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5"
                "ed12ab4d8e11ba873c2f11161202b945"),
            (6, "4a45031436f56ea8a7c0fa403be1b36f"
                "f887c16d6b56b3db74bb5301abf435d1"),
            (15, "da1312013816fa08f172b545a3d975a3"
                 "ed929c5d8cfe34664a0bebe73873bc5a")]),
        (dict(flow_cover_attach_even_only=False, max_levels=2), [
            (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5"
                "ed12ab4d8e11ba873c2f11161202b945"),
            (7, "d868a5a8b10081d0288d28656ba8d00b"
                "d1bb639690107074dc56b65b36d351f3"),
            (24, "7beb197b3e303160475102f02fb5bf3b"
                 "0f25d55a38c894d7d63fcbff9c0e0458")]),
        (dict(max_levels=4), [
            (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5"
                "ed12ab4d8e11ba873c2f11161202b945"),
            (6, "4a45031436f56ea8a7c0fa403be1b36f"
                "f887c16d6b56b3db74bb5301abf435d1"),
            (33, "41309d5ffbd9c9b1ff2ebb79e4a519b8"
                 "42cf04f1beb86c777f910efa0783ee4e")]),
    ])
    def test_other_configs_match_reference(self, overrides, expected):
        # counts and key digests of the per-case search, case by case
        cfg = paper_model(**overrides)
        got = [enumerate_buildings(cfg, g, r)
               for g, r in ((0, 1), (0, 2), (1, 1))]
        assert [(len(bs), _keys_digest(bs)) for bs in got] == expected

    def test_search_stops_by_itself(self):
        # the index bounds the levels: from 4 levels up the count is the
        # same, 33 configurations of at most 4 levels
        cfg = paper_model(max_levels=10)
        torus = enumerate_buildings(cfg, 1, 1)
        assert len(torus) == 33
        assert _keys_digest(torus) == ("41309d5ffbd9c9b1ff2ebb79e4a519b8"
                                       "42cf04f1beb86c777f910efa0783ee4e")
        assert max(len(b.levels) for b in torus) == 4

    def test_no_partial_configuration_exceeds_five_levels(self,
                                                          monkeypatch):
        # the level bound proved in _search; a depth of 6 leaves room to
        # break it and keeps a broken search finite
        depths = []
        matchings = enumerator._level_matchings

        def recording(lower_av, upper_need, level_idx):
            depths.append(level_idx + 2)     # levels once this one is on
            return matchings(lower_av, upper_need, level_idx)

        monkeypatch.setattr(enumerator, "_level_matchings", recording)
        enumerator._search.cache_clear()
        try:
            enumerator._search(paper_model(max_levels=6))
        finally:
            enumerator._search.cache_clear()
        assert max(depths) <= 5

    def test_broken_menu_fact_raises(self, monkeypatch):
        # a non-trivial upper cylinder of index 0 breaks the index bound
        menu = component_menu(CFG)
        broken = [replace(c, trivial=False) if c.trivial else c
                  for c in menu]
        monkeypatch.setattr(enumerator, "component_menu",
                            lambda cfg: broken)
        enumerator._search.cache_clear()
        try:
            with pytest.raises(ConsistencyError, match="upper cylinder"):
                enumerate_buildings(CFG, 0, 2)
        finally:
            enumerator._search.cache_clear()

    def test_document_stable(self):
        doc1 = classification_document(CFG, 0, 2)
        doc2 = classification_document(CFG, 0, 2)
        assert doc1 == doc2
        assert doc1["summary"] == {"configurations": 6, "pairs": 6,
                                   "unpaired": 0, "sporadic": 0}


class TestMenuFacts:
    def test_no_planes_in_menu(self):
        for comp in component_menu(CFG):
            assert comp.genus > 0 or len(comp.pos) + len(comp.neg) > 1

    def test_euler_characteristic_is_zero_or_minus_one(self):
        assert {_euler(c) for c in component_menu(CFG)} == {0, -1}

    def test_no_crossing_components(self):
        for comp in component_menu(CFG):
            assert len({o.side for o in comp.pos + comp.neg}) == 1

    def test_action_units_must_be_positive(self):
        # the action threshold cuts the menu only when every action is positive
        with pytest.raises(ConfigurationError):
            paper_model(right_action_unit=Fraction(0))

    def test_negative_energy_components(self):
        # Stokes gives E = A(positive) - A(negative) >= 0; the action
        # model gives these ten left pants E < 0
        def energy(c):
            return (sum((o.action(CFG) for o in c.pos), Fraction(0))
                    - sum((o.action(CFG) for o in c.neg), Fraction(0)))

        negative = {c.label(): energy(c) for c in component_menu(CFG)
                    if energy(c) < 0}
        assert negative == {
            "min / -min,-min [g0 cyl(min)]": -1,
            "min / -min,-min^2 [g0 cyl(min)]": -2,
            "min / -min^2,-min^2 [g0 cyl(min)]": -3,
            "min^2 / -min,-min^2 [g0 cyl(min)]": -1,
            "min^2 / -min^2,-min^2 [g0 cyl(min)]": -2,
            "hyp- / -hyp-,-hyp- [g0 cyl(hyp-)]": -1,
            "hyp- / -hyp-,-hyp-^2 [g0 cyl(hyp-)]": -2,
            "hyp- / -hyp-^2,-hyp-^2 [g0 cyl(hyp-)]": -3,
            "hyp-^2 / -hyp-,-hyp-^2 [g0 cyl(hyp-)]": -1,
            "hyp-^2 / -hyp-^2,-hyp-^2 [g0 cyl(hyp-)]": -2,
        }
        holding = [b for b in CASE3
                   if any(c.label() in negative for c in b.components)]
        assert len(holding) == 4
        assert all(b.twistable for b in holding)

    def test_right_symplectization_components_are_covers(self):
        for comp in component_menu(CFG):
            if comp.side == "right" and comp.leaf.kind != "page":
                assert comp.cover_base is not None


class TestModelCountTable:
    def test_twin_rows_cancel_to_sporadic_only(self):
        rows = model_count_table_entries(CFG, Fraction(3))
        totals = {}
        for row in rows:
            key = (row["genus"], tuple(row["positive"]),
                   tuple(row["negative"]))
            totals[key] = totals.get(key, Fraction(0)) + row["value"]
        nonzero = {k: v for k, v in totals.items() if v}
        assert nonzero == {(1, ("q_min",), ()): Fraction(3)}
