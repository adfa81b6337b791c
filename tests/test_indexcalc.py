import itertools
from fractions import Fraction

import pytest

from sft_lab.enumerator import component_menu
from sft_lab.errors import ConfigurationError, InternalError
from sft_lab.indexcalc import (BASE_INDEX, BASE_MAX, BASE_MIN, BASE_SADDLE,
                               SIGMA_HYP_LEFT, SIGMA_HYP_RIGHT, SIGMA_INDEX,
                               SIGMA_MAX, SIGMA_MIN, OrbitType,
                               PunctureProfile, automatic_transversality,
                               fredholm_index_from_cz, gluing_base_dim,
                               kernel_bound, left_orbit, normal_index,
                               obstruction_rank, regularity_transfer,
                               right_orbit, surface_shift)
from sft_lab.model import paper_model


def brute_kernel_bound(c, G, limit=20):
    """Independent minimization over the full (k, l) grid."""
    best = None
    for k in range(0, limit + 1):
        for l in range(0, limit + 1):
            if k > G or l % 2 != 0:
                continue
            if 2 * k + l > 2 * c:
                if best is None or k + l < best:
                    best = k + l
    return best


def orbit_types(sigma_index, cover):
    """Every orbit type over a surface critical point of the given index."""
    out = []
    for sigma, idx in sorted(SIGMA_INDEX.items()):
        if idx != sigma_index:
            continue
        if sigma in (SIGMA_MIN, SIGMA_HYP_LEFT):
            out.append(OrbitType(sigma, cover=cover))
        else:
            out.extend(OrbitType(sigma, base, cover) for base in BASE_INDEX)
    return out


class TestCzShifts:
    def test_hyperbolic_no_shift(self):
        assert OrbitType(SIGMA_HYP_LEFT).cz_ambient == 0

    def test_minimum_shifts_up(self):
        assert OrbitType(SIGMA_MIN).cz_ambient == 1

    def test_shift_is_additive_on_base(self):
        o = OrbitType(SIGMA_MAX, BASE_MAX)
        assert o.cz_leaf == 1
        assert o.cz_ambient == o.cz_leaf + 1

    @pytest.mark.parametrize("base", range(-5, 6))
    @pytest.mark.parametrize("cover", [1, 2, 3])
    def test_shift_rule_full_grid(self, base, cover):
        # the shift depends on the surface critical point alone: it is
        # the same on any leaf value and for every orbit type and cover
        for idx, shift in ((0, 1), (1, 0), (2, 1)):
            assert base + surface_shift(idx) == base + shift
            for o in orbit_types(idx, cover):
                assert o.cz_ambient == o.cz_leaf + shift

    def test_cover_threshold_violation(self):
        # the menu is the one place covers are bounded: no orbit of any
        # component exceeds the model's cover threshold, and the
        # threshold is reached
        for threshold in (1, 2):
            menu = component_menu(paper_model(cover_threshold=threshold))
            covers = {o.cover for c in menu for o in c.pos + c.neg}
            assert max(covers) == threshold


class TestCzRight:
    def test_hyperbolic_base_one(self):
        o = OrbitType(SIGMA_HYP_RIGHT, BASE_SADDLE)
        assert (o.cz_ambient, o.cz_leaf) == (0, 0)

    def test_maximum_base_two(self):
        o = OrbitType(SIGMA_MAX, BASE_MAX)
        assert (o.cz_ambient, o.cz_leaf) == (2, 1)

    def test_hyperbolic_base_zero(self):
        o = OrbitType(SIGMA_HYP_RIGHT, BASE_MIN)
        assert (o.cz_ambient, o.cz_leaf) == (-1, -1)

    def test_left_orbit_rejected(self):
        # a left orbit has no base critical point, a right one needs it
        with pytest.raises(ConfigurationError):
            OrbitType(SIGMA_HYP_LEFT, BASE_SADDLE)
        with pytest.raises(ConfigurationError):
            OrbitType(SIGMA_HYP_RIGHT)
        with pytest.raises(ConfigurationError):
            right_orbit("f", 0, 1)


class TestFredholmIndex:
    def test_cylinder_two_right_hyperbolic_ends(self):
        ends = (OrbitType(SIGMA_HYP_RIGHT, BASE_SADDLE),) * 2
        assert fredholm_index_from_cz(
            2, 0, 0, [o.cz_ambient for o in ends], []) == 0

    def test_flow_line_cylinder_index_one(self):
        pos, neg = OrbitType(SIGMA_MIN), OrbitType(SIGMA_HYP_LEFT)
        assert fredholm_index_from_cz(2, 0, 0, [pos.cz_ambient],
                                      [neg.cz_ambient]) == 1

    def test_half_dim_one_cylinder(self):
        assert fredholm_index_from_cz(1, 0, 0, [0, 0], []) == 0

    def test_sign_flips_when_ends_swap(self):
        pos = [3, -1]
        neg = [2]
        plus = fredholm_index_from_cz(2, 0, 0, pos, neg)
        minus = fredholm_index_from_cz(2, 0, 0, neg, pos)
        assert plus == -minus

    def test_additive_under_concatenation(self):
        a = fredholm_index_from_cz(2, 0, 0, [1, 2], [0])
        b = fredholm_index_from_cz(2, 0, 0, [4], [1])
        both = fredholm_index_from_cz(2, 0, 0, [1, 2, 4], [0, 1])
        assert both == a + b


# (sigma index, base index or None, cover) -> (cz_ambient, cz_leaf, parity);
# the ambient and leaf values are the "M" and "W0" resolutions of the
# two-type orbit model this type replaced, the parity its default grading
CZ_PINS = [
    ((0, None, c), (1, 0, 1)) for c in (1, 2, 3)] + [
    ((1, None, c), (0, 0, 0)) for c in (1, 2, 3)] + [
    ((1, 0, c), (-1, -1, 1)) for c in (1, 2, 3)] + [
    ((1, 1, c), (0, 0, 0)) for c in (1, 2, 3)] + [
    ((1, 2, c), (1, 1, 1)) for c in (1, 2, 3)] + [
    ((2, 0, c), (0, -1, 0)) for c in (1, 2, 3)] + [
    ((2, 1, c), (1, 0, 1)) for c in (1, 2, 3)] + [
    ((2, 2, c), (2, 1, 0)) for c in (1, 2, 3)]

LEFT = {0: SIGMA_MIN, 1: SIGMA_HYP_LEFT}
RIGHT = {1: SIGMA_HYP_RIGHT, 2: SIGMA_MAX}
BASE = {0: BASE_MIN, 1: BASE_SADDLE, 2: BASE_MAX}


@pytest.mark.parametrize("point,pinned", CZ_PINS)
def test_pinned_cz_values(point, pinned):
    sigma_index, base_index, cover = point
    if base_index is None:
        o = OrbitType(LEFT[sigma_index], cover=cover)
        g = left_orbit("x", sigma_index, cover=cover)
    else:
        o = OrbitType(RIGHT[sigma_index], BASE[base_index], cover)
        g = right_orbit("x", sigma_index, base_index, cover=cover)
    assert (o.cz_ambient, o.cz_leaf, g.parity) == pinned
    assert (g.id, g.cover, g.action) == ("x", cover, Fraction(1))


class TestNormalIndex:
    def test_sporadic_profile(self):
        p = PunctureProfile(genus=1, pos=(1, 0, 0))
        assert normal_index(p) == 0

    def test_two_saddle_positive_ends(self):
        p = PunctureProfile(genus=0, pos=(0, 2, 0))
        assert normal_index(p) == 0

    def test_min_up_max_down(self):
        # both Riemann-Roch expressions evaluate to 0 here
        p = PunctureProfile(genus=0, pos=(1, 0, 0), neg=(0, 0, 1))
        assert normal_index(p) == 0

    def test_both_lines_agree_exhaustively(self):
        # ~1.7e4 profiles; agreement is enforced inside normal_index
        for g in range(4):
            for counts in itertools.product(range(4), repeat=6):
                p = PunctureProfile(genus=g, pos=counts[:3], neg=counts[3:])
                normal_index(p)


class TestAutomaticTransversality:
    def test_genus_zero_no_even_ends(self):
        p = PunctureProfile(genus=0, pos=(1, 0, 0))
        assert automatic_transversality(p, 0)

    def test_two_even_ends_fail(self):
        p = PunctureProfile(genus=0, pos=(0, 2, 0))
        assert not automatic_transversality(p, 0)

    def test_positive_genus_always_fails_at_index_zero(self):
        p = PunctureProfile(genus=1, pos=(1, 0, 0))
        assert not automatic_transversality(p, 0)

    def test_positive_genus_profiles_with_true_normal_index(self):
        for g in range(1, 4):
            for counts in itertools.product(range(5), repeat=6):
                p = PunctureProfile(genus=g, pos=counts[:3], neg=counts[3:])
                assert not automatic_transversality(p, normal_index(p))


class TestRegularityTransfer:
    def test_flow_line_cylinder(self):
        p = PunctureProfile(genus=0, pos=(1, 0, 0), neg=(0, 1, 0))
        assert regularity_transfer(p, True)

    def test_two_positive_saddle_ends(self):
        p = PunctureProfile(genus=0, pos=(0, 2, 0))
        assert not regularity_transfer(p, True)

    def test_genus_one_never_transfers(self):
        p = PunctureProfile(genus=1, pos=(1, 0, 0))
        assert not regularity_transfer(p, True)

    def test_irregular_in_leaf_never_transfers(self):
        p = PunctureProfile(genus=0, pos=(1, 0, 0))
        assert not regularity_transfer(p, False)


class TestKernelBound:
    def test_frozen_examples(self):
        assert kernel_bound(0, 0) == 2
        assert kernel_bound(-1, 0) == 0
        assert kernel_bound(0, 2) == 1

    def test_closed_form_at_large_arguments(self):
        assert kernel_bound(3, 10**9) == 4
        assert kernel_bound(10**9, 3) == 2 * 10**9 - 1

    def test_matches_brute_force_grid(self):
        for c in range(-3, 4):
            for G in range(0, 5):
                assert kernel_bound(c, G) == brute_kernel_bound(c, G)


class TestObstructionRank:
    def test_rank_one_flow_line_case(self):
        assert obstruction_rank(0, 0, 1) == 1

    def test_regular_case(self):
        assert obstruction_rank(0, 0, 0) == 0

    def test_formula(self):
        assert obstruction_rank(1, -2, 2) == 5

    def test_negative_is_an_error(self):
        with pytest.raises(ConfigurationError):
            obstruction_rank(0, 2, 1)

    def test_kernel_dim_validated(self):
        with pytest.raises(ConfigurationError):
            obstruction_rank(0, 0, 3)


class TestGluingBaseDim:
    def test_values(self):
        assert gluing_base_dim(1, 1) == 2
        assert gluing_base_dim(0, 0) == 0
        assert gluing_base_dim(1, 0) == 1

    def test_negative_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            gluing_base_dim(1, -1)


class TestOrbitSymbolInvariants:
    def test_left_orbits_noncontractible_and_base_zero(self):
        # left orbits carry no base point and a vanishing leaf index
        for sigma in (SIGMA_MIN, SIGMA_HYP_LEFT):
            for cover in (1, 2, 3):
                o = OrbitType(sigma, cover=cover)
                assert o.side == "left" and o.base is None
                assert o.cz_leaf == 0

    def test_cover_action_scaling_helper(self):
        cfg = paper_model()
        assert OrbitType(SIGMA_MIN, cover=3).action(cfg) == 3 * Fraction(1)
        g = left_orbit("g", 0, cover=3, action=Fraction(3))
        assert g.cover == 3 and g.action == 3 * Fraction(1)

    def test_right_orbit_base_index(self):
        assert OrbitType(SIGMA_HYP_RIGHT, BASE_MAX).cz_leaf == 1
        assert right_orbit("f", 1, 2).parity == 1

    def test_resolved_ambient_values(self):
        o = OrbitType(SIGMA_MAX, BASE_MAX)
        assert o.cz_ambient == 2
        assert o.cz_leaf == 1
        g = OrbitType(SIGMA_MIN)
        assert g.cz_ambient == 1
        assert g.cz_leaf == 0

    def test_bad_indices_rejected(self):
        for bad in (lambda: left_orbit("g", 2),
                    lambda: right_orbit("f", 0, 1),
                    lambda: right_orbit("f", 1, 3),
                    lambda: left_orbit("g", 0, cover=0)):
            with pytest.raises(ConfigurationError):
                bad()
