import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_bareiss import bareiss_solve

from sft_lab.algebra import (ODD, EVEN, AlgebraElement, CurveCountTable,
                             Generator, GeneratorSet, Truncation,
                             apply_D_exact, basis_monomials, check_square_zero,
                             combinatorial_factor, derive_generator,
                             monomial_gen, multiply_elements,
                             multiply_generator, multiply_monomials,
                             solve_exact, torsion_order)
from sft_lab.errors import ConfigurationError, SquareZeroError, ValidationError


def make_gens(spec):
    """spec: iterable of (id, parity, cover, action)."""
    return GeneratorSet(Generator(gid, parity, cover, Fraction(action))
                        for gid, parity, cover, action in spec)


GENS = make_gens([("a", ODD, 1, 1), ("b", EVEN, 1, 1), ("c", ODD, 2, 2),
                  ("d", EVEN, 1, 1)])
TRUNC = Truncation(hbar_max=3, length_max=4, action_cap=Fraction(20))


def element(*pairs):
    out = AlgebraElement()
    for coeff, mono in pairs:
        out.add_term(mono, Fraction(coeff))
    return out


# -- the differential, pinned -------------------------------------------------

PIN_TRUNC = Truncation(hbar_max=2, length_max=3, action_cap=Fraction(6))


def pin_tables():
    """150 seeded tables: mixed parities, covers 1-2, even powers,
    genus 0-2, 1-3 positive and 0-2 negative ids, rational counts."""
    rng = random.Random(1903)
    for _ in range(150):
        gens = make_gens([("x%d" % i, rng.choice((EVEN, ODD)),
                           rng.randint(1, 2), rng.randint(1, 2))
                          for i in range(rng.randint(2, 4))])
        ids = list(gens)
        entries = {}
        for _ in range(rng.randint(1, 4)):
            pos = tuple(rng.choice(ids) for _ in range(rng.randint(1, 3)))
            neg = tuple(rng.choice(ids) for _ in range(rng.randint(0, 2)))
            entries[(rng.randint(0, 2), pos, neg)] = Fraction(
                rng.randint(-4, 4), rng.randint(1, 3))
        yield CurveCountTable(gens, entries)


def differential_digest():
    """sha256 over D of every basis word at h^0..h^2 and over the torsion
    order and certificate of each pin table."""
    digest = hashlib.sha256()
    for counts in pin_tables():
        for _, word in basis_monomials(counts.gens, PIN_TRUNC):
            for j in range(3):
                image = apply_D_exact(counts,
                                      AlgebraElement({(j, word): Fraction(1)}))
                digest.update(repr(sorted(image.terms.items())).encode())
        res = torsion_order(counts, PIN_TRUNC, require_square_zero=False)
        cert = (sorted(res.certificate.terms.items())
                if res.certificate is not None else None)
        digest.update(repr((res.label, cert)).encode())
    return digest.hexdigest()


# differential_digest() of the per-order differential; any rewrite of D
# must reproduce it
DIFFERENTIAL_PIN = (
    "815e95fae6d197509ce0109ce5da38e1857feb8f6ed5a2a756114f8e50d1e068")


def test_differential_pin():
    assert differential_digest() == DIFFERENTIAL_PIN


# -- torsion certificates of finite-order tables, pinned ----------------------

# (positive ends, negative ends) of an entry; (1, 0) and (3, 0) reach
# constants, so the torsion order is finite
FINITE_SHAPES = ((1, 2), (2, 1), (1, 0), (3, 0))
TORSION_TRUNC = Truncation(hbar_max=3, length_max=4, action_cap=Fraction(100))


def finite_order_table(rng, n_gens, n_entries):
    """A table of odd generators whose differential squares to zero.

    The first half of the generators only multiply, the second half only
    differentiate, and every entry has an odd number of ends, so the
    entry operators square to zero and anticommute.  Entries cycle
    through the shapes and genus 0 and 1."""
    ids = ["g%02d" % i for i in range(n_gens)]
    coeffs, derivs = ids[:n_gens // 2], ids[n_gens // 2:]
    entries = {}
    while len(entries) < n_entries:
        n_pos, n_neg = FINITE_SHAPES[len(entries) % len(FINITE_SHAPES)]
        key = (len(entries) // len(FINITE_SHAPES) % 2,
               tuple(sorted(rng.sample(derivs, n_pos))),
               tuple(sorted(rng.sample(coeffs, n_neg))))
        value = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        entries.setdefault(key, value)
    return CurveCountTable(GeneratorSet(Generator(g, ODD) for g in ids),
                           entries)


def torsion_digest():
    """sha256 over the torsion order and certificate of seeded
    finite-order tables of 8/16, 10/24 and 12/32 generators/entries."""
    rng = random.Random(1903)
    digest = hashlib.sha256()
    for n_gens, n_entries in ((8, 16), (10, 24), (12, 32)):
        counts = finite_order_table(rng, n_gens, n_entries)
        res = torsion_order(counts, TORSION_TRUNC, require_square_zero=False)
        cert = (sorted(res.certificate.terms.items())
                if res.certificate is not None else None)
        digest.update(repr((res.label, cert)).encode())
    return digest.hexdigest()


# torsion_digest() computed with dense Bareiss elimination; the sparse
# solver must reproduce its certificates exactly
TORSION_PIN = (
    "a485c1a0b338fc08f928ebfbafa88105af17633ce80caaac0cd04eeee0772bfa")


def test_torsion_pin():
    assert torsion_digest() == TORSION_PIN


class TestGenerators:
    def test_fields_feed_kappa_action_and_parity(self):
        assert (GENS.parity("c"), GENS.kappa("c"), GENS.action("c")) == \
            (ODD, 2, Fraction(2))
        assert Generator("x", EVEN) == Generator("x", EVEN, 1, Fraction(1))

    @pytest.mark.parametrize("bad", [dict(parity=2), dict(cover=0),
                                     dict(action=Fraction(0)),
                                     dict(action=Fraction(-1))])
    def test_invalid_fields_rejected(self, bad):
        fields = dict(id="x", parity=ODD, cover=1, action=Fraction(1))
        fields.update(bad)
        with pytest.raises(ConfigurationError):
            Generator(**fields)

    def test_from_orbits_overrides_parity_by_id(self):
        gens = GeneratorSet.from_orbits(
            [Generator("p", ODD, 2, Fraction(3)), Generator("q", ODD)],
            parity_override={"p": EVEN})
        assert (gens.parity("p"), gens.kappa("p"), gens.action("p")) == \
            (EVEN, 2, Fraction(3))
        assert gens.parity("q") == ODD


@st.composite
def generator_sets(draw):
    """A random GeneratorSet with at least one odd generator."""
    n = draw(st.integers(1, 5))
    parities = draw(st.lists(st.sampled_from((EVEN, ODD)),
                             min_size=n, max_size=n))
    parities[0] = ODD
    return GeneratorSet(
        Generator("g%d" % i, p, draw(st.integers(1, 3)),
                  Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))))
        for i, p in enumerate(parities))


def monomials(gens):
    """Monomials of ``gens``: odd generators appear at most once."""
    def build(hbar, exps):
        return (hbar, tuple((g, e) for g, e in zip(list(gens), exps) if e))
    exps = st.tuples(*[st.integers(0, 1 if gens.parity(g) == ODD else 2)
                       for g in gens])
    return st.builds(build, st.integers(0, 2), exps)


def koszul_product(gens, *factors):
    """Reference product of monomials: sort the concatenated letters,
    with the sign (-1)^(|x||y|) for every inverted pair x, y."""
    letters = [g for m in factors for g, e in m[1] for _ in range(e)]
    odd = [g for g in letters if gens.parity(g) == ODD]
    if len(odd) != len(set(odd)):
        return AlgebraElement()
    inversions = sum(gens.parity(x) * gens.parity(y)
                     for i, x in enumerate(letters)
                     for y in letters[i + 1:] if x > y)
    word = tuple((g, letters.count(g)) for g in sorted(set(letters)))
    hbar = sum(m[0] for m in factors)
    return AlgebraElement({(hbar, word): Fraction((-1) ** inversions)})


class TestAlgebraLaws:
    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(st.data())
    def test_multiplication_associates_with_koszul_signs(self, data):
        gens = data.draw(generator_sets())
        a, b, c = (data.draw(monomials(gens)) for _ in range(3))
        s_ab, ab = multiply_monomials(gens, a, b)
        s_bc, bc = multiply_monomials(gens, b, c)
        left = AlgebraElement()
        if ab is not None:
            s, m = multiply_monomials(gens, ab, c)
            if m is not None:
                left.add_term(m, s_ab * s)
        right = AlgebraElement()
        if bc is not None:
            s, m = multiply_monomials(gens, a, bc)
            if m is not None:
                right.add_term(m, s_bc * s)
        assert left == right == koszul_product(gens, a, b, c)

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(st.data())
    def test_graded_commutativity(self, data):
        gens = data.draw(generator_sets())
        a, b = data.draw(monomials(gens)), data.draw(monomials(gens))
        s_ab, ab = multiply_monomials(gens, a, b)
        s_ba, ba = multiply_monomials(gens, b, a)
        assert ab == ba
        if ab is None:
            assert s_ab == s_ba == 0
        else:
            sign = -1 if gens.monomial_parity(a) * gens.monomial_parity(b) \
                else 1
            assert s_ab == sign * s_ba != 0

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(st.data())
    def test_repeated_odd_generator_vanishes(self, data):
        gens = data.draw(generator_sets())
        m = data.draw(monomials(gens))
        odd = [g for g in gens if gens.parity(g) == ODD]
        g = data.draw(st.sampled_from(odd))
        with_g = multiply_monomials(gens, monomial_gen(g), m)[1] or m
        assert multiply_monomials(gens, monomial_gen(g), with_g) == (0, None)
        if any(gens.parity(h) == ODD for h, _ in m[1]):
            assert multiply_monomials(gens, m, m) == (0, None)


# entry shapes (positive ends, negative ends) with an odd number of ends
ODD_SHAPES = ((1, 0), (1, 2), (2, 1), (3, 0), (3, 2))


@st.composite
def parity_odd_tables(draw):
    """A table whose differential squares to zero: every generator is
    odd, the first half only multiply, the second half only
    differentiate, and every entry has an odd number of ends.  The
    entry operators are then odd, square to zero and anticommute."""
    n = draw(st.integers(2, 6))
    gens = GeneratorSet(Generator("g%d" % i, ODD, draw(st.integers(1, 2)))
                        for i in range(n))
    coeffs, derivs = list(gens)[:n // 2], list(gens)[n // 2:]
    entries = {}
    for _ in range(draw(st.integers(1, 5))):
        n_pos, n_neg = draw(st.sampled_from(ODD_SHAPES))
        pos = draw(st.lists(st.sampled_from(derivs), min_size=n_pos,
                            max_size=n_pos))
        neg = draw(st.lists(st.sampled_from(coeffs), min_size=n_neg,
                            max_size=n_neg))
        entries[(draw(st.integers(0, 2)), tuple(pos), tuple(neg))] = \
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return CurveCountTable(gens, entries)


@st.composite
def count_tables(draw):
    """A table of mixed parity over a random GeneratorSet."""
    gens = draw(generator_sets())
    ids = st.sampled_from(list(gens))
    keys = st.tuples(st.integers(0, 2),
                     st.lists(ids, min_size=1, max_size=3).map(tuple),
                     st.lists(ids, max_size=2).map(tuple))
    values = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return CurveCountTable(gens, draw(st.dictionaries(keys, values,
                                                      max_size=4)))


class TestDifferentialLaws:
    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(parity_odd_tables())
    def test_parity_odd_tables_square_to_zero(self, counts):
        trunc = Truncation(hbar_max=2, length_max=3, action_cap=Fraction(20))
        assert check_square_zero(counts, trunc) == (True, None)

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(st.data())
    def test_D_commutes_with_hbar(self, data):
        counts = data.draw(count_tables())
        j, word = data.draw(monomials(counts.gens))
        image = apply_D_exact(counts, AlgebraElement({(0, word): Fraction(1)}))
        shifted = AlgebraElement({(hbar + j, w): c
                                  for (hbar, w), c in image.terms.items()})
        assert apply_D_exact(
            counts, AlgebraElement({(j, word): Fraction(1)})) == shifted


class TestMonomialOps:
    def test_odd_generator_squares_to_zero(self):
        s, m = multiply_generator(GENS, "a", monomial_gen("a"))
        assert s == 0 and m is None

    def test_even_generator_accumulates(self):
        s, m = multiply_generator(GENS, "b", monomial_gen("b"))
        assert s == 1 and m == (0, (("b", 2),))

    def test_koszul_sign_on_swap(self):
        # c moved past a (both odd) picks up a sign
        s, m = multiply_generator(GENS, "c", monomial_gen("a"))
        assert s == -1 and m == (0, (("a", 1), ("c", 1)))
        s, m = multiply_generator(GENS, "a", monomial_gen("c"))
        assert s == 1 and m == (0, (("a", 1), ("c", 1)))

    def test_product_associates_with_signs(self):
        xs = [element((1, monomial_gen(g))) for g in ("a", "b", "c")]
        left = multiply_elements(GENS, multiply_elements(GENS, xs[0], xs[1]),
                                 xs[2])
        right = multiply_elements(GENS, xs[0],
                                  multiply_elements(GENS, xs[1], xs[2]))
        assert left == right

    def test_derivative_falling_factorial(self):
        m = (0, (("b", 3),))
        c1, m1 = derive_generator(GENS, "b", m)
        assert c1 == 3 and m1 == (0, (("b", 2),))
        c2, m2 = derive_generator(GENS, "b", m1)
        assert c2 == 2 and m2 == (0, (("b", 1),))

    def test_derivative_koszul_sign(self):
        # d/dc over the odd generator a changes sign
        m = (0, (("a", 1), ("c", 1)))
        c, reduced = derive_generator(GENS, "c", m)
        assert c == -1 and reduced == monomial_gen("a")


class TestCombinatorialFactor:
    def test_single_positive(self):
        assert combinatorial_factor(GENS, (), ("a",)) == 1

    def test_double_cover_negative(self):
        # one negative orbit of covering multiplicity two, two positive
        assert combinatorial_factor(GENS, ("c",), ("a", "b")) == 4

    def test_repeated_negatives(self):
        assert combinatorial_factor(GENS, ("a", "a"), ("a",)) == 2

    def test_kappa_only_over_negatives(self):
        assert combinatorial_factor(GENS, (), ("c", "c")) == 2
        assert combinatorial_factor(GENS, ("c", "c"), ()) == 8

    def test_permutation_invariance(self):
        for neg in itertools.permutations(("a", "b", "c")):
            assert combinatorial_factor(GENS, neg, ()) == \
                combinatorial_factor(GENS, ("a", "b", "c"), ())


class TestDifferential:
    def test_plane_count_gives_unit(self):
        counts = CurveCountTable(GENS, {(0, ("a",), ()): Fraction(1)})
        out = apply_D_exact(counts, AlgebraElement.generator("a"))
        assert out == AlgebraElement.one()

    def test_sporadic_count_order_two(self):
        counts = CurveCountTable(GENS, {(1, ("a",), ()): Fraction(5)})
        out = apply_D_exact(counts, AlgebraElement.generator("a"))
        assert out == element((5, (1, ())))

    def test_unit_is_closed(self):
        counts = CurveCountTable(GENS, {(0, ("a",), ("b",)): Fraction(2),
                                        (1, ("c",), ()): Fraction(3)})
        assert apply_D_exact(counts, AlgebraElement.one()).is_zero()

    def test_empty_table(self):
        counts = CurveCountTable(GENS, {})
        assert apply_D_exact(counts, AlgebraElement.generator("a")).is_zero()

    def test_hbar_weighting(self):
        counts = CurveCountTable(GENS, {(1, ("a",), ()): Fraction(5)})
        x = AlgebraElement.generator("a").scaled(Fraction(1, 5))
        assert apply_D_exact(counts, x) == element((1, (1, ())))

    def test_no_empty_positive_keys(self):
        with pytest.raises(ValidationError):
            CurveCountTable(GENS, {(1, (), ("a",)): Fraction(1)})

    def test_coefficient_extraction_hand_case(self):
        # two identical even positive orbits: factor 2! in C, falling
        # factorial 2 in the derivative; count 6 survives as 6.
        counts = CurveCountTable(GENS, {(0, ("b", "b"), ()): Fraction(6)})
        x = AlgebraElement({(0, (("b", 2),)): Fraction(1)})
        out = apply_D_exact(counts, x)
        assert out == element((6, (1, ())))

    def test_derivation_leibniz_order_one(self):
        # parity-odd table: each order-1 operator is an odd derivation
        counts = CurveCountTable(GENS, {(0, ("a",), ("b",)): Fraction(3),
                                        (0, ("b",), ("a",)): Fraction(2)})
        assert counts.is_parity_odd()
        monos = basis_monomials(GENS, Truncation(1, 3, Fraction(20)))
        for ma, mb in itertools.product(monos, repeat=2):
            if (sum(e for _, e in ma[1]) + sum(e for _, e in mb[1])) > 3:
                continue
            x = element((1, ma))
            y = element((1, mb))
            prod = multiply_elements(GENS, x, y)
            lhs = apply_D_exact(counts, prod)
            sign = Fraction(-1 if GENS.monomial_parity(ma) else 1)
            rhs = multiply_elements(GENS, apply_D_exact(counts, x), y).plus(
                multiply_elements(GENS, x, apply_D_exact(counts, y))
                .scaled(sign))
            assert lhs == rhs, (ma, mb)


class TestSquareZero:
    def test_single_plane_table(self):
        counts = CurveCountTable(GENS, {(0, ("a",), ()): Fraction(1)})
        ok, witness = check_square_zero(counts, TRUNC)
        assert ok and witness is None

    def test_adversarial_table(self):
        counts = CurveCountTable(GENS, {(0, ("a",), ("d",)): Fraction(1),
                                        (0, ("d",), ()): Fraction(1)})
        ok, witness = check_square_zero(counts, TRUNC)
        assert not ok and witness == monomial_gen("a")

    def test_cancelling_pair_table(self):
        # two opposite counts on one key cancel to the zero table
        counts = CurveCountTable(GENS, {(1, ("a",), ()): Fraction(7)})
        extra = CurveCountTable(
            GENS, {(1, ("a",), ()): Fraction(7),
                   (0, ("a", "b"), ()): Fraction(0)})
        assert counts.entries == extra.entries
        ok, _ = check_square_zero(counts, TRUNC)
        assert ok


@st.composite
def sparse_systems(draw):
    """A rational system A x = b of up to 10 x 10 with a drawn density,
    drawn zero rows and columns, and b either A x for a drawn x
    (consistent) or drawn freely (often inconsistent)."""
    n_rows, n_cols = draw(st.integers(0, 10)), draw(st.integers(1, 10))
    density = draw(st.integers(0, 10))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    def cell():
        if draw(st.integers(1, 10)) > density:
            return Fraction(0)
        return draw(entry)
    zero_rows = draw(st.sets(st.integers(0, n_rows)))
    zero_cols = draw(st.sets(st.integers(0, n_cols)))
    rows = [[Fraction(0) if i in zero_rows or j in zero_cols else cell()
             for j in range(n_cols)] for i in range(n_rows)]
    if draw(st.booleans()):
        xs = [draw(entry) for _ in range(n_cols)]
        rhs = [sum((a * x for a, x in zip(row, xs)), Fraction(0))
               for row in rows]
    else:
        rhs = [cell() for _ in range(n_rows)]
    return rows, rhs


class TestSolver:
    @settings(deadline=None, derandomize=True, max_examples=500)
    @given(sparse_systems())
    def test_equals_dense_bareiss(self, system):
        rows, rhs = system
        assert solve_exact(rows, rhs) == bareiss_solve(rows, rhs)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.data())
    def test_row_permutation_keeps_the_solution(self, data):
        rows, rhs = data.draw(sparse_systems())
        perm = data.draw(st.permutations(range(len(rows))))
        assert solve_exact([rows[i] for i in perm],
                           [rhs[i] for i in perm]) == solve_exact(rows, rhs)

    def test_simple_system(self):
        rows = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
        sol = solve_exact(rows, [Fraction(5), Fraction(6)])
        assert sol == [Fraction(3, 2), Fraction(2)]

    def test_inconsistent(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        assert solve_exact(rows, [Fraction(1), Fraction(3)]) is None

    def test_underdetermined_picks_a_solution(self):
        rows = [[Fraction(1), Fraction(1)]]
        sol = solve_exact(rows, [Fraction(4)])
        assert sol is not None
        assert sol[0] + sol[1] == 4

    def test_random_systems_against_substitution(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(m)] for _ in range(n)]
            xs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            rhs = [sum((r * x for r, x in zip(row, xs)), Fraction(0))
                   for row in rows]
            sol = solve_exact(rows, rhs)
            assert sol is not None
            for row, b in zip(rows, rhs):
                assert sum((r * s for r, s in zip(row, sol)), Fraction(0)) == b


class TestTorsionOrder:
    def test_plane_table_order_zero(self):
        counts = CurveCountTable(GENS, {(0, ("a",), ()): Fraction(1)})
        res = torsion_order(counts, TRUNC)
        assert res.order == 0
        assert res.certificate == AlgebraElement.generator("a")

    def test_sporadic_table_order_one(self):
        counts = CurveCountTable(GENS, {(1, ("a",), ()): Fraction(5)})
        res = torsion_order(counts, TRUNC)
        assert res.order == 1
        assert res.certificate == AlgebraElement.generator("a").scaled(
            Fraction(1, 5))

    def test_empty_table_unknown(self):
        counts = CurveCountTable(GENS, {})
        res = torsion_order(counts, TRUNC)
        assert res.order is None and res.label == "unknown"

    def test_square_zero_gate(self):
        counts = CurveCountTable(GENS, {(0, ("a",), ("d",)): Fraction(1),
                                        (0, ("d",), ()): Fraction(1)})
        with pytest.raises(SquareZeroError):
            torsion_order(counts, TRUNC)

    def test_monotone_under_fresh_extension(self):
        rng = random.Random(5)
        base_spec = [("a", ODD, 1, 1), ("b", EVEN, 1, 1)]
        for trial in range(20):
            # fresh generators must be odd so the extension keys keep
            # the differential parity-odd (and squaring to zero)
            fresh = [("z%d" % i, ODD, 1, 1)
                     for i in range(rng.randint(1, 3))]
            gens = make_gens(base_spec + fresh)
            base = CurveCountTable(gens, {(1, ("a",), ()): Fraction(3)})
            res = torsion_order(base, TRUNC)
            assert res.order == 1
            extension = {(1, ("a",), ()): Fraction(3)}
            for gid, parity, _, _ in fresh:
                genus = rng.choice([1, 2])
                extension[(genus, (gid,), ())] = Fraction(rng.randint(1, 4))
            extended = CurveCountTable(gens, extension)
            res2 = torsion_order(extended, TRUNC)
            assert res2.order is not None and res2.order <= res.order
            # the original certificate still solves the extended system
            image = apply_D_exact(extended, res.certificate)
            assert image == AlgebraElement({(1, ()): Fraction(1)})


class TestParityOddness:
    def test_model_style_tables_are_parity_odd(self):
        counts = CurveCountTable(GENS, {(1, ("a",), ()): Fraction(2),
                                        (0, ("a", "b"), ()): Fraction(1)})
        assert counts.is_parity_odd()

    def test_even_key_detected(self):
        counts = CurveCountTable(GENS, {(0, ("b",), ()): Fraction(1)})
        assert not counts.is_parity_odd()

    def test_randomized_admissible_tables(self):
        rng = random.Random(31)
        ids = ["a", "b", "c", "d"]
        for seed in range(100):
            entries = {}
            for _ in range(rng.randint(1, 4)):
                genus = rng.randint(0, 2)
                size_p = rng.randint(1, 2)
                size_n = rng.randint(0, 2)
                pos = tuple(rng.choice(ids) for _ in range(size_p))
                neg = tuple(rng.choice(ids) for _ in range(size_n))
                flip = sum(GENS.parity(g) for g in pos + neg) % 2
                if flip != ODD:
                    neg = neg + ("a",)   # odd generator fixes the parity
                entries[(genus, pos, neg)] = Fraction(rng.randint(-3, 3))
            counts = CurveCountTable(GENS, entries)
            assert counts.is_parity_odd()
            assert apply_D_exact(counts, AlgebraElement.one()).is_zero()
            for m in basis_monomials(GENS, Truncation(1, 2, Fraction(8))):
                x = AlgebraElement({m: Fraction(1)})
                img = apply_D_exact(counts, x)
                want = (GENS.monomial_parity(m) + 1) % 2
                for t in img.terms:
                    assert GENS.monomial_parity(t) == want
