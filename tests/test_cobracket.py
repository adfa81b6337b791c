import random
import sys
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracle_double_coset import DoubleCosetOracle, triples
from oracle_hyperbolic import SelfIntersectionOracle
from test_words import WORD_LAYER_PIN, word_layer_digest
from sft_lab import words
from sft_lab.cobracket import (ClassRegistry, StringTopology, TensorSum,
                               cobracket_coefficients,
                               sporadic_count_from_coefficients)
from sft_lab.errors import TrivialClassError
from sft_lab.words import SurfaceGroup, inverse

G2 = SurfaceGroup(2)
ST = StringTopology(G2)
LETTERS = [1, -1, 2, -2, 3, -3, 4, -4]


def rand_classes(rng, how_many, max_len=6, primitive=False):
    out = []
    seen = set()
    while len(out) < how_many:
        n = rng.randint(1, max_len)
        w = tuple(rng.choice(LETTERS) for _ in range(n))
        try:
            cls = G2.canonical_class(w)
        except TrivialClassError:
            continue
        if cls in seen:
            continue
        if primitive and G2.primitive_root(cls)[1] > 1:
            continue
        seen.add(cls)
        out.append(cls)
    return out


PINNED_BRACKETS = [
    ((1, 2), (2,), {(1, 2, 2): -1}),
    ((1, 3), (2, 4), {(1, 2, 4, 3): -1, (1, 3, 4, 2): -1}),
    ((1, 1, 2), (-1, 2), {(1, 1, 2, -1, 2): -1, (1, 2, 2): -2}),
    ((1, 2, 3), (-2, 4), {(1, 2, 3, 4, -2): -1, (1, 2, 4, -2, 3): 1}),
    ((1,), (2, 3, -4), {(1, 3, -4, 2): -1}),
    ((1, 2), (-2, 4, 3), {(1, 4, 3): 1}),
]


class TestSelfIntersections:
    def test_simple_classes_are_embedded(self):
        for w in ((1,), (2,), (1, 2), (3, 4), (1, 2, -1, -2)):
            assert ST.self_intersection_number(G2.canonical_class(w)) == 0

    def test_frozen_counts(self):
        # values cross-checked against the numeric geodesic oracle
        expected = {(1, 2, -1, 2): 1, (1, 2, 1, -2): 1, (1, 3, -1, -3): 3,
                    (1, 3, 2, 4): 3, (1, 2, 3, -2): 2, (1, 1, 2, 2): 1,
                    (1, 2, -1, 2, 2): 2}
        for w, count in expected.items():
            assert ST.self_intersection_number(G2.canonical_class(w)) == count

    def test_oracle_match_on_sampled_classes(self):
        oracle = SelfIntersectionOracle()
        rng = random.Random(101)
        matched = 0
        for cls in rand_classes(rng, 40, max_len=6, primitive=True):
            try:
                want = oracle.count(cls)
            except ValueError:
                continue    # oracle refuses near-degenerate windows
            assert ST.self_intersection_number(cls) == want, cls
            matched += 1
            if matched >= 25:
                break
        assert matched >= 20

    def test_power_convention_squares_the_root(self):
        # the canonical spelling of (bABcc)^2 swaps the half-relator
        # bABc for AdcD in one copy only, so it is not periodic, and its
        # rotations 3 and 8 are one element spelled two ways
        oracle = DoubleCosetOracle(SurfaceGroup(2))
        for w in ((1, 2, -1, 2), (2, -1, -2, 3, 3)):
            root = G2.canonical_class(w)
            doubled = G2.canonical_class(w * 2)
            assert G2.primitive_root(doubled) == (root, 2)
            got = ST.self_intersection_pairs(doubled)
            assert len(got) == 4 * ST.self_intersection_number(root) == 4
            assert triples(got) == triples(oracle.crossings(doubled))
        assert doubled == (-1, -2, 3, 3, -1, 4, 3, -4, 3, 2)

    def test_double_coset_oracle_agrees(self):
        # about 2,000 seeded classes of length <= 7, plus the squares of
        # those of length <= 5 and the cubes of those of length <= 3, so
        # the m^2 rule for powers is covered, also where a half-relator
        # makes the canonical spelling of the power not periodic
        oracle = DoubleCosetOracle(SurfaceGroup(2))
        classes = rand_classes(random.Random(1986), 2000, max_len=7)
        squares = [G2.canonical_class(c * 2) for c in classes if len(c) <= 5]
        cubes = [G2.canonical_class(c * 3) for c in classes if len(c) <= 3]
        assert len(squares) + len(cubes) >= 1200
        assert sum(s[:len(s) // 2] * 2 != s for s in squares) >= 5
        crossings = 0
        for cls in classes + squares + cubes:
            got = ST.self_intersection_pairs(cls)
            want = oracle.crossings(cls)
            assert len(got) == len(want), cls
            assert triples(got) == triples(want), cls
            crossings += len(got)
        assert crossings > 5000

    def test_pairs_carry_signs(self):
        for c in ST.self_intersection_pairs(G2.canonical_class((1, 3, 2, 4))):
            assert c.sign in (-1, 1)
            assert 0 <= c.i < c.j


class TestCobracket:
    def test_simple_class_vanishes(self):
        assert ST.cobracket((1,)).is_zero()

    def test_co_antisymmetry_sampled(self):
        rng = random.Random(5)
        for cls in rand_classes(rng, 30):
            cob = ST.cobracket(cls).terms
            for (x, y), v in cob.items():
                assert cob.get((y, x)) == -v, (cls, x, y)

    def test_conjugation_invariance(self):
        w = (1, 2, -1, 2)
        spellings = [(1, 2, -1, 2), (2, -1, 2, 1), (-3, 1, 2, -1, 2, 3)]
        results = {tuple(sorted(ST.cobracket(G2.canonical_class(s))
                                .terms.items()))
                   for s in spellings}
        assert len(results) == 1

    def test_co_jacobi_sampled(self):
        def cyc3(ts):
            out = TensorSum()
            for (x, y, z), v in ts.terms.items():
                out.add((y, z, x), v)
            return out

        rng = random.Random(6)
        for cls in rand_classes(rng, 15):
            total = TensorSum()
            for (x, y), v in ST.cobracket(cls).terms.items():
                for (p, q), u in ST.cobracket(x).terms.items():
                    total.add((p, q, y), v * u)
            t2 = cyc3(total)
            assert total.plus(t2).plus(cyc3(t2)).is_zero(), cls


class TestBracket:
    def test_diagonal_vanishes(self):
        assert ST.bracket((1,), (1,)).is_zero()

    def test_disjoint_handles_vanish(self):
        assert ST.bracket((1,), (3,)).is_zero()
        assert ST.bracket((1, 2), (3, 4)).is_zero()

    def test_handle_pair_crosses_once(self):
        got = ST.bracket((1,), (2,))
        assert got.terms == {G2.canonical_class((1, 2)): -1}

    def test_pinned_terms(self):
        # exact terms, so the shared-edge union-find behind the
        # deduplication is checked by value and not only through the
        # algebraic laws below
        for w1, w2, terms in PINNED_BRACKETS:
            assert ST.bracket(G2.canonical_class(w1),
                              G2.canonical_class(w2)).terms == terms

    def test_full_memos_change_nothing(self, monkeypatch):
        # the word memos are pure: with every memo full from the start,
        # the word layer and the bracket give the same outputs
        monkeypatch.setattr(words, "MEMO_CAP", 0)
        words._normalize_ray_cached.cache_clear()
        assert word_layer_digest() == WORD_LAYER_PIN
        group = SurfaceGroup(2)
        st = StringTopology(group)
        for w1, w2, terms in PINNED_BRACKETS:
            assert st.bracket(group.canonical_class(w1),
                              group.canonical_class(w2)).terms == terms
        assert not (group._memo_reduce or group._memo_canonical_element
                    or group._memo_canonical_class)

    def test_antisymmetry_sampled(self):
        rng = random.Random(7)
        classes = rand_classes(rng, 8, max_len=3)
        for w1, w2 in zip(classes[:4], classes[4:]):
            assert ST.bracket(w1, w2) == ST.bracket(w2, w1).negated()

    def test_jacobi_on_fixed_triples(self):
        def bracket_ts(x_ts, w2):
            out = TensorSum()
            for cls, v in x_ts.terms.items():
                for cls2, u in ST.bracket(cls, w2).terms.items():
                    out.add(cls2, v * u)
            return out

        triples = [((1, 4, -3), (1, 3, -2), (-2, 4)),
                   ((2, 3), (1, -3, -3), (2, 4)),
                   ((1,), (2,), (1, 2))]
        for (x, y, z) in triples:
            x = G2.canonical_class(x)
            y = G2.canonical_class(y)
            z = G2.canonical_class(z)
            total = bracket_ts(ST.bracket(x, y), z).plus(
                bracket_ts(ST.bracket(y, z), x)).plus(
                bracket_ts(ST.bracket(z, x), y))
            assert total.is_zero(), (x, y, z)


def omega(x, y):
    """Algebraic intersection of the homology classes, omega(a_i, b_i) = 1."""
    def homology(w):
        v = [0] * 5
        for letter in w:
            v[abs(letter)] += 1 if letter > 0 else -1
        return v
    a, b = homology(x), homology(y)
    return sum(a[k] * b[k + 1] - a[k + 1] * b[k] for k in (1, 3))


def classes_up_to(n):
    """Every genus-2 class of length <= n, once each."""
    found = {}
    for k in range(1, n + 1):
        for w in product(LETTERS, repeat=k):
            if any(w[i] == -w[(i + 1) % k] for i in range(k)):
                continue
            try:
                found.setdefault(G2.canonical_class(w), None)
            except TrivialClassError:
                pass
    return list(found)


def bracket_of(xs, ys):
    """Bilinear extension of the bracket to combinations of classes."""
    out = TensorSum()
    for x, u in xs.terms.items():
        for y, v in ys.terms.items():
            for z, t in ST.bracket(x, y).terms.items():
                out.add(z, u * v * t)
    return out


def cobracket_of(xs):
    out = TensorSum()
    for x, u in xs.terms.items():
        for pair, v in ST.cobracket(x).terms.items():
            out.add(pair, u * v)
    return out


def acting(a, tensors):
    """a . (x (x) y) = [a, x] (x) y + x (x) [a, y]."""
    out = TensorSum()
    for (x, y), v in tensors.terms.items():
        for z, t in ST.bracket(a, x).terms.items():
            out.add((z, y), v * t)
        for z, t in ST.bracket(a, y).terms.items():
            out.add((x, z), v * t)
    return out


# failed Jacobi when the orbit-key search counted crossings twice
JACOBI_TRIPLE = ((-3, 4), (-1, 4, 4), (4,))


def seeded_triples(seed, how_many):
    pool = rand_classes(random.Random(seed), 3 * how_many, max_len=5)
    fixed = tuple(G2.canonical_class(w) for w in JACOBI_TRIPLE)
    return [fixed] + list(zip(pool[0::3], pool[1::3], pool[2::3]))


# the single letter x class of length <= 5 pairs whose bracket missed the
# augmentation identity while crossings were labelled by a double-coset
# search: one crossing was counted twice
AUGMENTATION_REGRESSIONS = [
    (1, (-1, -1, -1, -2)), (1, (-1, -1, -1, 2)), (1, (1, 1, 1, -2)),
    (1, (1, 1, 1, 2)), (1, (-1, -1, -1, -1, -2)), (1, (-1, -1, -1, -1, 2)),
    (1, (1, 1, 1, 1, -2)), (1, (1, 1, 1, 1, 2)), (-1, (-1, -1, -1, -2)),
    (-1, (-1, -1, -1, 2)), (-1, (1, 1, 1, -2)), (-1, (1, 1, 1, 2)),
    (-1, (-1, -1, -1, -1, -2)), (-1, (-1, -1, -1, -1, 2)),
    (-1, (1, 1, 1, 1, -2)), (-1, (1, 1, 1, 1, 2)), (2, (-1, -2, -2, -2)),
    (2, (-1, 2, 2, 2)), (2, (1, -2, -2, -4)), (2, (1, -2, -2, -3)),
    (2, (1, -2, -2, -2)), (2, (1, -2, -2, 3)), (2, (1, -2, -2, 4)),
    (2, (1, 2, 2, -4)), (2, (1, 2, 2, -3)), (2, (1, 2, 2, 2)),
    (2, (1, 2, 2, 3)), (2, (1, 2, 2, 4)), (2, (-1, -2, -2, -2, -2)),
    (2, (-1, 2, 2, 2, 2)), (2, (1, -2, -2, -2, -4)), (2, (1, -2, -2, -2, -3)),
    (2, (1, -2, -2, -2, -2)), (2, (1, -2, -2, -2, 3)), (2, (1, -2, -2, -2, 4)),
    (2, (1, 2, 2, 2, -4)), (2, (1, 2, 2, 2, -3)), (2, (1, 2, 2, 2, 2)),
    (2, (1, 2, 2, 2, 3)), (2, (1, 2, 2, 2, 4)), (-2, (-1, -2, -2, -2)),
    (-2, (-1, 2, 2, 2)), (-2, (1, -2, -2, -4)), (-2, (1, -2, -2, -3)),
    (-2, (1, -2, -2, -2)), (-2, (1, -2, -2, 3)), (-2, (1, -2, -2, 4)),
    (-2, (1, 2, 2, -4)), (-2, (1, 2, 2, -3)), (-2, (1, 2, 2, 2)),
    (-2, (1, 2, 2, 3)), (-2, (1, 2, 2, 4)), (-2, (-1, -2, -2, -2, -2)),
    (-2, (-1, 2, 2, 2, 2)), (-2, (1, -2, -2, -2, -4)),
    (-2, (1, -2, -2, -2, -3)), (-2, (1, -2, -2, -2, -2)),
    (-2, (1, -2, -2, -2, 3)), (-2, (1, -2, -2, -2, 4)), (-2, (1, 2, 2, 2, -4)),
    (-2, (1, 2, 2, 2, -3)), (-2, (1, 2, 2, 2, 2)), (-2, (1, 2, 2, 2, 3)),
    (-2, (1, 2, 2, 2, 4)), (3, (-3, -3, -3, -4)), (3, (-3, -3, -3, 4)),
    (3, (-2, -3, -3, -4)), (3, (-2, 3, 3, -4)), (3, (-1, -3, -3, -4)),
    (3, (-1, 3, 3, -4)), (3, (1, -3, -3, -4)), (3, (1, 3, 3, -4)),
    (3, (2, -3, -3, -4)), (3, (2, 3, 3, -4)), (3, (3, 3, 3, -4)),
    (3, (3, 3, 3, 4)), (3, (-3, -3, -3, -3, -4)), (3, (-3, -3, -3, -3, 4)),
    (3, (-2, -3, -3, -3, -4)), (3, (-2, 3, 3, 3, -4)),
    (3, (-1, -3, -3, -3, -4)), (3, (-1, 3, 3, 3, -4)),
    (3, (1, -3, -3, -3, -4)), (3, (1, 3, 3, 3, -4)), (3, (2, -3, -3, -3, -4)),
    (3, (2, 3, 3, 3, -4)), (3, (3, 3, 3, 3, -4)), (3, (3, 3, 3, 3, 4)),
    (-3, (-3, -3, -3, -4)), (-3, (-3, -3, -3, 4)), (-3, (-2, -3, -3, -4)),
    (-3, (-2, 3, 3, -4)), (-3, (-1, -3, -3, -4)), (-3, (-1, 3, 3, -4)),
    (-3, (1, -3, -3, -4)), (-3, (1, 3, 3, -4)), (-3, (2, -3, -3, -4)),
    (-3, (2, 3, 3, -4)), (-3, (3, 3, 3, -4)), (-3, (3, 3, 3, 4)),
    (-3, (-3, -3, -3, -3, -4)), (-3, (-3, -3, -3, -3, 4)),
    (-3, (-2, -3, -3, -3, -4)), (-3, (-2, 3, 3, 3, -4)),
    (-3, (-1, -3, -3, -3, -4)), (-3, (-1, 3, 3, 3, -4)),
    (-3, (1, -3, -3, -3, -4)), (-3, (1, 3, 3, 3, -4)),
    (-3, (2, -3, -3, -3, -4)), (-3, (2, 3, 3, 3, -4)), (-3, (3, 3, 3, 3, -4)),
    (-3, (3, 3, 3, 3, 4)), (4, (-3, -4, -4, -4)), (4, (-3, 4, 4, 4)),
    (4, (-2, -4, -4, -3)), (4, (-2, 4, 4, -3)), (4, (-1, -4, -4, -3)),
    (4, (-1, 4, 4, -3)), (4, (1, -4, -4, -3)), (4, (1, 4, 4, -3)),
    (4, (2, -4, -4, -3)), (4, (2, 4, 4, -3)), (4, (3, -4, -4, -4)),
    (4, (3, 4, 4, 4)), (4, (-3, -4, -4, -4, -4)), (4, (-3, 4, 4, 4, 4)),
    (4, (-2, -4, -4, -4, -3)), (4, (-2, 4, 4, 4, -3)),
    (4, (-1, -4, -4, -4, -3)), (4, (-1, 4, 4, 4, -3)),
    (4, (1, -4, -4, -4, -3)), (4, (1, 4, 4, 4, -3)), (4, (2, -4, -4, -4, -3)),
    (4, (2, 4, 4, 4, -3)), (4, (3, -4, -4, -4, -4)), (4, (3, 4, 4, 4, 4)),
    (-4, (-3, -4, -4, -4)), (-4, (-3, 4, 4, 4)), (-4, (-2, -4, -4, -3)),
    (-4, (-2, 4, 4, -3)), (-4, (-1, -4, -4, -3)), (-4, (-1, 4, 4, -3)),
    (-4, (1, -4, -4, -3)), (-4, (1, 4, 4, -3)), (-4, (2, -4, -4, -3)),
    (-4, (2, 4, 4, -3)), (-4, (3, -4, -4, -4)), (-4, (3, 4, 4, 4)),
    (-4, (-3, -4, -4, -4, -4)), (-4, (-3, 4, 4, 4, 4)),
    (-4, (-2, -4, -4, -4, -3)), (-4, (-2, 4, 4, 4, -3)),
    (-4, (-1, -4, -4, -4, -3)), (-4, (-1, 4, 4, 4, -3)),
    (-4, (1, -4, -4, -4, -3)), (-4, (1, 4, 4, 4, -3)),
    (-4, (2, -4, -4, -4, -3)), (-4, (2, 4, 4, 4, -3)),
    (-4, (3, -4, -4, -4, -4)), (-4, (3, 4, 4, 4, 4)),
]


class TestBracketLaws:
    """Goldman-Turaev laws checked exactly on fixed sweeps."""

    def test_augmentation_identity_full_sweep(self):
        # coefficients of [x, y] sum to -omega(x, y) (Goldman 1986)
        classes = classes_up_to(5)
        pairs = 0
        for x in LETTERS:
            for y in classes:
                got = ST.bracket((x,), y).terms
                assert sum(got.values()) == -omega((x,), y), (x, y)
                pairs += 1
        assert pairs == 32736

    def test_augmentation_regressions(self):
        assert len(AUGMENTATION_REGRESSIONS) == 160
        for x, y in AUGMENTATION_REGRESSIONS:
            got = ST.bracket((x,), y).terms
            assert sum(got.values()) == -omega((x,), y), (x, y)
        assert ST.bracket((4,), (-1, 4, 4, -3)).terms == {
            (-1, 4, 4, 4, -3): -1}

    def test_antisymmetry_and_jacobi_seeded(self):
        for x, y, z in seeded_triples(1986, 150):
            assert ST.bracket(x, y) == ST.bracket(y, x).negated(), (x, y)
            one = [TensorSum({w: 1}) for w in (x, y, z)]
            total = TensorSum()
            for k in range(3):
                a, b, c = one[k], one[(k + 1) % 3], one[(k + 2) % 3]
                total = total.plus(bracket_of(bracket_of(a, b), c))
            assert total.is_zero(), (x, y, z)

    def test_drinfeld_compatibility_seeded(self):
        # delta[a, b] = a . delta(b) - b . delta(a) (Turaev 1991)
        for a, b, _ in seeded_triples(1991, 150):
            lhs = cobracket_of(ST.bracket(a, b))
            rhs = acting(a, ST.cobracket(b)).plus(
                acting(b, ST.cobracket(a)).negated())
            assert lhs == rhs, (a, b)

    def test_involutivity(self):
        # [., .] o delta = 0 (Chas, Topology 2004): summing v [x, y] over
        # the terms v x(x)y of delta(w) gives exactly zero; no bracket
        # term is the trivial class, which canonical_class would reject
        rng = random.Random(5)
        seen = set()
        checked = 0
        for n in range(2, 8):
            for _ in range(60):
                w = tuple(rng.choice(LETTERS) for _ in range(n))
                try:
                    cls = G2.canonical_class(w)
                except TrivialClassError:
                    continue
                if cls in seen:
                    continue
                seen.add(cls)
                cob = ST.cobracket(cls)
                if cob.is_zero():
                    continue
                total = TensorSum()
                for (x, y), v in cob.terms.items():
                    for z, u in ST.bracket(x, y).terms.items():
                        total.add(z, v * u)
                assert total.is_zero(), cls
                checked += 1
        assert checked == 180


class TestRegistryAndCounts:
    def test_registry_labels_and_reversal(self):
        reg = ClassRegistry(G2)
        j = reg.label((1,))
        assert j == 1
        assert reg.inverse_label(j) == reg.label((-1,))
        assert reg.inverse_label(reg.inverse_label(j)) == j
        assert reg.word(-j) == G2.canonical_class((-1,))

    def test_coefficients_antisymmetric(self):
        rng = random.Random(9)
        for cls in rand_classes(rng, 12):
            reg = ClassRegistry(G2)
            coeffs = cobracket_coefficients(ST, reg, cls)
            for (j, k), v in coeffs.items():
                assert coeffs.get((k, j), 0) == -v

    def test_simple_class_has_no_count(self):
        assert ST.sporadic_count_direct((1,)) == 0

    def test_cross_handle_commutator_counts(self):
        cls = G2.canonical_class((1, 3, -1, -3))
        assert ST.sporadic_count_direct(cls) != 0

    def test_two_paths_agree_sampled(self):
        rng = random.Random(11)
        for cls in rand_classes(rng, 25):
            reg = ClassRegistry(G2)
            assert (ST.sporadic_count_direct(cls)
                    == sporadic_count_from_coefficients(ST, reg, cls)), cls

    def test_count_is_orientation_reversal_invariant(self):
        for w in ((1, 3, -1, -3), (1, 2, -1, 2), (1, 3, 2, 4)):
            cls = G2.canonical_class(w)
            rev = G2.inverse_class(w)
            assert (ST.sporadic_count_direct(cls)
                    == ST.sporadic_count_direct(rev))


class TestNonzeroSearch:
    def test_nonzero_count_exists_within_length_eight(self):
        found = None
        seen = set()
        for n in range(1, 9):
            for w in product(LETTERS, repeat=n):
                if any(w[i] == -w[(i + 1) % n] for i in range(n)):
                    continue
                try:
                    cls = G2.canonical_class(w)
                except TrivialClassError:
                    continue
                if cls in seen:
                    continue
                seen.add(cls)
                if ST.sporadic_count_direct(cls):
                    found = cls
                    break
            if found:
                break
        assert found is not None
        assert len(found) <= 8
