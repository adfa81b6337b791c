import hashlib
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sft_lab.errors import ConfigurationError, TrivialClassError
from sft_lab.words import (BoundaryOrder, Ray, SurfaceGroup,
                           _normalize_ray_cached, cyclic_reduce,
                           format_letters, free_reduce, inverse,
                           parse_letters, rotations, word_key)

G2 = SurfaceGroup(2)
LETTERS = [1, -1, 2, -2, 3, -3, 4, -4]


class TestBasics:
    def test_free_reduce(self):
        assert free_reduce((1, -1, 2)) == (2,)
        assert free_reduce((1, 2, -2, -1)) == ()

    def test_cyclic_reduce(self):
        assert cyclic_reduce((1, 2, -1)) == (2,)

    def test_inverse(self):
        assert inverse((1, -2, 3)) == (-3, 2, -1)

    def test_parse_compact_and_indexed(self):
        assert parse_letters("abAB", 2) == (1, 2, -1, -2)
        assert parse_letters("a1 b1 A1 B1", 2) == (1, 2, -1, -2)
        assert parse_letters("a2.B2", 2) == (3, -4)

    def test_parse_rejects_outside_alphabet(self):
        with pytest.raises(ConfigurationError):
            parse_letters("e", 2)

    def test_format_roundtrip(self):
        w = (1, -2, 3, -4)
        assert parse_letters(format_letters(w), 2) == w

    def test_genus_bound(self):
        with pytest.raises(ConfigurationError):
            SurfaceGroup(1)


class TestWordProblem:
    def test_relator_is_trivial(self):
        assert G2.is_trivial(G2.relator)

    def test_conjugated_relator_trivial(self):
        w = (3, -2) + G2.relator + (2, -3)
        assert G2.is_trivial(w)

    def test_nontrivial_word(self):
        assert not G2.is_trivial((1, 2))

    def test_commutator_nontrivial_in_genus_two(self):
        assert not G2.is_trivial((1, 2, -1, -2))

    def test_equal_elements(self):
        # insert a relator cycle in the middle
        rel = G2.relator
        a = (1, 2, 3)
        b = (1, 2) + rel[3:] + rel[:3] + (3,)
        assert G2.equal(a, b)

    def test_canonical_element_is_a_group_invariant(self):
        rng = random.Random(4)
        rel_rots = rotations(G2.relator) + rotations(inverse(G2.relator))
        for _ in range(40):
            base = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 6)))
            spot = rng.randint(0, len(base))
            rel = rng.choice(rel_rots)
            padded = base[:spot] + rel + base[spot:]
            assert G2.canonical_element(padded) == G2.canonical_element(base)


class TestConjugacy:
    def test_rotation_invariance(self):
        assert G2.canonical_class((2, 1)) == G2.canonical_class((1, 2))

    def test_conjugation_invariance_randomized(self):
        rng = random.Random(0)
        for _ in range(60):
            n = rng.randint(1, 6)
            w = tuple(rng.choice(LETTERS) for _ in range(n))
            try:
                canon = G2.canonical_class(w)
            except TrivialClassError:
                continue
            conj = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 5)))
            assert G2.canonical_class(conj + w + inverse(conj)) == canon

    def test_trivial_class_raises(self):
        with pytest.raises(TrivialClassError):
            G2.canonical_class(G2.relator)
        with pytest.raises(TrivialClassError):
            G2.canonical_class((1, -1))

    def test_inverse_class(self):
        w = (1, 2, -1, 2)
        assert G2.inverse_class(w) == G2.canonical_class(inverse(w))

    def test_distinct_classes_stay_distinct(self):
        assert G2.canonical_class((1,)) != G2.canonical_class((2,))
        assert G2.canonical_class((1, 2)) != G2.canonical_class((1, -2))

    def test_primitive_root_of_powers(self):
        root, mult = G2.primitive_root((1, 2, 1, 2))
        assert (root, mult) == (G2.canonical_class((1, 2)), 2)
        root, mult = G2.primitive_root((1, 2, -1, 2))
        assert mult == 1

    def test_genus_three_available(self):
        g3 = SurfaceGroup(3)
        assert len(g3.relator) == 12
        assert g3.canonical_class((5, 6)) == (5, 6)


class TestBoundaryOrder:
    def test_rotation_cycle_is_full(self):
        cyc = G2.rotation_cycle
        assert sorted(cyc) == sorted(LETTERS)

    def test_orientation_antisymmetry(self):
        bo = BoundaryOrder(G2)
        r1 = bo.ray((1, 2))
        r2 = bo.ray(inverse((1, 2)))
        r3 = bo.ray((3, 4))
        assert bo.orient(r1, r2, r3) == -bo.orient(r2, r1, r3)

    def test_orientation_cyclic_invariance(self):
        bo = BoundaryOrder(G2)
        rays = [bo.ray(w) for w in ((1, 2), (3,), (-2, -1, 4))]
        a = bo.orient(*rays)
        b = bo.orient(rays[1], rays[2], rays[0])
        c = bo.orient(rays[2], rays[0], rays[1])
        assert a == b == c

    def test_same_stream_is_exact(self):
        bo = BoundaryOrder(G2)
        assert bo.ray((1, 2)).same_stream(bo.ray((1, 2, 1, 2)))
        assert bo.ray((1, 2, 1, 2)).same_stream(bo.ray((1, 2)))
        assert not bo.ray((1, 2)).same_stream(bo.ray((2, 1)))
        # the streams agree on three letters and part at the fourth
        assert not bo.ray((1, 2)).same_stream(bo.ray((1, 2, 1)))

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(genus=st.sampled_from([2, 3]), k=st.integers(1, 3),
           l=st.integers(1, 3), data=st.data())
    def test_stream_identity_is_block_equality(self, genus, k, l, data):
        # blocks are rotations of canonical classes; the oracle compares
        # the two streams over the lcm of their periods
        group = SurfaceGroup(genus)
        bo = BoundaryOrder(group)
        blocks = []
        for _ in range(2):
            try:
                cls = group.canonical_class(data.draw(words_of(genus, 6)))
            except TrivialClassError:
                assume(False)
            cut = data.draw(st.integers(0, len(cls) - 1))
            blocks.append(cls[cut:] + cls[:cut])
        if data.draw(st.booleans()):
            blocks[1] = blocks[0]
        u, v = blocks
        s, t = u * k, v * l
        n = math.lcm(len(s), len(t))
        oracle = s * (n // len(s)) == t * (n // len(t))
        assert bo.ray(s).same_stream(bo.ray(t)) == oracle
        assert bo.ray(s).tail == bo.ray(u).tail

    def test_block_not_cyclically_reduced_is_rejected(self):
        # (4, 3, -4, -3, 2) holds five letters of the inverse relator, so
        # every added block shortens and no periodic normal form exists
        with pytest.raises(ConfigurationError,
                           match=r"\(4, 3, -4, -3, 2\)"):
            Ray(G2, (4, 3, -4, -3, 2))
        for block in ((1, 2, -1), ()):
            with pytest.raises(ConfigurationError):
                Ray(G2, block)

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(genus=st.sampled_from([2, 3]), data=st.data())
    def test_orientation_laws(self, genus, data):
        # rays of rotations of random canonical classes
        group = SurfaceGroup(genus)
        bo = BoundaryOrder(group)
        rays = []
        for _ in range(4):
            word = data.draw(words_of(genus, 8))
            try:
                cls = group.canonical_class(word)
            except TrivialClassError:
                assume(False)
            cut = data.draw(st.integers(0, len(cls) - 1))
            rays.append(bo.ray(cls[cut:] + cls[:cut]))
        assume(not any(a.same_stream(b) for k, a in enumerate(rays)
                       for b in rays[k + 1:]))
        p, q, r, s = rays
        sign = bo.orient(p, q, r)
        assert bo.orient(q, p, r) == -sign
        assert bo.orient(q, r, p) == bo.orient(r, p, q) == sign
        assert bo.linked((p, q), (r, s)) == bo.linked((r, s), (p, q))

    def test_linked_pairs(self):
        bo = BoundaryOrder(G2)
        # axes of a1-conjugates: the base handle curve and a crossing one
        w1 = (1,)
        w2 = (2,)
        pair1 = (bo.ray(inverse(w1)), bo.ray(w1))
        pair2 = (bo.ray(inverse(w2)), bo.ray(w2))
        assert bo.linked(pair1, pair2)   # a and b cross on the handle
        w3 = (3,)
        pair3 = (bo.ray(inverse(w3)), bo.ray(w3))
        assert not bo.linked(pair1, pair3)   # disjoint handles


class TestSharedGroup:
    """A group builds its derived data once and shares it with its rays."""

    def test_segment_table_built_once_per_group(self, monkeypatch):
        builds = []
        original = SurfaceGroup._relator_segments

        def counting(self):
            builds.append(self)
            return original(self)

        monkeypatch.setattr(SurfaceGroup, "_relator_segments", counting)
        _normalize_ray_cached.cache_clear()
        bo = BoundaryOrder(SurfaceGroup(2))
        blocks = [(1, 3, -2), (3, 4, 4), (1, 2, -3, 4), (2, 2, -1, 3, 4),
                  (1, -4, -4, 3, 2, 2)]
        tails = {bo.ray(rot).tail for b in blocks for rot in rotations(b)}
        assert len(tails) >= 20
        assert len(builds) == 1

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(word=st.lists(st.sampled_from(LETTERS), max_size=10).map(tuple))
    def test_long_lived_group_agrees_with_fresh_one(self, word):
        fresh = SurfaceGroup(2)
        assert G2.canonical_element(word) == fresh.canonical_element(word)
        try:
            cls = fresh.canonical_class(word)
        except TrivialClassError:
            with pytest.raises(TrivialClassError):
                G2.canonical_class(word)
            return
        assert G2.canonical_class(word) == cls
        # ray blocks are checked once across groups: clear the memo so
        # each group checks its own
        _normalize_ray_cached.cache_clear()
        fresh_tail = BoundaryOrder(fresh).ray(cls).tail
        _normalize_ray_cached.cache_clear()
        assert BoundaryOrder(G2).ray(cls).tail == fresh_tail


def letters_of(genus):
    return [x for k in range(1, 2 * genus + 1) for x in (k, -k)]


def words_of(genus, max_size):
    return st.lists(st.sampled_from(letters_of(genus)),
                    max_size=max_size).map(tuple)


def long_segments(group):
    """Subwords of more than half a relator cycle, built from scratch."""
    half = group.relator_length // 2
    cycles = rotations(group.relator) + rotations(inverse(group.relator))
    return {rho[:k] for rho in cycles
            for k in range(half + 1, group.relator_length + 1)}


def seeded_words(group, rng, how_many, max_len):
    """Random words, half of them glued from relator segments so that
    long segments and half-relator swaps occur often."""
    letters = letters_of(group.genus)
    cycles = rotations(group.relator) + rotations(inverse(group.relator))
    out = []
    for _ in range(how_many):
        target = rng.randint(0, max_len)
        w = ()
        while len(w) < target:
            if rng.random() < 0.5:
                w += (rng.choice(letters),)
            else:
                w += rng.choice(cycles)[:rng.randint(1, group.relator_length)]
        out.append(w[:target])
    return out


def is_trivial_class(group, w):
    try:
        group.canonical_class(w)
    except TrivialClassError:
        return True
    return False


def word_layer_digest():
    """sha256 over the word layer's outputs on seeded genus-2/3 inputs."""
    digest = hashlib.sha256()
    rng = random.Random(1903)
    for genus, words, max_len in ((2, 2000, 14), (3, 500, 12)):
        group = SurfaceGroup(genus)
        for w in seeded_words(group, rng, words, max_len):
            try:
                cls = group.canonical_class(w)
            except TrivialClassError:
                cls = "trivial"
            digest.update(repr((w, group.reduce_word(w),
                                group.canonical_element(w), cls)).encode())
        # half the tails are geodesic (rotated canonical classes), half
        # arbitrary cyclically reduced words; each accepted ray is
        # compared with the two accepted before it
        order = BoundaryOrder(group)
        rays = []
        for k, w in enumerate(seeded_words(group, rng, 300, 8)):
            tail = cyclic_reduce(w) or (1,)
            if k % 2 and not is_trivial_class(group, tail):
                cls = group.canonical_class(tail)
                cut = rng.randrange(len(cls))
                tail = cls[cut:] + cls[:cut]
            try:
                ray = order.ray(tail)
            except ConfigurationError:
                digest.update(repr((tail, "rejected")).encode())
                continue
            same = tuple(r.same_stream(ray) for r in rays[-2:])
            sign = 0
            if len(same) == 2 and not any(same) \
                    and not rays[-2].same_stream(rays[-1]):
                sign = order.orient(rays[-2], rays[-1], ray)
            digest.update(repr((tail, ray.tail, same, sign)).encode())
            rays.append(ray)
    return digest.hexdigest()


# computed on the parent of the change that cut a ray's tail to its
# primitive root, with the helper hashing the primitive root of
# ray.tail there; the older pin, from rays built as Ray(group, (), tail)
# before rays were purely periodic, was 83bbb949...
WORD_LAYER_PIN = ("85dba26a1aa1d8a0fa77c6f449a84177"
                  "3d31f6148763b5f86badfb614a0276ba")


class TestRewritingKernel:
    """Dehn reduction, half-swap closures and roots, based and cyclic."""

    def test_outputs_pinned(self):
        assert word_layer_digest() == WORD_LAYER_PIN

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(genus=st.sampled_from([2, 3]), data=st.data())
    def test_no_long_segment_survives(self, genus, data):
        group = SurfaceGroup(genus)
        word = data.draw(words_of(genus, 16))
        long = long_segments(group)
        n = group.relator_length
        reduced = group.reduce_word(word)
        assert not any(reduced[i:i + k] in long
                       for i in range(len(reduced))
                       for k in range(n // 2 + 1, n + 1))
        try:
            cls = group.canonical_class(word)
        except TrivialClassError:
            return
        doubled = cls + cls
        assert not any(doubled[i:i + k] in long
                       for i in range(len(cls))
                       for k in range(n // 2 + 1, min(n, len(cls)) + 1))

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(genus=st.sampled_from([2, 3]), m=st.integers(2, 3),
           data=st.data())
    def test_primitive_root_of_a_power(self, genus, m, data):
        group = SurfaceGroup(genus)
        word = data.draw(words_of(genus, 5))
        try:
            root, k = group.primitive_root(word)
        except TrivialClassError:
            return
        assert group.primitive_root(word * m) == (root, k * m)
