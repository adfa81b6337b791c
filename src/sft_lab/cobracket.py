"""Loop operations on a closed hyperbolic surface via boundary linking.

Self-intersections of a free homotopy class are enumerated as linked
pairs of rotations of its canonical cyclic word: rotation i determines
the lift of the loop through the basepoint cell reading the i-th cyclic
spelling, and two such lifts cross exactly when their endpoint pairs
interleave on the boundary circle, decided exactly by the word
combinatorics.  Resolving a crossing splits the cyclic word into its
two subloops, which is the string cobracket; joining two loops at a
crossing concatenates their rotated spellings, which is the string
bracket.

A crossing between strands i < j carries the sign of the frame (strand
i direction, strand j direction) against the fixed surface orientation
(the germ cycle order).  The loop following the first positive frame
direction is the first resolution factor.

Proper powers: a class v^m is resolved on its full length-m*|v|
spelling; rotation pairs congruent modulo |v| describe the same lift
line and never cross, so the power has m^2 times the crossings of its
root, each resolution read off the power spelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigurationError
from .words import (BoundaryOrder, Ray, SurfaceGroup, Word, inverse,
                    rotations, word_key)

# bracket joins lift pairs whose relative element is prefix + connector
# + prefix^-1 over reduced connectors up to this length; no bound shows
# that every crossing is reached, so the radius is not certified
CONNECTOR_RADIUS = 2


def _power(w, k: int):
    if k >= 0:
        return w * k
    return inverse(w) * (-k)


def _reduced_words(rank: int, radius: int) -> List[Word]:
    """Freely reduced words of length <= radius, shortest first."""
    letters = [x for k in range(1, rank + 1) for x in (k, -k)]
    words: List[Word] = [()]
    frontier: List[Word] = [()]
    for _ in range(radius):
        frontier = [v + (x,) for v in frontier for x in letters
                    if not (v and v[-1] == -x)]
        words.extend(frontier)
    return words


class TensorSum:
    """Integer combination of keys; zero coefficients never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict] = None):
        self.terms: Dict = {}
        if terms:
            for k, v in terms.items():
                if v:
                    self.terms[k] = v

    def add(self, key, value: int):
        new = self.terms.get(key, 0) + value
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def plus(self, other: "TensorSum") -> "TensorSum":
        out = TensorSum(dict(self.terms))
        for k, v in other.terms.items():
            out.add(k, v)
        return out

    def negated(self) -> "TensorSum":
        return TensorSum({k: -v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorSum) and self.terms == other.terms

    def __repr__(self) -> str:
        return "TensorSum(%r)" % (self.terms,)


@dataclass(frozen=True)
class Crossing:
    """One self-intersection: rotation pair, sign, resolved subloops.

    ``first``/``second`` are the canonical classes of the subloop
    following strand i resp. strand j out of the crossing; for a
    positive crossing the frame order is (first, second).
    """

    i: int
    j: int
    sign: int
    first: Word
    second: Word


class StringTopology:
    """Cobracket, bracket and sporadic counts for one surface group."""

    def __init__(self, group: SurfaceGroup):
        self.group = group
        self.order = BoundaryOrder(group)
        self._ray_cache: Dict[Word, Tuple[Ray, Ray]] = {}
        self._connectors = _reduced_words(group.rank, CONNECTOR_RADIUS)

    # -- lifts ------------------------------------------------------------

    def _axis_rays(self, spelling: Word) -> Tuple[Ray, Ray]:
        """(repelling, attracting) boundary rays of the spelling's lift."""
        cached = self._ray_cache.get(spelling)
        if cached is None:
            xi = self.order.ray((), spelling)
            eta = self.order.ray((), inverse(spelling))
            cached = (eta, xi)
            self._ray_cache[spelling] = cached
        return cached

    def _same_line(self, a: Word, b: Word) -> bool:
        """Do two cyclic spellings trace the same lift line?"""
        return self.group.equal(a, b) or self.group.is_trivial(a + b)

    # -- self-intersections ------------------------------------------------

    def _pair_orbit_key(self, w1: Word, w2: Word,
                        cores: Tuple[Word, ...]) -> Word:
        """Canonical label of the lift pair (base of w1, g * base of w2).

        Two lift pairs describe the same crossing exactly when their
        relative elements g lie in a common double coset <w1> g <w2>.
        ``cores`` lists the relative elements whose double cosets form
        the orbit: (g, inverse(g)) for two lifts of one word, whose
        branches may be swapped, and (g,) for an ordered pair of words.
        The key is the least canonical spelling over that orbit,
        scanned through a power window wide enough for the sizes at
        hand.
        """
        group = self.group
        width = 1
        while True:
            best = None
            shortest_on_boundary = None
            for core in cores:
                for a in range(-width, width + 1):
                    for b in range(-width, width + 1):
                        cand = group.canonical_element(
                            _power(w1, a) + core + _power(w2, b))
                        key = (len(cand), word_key(cand))
                        if best is None or key < best[0]:
                            best = (key, cand)
                        if abs(a) == width or abs(b) == width:
                            if (shortest_on_boundary is None
                                    or len(cand) < shortest_on_boundary):
                                shortest_on_boundary = len(cand)
            # lengths grow linearly in the powers once past the minimum,
            # so a strictly longer boundary certifies the orbit minimum
            if width >= 6 or shortest_on_boundary > best[0][0]:
                return best[1]
            width += 1

    def self_intersection_pairs(self, w: Word) -> List[Crossing]:
        """Double points of the geodesic as deduplicated linked pairs.

        Rotation i spells the lift of the loop through the basepoint
        cell; lifts i and j cross when their endpoint pairs interleave.
        Every double point appears among such pairs at least once, and
        pairs describing the same double point are merged through the
        double-coset orbit key.
        """
        n = len(w)
        rots = rotations(w)
        linked: List[Crossing] = []
        for i in range(n):
            for j in range(i + 1, n):
                if self._same_line(rots[i], rots[j]):
                    continue
                eta_i, xi_i = self._axis_rays(rots[i])
                eta_j, xi_j = self._axis_rays(rots[j])
                if not self.order.linked((eta_i, xi_i), (eta_j, xi_j)):
                    continue
                sign = self.order.orient(eta_i, eta_j, xi_i)
                along_i = w[i:j]
                along_j = w[j:] + w[:i]
                first = self.group.canonical_class(along_i)
                second = self.group.canonical_class(along_j)
                if sign == -1:
                    first, second = second, first
                linked.append(Crossing(i=i, j=j, sign=sign,
                                       first=first, second=second))
        # the ordered resolution pair is a branch-order invariant of the
        # double point, so only pairs sharing it can coincide; settle
        # those groups through the double-coset orbit key
        groups: Dict[Tuple[Word, Word], List[Crossing]] = {}
        for c in linked:
            groups.setdefault((c.first, c.second), []).append(c)
        out: List[Crossing] = []
        for c in linked:
            group_members = groups[(c.first, c.second)]
            if len(group_members) == 1:
                out.append(c)
                continue
            if group_members[0] is c:    # dedupe once per group
                by_key = {}
                for member in group_members:
                    g = w[:member.i] + inverse(w[:member.j])
                    key = self._pair_orbit_key(w, w, (g, inverse(g)))
                    by_key.setdefault(key, member)
                out.extend(by_key.values())
        return out

    def self_intersection_number(self, w: Word) -> int:
        return len(self.self_intersection_pairs(w))

    # -- cobracket ----------------------------------------------------------

    def cobracket(self, w: Word) -> TensorSum:
        """Sum of first x second - second x first over all crossings."""
        out = TensorSum()
        for c in self.self_intersection_pairs(w):
            out.add((c.first, c.second), 1)
            out.add((c.second, c.first), -1)
        return out

    def cobracket_swapped(self, w: Word) -> TensorSum:
        ts = self.cobracket(w)
        out = TensorSum()
        for (x, y), v in ts.terms.items():
            out.add((y, x), v)
        return out

    def one_sided_resolutions(self, w: Word) -> TensorSum:
        """Orientation-ordered resolution sum: one term per crossing.

        Unlike the cobracket, whose coefficient at a mutually reversed
        pair of slots cancels against its swap, this form has a
        well-defined trace over reversed pairs: it counts the crossings
        resolving into a loop and its reversal, independent of any
        labeling choice.
        """
        out = TensorSum()
        for c in self.self_intersection_pairs(w):
            out.add((c.first, c.second), 1)
        return out

    # -- bracket -------------------------------------------------------------

    def bracket(self, w1: Word, w2: Word) -> TensorSum:
        """Signed sum of joined loops over crossings of the two classes.

        Lift pairs are enumerated as (base lift of the first word,
        relative translate of the second); unlike self-intersections the
        two lift paths need not share a vertex, so the relative elements
        run over prefix-to-prefix words padded by a ball of connectors.
        Crossings are deduplicated by the orbit of the relative element
        under deck powers on either side.
        """
        group = self.group
        out = TensorSum()
        rots1, rots2 = rotations(w1), rotations(w2)
        eta1, xi1 = self._axis_rays(w1)
        taken: Dict[Word, int] = {}
        for i in range(len(w1)):
            for j in range(len(w2)):
                for s in self._connectors:
                    g = w1[:i] + s + inverse(w2[:j])
                    conj = group.reduce_word(g + w2 + inverse(g))
                    # common axis = commuting elements in a surface group
                    if group.is_trivial(conj + tuple(w1)
                                        + inverse(conj) + inverse(w1)):
                        continue        # same geodesic line
                    eta2 = self.order.ray(g, inverse(w2))
                    xi2 = self.order.ray(g, w2)
                    if eta2.same_stream(xi2):
                        continue
                    if not self.order.linked((eta1, xi1), (eta2, xi2)):
                        continue
                    key = self._pair_orbit_key(w1, w2, (g,))
                    if key in taken:
                        continue
                    sign = self.order.orient(eta1, eta2, xi1)
                    taken[key] = sign
                    joined = group.canonical_class(
                        tuple(w1) + g + tuple(w2) + inverse(g))
                    out.add(joined, sign)
        return out

    # -- labels and sporadic counts -------------------------------------------

    def sporadic_count_direct(self, w: Word) -> int:
        """Count of crossings resolving into mutually inverse loops.

        The branch order at a crossing carries no invariant sign once
        the resolutions are a loop and its own reversal, so each such
        crossing contributes one; an overall orientation convention
        would at most flip the global sign of the count.
        """
        total = 0
        for c in self.self_intersection_pairs(w):
            if c.second == self.group.inverse_class(c.first):
                total += 1
        return total


class ClassRegistry:
    """Lazily numbered free homotopy classes; negatives are reversals.

    Labels are positive integers handed out in first-seen order; the
    label of the reversed class is the negated integer.  A class equal
    to its own reversal gets a single positive label.
    """

    def __init__(self, group: SurfaceGroup):
        self.group = group
        self._label_of: Dict[Word, int] = {}
        self._word_of: Dict[int, Word] = {}

    def label(self, word: Sequence[int]) -> int:
        w = self.group.canonical_class(word)
        got = self._label_of.get(w)
        if got is not None:
            return got
        rev = self.group.inverse_class(w)
        fresh = len(self._word_of) + 1
        self._label_of[w] = fresh
        self._word_of[fresh] = w
        if rev != w:
            self._label_of[rev] = -fresh
        return fresh

    def word(self, label: int) -> Word:
        if label in self._word_of:
            return self._word_of[label]
        if -label in self._word_of:
            return self.group.inverse_class(self._word_of[-label])
        raise ConfigurationError("label %d not registered" % label)

    def inverse_label(self, label: int) -> int:
        w = self.word(label)
        rev = self.group.inverse_class(w)
        if rev == w:
            return label
        return self.label(rev)

    def known(self) -> Dict[int, Word]:
        return dict(self._word_of)


def cobracket_coefficients(st: StringTopology, registry: ClassRegistry,
                           w: Word) -> Dict[Tuple[int, int], int]:
    """Coefficient map of the cobracket in the registry labeling."""
    coeffs: Dict[Tuple[int, int], int] = {}
    for (x, y), v in st.cobracket(w).terms.items():
        key = (registry.label(x), registry.label(y))
        coeffs[key] = coeffs.get(key, 0) + v
        if not coeffs[key]:
            del coeffs[key]
    return coeffs


def sporadic_count_from_coefficients(st: StringTopology,
                                     registry: ClassRegistry,
                                     w: Word) -> int:
    """Reversed-pair trace of the resolution coefficients.

    Routes through the registry labeling: assembles the coefficient map
    of the orientation-ordered resolution sum and adds the entries at
    slots (j, reversal of j).  The analogous trace of the
    antisymmetrized cobracket coefficients vanishes identically (slot
    (j,-j) cancels slot (-j,j)), which is why the one-sided form
    carries the sporadic count.
    """
    coeffs: Dict[Tuple[int, int], int] = {}
    for (x, y), v in st.one_sided_resolutions(w).terms.items():
        key = (registry.label(x), registry.label(y))
        coeffs[key] = coeffs.get(key, 0) + v
    total = 0
    for (j, k), v in coeffs.items():
        if registry.inverse_label(j) == k:
            total += v
    return total
