"""Loop operations on a closed hyperbolic surface via boundary linking.

A free homotopy class is given by its canonical cyclic word w, which is
cyclically geodesic.  Rotation i of w spells the lift of the loop that
passes through the base vertex at position i of the word; it is a
geodesic line of the Cayley graph with two distinct ends on the
boundary circle.  Two lifts cross exactly when their end pairs
interleave on the circle, which the word combinatorics decide exactly.

Completeness.  The Cayley graph of the standard presentation is the
1-skeleton of the {4g,4g} tiling, so it is planar.  Two geodesic lines
in it whose ends interleave separate each other and so share a vertex.
Translating that vertex to the base puts both lines through the base,
each at the rotation it reads there.  So every crossing of w1 with w2
appears as a rotation pair (i, j) of linked lines through the base,
with relative element g = w1[:i] + inverse(w2[:j]); no connector words
are needed.

Identification.  Each shared vertex of one pair of crossing lines gives
one rotation pair of that crossing.  Two shared vertices joined by an
edge of both lines give pairs that are merged, indices mod the word
lengths:

* parallel edge: (i, j) with (i+1, j+1) when w1[i] == w2[j];
* anti-parallel edge: (i, j) with (i+1, j-1) when w1[i] == -w2[j-1].

For self-intersections the pair is unordered; applying the anti-parallel
rule to (j, i) also merges (i, j) with (i-1, j+1) when w[j] == -w[i-1].
Each class of the union-find is one crossing.  Merging is sound by
construction: along a shared edge the relative element g does not
change.  It is complete when two crossing lines meet in a connected
set.  That is the open assumption of this module: a meet in two pieces
would be a bigon of two distinct geodesic spellings of one element,
each read inside a canonical cyclic word, and no proof is recorded here
that canonical spellings exclude it.  Tests check the counts against a
double-coset oracle and a numeric disc model, and ``bracket`` against
the augmentation identity.

A crossing between strands i < j carries the sign of the frame (strand
i direction, strand j direction) against the fixed surface orientation
(the germ cycle order).  The loop following the first positive frame
direction is the first resolution factor.  Resolving a crossing splits
the cyclic word into its two subloops, which is the string cobracket;
joining two loops at a crossing concatenates their rotated spellings,
which is the string bracket.

Proper powers: a class v^m is resolved on its full length-m*|v|
spelling, which need not be v's spelling repeated; rotation pairs whose
rotations commute describe the same lift line and never cross, and
indices mod the power's length keep the m^2 phases of each crossing of
v apart, so the power has m^2 times the crossings of its root, each
resolution read off the power spelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigurationError
from .words import BoundaryOrder, Ray, SurfaceGroup, Word, inverse, rotations

# a rotation of a class with the (repelling, attracting) rays of its lift
Lift = Tuple[Word, Ray, Ray]


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

    (i, j), i < j, is the least rotation pair of the crossing's class.
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

    # -- lifts ------------------------------------------------------------

    def _lifts(self, w: Word) -> List[Lift]:
        """(rotation, repelling ray, attracting ray) of the lift read at
        each rotation of w."""
        ray = self.order.ray
        return [(r, ray(inverse(r)), ray(r)) for r in rotations(w)]

    def _pair_orbit_key(self, w1: Word, w2: Word, unordered: bool
                        ) -> List[Tuple[int, int]]:
        """Orbit keys of the rotation pairs of w1 and w2.

        Rotation pair (i, j) stands for the pair of lifts through the
        base reading rotations i and j.  A union-find merges pairs along
        the edges shared by their two lines (see the module docstring);
        each class is the orbit of one lift pair, and its least pair is
        its key.  The keys are returned in increasing order.  With
        ``unordered`` (w1 == w2) the pairs (i, j) and (j, i) are one
        node, keyed with i < j, and the diagonal is left out.
        """
        n1, n2 = len(w1), len(w2)
        parent = list(range(n1 * n2))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def node(i, j):
            i, j = i % n1, j % n2
            if unordered and i > j:
                i, j = j, i
            return i * n2 + j

        def union(a, b):
            a, b = find(a), find(b)
            parent[max(a, b)] = min(a, b)   # the least pair stays the root

        for i in range(n1):
            for j in range(n2):
                if w1[i] == w2[j]:
                    union(node(i, j), node(i + 1, j + 1))
                if w1[i] == -w2[j - 1]:
                    union(node(i, j), node(i + 1, j - 1))
        return [(i, j) for i in range(n1)
                for j in range(i + 1 if unordered else 0, n2)
                if find(i * n2 + j) == i * n2 + j]

    def _crossing_sign(self, lift1: Lift, lift2: Lift,
                       may_share: bool) -> int:
        """Sign of the crossing of two lifts through the base.

        0 when they do not cross: their ends do not interleave, or the
        lines share their ends (a common axis), which is settled before
        ``linked``, since ``orient`` needs distinct ends.  A common axis
        means that the rotations commute, so both are powers of one
        primitive element; it can carry two different ray blocks, so
        ray equality does not see it.  Callers pass ``may_share`` False
        when the classes rule it out, and the commutator is then not
        reduced.
        """
        a, eta1, xi1 = lift1
        b, eta2, xi2 = lift2
        if may_share and self.group.is_trivial(a + b + inverse(a)
                                               + inverse(b)):
            return 0
        if not self.order.linked((eta1, xi1), (eta2, xi2)):
            return 0
        return self.order.orient(eta1, eta2, xi1)

    # -- self-intersections ------------------------------------------------

    def self_intersection_pairs(self, w: Word) -> List[Crossing]:
        """Double points of the geodesic of the canonical cyclic word w.

        Lifts i and j through the base cross when their end pairs
        interleave.  By planarity every double point has a lift pair
        sharing a vertex, translated to the base, so it appears among
        the rotation pairs; pairs at adjacent shared vertices merge
        (parallel: (i, j) with (i+1, j+1) when w[i] == w[j];
        anti-parallel: (i, j) with (i+1, j-1) when w[i] == -w[j-1], and
        (i, j) with (i-1, j+1) when w[j] == -w[i-1]), and each class is
        one double point if crossing lines meet in a connected set, the
        module's open assumption.

        Lifts of a primitive class never share an end: rotations of
        a primitive word at distinct positions never commute, since a
        common root would make the subword between them, nonempty and
        shorter than w, a power of rotation i.  For a proper power the
        commutator of each rotation pair is reduced.  Its canonical
        spelling need not be periodic (a half-relator can be swapped in
        one copy only), so two rotations can be one element spelled two
        ways, with different ray blocks.
        """
        power = self.group.primitive_root(w)[1] > 1
        lifts = self._lifts(w)
        out: List[Crossing] = []
        for i, j in self._pair_orbit_key(w, w, True):
            sign = self._crossing_sign(lifts[i], lifts[j], power)
            if not sign:
                continue
            first = self.group.canonical_class(w[i:j])
            second = self.group.canonical_class(w[j:] + w[:i])
            if sign == -1:
                first, second = second, first
            out.append(Crossing(i=i, j=j, sign=sign,
                                first=first, second=second))
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

        By planarity a crossing lift pair shares a vertex, translated to
        the base, so the lift pairs are the rotation pairs (i, j) with
        relative element g = w1[:i] + inverse(w2[:j]).  Pairs at
        adjacent shared vertices merge (parallel: (i, j) with
        (i+1, j+1) when w1[i] == w2[j]; anti-parallel: (i, j) with
        (i+1, j-1) when w1[i] == -w2[j-1]), and each class is one
        crossing if crossing lines meet in a connected set, the
        module's open assumption.  The joined loop w1 g w2 g^-1 is
        conjugate to rotation i of w1 followed by rotation j of w2.

        Two lifts share their ends exactly when their rotations commute,
        which needs w1 and w2 to be powers of one root or of it and its
        inverse; only then is the commutator reduced.
        """
        root1 = self.group.primitive_root(w1)[0]
        root2 = self.group.primitive_root(w2)[0]
        one_root = root1 in (root2, self.group.inverse_class(root2))
        lifts1, lifts2 = self._lifts(w1), self._lifts(w2)
        out = TensorSum()
        for i, j in self._pair_orbit_key(w1, w2, False):
            sign = self._crossing_sign(lifts1[i], lifts2[j], one_root)
            if sign:
                out.add(self.group.canonical_class(lifts1[i][0]
                                                   + lifts2[j][0]), sign)
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
