"""Double-coset oracle for self-intersection pairs.

Test-only, and independent of the shared-edge union-find in
``sft_lab.cobracket``.  It lists the linked rotation pairs (i, j),
i < j, of a canonical cyclic word w, exactly as production does, and
decides which of them describe one double point by a different rule:
two lift pairs are the same double point when their relative elements
g = w[:i] + inverse(w[:j]) lie in one double coset <w> g <w>, up to
swapping the two branches (g against inverse(g)).  Each double coset is
labelled by its least canonical spelling over a window of powers
w^a g w^b, widened until the spellings on the window's boundary are
strictly longer than the least one inside; lengths grow linearly in
the powers past the minimum, so that certifies the label.  The window
stops with an error at ``MAX_WIDTH`` instead of guessing.

The oracle keeps the least linked pair of each double coset, so its
(first, second, sign) triples are those of the production crossings
when both identify the same classes.
"""

from __future__ import annotations

from typing import List, Tuple

from sft_lab.cobracket import Crossing
from sft_lab.words import BoundaryOrder, SurfaceGroup, Word, inverse, \
    rotations, word_key

MAX_WIDTH = 12


def _power(w: Word, k: int) -> Word:
    return w * k if k >= 0 else inverse(w) * (-k)


class DoubleCosetOracle:
    """Self-intersection pairs deduplicated by double-coset labels."""

    def __init__(self, group: SurfaceGroup):
        self.group = group
        self.order = BoundaryOrder(group)

    def label(self, w: Word, g: Word) -> Word:
        """Least canonical spelling over <w> g <w> and <w> g^-1 <w>."""
        canonical = self.group.canonical_element
        for width in range(1, MAX_WIDTH + 1):
            best = None
            edge = None
            for core in (g, inverse(g)):
                for a in range(-width, width + 1):
                    for b in range(-width, width + 1):
                        cand = canonical(_power(w, a) + core + _power(w, b))
                        key = (len(cand), word_key(cand))
                        if best is None or key < best[0]:
                            best = (key, cand)
                        if max(abs(a), abs(b)) == width:
                            edge = len(cand) if edge is None else min(
                                edge, len(cand))
            if edge > best[0][0]:
                return best[1]
        raise AssertionError("double-coset window not certified for %r"
                             % (w,))

    def crossings(self, w: Word) -> List[Crossing]:
        group = self.group
        rots = rotations(w)
        out: List[Crossing] = []
        labels = set()
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                a, b = rots[i], rots[j]
                if group.equal(a, b) or group.is_trivial(a + b):
                    continue        # one line, possibly reversed
                eta_i, xi_i = self.order.ray(inverse(a)), self.order.ray(a)
                eta_j, xi_j = self.order.ray(inverse(b)), self.order.ray(b)
                if not self.order.linked((eta_i, xi_i), (eta_j, xi_j)):
                    continue
                label = self.label(w, w[:i] + inverse(w[:j]))
                if label in labels:
                    continue
                labels.add(label)
                sign = self.order.orient(eta_i, eta_j, xi_i)
                first = group.canonical_class(w[i:j])
                second = group.canonical_class(w[j:] + w[:i])
                if sign == -1:
                    first, second = second, first
                out.append(Crossing(i=i, j=j, sign=sign,
                                    first=first, second=second))
        return out


def triples(crossings) -> List[Tuple[Word, Word, int]]:
    """Sorted (first, second, sign) multiset of a crossing list."""
    return sorted((c.first, c.second, c.sign) for c in crossings)
