"""Index calculus for punctured holomorphic curves in the product model.

Everything in this module is exact integer arithmetic.  Closed Reeb
orbits of low action in the model correspond to pairs (critical point
of a Morse function on the dividing surface, closed orbit downstairs),
and the Conley-Zehnder index of such an orbit differs from the index of
the underlying orbit by a shift that depends only on the Morse index of
the surface critical point.  The operations below package those shift
rules, the Fredholm index, the index of the normal operator of a curve
confined to a leaf hypersurface, the automatic-transversality and
regularity-transfer predicates, and the obstruction-bundle rank rule.

Morse indices of surface critical points are always given for the glued
surface function (unique maximum at index 2, saddles at index 1, unique
minimum at index 0); configuration data never uses the per-piece Morse
functions, whose indices on the positive piece would be reversed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import ConfigurationError, CoverThresholdError, InternalError

SIDE_LEFT = "left"
SIDE_RIGHT = "right"
SIDE_SPINE = "spine"
SIDES = (SIDE_LEFT, SIDE_RIGHT, SIDE_SPINE)

MIN_INDEX = 0
SADDLE_INDEX = 1
MAX_INDEX = 2


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point label together with its Morse index."""

    label: str
    index: int

    def __post_init__(self):
        if self.index not in (0, 1, 2):
            raise ConfigurationError(
                "Morse index must be 0, 1 or 2, got %r" % (self.index,))


def surface_shift(sigma_index: int) -> int:
    """The shift rule of the ambient Conley-Zehnder index.

    +1 over an extremum of the surface Morse function, +0 over a
    saddle; leaf (hypersurface) indices never shift.
    """
    return 1 if sigma_index in (MIN_INDEX, MAX_INDEX) else 0


@dataclass(frozen=True)
class OrbitSymbol:
    """A closed Reeb orbit generator of the model.

    ``crit_sigma`` is the critical point on the dividing surface the
    orbit sits over; ``crit_base`` (right side only) is the critical
    point of the Morse function on the base surface downstairs.
    ``cz_base`` is the Conley-Zehnder index of the underlying orbit in
    the reference trivialization, before the surface shift; for left
    orbits it vanishes in the natural trivialization, for right orbits
    it equals ``crit_base.index - 1``.
    """

    id: str
    side: str
    crit_sigma: CriticalPoint
    cover: int = 1
    action: Fraction = Fraction(1)
    cz_base: int = 0
    crit_base: Optional[CriticalPoint] = None
    good: bool = True
    contractible: bool = False

    def __post_init__(self):
        if self.side not in SIDES:
            raise ConfigurationError("unknown side %r" % (self.side,))
        if self.cover < 1:
            raise ConfigurationError("cover must be >= 1")
        if self.action <= 0:
            raise ConfigurationError("action must be positive")
        if self.side == SIDE_LEFT and self.contractible:
            raise ConfigurationError("left orbits are non-contractible")
        if self.side == SIDE_RIGHT and self.contractible:
            raise ConfigurationError("right orbits are non-contractible")
        if self.side == SIDE_LEFT and self.cz_base != 0:
            raise ConfigurationError(
                "left orbits have vanishing base index in the natural "
                "trivialization")


def left_orbit(id, sigma_index, *, cover=1, action=Fraction(1), good=True):
    """Orbit over a geodesic-type closed orbit, sitting over a critical
    point of the negative piece (index 0 or 1)."""
    if sigma_index not in (MIN_INDEX, SADDLE_INDEX):
        raise ConfigurationError(
            "left-side surface critical points have index 0 or 1")
    return OrbitSymbol(
        id=id, side=SIDE_LEFT,
        crit_sigma=CriticalPoint("sigma-%d" % sigma_index, sigma_index),
        cover=cover, action=action, cz_base=0, good=good)


def right_orbit(id, sigma_index, base_index, *, cover=1, action=Fraction(1),
                good=True):
    """Orbit over a circle fiber, over a critical point of the positive
    piece (index 1 or 2) and a critical point of the base function."""
    if sigma_index not in (SADDLE_INDEX, MAX_INDEX):
        raise ConfigurationError(
            "right-side surface critical points have index 1 or 2")
    return OrbitSymbol(
        id=id, side=SIDE_RIGHT,
        crit_sigma=CriticalPoint("sigma-%d" % sigma_index, sigma_index),
        crit_base=CriticalPoint("base-%d" % base_index, base_index),
        cover=cover, action=action, cz_base=base_index - 1, good=good)


def _check_cover(o: OrbitSymbol, cover_threshold: Optional[int]):
    if cover_threshold is not None and o.cover > cover_threshold:
        raise CoverThresholdError(
            "orbit %s has cover %d above threshold %d"
            % (o.id, o.cover, cover_threshold))


def cz_in_model(o: OrbitSymbol, cover_threshold: Optional[int] = None) -> int:
    """Conley-Zehnder index of the orbit in the ambient contact model:
    the base index plus the ``surface_shift`` of its critical point."""
    _check_cover(o, cover_threshold)
    return o.cz_base + surface_shift(o.crit_sigma.index)


class RightCz(NamedTuple):
    ambient: int
    hypersurface: int


def cz_right(o: OrbitSymbol, cover_threshold: Optional[int] = None) -> RightCz:
    """Ambient and hypersurface Conley-Zehnder indices of a right orbit.

    Over a saddle both agree and equal ind(q) - 1; over an extremum the
    ambient index picks up the +1 shift, so it equals ind(q) while the
    hypersurface value stays at ind(q) - 1.
    """
    _check_cover(o, cover_threshold)
    if o.side != SIDE_RIGHT:
        raise ConfigurationError("cz_right needs a right-side orbit")
    if o.crit_base is None:
        raise ConfigurationError("right orbit %s is missing its base "
                                 "critical point" % (o.id,))
    base = o.crit_base.index - 1
    return RightCz(ambient=base + surface_shift(o.crit_sigma.index),
                   hypersurface=base)


def cz_resolved(o: OrbitSymbol, ambient: str = "M",
                cover_threshold: Optional[int] = None) -> int:
    """Resolve an orbit's Conley-Zehnder index for the chosen ambient.

    ``ambient`` is "M" for the full contact model and "W0" for the
    completed semi-filling a leaf identifies with.
    """
    _check_cover(o, cover_threshold)
    if ambient == "M":
        if o.side == SIDE_RIGHT:
            return cz_right(o).ambient
        return cz_in_model(o)
    if ambient == "W0":
        if o.side == SIDE_RIGHT:
            return cz_right(o).hypersurface
        return o.cz_base
    raise ConfigurationError("ambient must be 'M' or 'W0', got %r"
                             % (ambient,))


@dataclass(frozen=True)
class PunctureProfile:
    """Genus plus the six puncture counts sorted by surface Morse index.

    ``pos[i]`` / ``neg[i]`` count positive / negative punctures whose
    asymptotic orbit sits over a surface critical point of index i.
    """

    genus: int
    pos: Tuple[int, int, int] = (0, 0, 0)
    neg: Tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        if self.genus < 0:
            raise ConfigurationError("genus must be non-negative")
        if len(self.pos) != 3 or len(self.neg) != 3:
            raise ConfigurationError("puncture counts come in triples")
        if any(c < 0 for c in self.pos + self.neg):
            raise ConfigurationError("puncture counts must be non-negative")

    @property
    def total_punctures(self) -> int:
        return sum(self.pos) + sum(self.neg)

    @property
    def even_punctures(self) -> int:
        """Punctures whose normal asymptotic operator has even index."""
        return self.pos[1] + self.neg[1]

    def is_single_hypersurface(self) -> bool:
        """All positive ends over one critical point, ditto negative."""
        return (sum(1 for c in self.pos if c) <= 1
                and sum(1 for c in self.neg if c) <= 1)


@dataclass(frozen=True)
class CurveIndexData:
    """Everything the Fredholm index formula consumes.

    ``half_dim`` is n for a (2n+2)-dimensional symplectization.  The
    asymptotic lists carry orbit symbols; their Conley-Zehnder indices
    are resolved through the shift rules for the chosen ambient.
    """

    half_dim: int
    euler_char: int
    rel_chern: int
    positive: Tuple[OrbitSymbol, ...] = ()
    negative: Tuple[OrbitSymbol, ...] = ()

    def check_euler(self, genus: int):
        punctures = len(self.positive) + len(self.negative)
        expected = 2 - 2 * genus - punctures
        if self.euler_char != expected:
            raise ConfigurationError(
                "Euler characteristic %d does not match genus %d with %d "
                "punctures" % (self.euler_char, genus, punctures))


def fredholm_index(c: CurveIndexData, ambient: str = "M",
                   cover_threshold: Optional[int] = None) -> int:
    """Fredholm index (n-2)*chi + 2*c1 + sum(CZ+) - sum(CZ-)."""
    cz_plus = sum(cz_resolved(o, ambient, cover_threshold)
                  for o in c.positive)
    cz_minus = sum(cz_resolved(o, ambient, cover_threshold)
                   for o in c.negative)
    return ((c.half_dim - 2) * c.euler_char + 2 * c.rel_chern
            + cz_plus - cz_minus)


def fredholm_index_from_cz(half_dim: int, euler_char: int, rel_chern: int,
                           cz_pos: Sequence[int],
                           cz_neg: Sequence[int]) -> int:
    """Fredholm index from already-resolved Conley-Zehnder integers."""
    return ((half_dim - 2) * euler_char + 2 * rel_chern
            + sum(cz_pos) - sum(cz_neg))


def normal_index(p: PunctureProfile) -> int:
    """Index of the normal operator of a curve inside a leaf.

    The normal asymptotic operator at a puncture over a critical point
    of Morse index i has Conley-Zehnder index |i - 1|, and the line
    bundle has vanishing relative first Chern class in the natural
    trivialization, so Riemann-Roch gives two equivalent expressions.
    Both are evaluated and must agree.
    """
    gamma = p.total_punctures
    first = (2 - 2 * p.genus - gamma
             + p.pos[0] + p.pos[2] - p.neg[0] - p.neg[2])
    second = (2 - 2 * p.genus - 2 * p.neg[0] - 2 * p.neg[2]
              - p.pos[1] - p.neg[1])
    if first != second:
        raise InternalError(
            "the two Riemann-Roch evaluations disagree on %r" % (p,))
    return first


def automatic_transversality(p: PunctureProfile, ind: int) -> bool:
    """Surjectivity criterion for a rank-1 normal operator.

    True iff ind > -2 + 2g + #(even punctures); satisfiable only in
    genus zero for the profiles arising here.
    """
    return ind > -2 + 2 * p.genus + p.even_punctures


def regularity_transfer(p: PunctureProfile, regular_in_leaf: bool) -> bool:
    """Does leaf regularity imply regularity in the ambient model?

    Requires genus zero and fewer than two punctures of the four types
    whose normal operator obstructs the transfer.
    """
    bad = p.neg[0] + p.neg[1] + p.pos[1] + p.neg[2]
    return bool(regular_in_leaf and p.genus == 0 and bad < 2)


def kernel_bound(c1N: int, gamma_even: int) -> int:
    """min{k+l : 0 <= k <= G, l >= 0 even, 2k+l > 2c} for c = c1N, G = gamma_even."""
    if gamma_even < 0:
        raise ConfigurationError("gamma_even must be non-negative")
    best = None
    for k in range(gamma_even + 1):
        need = 2 * c1N - 2 * k   # want l > need, l even >= 0
        if need < 0:
            l = 0
        else:
            l = need + 2 if need % 2 == 0 else need + 1
        if best is None or k + l < best:
            best = k + l
    return best


def obstruction_rank(rank_in_leaf: int, indN: int, dim_ker_N: int) -> int:
    """Rank of the ambient obstruction bundle of a not-too-bad curve.

    ``dim_ker_N`` is dictated by the hypersurface type: 0 cylindrical,
    1 over an index-1 flow line, 2 over an index-2 flow line.
    """
    if dim_ker_N not in (0, 1, 2):
        raise ConfigurationError("dim_ker_N must be 0, 1 or 2")
    rank = rank_in_leaf - indN + dim_ker_N
    if rank < 0:
        raise ConfigurationError(
            "negative obstruction rank from (%d, %d, %d); inputs are "
            "inconsistent" % (rank_in_leaf, indN, dim_ker_N))
    return rank


def gluing_base_dim(virt_dim: int, rank: int) -> int:
    """Dimension of the pregluing base: virtual dimension plus rank."""
    if rank < 0:
        raise ConfigurationError("rank must be non-negative")
    return virt_dim + rank
