"""Index calculus for punctured holomorphic curves in the product model.

Everything in this module is exact integer arithmetic.  It owns the one
orbit type of the package: a closed Reeb orbit of low action in the
model is an ``OrbitType``, a critical point of a Morse function on the
dividing surface together with a datum downstairs (a geodesic class on
the left side, a base critical point on the right side) and a covering
multiplicity.  Its Conley-Zehnder index is the leaf value plus
``surface_shift`` of the surface critical point, the one CZ rule of the
package; ``left_orbit`` and ``right_orbit`` turn an orbit into an
algebra generator graded by that index's parity.  The operations below
also package the Fredholm index, the index of the normal operator of a
curve confined to a leaf hypersurface, the automatic-transversality and
regularity-transfer predicates, and the obstruction-bundle rank rule.

Morse indices of surface critical points are always given for the glued
surface function (unique maximum at index 2, saddles at index 1, unique
minimum at index 0); configuration data never uses the per-piece Morse
functions, whose indices on the positive piece would be reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .algebra import Generator
from .errors import ConfigurationError, InternalError

MIN_INDEX = 0
SADDLE_INDEX = 1
MAX_INDEX = 2

SIGMA_MIN = "min"          # index 0, left piece
SIGMA_HYP_LEFT = "hyp-"    # index 1, left piece
SIGMA_HYP_RIGHT = "hyp+"   # index 1, right piece
SIGMA_MAX = "max"          # index 2, right piece

SIGMA_INDEX = {SIGMA_MIN: 0, SIGMA_HYP_LEFT: 1, SIGMA_HYP_RIGHT: 1,
               SIGMA_MAX: 2}
SIGMA_SIDE = {SIGMA_MIN: "left", SIGMA_HYP_LEFT: "left",
              SIGMA_HYP_RIGHT: "right", SIGMA_MAX: "right"}

BASE_MIN = "m"             # base Morse index 0
BASE_SADDLE = "s"          # base Morse index 1
BASE_MAX = "M"             # base Morse index 2
BASE_INDEX = {BASE_MIN: 0, BASE_SADDLE: 1, BASE_MAX: 2}


def surface_shift(sigma_index: int) -> int:
    """The shift rule of the ambient Conley-Zehnder index.

    +1 over an extremum of the surface Morse function, +0 over a
    saddle; leaf (hypersurface) indices never shift.
    """
    return 1 if sigma_index in (MIN_INDEX, MAX_INDEX) else 0


@dataclass(frozen=True, order=True)
class OrbitType:
    """Type of a closed orbit: surface critical point, base datum, cover.

    Left orbits carry a geodesic class implicitly (one class per
    orientation in the fixture); right orbits carry the base critical
    point.  The ambient Conley-Zehnder index adds the ``surface_shift``
    of the surface critical point to the leaf value.
    """

    sigma: str
    base: Optional[str] = None
    cover: int = 1

    def __post_init__(self):
        if self.sigma not in SIGMA_INDEX:
            raise ConfigurationError("unknown surface critical type %r"
                                     % (self.sigma,))
        if self.side == "right":
            if self.base not in BASE_INDEX:
                raise ConfigurationError("right orbits need a base point")
        else:
            if self.base is not None:
                raise ConfigurationError("left orbits carry no base point")
        if self.cover < 1:
            raise ConfigurationError("cover must be positive")

    @property
    def side(self) -> str:
        return SIGMA_SIDE[self.sigma]

    @property
    def cz_leaf(self) -> int:
        if self.side == "left":
            return 0
        return BASE_INDEX[self.base] - 1

    @property
    def cz_ambient(self) -> int:
        return self.cz_leaf + surface_shift(self.sigma_index)

    @property
    def sigma_index(self) -> int:
        return SIGMA_INDEX[self.sigma]

    def action(self, cfg: "ModelConfig") -> Fraction:
        unit = (cfg.left_action_unit if self.side == "left"
                else cfg.right_action_unit)
        return unit * self.cover

    def label(self) -> str:
        core = self.sigma if self.base is None else \
            "%s;%s" % (self.sigma, self.base)
        return core if self.cover == 1 else "%s^%d" % (core, self.cover)


_LEFT_SIGMA = {MIN_INDEX: SIGMA_MIN, SADDLE_INDEX: SIGMA_HYP_LEFT}
_RIGHT_SIGMA = {SADDLE_INDEX: SIGMA_HYP_RIGHT, MAX_INDEX: SIGMA_MAX}
_BASE_OF_INDEX = {i: name for name, i in BASE_INDEX.items()}


def left_orbit(id, sigma_index, *, cover=1, action=Fraction(1)) -> Generator:
    """Generator of the orbit over a geodesic-type closed orbit, sitting
    over a critical point of the negative piece (index 0 or 1), graded
    by its ambient Conley-Zehnder parity."""
    if sigma_index not in _LEFT_SIGMA:
        raise ConfigurationError(
            "left-side surface critical points have index 0 or 1")
    orbit = OrbitType(_LEFT_SIGMA[sigma_index], cover=cover)
    return Generator(id, orbit.cz_ambient % 2, cover, action)


def right_orbit(id, sigma_index, base_index, *, cover=1,
                action=Fraction(1)) -> Generator:
    """Generator of the orbit over a circle fiber, over a critical point
    of the positive piece (index 1 or 2) and a critical point of the
    base function, graded by its ambient Conley-Zehnder parity."""
    if sigma_index not in _RIGHT_SIGMA:
        raise ConfigurationError(
            "right-side surface critical points have index 1 or 2")
    if base_index not in _BASE_OF_INDEX:
        raise ConfigurationError(
            "Morse index must be 0, 1 or 2, got %r" % (base_index,))
    orbit = OrbitType(_RIGHT_SIGMA[sigma_index], _BASE_OF_INDEX[base_index],
                      cover)
    return Generator(id, orbit.cz_ambient % 2, cover, action)


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
    """min{k+l : 0 <= k <= G, l >= 0 even, 2k+l > 2c} for c = c1N, G = gamma_even.

    k = l = 0 serves when c < 0.  Otherwise 2k + l is even, so it is at
    least 2c + 2, and k + l = (2k + l) - k is least at 2k + l = 2c + 2
    with k = min(G, c + 1).
    """
    if gamma_even < 0:
        raise ConfigurationError("gamma_even must be non-negative")
    if c1N < 0:
        return 0
    return 2 * c1N + 2 - min(gamma_even, c1N + 1)


def obstruction_rank(rank_in_leaf: int, indN: int, dim_ker_N: int) -> int:
    """Rank of the ambient obstruction bundle of a not-too-bad curve.

    The rank is rank_in_leaf + dim coker N, and the Fredholm identity
    dim ker N - dim coker N = indN of the normal operator N gives
    dim coker N = dim_ker_N - indN.  ``dim_ker_N`` is at least the
    index drop of the curve's leaf (0 cylindrical, 1 over an index-1
    flow line, 2 over an index-2 flow line), and equals indN when N is
    onto; a rank below 0 means the inputs contradict each other.
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
