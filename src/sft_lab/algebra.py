"""Graded algebra of orbit generators with a curve-count differential.

The algebra is the graded-commutative polynomial algebra over the
rationals on one generator per good closed Reeb orbit, with an even
formal variable ``h`` adjoined.  A table of rational curve counts,
keyed by genus and ordered positive/negative orbit tuples, induces a
differential: each table entry contributes a monomial-times-derivation
operator weighted by the count divided by a combinatorial factor, and
entries with p positive orbits and genus g act at order h^(p+g-1).
The table compiles each entry into its operator once, when it is
built, and ``apply_D_exact`` applies all of them in one pass.  Since h
is even and central, D commutes with it: D(h^j m) = h^j D(m).

Coefficients are exact ``fractions.Fraction`` values throughout, and
the linear solver used for torsion certificates is sparse elimination
over them.  Cancellations of opposite counts are therefore exact.
Koszul signs and exponents are plain integers: ``_slot`` is the one
rule that signs the move of a generator into its place among a
monomial's sorted factors, and products and derivatives both go
through it once they have found that their result is not zero.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (ConfigurationError, InternalError, SquareZeroError,
                     ValidationError)

EVEN = 0
ODD = 1

# A monomial is (hbar exponent, sorted tuple of (generator id, exponent)).
Monomial = Tuple[int, Tuple[Tuple[str, int], ...]]

MONOMIAL_ONE: Monomial = (0, ())


def monomial_gen(gen_id: str) -> Monomial:
    return (0, ((gen_id, 1),))


def monomial_length(m: Monomial) -> int:
    return sum(e for _, e in m[1])


@dataclass(frozen=True)
class Generator:
    """Algebra generator of a good closed orbit.

    ``parity`` is the grading, ``cover`` the covering multiplicity
    (the kappa of the combinatorial factor) and ``action`` the orbit's
    positive action.
    """

    id: str
    parity: int
    cover: int = 1
    action: Fraction = Fraction(1)

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ConfigurationError("parity must be 0 or 1")
        if self.cover < 1:
            raise ConfigurationError("cover must be >= 1")
        if self.action <= 0:
            raise ConfigurationError("action must be positive")


class GeneratorSet:
    """An ordered family of generators, the ambient polynomial ring.

    Generator ids carry a fixed total (sorted) order; all sign
    conventions below refer to it, which keeps results deterministic.
    """

    def __init__(self, generators: Iterable[Generator]):
        self._by_id: Dict[str, Generator] = {}
        for g in generators:
            if g.id in self._by_id:
                raise ConfigurationError("duplicate generator %s" % g.id)
            self._by_id[g.id] = g

    @classmethod
    def from_orbits(cls, generators: Iterable[Generator],
                    parity_override: Optional[Mapping[str, int]] = None
                    ) -> "GeneratorSet":
        """The set of ``generators``, with parities overridden by id."""
        parity_override = parity_override or {}
        return cls(replace(g, parity=parity_override[g.id])
                   if g.id in parity_override else g for g in generators)

    def __contains__(self, gen_id: str) -> bool:
        return gen_id in self._by_id

    def __iter__(self):
        return iter(sorted(self._by_id))

    def __len__(self):
        return len(self._by_id)

    def generator(self, gen_id: str) -> Generator:
        try:
            return self._by_id[gen_id]
        except KeyError:
            raise ConfigurationError("unknown generator %r" % (gen_id,))

    def parity(self, gen_id: str) -> int:
        return self.generator(gen_id).parity

    def kappa(self, gen_id: str) -> int:
        return self.generator(gen_id).cover

    def action(self, gen_id: str) -> Fraction:
        return self.generator(gen_id).action

    def monomial_parity(self, m: Monomial) -> int:
        return sum(self.parity(g) * e for g, e in m[1]) % 2

    def monomial_action(self, m: Monomial) -> Fraction:
        return sum((self.action(g) * e for g, e in m[1]), Fraction(0))


class AlgebraElement:
    """Finite rational combination of monomials; zero terms never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Fraction]] = None):
        self.terms: Dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[m] = c

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls({MONOMIAL_ONE: Fraction(1)})

    @classmethod
    def generator(cls, gen_id: str) -> "AlgebraElement":
        return cls({monomial_gen(gen_id): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgebraElement(0)"
        bits = []
        for m in sorted(self.terms):
            word = " ".join("%s^%d" % (g, e) if e > 1 else g
                            for g, e in m[1]) or "1"
            if m[0]:
                word += " h^%d" % m[0]
            bits.append("%s * %s" % (self.terms[m], word))
        return "AlgebraElement(%s)" % " + ".join(bits)

    def add_term(self, m: Monomial, c: Fraction):
        new = self.terms.get(m, Fraction(0)) + c
        if new:
            self.terms[m] = new
        else:
            self.terms.pop(m, None)

    def plus(self, other: "AlgebraElement") -> "AlgebraElement":
        out = AlgebraElement(self.terms)
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def scaled(self, c: Fraction) -> "AlgebraElement":
        c = Fraction(c)
        if not c:
            return AlgebraElement()
        return AlgebraElement({m: v * c for m, v in self.terms.items()})


def _slot(gens: GeneratorSet, gen_id: str,
          factors: Tuple[Tuple[str, int], ...], i: int) -> int:
    """The Koszul sign of moving ``gen_id`` into slot ``i`` of the sorted
    ``factors``, past the factors before it."""
    if gens.parity(gen_id) == EVEN:
        return 1
    crossed = sum(gens.parity(g) * e for g, e in factors[:i])
    return -1 if crossed % 2 else 1


def multiply_generator(gens: GeneratorSet, gen_id: str,
                       m: Monomial) -> Tuple[int, Optional[Monomial]]:
    """Left-multiply a monomial by a generator, with the Koszul sign.

    Returns (sign, monomial) or (0, None) when an odd generator squares
    to zero; that is found before any sign is computed.
    """
    hbar, factors = m
    i = bisect_left(factors, (gen_id,))
    if i < len(factors) and factors[i][0] == gen_id:
        if gens.parity(gen_id) == ODD:
            return 0, None
        e, rest = factors[i][1], factors[i + 1:]
    else:
        e, rest = 0, factors[i:]
    return (_slot(gens, gen_id, factors, i),
            (hbar, factors[:i] + ((gen_id, e + 1),) + rest))


def multiply_monomials(gens: GeneratorSet, a: Monomial,
                       b: Monomial) -> Tuple[int, Optional[Monomial]]:
    """Graded-commutative product of two monomials.

    Returns (sign, monomial), or (0, None) when an odd generator would
    appear twice.
    """
    sign = 1
    out = b
    for gid, e in reversed(a[1]):
        for _ in range(e):
            s, out = multiply_generator(gens, gid, out)
            if out is None:
                return 0, None
            sign *= s
    return sign, (a[0] + b[0], out[1])


def multiply_elements(gens: GeneratorSet, x: AlgebraElement,
                      y: AlgebraElement) -> AlgebraElement:
    out = AlgebraElement()
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            s, m = multiply_monomials(gens, ma, mb)
            if m is not None:
                out.add_term(m, ca * cb * s)
    return out


def derive_generator(gens: GeneratorSet, gen_id: str,
                     m: Monomial) -> Tuple[int, Optional[Monomial]]:
    """Left partial derivative by a generator, with the Koszul sign.

    Returns (sign times the generator's exponent, the monomial with that
    exponent lowered by one), or (0, None) when the generator does not
    occur, which is found before any sign is computed.  Through the
    exponent factor, repeated derivatives of a power pick up
    falling-factorial multiplicities.
    """
    hbar, factors = m
    i = bisect_left(factors, (gen_id,))
    if i == len(factors) or factors[i][0] != gen_id:
        return 0, None
    e = factors[i][1]
    lowered = ((gen_id, e - 1),) if e > 1 else ()
    return (_slot(gens, gen_id, factors, i) * e,
            (hbar, factors[:i] + lowered + factors[i + 1:]))


@dataclass(frozen=True)
class Truncation:
    """Computation window: max h power, max word length, max total action."""

    hbar_max: int
    length_max: int
    action_cap: Fraction

    def __post_init__(self):
        if self.hbar_max < 0 or self.length_max < 0 or self.action_cap <= 0:
            raise ConfigurationError(
                "truncation needs hbar_max >= 0, length_max >= 0 and "
                "action_cap > 0")

    def admits(self, gens: GeneratorSet, m: Monomial) -> bool:
        return (m[0] <= self.hbar_max
                and monomial_length(m) <= self.length_max
                and gens.monomial_action(m) <= self.action_cap)


CountKey = Tuple[int, Tuple[str, ...], Tuple[str, ...]]
Operator = Tuple[int, Tuple[str, ...], Tuple[str, ...], Fraction]


class CurveCountTable:
    """Rational curve counts keyed by (genus, positive ids, negative ids).

    Entries with no positive orbit are rejected: every curve in an
    exact setting has a positive end, and this is exactly what makes
    the differential annihilate the unit.  ``operators`` holds each
    entry compiled once, in key order: its h shift genus + p - 1, its
    positive and negative ids, and its count divided by the
    combinatorial factor.
    """

    def __init__(self, gens: GeneratorSet,
                 entries: Mapping[CountKey, Fraction]):
        self.gens = gens
        self.entries: Dict[CountKey, Fraction] = {}
        for (genus, pos, neg), value in entries.items():
            value = Fraction(value)
            if not value:
                continue
            if genus < 0:
                raise ValidationError("genus must be non-negative")
            if len(pos) == 0:
                raise ValidationError(
                    "a count with no positive orbit is not allowed")
            for gid in tuple(pos) + tuple(neg):
                if gid not in gens:
                    raise ValidationError("count references unknown orbit %r"
                                          % (gid,))
            key = (genus, tuple(pos), tuple(neg))
            self.entries[key] = self.entries.get(key, Fraction(0)) + value
        self.entries = {k: v for k, v in self.entries.items() if v}
        self.operators: List[Operator] = [
            (genus + len(pos) - 1, pos, neg,
             value / combinatorial_factor(gens, neg, pos))
            for (genus, pos, neg), value in sorted(self.entries.items())]

    def is_parity_odd(self) -> bool:
        """True when every entry defines a parity-odd operator."""
        for genus, pos, neg in self.entries:
            flips = sum(self.gens.parity(g) for g in pos + neg) % 2
            if flips != ODD:
                return False
        return True


def combinatorial_factor(gens: GeneratorSet, neg: Sequence[str],
                         pos: Sequence[str]) -> int:
    """s-! s+! times the covering multiplicities of the negative orbits."""
    value = factorial(len(neg)) * factorial(len(pos))
    for gid in neg:
        value *= gens.kappa(gid)
    return value


def apply_D_exact(counts: CurveCountTable,
                  x: AlgebraElement) -> AlgebraElement:
    """Full differential with no truncation, in one pass over the
    compiled operators of ``counts``.

    A derivative or a product by one generator sends a monomial to one
    monomial times an integer, or to zero, so an operator does the same:
    its steps (the derivatives, rightmost first, then the products) are
    walked on the monomial, multiplying their integers into one, until
    the first zero.
    """
    gens = counts.gens
    out = AlgebraElement()
    for shift, pos, neg, weight in counts.operators:
        steps = ([(derive_generator, gid) for gid in reversed(pos)]
                 + [(multiply_generator, gid) for gid in reversed(neg)])
        for (hbar, factors), c in x.terms.items():
            k, mono = 1, (hbar + shift, factors)
            for step, gid in steps:
                s, mono = step(gens, gid, mono)
                if mono is None:
                    break
                k *= s
            else:
                out.add_term(mono, c * weight * k)
    return out


def basis_monomials(gens: GeneratorSet, trunc: Truncation
                    ) -> List[Monomial]:
    """All words inside the truncation window at h^0, sorted.

    Odd generators appear with exponent at most one.
    """
    ids = list(gens)
    words: List[Tuple[Tuple[str, int], ...]] = [()]
    frontier: List[Tuple[Tuple[str, int], ...]] = [()]
    while frontier:
        nxt = []
        for word in frontier:
            if sum(e for _, e in word) >= trunc.length_max:
                continue
            last = word[-1][0] if word else None
            for gid in ids:
                if last is not None and gid < last:
                    continue
                if word and word[-1][0] == gid:
                    if gens.parity(gid) == ODD:
                        continue
                    grown = word[:-1] + ((gid, word[-1][1] + 1),)
                else:
                    grown = word + ((gid, 1),)
                mono: Monomial = (0, grown)
                if gens.monomial_action(mono) > trunc.action_cap:
                    continue
                nxt.append(grown)
        words.extend(nxt)
        frontier = nxt
    return [(0, w) for w in sorted(words)]


def check_square_zero(counts: CurveCountTable, trunc: Truncation):
    """Verify the differential squares to zero on a basis window.

    Both applications are exact (untruncated), so a reported witness is
    a genuine failure rather than a truncation artifact.  Returns
    ``(True, None)`` or ``(False, witness_monomial)``.
    """
    gens = counts.gens
    for m in [monomial_gen(g) for g in gens] + basis_monomials(gens, trunc):
        x = AlgebraElement({m: Fraction(1)})
        if not apply_D_exact(counts, apply_D_exact(counts, x)).is_zero():
            return False, m
    return True, None


def solve_exact(rows: List[List[Fraction]], rhs: List[Fraction]
                ) -> Optional[List[Fraction]]:
    """One exact solution of A x = b over the rationals, or None.

    Sparse elimination over ``Fraction``s: each row and its rhs entry
    become a dict of non-zeros, and a column index keeps the live rows
    that hold each column.  The columns are walked left to right; the
    pivot of a column is its live row with the fewest non-zeros (ties
    go to the lower row index), and only the rows holding the column
    are eliminated.  Back-substitution sets the free columns to 0.

    The result does not depend on the choice of pivot rows.  Row
    operations keep every linear dependency among the columns, so
    column c gets a pivot exactly when it is not in the span of the
    columns left of it: the pivot columns P are the greedy (leftmost)
    column basis of A, whichever row is chosen.  A_P has full column
    rank, so A_P x_P = b has at most one solution, and with the free
    variables at 0 the solution is unique.  Dense elimination that
    walks the columns in the same order (such as Bareiss) therefore
    returns the same list.
    """
    n_cols = len(rows[0]) if rows else 0
    live: List[Dict[int, Fraction]] = []   # rhs under key n_cols
    holding: Dict[int, set] = {}
    for i, (row, b) in enumerate(zip(rows, rhs)):
        sparse = {j: Fraction(v) for j, v in enumerate(row) if v}
        if b:
            sparse[n_cols] = Fraction(b)
        live.append(sparse)
        for j in sparse:
            holding.setdefault(j, set()).add(i)
    pivots: List[Tuple[int, Dict[int, Fraction]]] = []
    for c in range(n_cols):
        holders = holding.pop(c, None)
        if not holders:
            continue
        p = min(holders, key=lambda i: (len(live[i]), i))
        holders.discard(p)
        prow = live[p]
        for j in prow:
            if j != c:
                holding[j].discard(p)
        pv = prow[c]
        for i in holders:
            row = live[i]
            f = row.pop(c) / pv
            for j, v in prow.items():
                if j == c:
                    continue
                new = row.get(j, 0) - f * v
                if new:
                    if j not in row:
                        holding[j].add(i)
                    row[j] = new
                else:
                    del row[j]
                    holding[j].discard(i)
        pivots.append((c, prow))
    if holding.get(n_cols):
        return None     # a row reduced to 0 = b with b non-zero
    solution = [Fraction(0)] * n_cols
    for c, prow in reversed(pivots):
        acc = prow.get(n_cols, Fraction(0))
        for j, v in prow.items():
            if c < j < n_cols:
                acc -= v * solution[j]
        solution[c] = acc / prow[c]
    return solution


UNKNOWN = "unknown"


@dataclass(frozen=True)
class TorsionResult:
    order: Optional[int]               # None encodes "unknown"
    certificate: Optional[AlgebraElement] = None

    @property
    def label(self) -> str:
        return UNKNOWN if self.order is None else str(self.order)


def torsion_order(counts: CurveCountTable, trunc: Truncation,
                  require_square_zero: bool = True) -> TorsionResult:
    """Least k with h^k exact inside the window, with a certificate.

    The solver only uses basis monomials whose full differential stays
    inside the truncation, so a claimed order comes with an honest
    element x satisfying D x = h^k on the nose.  A truncated window can
    certify torsion but never its absence, hence "unknown" instead of
    infinity when no order is found.

    D commutes with h, so D is applied once to each basis word m, and
    the image of h^j m is that image shifted by j.
    """
    if require_square_zero:
        ok, witness = check_square_zero(counts, trunc)
        if not ok:
            raise SquareZeroError(
                "differential does not square to zero", witness=witness)
    gens = counts.gens
    basis = basis_monomials(gens, trunc)
    word_images = [apply_D_exact(counts, AlgebraElement({m: Fraction(1)}))
                   for m in basis]
    candidates = []
    images = []
    for j in range(trunc.hbar_max + 1):
        for (_, word), image in zip(basis, word_images):
            shifted = {(hbar + j, w): c
                       for (hbar, w), c in image.terms.items()}
            if all(trunc.admits(gens, t) for t in shifted):
                candidates.append((j, word))
                images.append(shifted)
    if not candidates:
        return TorsionResult(order=None)
    target_monomials = sorted({t for img in images for t in img}
                              | {(k, ()) for k in range(trunc.hbar_max + 1)})
    row_of = {t: i for i, t in enumerate(target_monomials)}
    rows = [[Fraction(0)] * len(candidates) for _ in target_monomials]
    for j, img in enumerate(images):
        for t, c in img.items():
            rows[row_of[t]][j] = c
    for k in range(trunc.hbar_max + 1):
        rhs = [Fraction(0)] * len(target_monomials)
        rhs[row_of[(k, ())]] = Fraction(1)
        sol = solve_exact(rows, rhs)
        if sol is not None:
            cert = AlgebraElement()
            for coeff, m in zip(sol, candidates):
                if coeff:
                    cert.add_term(m, coeff)
            check = apply_D_exact(counts, cert)
            if check != AlgebraElement({(k, ()): Fraction(1)}):
                raise InternalError("solver produced an invalid certificate")
            return TorsionResult(order=k, certificate=cert)
    return TorsionResult(order=None)
