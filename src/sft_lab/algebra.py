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

Coefficients are exact ``fractions.Fraction`` values throughout; the
linear solver used for torsion certificates is fraction-free integer
elimination.  Cancellations of opposite counts are therefore exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, lcm
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


def multiply_generator(gens: GeneratorSet, gen_id: str,
                       m: Monomial) -> Tuple[Fraction, Optional[Monomial]]:
    """Left-multiply a monomial by a generator, with the Koszul sign.

    Returns (sign, monomial) or (0, None) when an odd generator squares
    to zero.
    """
    parity = gens.parity(gen_id)
    hbar, factors = m
    crossed = 0
    out: List[Tuple[str, int]] = []
    placed = False
    for g, e in factors:
        if not placed and g >= gen_id:
            if g == gen_id:
                if parity == ODD:
                    return Fraction(0), None
                out.append((g, e + 1))
            else:
                out.append((gen_id, 1))
                out.append((g, e))
            placed = True
            continue
        if not placed:
            crossed += gens.parity(g) * e
        out.append((g, e))
    if not placed:
        out.append((gen_id, 1))
    sign = Fraction(-1 if (parity * crossed) % 2 else 1)
    return sign, (hbar, tuple(out))


def multiply_monomials(gens: GeneratorSet, a: Monomial,
                       b: Monomial) -> Tuple[Fraction, Optional[Monomial]]:
    """Graded-commutative product of two monomials.

    Returns (sign, monomial), or (0, None) when an odd generator would
    appear twice.
    """
    sign = Fraction(1)
    out = b
    hbar = a[0] + b[0]
    for gid, e in reversed(a[1]):
        for _ in range(e):
            s, grown = multiply_generator(gens, gid, out)
            if grown is None:
                return Fraction(0), None
            sign *= s
            out = grown
    return sign, (hbar, out[1])


def multiply_elements(gens: GeneratorSet, x: AlgebraElement,
                      y: AlgebraElement) -> AlgebraElement:
    out = AlgebraElement()
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            s, m = multiply_monomials(gens, ma, mb)
            if m is not None and s:
                out.add_term(m, ca * cb * s)
    return out


def derive_generator(gens: GeneratorSet, gen_id: str,
                     m: Monomial) -> Tuple[Fraction, Optional[Monomial]]:
    """Left partial derivative by a generator, with the Koszul sign.

    Repeated derivatives of a power pick up falling-factorial
    multiplicities through the exponent factor here.
    """
    parity = gens.parity(gen_id)
    hbar, factors = m
    crossed = 0
    for i, (g, e) in enumerate(factors):
        if g == gen_id:
            sign = -1 if (parity * crossed) % 2 else 1
            coeff = Fraction(sign * e)
            if e == 1:
                rest = factors[:i] + factors[i + 1:]
            else:
                rest = factors[:i] + ((g, e - 1),) + factors[i + 1:]
            return coeff, (hbar, rest)
        crossed += gens.parity(g) * e
    return Fraction(0), None


@dataclass(frozen=True)
class Truncation:
    """Computation window: max h power, max word length, max total action."""

    hbar_max: int
    length_max: int
    action_cap: Fraction

    def __post_init__(self):
        if self.hbar_max < 0 or self.length_max < 0 or self.action_cap <= 0:
            raise ConfigurationError("truncation bounds must be positive")

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
    compiled operators of ``counts``."""
    gens = counts.gens
    out = AlgebraElement()
    for shift, pos, neg, weight in counts.operators:
        for (hbar, factors), c in x.terms.items():
            results: List[Tuple[Fraction, Monomial]] = [
                (c * weight, (hbar + shift, factors))]
            # rightmost derivative acts first
            for gid in reversed(pos):
                nxt: List[Tuple[Fraction, Monomial]] = []
                for cf, mono in results:
                    d, reduced = derive_generator(gens, gid, mono)
                    if reduced is not None:
                        nxt.append((cf * d, reduced))
                results = nxt
            for gid in reversed(neg):
                nxt = []
                for cf, mono in results:
                    s, grown = multiply_generator(gens, gid, mono)
                    if grown is not None:
                        nxt.append((cf * s, grown))
                results = nxt
            for cf, mono in results:
                out.add_term(mono, cf)
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
    for gid in gens:
        x = AlgebraElement.generator(gid)
        if not apply_D_exact(counts, apply_D_exact(counts, x)).is_zero():
            return False, monomial_gen(gid)
    for m in basis_monomials(gens, trunc):
        x = AlgebraElement({m: Fraction(1)})
        if not apply_D_exact(counts, apply_D_exact(counts, x)).is_zero():
            return False, m
    return True, None


def solve_exact(rows: List[List[Fraction]], rhs: List[Fraction]
                ) -> Optional[List[Fraction]]:
    """One exact solution of A x = b over the rationals, or None.

    Clears denominators row by row and runs fraction-free (Bareiss)
    elimination on the integer matrix, so no intermediate rounding can
    occur.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    m: List[List[int]] = []
    for row, b in zip(rows, rhs):
        denom = lcm(*(v.denominator for v in list(row) + [b]))
        m.append([int(v * denom) for v in list(row) + [b]])
    prev = 1
    piv_rows: List[Tuple[int, int]] = []   # (row, col) of pivots
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols + 1):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        piv_rows.append((r, c))
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if m[i][n_cols] != 0:
            return None
    solution = [Fraction(0)] * n_cols
    for row, col in reversed(piv_rows):
        acc = Fraction(m[row][n_cols])
        for j in range(col + 1, n_cols):
            acc -= m[row][j] * solution[j]
        solution[col] = acc / m[row][col]
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
