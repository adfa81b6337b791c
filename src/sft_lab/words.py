"""Words in a closed-surface group and their boundary combinatorics.

Letters are nonzero integers: generator i of the standard presentation
is +i, its inverse -i; a genus-g group has generators 1..2g and the
single relator [1,2][3,4]...[2g-1,2g].  The relator has length 4g and
pieces of length one, so length reduction by relator replacement
(replace a subword that is more than half of a relator cycle by the
inverse of its complement) computes geodesic representatives, decides
triviality, and, applied cyclically together with half-length swaps,
decides conjugacy.

The second half of the module orders ends of the Cayley tiling on the
boundary circle.  The link of a vertex is a single cycle of the 4g
outgoing edge germs, read off the relator; two reduced rays diverging
at a vertex have boundary points in the sectors of their first distinct
germs, and the cyclic order of sectors is the cyclic order of germs.
That yields an exact three-point orientation test for ends, with no
floating point anywhere.

Each ``SurfaceGroup`` owns the data derived from it.  The relator
segment table (``segments``), the germ cycle (``rotation_cycle``) and
the germ positions in it are built on first use, once per group.  The
memo dicts of ``reduce_word``, ``canonical_element`` and
``canonical_class`` are created empty with the group and fill as it
works, each up to ``MEMO_CAP`` entries.  Ray normal forms are memoised
module-wide by ``_normalize_ray_cached``, keyed by the group's value
(its genus), and computed on the group that asked first.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigurationError, InternalError, TrivialClassError

Word = Tuple[int, ...]

MEMO_CAP = 500000       # each memo dict of a group stops filling here


def inverse(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


def free_reduce(word: Sequence[int]) -> Word:
    out: List[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word: Sequence[int]) -> Word:
    w = list(free_reduce(word))
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def rotations(word: Sequence[int]) -> List[Word]:
    w = tuple(word)
    return [w[i:] + w[:i] for i in range(len(w))]


def letter_key(x: int) -> int:
    """Total order on letters: 1, -1, 2, -2, ..."""
    return 2 * abs(x) - (1 if x > 0 else 0)


def word_key(word: Sequence[int]) -> Tuple[int, ...]:
    return tuple(letter_key(x) for x in word)


def parse_letters(text: str, genus: int) -> Word:
    """Parse a loop word from text.

    Accepts compact single-letter form ("abAB", lowercase = generator,
    uppercase = inverse) and indexed tokens separated by spaces or dots
    ("a1 b1 A1 B1"), where a<k>/b<k> are the two generators of handle k.
    """
    text = text.strip()
    if not text:
        raise ConfigurationError("empty word")
    tokens: List[str]
    if any(ch.isdigit() or ch in " ." for ch in text):
        if " " in text or "." in text:
            tokens = [t for t in text.replace(".", " ").split() if t]
        else:
            tokens = re.findall(r"[a-zA-Z]\d+", text)
            if "".join(tokens) != text:
                raise ConfigurationError("bad word %r" % (text,))
        letters = []
        for tok in tokens:
            kind, num = tok[0], tok[1:]
            if kind.lower() not in ("a", "b") or not num.isdigit():
                raise ConfigurationError("bad letter token %r" % tok)
            handle = int(num)
            if not 1 <= handle <= genus:
                raise ConfigurationError("handle index %d out of range" % handle)
            base = 2 * (handle - 1) + (1 if kind.lower() == "a" else 2)
            letters.append(-base if kind.isupper() else base)
        return tuple(letters)
    letters = []
    for ch in text:
        idx = ord(ch.lower()) - ord("a") + 1
        if not ch.isalpha() or idx > 2 * genus:
            raise ConfigurationError("letter %r outside the genus-%d alphabet"
                                     % (ch, genus))
        letters.append(-idx if ch.isupper() else idx)
    return tuple(letters)


def format_letters(word: Sequence[int]) -> str:
    out = []
    for x in word:
        ch = chr(ord("a") + abs(x) - 1)
        out.append(ch.upper() if x < 0 else ch)
    return "".join(out)


@dataclass(frozen=True)
class SurfaceGroup:
    """Standard one-relator presentation of a closed genus-g surface."""

    genus: int
    _memo_reduce: Dict[Word, Word] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _memo_canonical_element: Dict[Word, Word] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _memo_canonical_class: Dict[Word, Word] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.genus < 2:
            raise ConfigurationError("hyperbolic surfaces have genus >= 2")

    @property
    def rank(self) -> int:
        return 2 * self.genus

    @property
    def relator(self) -> Word:
        r: List[int] = []
        for h in range(self.genus):
            a, b = 2 * h + 1, 2 * h + 2
            r.extend((a, b, -a, -b))
        return tuple(r)

    @property
    def relator_length(self) -> int:
        return 4 * self.genus

    def _relator_segments(self):
        """Subword table of all rotations of the relator and its inverse."""
        segs: Dict[Word, Word] = {}
        L = self.relator_length
        for base in (self.relator, inverse(self.relator)):
            for rho in rotations(base):
                for cut in range(L + 1):
                    head, tail = rho[:cut], rho[cut:]
                    # head * tail is trivial, so head = inverse(tail)
                    segs.setdefault(head, inverse(tail))
        return segs

    @cached_property
    def segments(self) -> Dict[Word, Word]:
        return self._relator_segments()

    # -- Length reduction ------------------------------------------------

    def _replace_long_segments(self, word: Word, min_len: int
                               ) -> Optional[Word]:
        """One replacement of a relator segment of length >= min_len."""
        segs = self.segments
        L = self.relator_length
        n = len(word)
        for length in range(min(L, n), min_len - 1, -1):
            for start in range(n - length + 1):
                piece = word[start:start + length]
                repl = segs.get(piece)
                if repl is not None and len(repl) < length:
                    return free_reduce(word[:start] + repl
                                       + word[start + length:])
        return None

    def reduce_word(self, word: Sequence[int]) -> Word:
        """Geodesic representative of a based word."""
        w = free_reduce(word)
        cache = self._memo_reduce
        got = cache.get(w)
        if got is not None:
            return got
        key = w
        half = self.relator_length // 2
        while True:
            shorter = self._replace_long_segments(w, half + 1)
            if shorter is None:
                if len(cache) < MEMO_CAP:
                    cache[key] = w
                return w
            w = shorter

    def is_trivial(self, word: Sequence[int]) -> bool:
        return not self.reduce_word(word)

    def equal(self, a: Sequence[int], b: Sequence[int]) -> bool:
        return self.is_trivial(tuple(a) + inverse(b))

    def canonical_element(self, word: Sequence[int]) -> Word:
        """Canonical spelling of a group element (based, not cyclic).

        Geodesic representatives of one element differ by swapping
        half-relator subwords for their complements; the canonical form
        is the least spelling in the closure under such swaps.
        """
        w = self.reduce_word(word)
        cache = self._memo_canonical_element
        got = cache.get(w)
        if got is not None:
            return got
        key = w
        half = self.relator_length // 2
        segs = self.segments
        while True:
            seen = {w}
            frontier = [w]
            shorter = None
            while frontier and shorter is None:
                nxt = []
                for v in frontier:
                    for start in range(len(v) - half + 1):
                        piece = v[start:start + half]
                        repl = segs.get(piece)
                        if repl is None or len(repl) != half:
                            continue
                        cand = free_reduce(v[:start] + repl
                                           + v[start + half:])
                        if len(cand) < len(v):
                            # the swap exposed a cancellation: the word
                            # was not minimal after all
                            shorter = cand
                            break
                        if cand not in seen:
                            seen.add(cand)
                            nxt.append(cand)
                    if shorter is not None:
                        break
                frontier = nxt
            if shorter is None:
                break
            w = self.reduce_word(shorter)
        result = min(seen, key=word_key)
        if len(cache) < MEMO_CAP:
            for v in seen:
                cache[v] = result
        return result

    # -- Conjugacy-class canonical form ----------------------------------

    def _cyclic_shorten(self, word: Word) -> Word:
        half = self.relator_length // 2
        w = cyclic_reduce(word)
        while True:
            if not w:
                return w
            doubled = w + w
            n = len(w)
            found = None
            segs = self.segments
            for length in range(min(len(w), self.relator_length), half, -1):
                for start in range(n):
                    if length > n:
                        continue
                    piece = doubled[start:start + length]
                    repl = segs.get(piece)
                    if repl is not None and len(repl) < length:
                        found = cyclic_reduce(
                            repl + doubled[start + length:start + n])
                        break
                if found is not None:
                    break
            if found is None:
                return w
            w = found

    def _half_swap_closure(self, word: Word):
        """Closure of a cyclic word under half-relator swaps.

        Returns ("closure", spellings) when all swaps preserve the
        length, or ("shorter", word) as soon as some swap exposes a
        cyclic cancellation, which means the input was not minimal.
        """
        half = self.relator_length // 2
        segs = self.segments
        seen = set()
        frontier = set(rotations(word)) or {word}
        while frontier:
            seen |= frontier
            nxt = set()
            for w in frontier:
                n = len(w)
                doubled = w + w
                for start in range(n):
                    if half > n:
                        continue
                    piece = doubled[start:start + half]
                    repl = segs.get(piece)
                    if repl is not None and len(repl) == half:
                        cand = cyclic_reduce(
                            repl + doubled[start + half:start + n])
                        if len(cand) < n:
                            return "shorter", cand
                        for rot in rotations(cand):
                            if rot not in seen:
                                nxt.add(rot)
            frontier = nxt
        return "closure", frozenset(seen)

    def canonical_class(self, word: Sequence[int]) -> Word:
        """Canonical cyclic word of the conjugacy class.

        Cyclically reduces, shortens through relator segments to a
        geodesic cyclic word, then takes the least spelling over all
        rotations and half-relator swaps.  Two words are conjugate in
        the group exactly when their canonical classes agree.  The
        trivial class is rejected.
        """
        start = cyclic_reduce(free_reduce(word))
        cache = self._memo_canonical_class
        got = cache.get(start)
        if got is not None:
            if got == ():
                raise TrivialClassError(
                    "word represents the trivial loop class")
            return got
        w = self._cyclic_shorten(start)
        while True:
            if not w:
                if len(cache) < MEMO_CAP:
                    cache[start] = ()
                raise TrivialClassError(
                    "word represents the trivial loop class")
            kind, payload = self._half_swap_closure(w)
            if kind == "closure":
                break
            w = self._cyclic_shorten(payload)
        result = min(payload, key=word_key)
        if len(cache) < MEMO_CAP:
            cache[start] = result
        return result

    def conjugate(self, a: Sequence[int], b: Sequence[int]) -> bool:
        return self.canonical_class(a) == self.canonical_class(b)

    def inverse_class(self, word: Sequence[int]) -> Word:
        return self.canonical_class(inverse(word))

    def primitive_root(self, word: Sequence[int]) -> Tuple[Word, int]:
        """(root class, multiplicity) with word conjugate to root^mult."""
        w = self.canonical_class(word)
        n = len(w)
        kind, closure = self._half_swap_closure(w)
        if kind != "closure":
            raise InternalError("canonical class was not minimal")
        for spelling in sorted(closure, key=word_key):
            for period in range(1, n):
                if n % period:
                    continue
                if spelling == spelling[period:] + spelling[:period]:
                    return (self.canonical_class(spelling[:period]),
                            n // period)
        # no visibly periodic spelling: search short roots directly
        for period in range(1, n // 2 + 1):
            for m in range(2, n // max(period, 1) + 1):
                for cand in itertools.product(
                        [i for g in range(1, self.rank + 1)
                         for i in (g, -g)], repeat=period):
                    try:
                        if self.canonical_class(cand * m) == w:
                            return self.canonical_class(cand), m
                    except TrivialClassError:
                        continue
        return w, 1

    # -- Boundary circle -------------------------------------------------

    @cached_property
    def rotation_cycle(self) -> Tuple[int, ...]:
        """Cyclic order of outgoing edge germs around a vertex.

        Chained from the relator: each corner of the defining polygon
        at a vertex spans the wedge from the inverse of one boundary
        letter to the next boundary letter.
        """
        r = self.relator
        L = len(r)
        nxt = {-r[i]: r[(i + 1) % L] for i in range(L)}
        cycle = [r[0]]
        while True:
            step = nxt[cycle[-1]]
            if step == cycle[0]:
                break
            cycle.append(step)
        if len(cycle) != 2 * self.rank:
            raise InternalError("vertex link is not a single cycle")
        return tuple(cycle)

    @cached_property
    def _rot_pos(self) -> Dict[int, int]:
        """Position of each germ in ``rotation_cycle``."""
        return {g: i for i, g in enumerate(self.rotation_cycle)}

    def cyclic_orientation(self, a: int, b: int, c: int) -> int:
        """+1 when germs a, b, c appear in cycle order, -1 otherwise."""
        n = 2 * self.rank
        pos = self._rot_pos
        pa, pb, pc = pos[a], pos[b], pos[c]
        return 1 if (pb - pa) % n < (pc - pa) % n else -1

    def linear_after(self, cut: int, a: int, b: int) -> bool:
        """Is germ a before germ b when the cycle is cut at ``cut``?"""
        n = 2 * self.rank
        pos = self._rot_pos
        pc = pos[cut]
        return (pos[a] - pc) % n < (pos[b] - pc) % n


class Ray:
    """Reduced eventually-periodic edge ray from the basepoint.

    The ray spells prefix + tail + tail + ...; construction reduces the
    junction so the visible stream stays geodesic.  Rays are hashable
    on their normal form.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, group: SurfaceGroup, prefix: Sequence[int],
                 tail: Sequence[int]):
        tail = tuple(tail)
        if not tail:
            raise InternalError("a ray needs a nonempty repeating block")
        self.prefix, self.tail = _normalize_ray_cached(group, tuple(prefix),
                                                       tail)

    def letter(self, n: int) -> int:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail[(n - len(self.prefix)) % len(self.tail)]

    def key(self) -> Tuple[Word, Word]:
        return (self.prefix, self.tail)

    def same_stream(self, other: "Ray") -> bool:
        if self.key() == other.key():
            return True
        bound = (len(self.prefix) + len(other.prefix)
                 + 2 * len(self.tail) * len(other.tail) + 8)
        return all(self.letter(i) == other.letter(i) for i in range(bound))


def _stream_clean(group: SurfaceGroup, tail: Word) -> bool:
    """Is the periodic stream of this block already geodesic?

    True when the block is cyclically freely reduced and no cyclic
    subword is more than half a relator cycle.
    """
    n = len(tail)
    if any(tail[i] == -tail[(i + 1) % n] for i in range(n)):
        return False
    half = group.relator_length // 2
    doubled = tail + tail + tail
    segs = group.segments
    top = min(group.relator_length, 2 * n)
    for length in range(half + 1, top + 1):
        for start in range(n):
            piece = doubled[start:start + length]
            repl = segs.get(piece)
            if repl is not None and len(repl) < length:
                return False
    return True


@lru_cache(maxsize=200000)
def _normalize_ray_cached(group: SurfaceGroup, prefix: Word, tail: Word
                          ) -> Tuple[Word, Word]:
    if not prefix and _stream_clean(group, tail):
        return (), tail
    L = group.relator_length
    period = len(tail)
    copies = max(4, (len(prefix) + 2 * L) // period + 3)
    for attempt in range(4):
        r1 = group.reduce_word(prefix + tail * copies)
        r2 = group.reduce_word(prefix + tail * (copies + 1))
        r3 = group.reduce_word(prefix + tail * (copies + 2))
        stable = (r2[:len(r1)] == r1 and r3[:len(r2)] == r2
                  and len(r2) - len(r1) == period
                  and len(r3) - len(r2) == period)
        if stable:
            break
        copies += 3
    else:
        raise InternalError("ray normal form did not stabilize")
    # split the stable reduced word into prefix + periodic tail
    for cut in range(len(r1) - period + 1):
        tail_rot = r2[cut:cut + period]
        if all(r2[i] == tail_rot[(i - cut) % period]
               for i in range(cut, len(r2))):
            return r2[:cut], tail_rot
    raise InternalError("could not re-periodize a reduced ray")


class BoundaryOrder:
    """Exact circular order of ray endpoints on the boundary circle.

    The orientation convention is the germ cycle of ``rotation_cycle``;
    all crossing signs downstream derive from this single choice.
    """

    def __init__(self, group: SurfaceGroup):
        self.group = group

    def ray(self, prefix: Sequence[int], tail: Sequence[int]) -> Ray:
        return Ray(self.group, prefix, tail)

    def orient(self, r1: Ray, r2: Ray, r3: Ray) -> int:
        """Cyclic orientation (+1/-1) of three distinct endpoints."""
        rays = (r1, r2, r3)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            if rays[a].same_stream(rays[b]):
                raise InternalError("orientation of coincident endpoints")
        i = 0
        bound = 4 * (len(r1.prefix) + len(r2.prefix) + len(r3.prefix)
                     + len(r1.tail) * len(r2.tail) * len(r3.tail)) + 64
        while r1.letter(i) == r2.letter(i) == r3.letter(i):
            i += 1
            if i > bound:
                raise InternalError("three rays failed to diverge")
        a, b, c = r1.letter(i), r2.letter(i), r3.letter(i)
        if a != b and b != c and a != c:
            return self.group.cyclic_orientation(a, b, c)
        if b == c:
            return self.orient(r2, r3, r1)
        if a == c:
            return self.orient(r3, r1, r2)
        # a == b: r1, r2 keep going; r3 has split off
        j = i
        while r1.letter(j) == r2.letter(j):
            j += 1
            if j > bound:
                raise InternalError("two rays failed to diverge")
        cut = -r1.letter(j - 1)
        return 1 if self.group.linear_after(cut, r1.letter(j),
                                            r2.letter(j)) else -1

    def inside_arc(self, x: Ray, start: Ray, end: Ray) -> bool:
        """Is x strictly inside the positively-swept arc from start to end?"""
        return self.orient(start, x, end) == 1

    def linked(self, pair_a: Tuple[Ray, Ray], pair_b: Tuple[Ray, Ray]) -> bool:
        """Do the two endpoint pairs separate each other on the circle?"""
        a0, a1 = pair_a
        inside = self.inside_arc(pair_b[0], a0, a1)
        other = self.inside_arc(pair_b[1], a0, a1)
        return inside != other
