"""Words in a closed-surface group and their boundary combinatorics.

Letters are nonzero integers: generator i of the standard presentation
is +i, its inverse -i; a genus-g group has generators 1..2g and the
single relator [1,2][3,4]...[2g-1,2g].  The relator has length 4g and
pieces of length one, so rewriting by relator segments decides the
word and conjugacy problems.  One kernel does all of it, for based
words and for cyclic words alike:

* ``_rewrites`` scans a word for relator segments of given lengths, at
  its subwords (based) or at the windows of the doubled word (cyclic),
  and returns the words with each segment replaced by its complement;
* ``_shorten`` is Dehn's algorithm: it replaces segments of more than
  half a relator until none is left, which gives a geodesic word
  (``reduce_word``) or a geodesic cyclic word;
* ``_closure`` collects the spellings reached by half-relator swaps,
  with rotations when cyclic; the least of them is the canonical
  element (``canonical_element``) or class (``canonical_class``).

The second half of the module orders ends of the Cayley tiling on the
boundary circle.  The link of a vertex is a single cycle of the 4g
outgoing edge germs, read off the relator; two reduced rays diverging
at a vertex have boundary points in the sectors of their first distinct
germs, and the cyclic order of sectors is the cyclic order of germs.
That yields an exact three-point orientation test for ends, with no
floating point anywhere.  A ray is the periodic stream of one
cyclically Dehn-reduced block read from the base vertex, so it is
geodesic and needs no normal form beyond its block.  It keeps the
primitive root of that block: u^oo = v^oo exactly when u and v are
powers of one word (Lyndon-Schuetzenberger), so two rays spell the same
stream exactly when their roots are equal.  Two distinct streams part
within the lcm of their root lengths, which bounds every scan of the
orientation test.  That decides streams, not boundary points: two
spellings of one element, or of commuting elements, can be different
blocks whose streams end at one point, so callers rule out commuting
lifts before they compare ends.

Each ``SurfaceGroup`` owns the data derived from it.  The relator
segment table (``segments``), the germ cycle (``rotation_cycle``) and
the germ positions in it are built on first use, once per group.  The
memo dicts of ``reduce_word``, ``canonical_element`` and
``canonical_class`` are created empty with the group and fill as it
works, each up to ``MEMO_CAP`` entries.  The check of a ray block and
its root are memoised module-wide by ``_normalize_ray_cached``, keyed
by the group's value (its genus), and computed on the group that asked
first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

from .errors import ConfigurationError, InternalError, TrivialClassError

Word = Tuple[int, ...]

# each memo dict of a group stops filling here; the memos are pure, of
# deterministic functions, so a word that finds no entry is computed
# again and a full memo cannot change a result
MEMO_CAP = 500000


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


def _root(word: Word) -> Tuple[Word, int]:
    """(u, m) with word == u * m and m largest, by least period."""
    n = len(word)
    for period in range(1, n):
        if n % period == 0 and word[:period] * (n // period) == word:
            return word[:period], n // period
    return word, 1


def rotations(word: Sequence[int]) -> List[Word]:
    w = tuple(word)
    return [w[i:] + w[:i] for i in range(len(w))]


def word_key(word: Sequence[int]) -> Tuple[int, ...]:
    """Sort key of a word, letters ordered 1, -1, 2, -2, ..."""
    return tuple([2 * x - 1 if x > 0 else -2 * x for x in word])


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

    # -- Relator-segment rewriting -----------------------------------------

    def _rewrites(self, word: Word, lengths: Sequence[int], cyclic: bool,
                  first: bool) -> List[Word]:
        """Rewrites of ``word`` at relator segments of the given lengths.

        A segment of length k > half is replaced by its shorter
        complement, one of length half by its equally long complement.
        Based words are scanned at ``word[start:start+length]`` and
        rewritten with ``free_reduce``; cyclic words are scanned at every
        window of ``word + word`` and rewritten, starting at the
        replacement, with ``cyclic_reduce``.  Lengths are tried in the
        given order; with ``first`` the scan stops at the first hit.
        """
        get = self.segments.get
        n = len(word)
        text = word + word if cyclic else word
        out: List[Word] = []
        for length in lengths:
            if length > n:
                continue
            for start in range(n if cyclic else n - length + 1):
                repl = get(text[start:start + length])
                if repl is None:
                    continue
                if cyclic:
                    out.append(cyclic_reduce(
                        repl + text[start + length:start + n]))
                else:
                    out.append(free_reduce(word[:start] + repl
                                           + word[start + length:]))
                if first:
                    return out
        return out

    def _shorten(self, word: Word, cyclic: bool) -> Word:
        """Dehn's algorithm on a freely reduced word.

        Replaces the first, longest relator segment of more than half a
        relator by its complement until no such segment is left.  A
        cyclic word is cyclically reduced first.
        """
        if cyclic:
            word = cyclic_reduce(word)
        half = self.relator_length // 2
        while True:
            found = self._rewrites(
                word, range(min(len(word), self.relator_length), half, -1),
                cyclic, True)
            if not found:
                return word
            word = found[0]

    def _closure(self, word: Word, cyclic: bool):
        """Closure of a Dehn-reduced word under half-relator swaps.

        Returns ("closure", spellings) when every swap keeps the length,
        with all rotations of each spelling when ``cyclic``, or
        ("shorter", word) as soon as a swap exposes a cancellation,
        which means the input was not minimal.  Spellings are visited
        breadth first; a cyclic word is scanned at one rotation, since
        its scan covers every window.
        """
        half = self.relator_length // 2
        seen = set(rotations(word)) if cyclic else {word}
        todo = [word]
        for v in todo:
            for cand in self._rewrites(v, (half,), cyclic, False):
                if len(cand) < len(v):
                    return "shorter", cand
                if cand not in seen:
                    seen.update(rotations(cand) if cyclic else (cand,))
                    todo.append(cand)
        return "closure", seen

    def reduce_word(self, word: Sequence[int]) -> Word:
        """Geodesic representative of a based word."""
        w = free_reduce(word)
        cache = self._memo_reduce
        got = cache.get(w)
        if got is None:
            got = self._shorten(w, False)
            if len(cache) < MEMO_CAP:
                cache[w] = got
        return got

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
        kind, found = self._closure(w, False)
        while kind == "shorter":
            kind, found = self._closure(self.reduce_word(found), False)
        result = min(found, key=word_key)
        if len(cache) < MEMO_CAP:
            for v in found:
                cache[v] = result
        return result

    def canonical_class(self, word: Sequence[int]) -> Word:
        """Canonical cyclic word of the conjugacy class.

        Shortens the cyclically reduced word to a geodesic cyclic word,
        then takes the least spelling over all rotations and
        half-relator swaps.  Two words are conjugate in the group
        exactly when their canonical classes agree.  The trivial class
        is rejected.
        """
        start = cyclic_reduce(word)
        cache = self._memo_canonical_class
        got = cache.get(start)
        if got is None:
            got = ()
            w = self._shorten(start, True)
            while w:
                kind, found = self._closure(w, True)
                if kind == "closure":
                    got = min(found, key=word_key)
                    break
                w = self._shorten(found, True)
            if len(cache) < MEMO_CAP:
                cache[start] = got
        if got == ():
            raise TrivialClassError("word represents the trivial loop class")
        return got

    def inverse_class(self, word: Sequence[int]) -> Word:
        return self.canonical_class(inverse(word))

    def primitive_root(self, word: Sequence[int]) -> Tuple[Word, int]:
        """(root class, multiplicity) with word conjugate to root^mult.

        If the class is c^m with m >= 2, take c cyclically geodesic.
        Relator segments have pairwise distinct letters, so a segment in
        the cyclic word c^m is no longer than c and is a cyclic subword
        of c, hence not more than half a relator.  So c^m is
        Dehn-reduced, hence geodesic, and the closure of the canonical
        class, which holds every geodesic cyclic spelling of the class,
        has the periodic spelling c^m.  A class with no periodic
        spelling in its closure is therefore primitive.
        """
        w = self.canonical_class(word)
        kind, closure = self._closure(w, True)
        if kind != "closure":
            raise InternalError("canonical class was not minimal")
        for spelling in sorted(closure, key=word_key):
            root, mult = _root(spelling)
            if mult > 1:
                return self.canonical_class(root), mult
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
    """Periodic geodesic edge ray from the basepoint.

    The ray spells block + block + ...; the block must be nonempty and
    cyclically Dehn-reduced, or ``ConfigurationError`` is raised.
    ``tail`` is the primitive root of the block, so rays of u and u^k
    are equal.  Rays with different tails are different streams, which
    may still end at one boundary point (see ``same_stream``).
    """

    __slots__ = ("tail",)

    def __init__(self, group: SurfaceGroup, tail: Sequence[int]):
        self.tail = _normalize_ray_cached(group, tuple(tail))

    def letter(self, n: int) -> int:
        return self.tail[n % len(self.tail)]

    def same_stream(self, other: "Ray") -> bool:
        """Do the two rays spell the same letter stream?

        Streams of primitive roots u and v are equal exactly when u and
        v are powers of one word, that is, when u == v.  This is the
        identity of streams, not of ends: two different blocks can spell
        one element, or commuting ones, and their streams then differ
        but may end at one point.
        """
        return self.tail == other.tail


# a pure memo of a deterministic function: once full it evicts the
# least recently used block, which is checked again when it comes back,
# so the size cannot change a result
@lru_cache(maxsize=200000)
def _normalize_ray_cached(group: SurfaceGroup, tail: Word) -> Word:
    # a periodic stream is geodesic when its block is cyclically
    # Dehn-reduced: a relator segment has distinct letters, so one in
    # the stream is no longer than the block and is a cyclic window of it;
    # any other block shortens with every copy, so its stream is not
    # geodesic; the primitive root of the block spells the same stream
    if not tail or group._shorten(tail, True) != tail:
        raise ConfigurationError("ray block %r is empty or not cyclically "
                                 "Dehn-reduced" % (tail,))
    return _root(tail)[0]


class BoundaryOrder:
    """Exact circular order of ray endpoints on the boundary circle.

    The orientation convention is the germ cycle of ``rotation_cycle``;
    all crossing signs downstream derive from this single choice.
    """

    def __init__(self, group: SurfaceGroup):
        self.group = group

    def ray(self, tail: Sequence[int]) -> Ray:
        return Ray(self.group, tail)

    def orient(self, r1: Ray, r2: Ray, r3: Ray) -> int:
        """Cyclic orientation (+1/-1) of three distinct endpoints.

        The guard below rejects equal streams only; callers must rule
        out distinct streams with one endpoint (commuting lifts spelled
        by different blocks), on which the result means nothing.  Both
        scans end by proof.  Distinct primitive blocks spell
        streams that part within the lcm of their periods, and the rays
        are checked pairwise distinct first (``same_stream``).  So the
        scan of all three stops, at the latest, where r1 and r2 first
        differ, and the scan of r1 and r2 alone stops there too.
        """
        rays = (r1, r2, r3)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            if rays[a].same_stream(rays[b]):
                raise InternalError("orientation of coincident endpoints")
        i = 0
        while r1.letter(i) == r2.letter(i) == r3.letter(i):
            i += 1
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
        cut = -r1.letter(j - 1)
        return 1 if self.group.linear_after(cut, r1.letter(j),
                                            r2.letter(j)) else -1

    def linked(self, pair_a: Tuple[Ray, Ray], pair_b: Tuple[Ray, Ray]) -> bool:
        """Do the two endpoint pairs separate each other on the circle?"""
        a0, a1 = pair_a
        # is each end of pair_b inside the positively swept arc a0 -> a1?
        return (self.orient(a0, pair_b[0], a1)
                != self.orient(a0, pair_b[1], a1))
