"""The four workloads: seeded inputs, timed items and known answers.

A workload is a list of items.  ``run`` is the timed call into the
program; ``verify`` and ``text`` run afterwards, untimed and untraced:
``verify`` returns the known-answer problems of one output (empty when
correct) and ``text`` gives the canonical output text that the run's
digest covers.  Program functions are looked up on their modules at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from sft_lab import algebra, cli, cobracket, enumerator, indexcalc, jsonio
from sft_lab import model, words
from sft_lab.errors import TrivialClassError


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], object]
    verify: Callable[[object], List[str]]
    text: Callable[[object], str]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- classify ----------------------------------------------------------------

CLASSIFY_CASES = ((0, 1), (0, 2), (1, 1))

# summary of each case document, and the sha256 of the documents the
# program produces today; documents must stay byte-identical
CLASSIFY_SUMMARY = {
    (0, 1): {"configurations": 0, "pairs": 0, "unpaired": 0, "sporadic": 0},
    (0, 2): {"configurations": 6, "pairs": 6, "unpaired": 0, "sporadic": 0},
    (1, 1): {"configurations": 29, "pairs": 28, "unpaired": 1,
             "sporadic": 1},
}
CLASSIFY_SHA256 = {
    (0, 1): "ea07ab0d1a0e07708feea44d0212f864937237ce79fece43a6a8a55eec709991",
    (0, 2): "ba0a23be9b0c2b89f6939df36ddcd50887543c86c804ecf9d33a93a16085dd27",
}


def classify_items(cases: Sequence[Tuple[int, int]] = CLASSIFY_CASES
                   ) -> List[Item]:
    """``sft-lab enumerate`` on the paper model, one item per case."""
    cfg = model.paper_model()

    def make(genus, ends):
        def run():
            doc = enumerator.classification_document(cfg, genus, ends)
            return doc["summary"], jsonio.canonical_dumps(doc)

        def verify(out):
            summary, text = out
            problems = []
            if summary != CLASSIFY_SUMMARY[(genus, ends)]:
                problems.append("summary %r" % (summary,))
            want = CLASSIFY_SHA256.get((genus, ends))
            got = hashlib.sha256(text.encode()).hexdigest()
            if want is not None and got != want:
                problems.append("document sha256 %s" % got)
            return problems
        return Item("case_%d_%d" % (genus, ends), run, verify,
                    lambda out: out[1])
    return [make(g, r) for g, r in cases]


# -- count tables ------------------------------------------------------------

# (positive ends, negative ends) of an entry; the total is odd
ENTRY_SHAPES = ((1, 2), (2, 1), (1, 0), (3, 0))
# every entry multiplies, so D never hits a constant: the order is unknown
MULTIPLYING_SHAPES = ((1, 2), (2, 1))


def table_document(rng: random.Random, n_gens: int, n_entries: int,
                   shapes: Sequence[Tuple[int, int]] = ENTRY_SHAPES) -> Dict:
    """A count table, as the CLI reads it, whose differential squares to 0.

    All generators are odd.  The first half (ids g00, g01, ...) only
    multiply, the second half only differentiate.  Each entry is then a
    product of an odd number of odd, pairwise supercommuting operators,
    so every entry operator squares to zero and any two anticommute.

    Entries cycle through the shapes and genus 0 and 1, so every seed
    gives the same mix of shapes and the cost of a table depends little
    on the seed; the seed picks the generators and the counts.  The
    first shape has negative ends and the first entry multiplies by g00.
    """
    ids = ["g%02d" % i for i in range(n_gens)]
    coeffs, derivs = ids[:n_gens // 2], ids[n_gens // 2:]
    shapes = [(a, b) for a, b in shapes
              if a <= len(derivs) and b <= len(coeffs)]
    plan = [(shapes[i % len(shapes)], i // len(shapes) % 2)
            for i in range(n_entries)]
    for (n_pos, n_neg), genus in set(plan):
        room = comb(len(derivs), n_pos) * comb(len(coeffs), n_neg)
        if plan.count(((n_pos, n_neg), genus)) > room:
            raise ValueError("%d entries do not fit %d generators"
                             % (n_entries, n_gens))
    rows = {}
    for (n_pos, n_neg), genus in plan:
        while True:
            pos = tuple(sorted(rng.sample(derivs, n_pos)))
            neg = sorted(rng.sample(coeffs, n_neg))
            if not rows and "g00" not in neg:
                neg[0] = "g00"
                neg.sort()
            key = (genus, pos, tuple(neg))
            if key not in rows:
                break
        rows[key] = rng.choice((-3, -2, -1, 1, 2, 3))
    return {
        "generators": [{"id": g, "parity": 1} for g in ids],
        "counts": [{"genus": g, "positive": list(p), "negative": list(n),
                    "value": str(v)} for (g, p, n), v in rows.items()],
    }


TRUNCATION = dict(hbar_max=3, length_max=4, action_cap=Fraction(100))


def _monomial_json(m):
    return [m[0], [[g, e] for g, e in m[1]]]


def _element_json(x):
    return [_monomial_json(m) + [jsonio.fraction_to_str(c)]
            for m, c in sorted(x.terms.items())]


def _square_twice(counts, monomial) -> bool:
    x = algebra.AlgebraElement({monomial: Fraction(1)})
    return not algebra.apply_D_exact(
        counts, algebra.apply_D_exact(counts, x)).is_zero()


# -- torsion -----------------------------------------------------------------

# (generators, entries): the 4- and 6-generator tables use every
# admissible key, so only their counts depend on the seed.  With the
# model table a pass has five items, so the median item is a 6-generator
# table rather than a mean across two sizes.
TORSION_TABLES = ((4, 8), (6, 36), (6, 36), (8, 32))


def model_table():
    """The paper's collapsed table: only the sporadic count survives."""
    gens = algebra.GeneratorSet.from_orbits([indexcalc.left_orbit("q_min", 0)])
    return algebra.CurveCountTable(gens, {(1, ("q_min",), ()): Fraction(3)})


def torsion_items(seed: int,
                  sizes: Sequence[Tuple[int, int]] = TORSION_TABLES
                  ) -> List[Item]:
    """``sft-lab torsion``: square check, then torsion order."""
    rng = random.Random(seed)
    trunc = algebra.Truncation(**TRUNCATION)
    tables = [("t%d_g%d" % (i, n),
               cli.load_count_table(table_document(rng, n, entries,
                                                   MULTIPLYING_SHAPES)))
              for i, (n, entries) in enumerate(sizes)]
    tables.append(("model", model_table()))

    def make(label, counts):
        def run():
            square = algebra.check_square_zero(counts, trunc)
            if not square[0]:
                return square, None
            return square, algebra.torsion_order(counts, trunc,
                                                 require_square_zero=False)

        def verify(out):
            (ok, witness), result = out
            if not ok:
                return ["square check failed at %r" % (witness,)]
            problems = []
            if result.order is not None:
                target = algebra.AlgebraElement({(result.order, ()):
                                                 Fraction(1)})
                if algebra.apply_D_exact(counts,
                                         result.certificate) != target:
                    problems.append("certificate does not map to h^%d"
                                    % result.order)
            if label == "model":
                want = algebra.AlgebraElement.generator("q_min").scaled(
                    Fraction(1, 3))
                if result.order != 1 or result.certificate != want:
                    problems.append("model table: order %s" % result.label)
            elif result.order is not None:
                problems.append("order %s, but no constant is in the image"
                                % result.label)
            return problems

        def text(out):
            (ok, witness), result = out
            cert = result.certificate if result is not None else None
            return _dumps({"square_zero": ok,
                           "order": result.label if result else None,
                           "certificate": (_element_json(cert)
                                           if cert is not None else None)})
        return Item(label, run, verify, text)
    return [make(label, counts) for label, counts in tables]


# -- square_zero -------------------------------------------------------------

# with the broken table a pass has five items, so the median item is a
# 14-generator table rather than a mean across two sizes
SQUARE_SIZES = (12, 14, 14, 16)
BREAKING_ENTRY = (1, ("g00",), ())      # differentiates a coefficient


def square_zero_items(seed: int, sizes: Sequence[int] = SQUARE_SIZES
                      ) -> List[Item]:
    """``check_square_zero`` alone on wide tables, plus one broken table."""
    rng = random.Random(seed)
    trunc = algebra.Truncation(**TRUNCATION)
    docs = [table_document(rng, n, 2 * n) for n in sizes]
    tables = [("t%d_g%d" % (i, n), cli.load_count_table(doc), True)
              for i, (n, doc) in enumerate(zip(sizes, docs))]
    broken = dict(docs[0], counts=docs[0]["counts"] + [
        {"genus": BREAKING_ENTRY[0], "positive": list(BREAKING_ENTRY[1]),
         "negative": list(BREAKING_ENTRY[2]), "value": "1"}])
    tables.append(("broken_t0", cli.load_count_table(broken), False))

    def make(label, counts, squares_to_zero):
        def run():
            return algebra.check_square_zero(counts, trunc)

        def verify(out):
            ok, witness = out
            if squares_to_zero:
                return [] if out == (True, None) else [
                    "D^2 != 0 at %r" % (witness,)]
            if ok or witness is None:
                return ["broken table passed the square check"]
            if not _square_twice(counts, witness):
                return ["witness %r has D^2 = 0" % (witness,)]
            return []

        def text(out):
            ok, witness = out
            return _dumps({"square_zero": ok,
                           "witness": (_monomial_json(witness)
                                       if witness else None)})
        return Item(label, run, verify, text)
    return [make(*t) for t in tables]


# -- loops -------------------------------------------------------------------

GENUS = 2
LOOP_SAMPLE = ((4, 50), (5, 100), (6, 200), (8, 50), (10, 20))
# self-intersection numbers cross-checked against a numeric geodesic oracle
FROZEN_COUNTS = {(1, 2, -1, 2): 1, (1, 2, 1, -2): 1, (1, 3, -1, -3): 3,
                 (1, 3, 2, 4): 3, (1, 2, 3, -2): 2, (1, 1, 2, 2): 1,
                 (1, 2, -1, 2, 2): 2}


def sample_classes(seed: int, sample: Sequence[Tuple[int, int]],
                   exclude=()) -> List[words.Word]:
    """Distinct canonical classes of each given length, in length order."""
    rng = random.Random(seed)
    group = words.SurfaceGroup(GENUS)
    letters = [x for g in range(1, 2 * GENUS + 1) for x in (g, -g)]
    seen = set(exclude)
    out = []
    for length, count in sample:
        found = 0
        while found < count:
            w = [rng.choice(letters)]
            while len(w) < length:
                x = rng.choice(letters)
                if x != -w[-1] and (len(w) < length - 1 or x != -w[0]):
                    w.append(x)
            try:
                cls = group.canonical_class(tuple(w))
            except TrivialClassError:
                continue
            if len(cls) == length and cls not in seen:
                seen.add(cls)
                out.append(cls)
                found += 1
    return out


def loops_items(seed: int, sample: Sequence[Tuple[int, int]] = LOOP_SAMPLE
                ) -> List[Item]:
    """Cobracket and sporadic count per class on one cold genus-2 group."""
    setup = words.SurfaceGroup(GENUS)
    frozen = {setup.canonical_class(w): n for w, n in FROZEN_COUNTS.items()}
    classes = sample_classes(seed, sample, exclude=frozen) + list(frozen)
    topology = cobracket.StringTopology(words.SurfaceGroup(GENUS))

    def make(cls):
        want = frozen.get(cls)

        def run():
            crossings = (topology.self_intersection_number(cls)
                         if want is not None else None)
            return (topology.cobracket(cls),
                    topology.sporadic_count_direct(cls), crossings)

        def verify(out):
            cob, _, crossings = out
            problems = []
            for (x, y), v in cob.terms.items():
                if cob.terms.get((y, x)) != -v:
                    problems.append("not co-antisymmetric at %r"
                                    % ((x, y),))
                    break
            if crossings != want:
                problems.append("%d crossings, want %d" % (crossings, want))
            return problems

        def text(out):
            cob, sporadic, crossings = out
            fmt = words.format_letters
            return _dumps([fmt(cls), sporadic, crossings,
                           [[fmt(x), fmt(y), v]
                            for (x, y), v in sorted(cob.terms.items())]])
        return Item(words.format_letters(cls), run, verify, text)
    return [make(cls) for cls in classes]


WORKLOADS = {
    "classify": lambda seed: classify_items(),
    "torsion": torsion_items,
    "square_zero": square_zero_items,
    "loops": loops_items,
}
