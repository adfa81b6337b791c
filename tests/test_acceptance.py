"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to stream them);
a failure raises with the offending data.  Shared expensive artifacts
(the classification runs, the loop-class sweep) are computed once per
session.
"""

import itertools
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracle_hyperbolic import SelfIntersectionOracle
from sft_lab.algebra import (AlgebraElement, CurveCountTable, GeneratorSet,
                             Truncation, apply_D_exact,
                             basis_monomials, check_square_zero,
                             monomial_gen, torsion_order)
from sft_lab.cli import main as cli_main
from sft_lab.cobracket import (ClassRegistry, StringTopology, TensorSum,
                               sporadic_count_from_coefficients)
from sft_lab.covers import (double_point_budget, enumerate_branch_profiles,
                            super_rigidity_verdict, total_branching)
from sft_lab import enumerator
from sft_lab.enumerator import (component_menu, enumerate_buildings,
                                is_sporadic, model_count_table_entries,
                                obstruction_data, pair_cancellation,
                                sporadic_signature)
from sft_lab.errors import TrivialClassError
from sft_lab.indexcalc import (PunctureProfile, automatic_transversality,
                               kernel_bound, normal_index, obstruction_rank)
from sft_lab.jsonio import canonical_dumps, read_document
from sft_lab.model import paper_model
from sft_lab.words import SurfaceGroup, inverse

LETTERS = [1, -1, 2, -2, 3, -3, 4, -4]


def report(line):
    print(line, flush=True)


@pytest.fixture(scope="session")
def classification():
    cfg = paper_model()
    enumerator._search.cache_clear()     # time the search, not the memo
    t0 = time.monotonic()
    runs = {(0, 1): enumerate_buildings(cfg, 0, 1),
            (0, 2): enumerate_buildings(cfg, 0, 2),
            (1, 1): enumerate_buildings(cfg, 1, 1)}
    elapsed = time.monotonic() - t0
    return cfg, runs, elapsed


@pytest.fixture(scope="session")
def loop_sweep():
    """All genus-two classes of canonical length at most six."""
    group = SurfaceGroup(2)
    topology = StringTopology(group)
    classes = set()
    for n in range(1, 7):
        for w in itertools.product(LETTERS, repeat=n):
            if any(w[i] == -w[(i + 1) % n] for i in range(n)):
                continue
            try:
                cls = group.canonical_class(w)
            except TrivialClassError:
                continue
            if len(cls) <= 6:
                classes.add(cls)
    return group, topology, sorted(classes)


def test_criterion_1_classification_counts(classification):
    cfg, runs, elapsed = classification
    assert len(runs[(0, 1)]) == 0
    case2 = runs[(0, 2)]
    assert len(case2) == 6
    left = [b for b in case2 if b.components[0].side == "left"]
    assert len(left) == 1 and len(case2) - len(left) == 5
    assert len(runs[(1, 1)]) == 29
    total = sum(len(v) for v in runs.values())
    assert total == 35
    assert elapsed < 60.0
    report("PASS criterion 1: classification counts 0 / 6 (1 left + 5 "
           "right) / 29, total 35, in %.1fs" % elapsed)


def test_criterion_2_twin_cancellation(classification):
    cfg, runs, _ = classification
    everything = runs[(0, 2)] + runs[(1, 1)]
    pairing = pair_cancellation(everything)
    assert len(pairing.unpaired) == 1
    lone = pairing.unpaired[0]
    assert lone.key() == sporadic_signature().key()
    assert lone.arithmetic_genus == 1
    assert lone.components[0].leaf.kind == "cyl"
    assert lone.components[0].leaf.name == "min"
    cylinders = pair_cancellation(runs[(0, 2)])
    assert len(cylinders.unpaired) == 0
    report("PASS criterion 2: one unpaired configuration over all 35 "
           "(the minimum-leaf torus), none over the 6 cylinders")


def test_criterion_3_index_suite(classification):
    t0 = time.monotonic()
    # Conley-Zehnder shifts on every orbit type of the model's menu
    shifts = dict(((0, 1), (1, 0), (2, 1)))
    orbits = {o for c in component_menu(paper_model()) for o in c.pos + c.neg}
    for o in orbits:
        assert o.cz_ambient == o.cz_leaf + shifts[o.sigma_index]
    assert {o.sigma_index for o in orbits} == set(shifts)
    # sporadic normal operator index
    assert normal_index(PunctureProfile(genus=1, pos=(1, 0, 0))) == 0
    # automatic transversality fails in positive genus
    for g in (1, 2, 3):
        for counts in itertools.product(range(5), repeat=6):
            p = PunctureProfile(genus=g, pos=counts[:3], neg=counts[3:])
            assert not automatic_transversality(p, normal_index(p))
    # rank-one obstruction bundles on every cylinder configuration
    cfg, runs, _ = classification
    assert obstruction_rank(0, 0, 1) == 1
    for b in runs[(0, 2)]:
        mains = [a for a in obstruction_data(b) if "page(" in a.component]
        assert len(mains) == 1 and mains[0].rank == 1
    # both Riemann-Roch evaluations agree on an exhaustive grid
    checked = 0
    for g in range(4):
        for counts in itertools.product(range(4), repeat=6):
            normal_index(PunctureProfile(genus=g, pos=counts[:3],
                                         neg=counts[3:]))
            checked += 1
    assert checked >= 10000
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report("PASS criterion 3: index suite (%d profiles) in %.1fs"
           % (checked, elapsed))


def test_criterion_4_torsion_engine(classification):
    t0 = time.monotonic()
    cfg, runs, _ = classification
    from sft_lab.indexcalc import left_orbit
    # the model table: twin pairs cancel exactly, the sporadic survives
    rows = model_count_table_entries(cfg, Fraction(3))
    totals = {}
    for row in rows:
        key = (row["genus"], tuple(row["positive"]),
               tuple(row["negative"]))
        totals[key] = totals.get(key, Fraction(0)) + row["value"]
    nonzero = {k: v for k, v in totals.items() if v}
    assert nonzero == {(1, ("q_min",), ()): Fraction(3)}
    gens = GeneratorSet.from_orbits([left_orbit("q_min", 0)])
    trunc = Truncation(hbar_max=3, length_max=4, action_cap=Fraction(100))
    counts = CurveCountTable(gens, nonzero)
    result = torsion_order(counts, trunc)
    assert result.order == 1
    assert result.certificate == AlgebraElement.generator("q_min").scaled(
        Fraction(1, 3))
    # removing the sporadic count loses the certificate
    empty = CurveCountTable(gens, {})
    assert torsion_order(empty, trunc).order is None
    # a plane count gives order zero
    plane = CurveCountTable(gens, {(0, ("q_min",), ()): Fraction(1)})
    assert torsion_order(plane, trunc).order == 0
    # randomized parity-admissible tables: unit closed, differential odd
    rng = random.Random(2024)
    from sft_lab.algebra import ODD
    base_orbits = [left_orbit("g%d" % i, i % 2) for i in range(4)]
    parities = {o.id: ODD if i < 2 else 0
                for i, o in enumerate(base_orbits)}
    pool = GeneratorSet.from_orbits(base_orbits, parity_override=parities)
    small = Truncation(hbar_max=2, length_max=2, action_cap=Fraction(8))
    for seed in range(100):
        entries = {}
        for _ in range(rng.randint(1, 4)):
            genus = rng.randint(0, 2)
            pos = tuple(rng.choice(list(pool))
                        for _ in range(rng.randint(1, 2)))
            neg = tuple(rng.choice(list(pool))
                        for _ in range(rng.randint(0, 2)))
            if sum(pool.parity(g) for g in pos + neg) % 2 != 1:
                neg = neg + ("g0",)
            entries[(genus, pos, neg)] = Fraction(rng.randint(-3, 3))
        table = CurveCountTable(pool, entries)
        assert table.is_parity_odd()
        assert apply_D_exact(table, AlgebraElement.one()).is_zero()
        for m in basis_monomials(pool, small):
            image = apply_D_exact(table, AlgebraElement({m: Fraction(1)}))
            want = (pool.monomial_parity(m) + 1) % 2
            assert all(pool.monomial_parity(t) == want for t in image.terms)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("PASS criterion 4: torsion order 1 with certificate q/3, "
           "unknown without the sporadic count, 0 with a plane count, "
           "100 randomized tables clean, in %.1fs" % elapsed)


def _hand_profiles(degree, max_interior):
    """Independent generator of degree-d cylinder cover profiles."""
    def partitions(n, largest=None):
        largest = largest or n
        if n == 0:
            yield ()
            return
        for first in range(min(n, largest), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    out = set()
    for up in partitions(degree):
        for down in partitions(degree):
            for z in range(max_interior + 1):
                punctures = len(up) + len(down)
                doubled = 2 - punctures + z
                if doubled < 0 or doubled % 2:
                    continue
                if degree == 1 and z:
                    continue
                out.add((tuple(sorted(up + down)), z))
    return out


def test_criterion_5_super_rigidity_sweep():
    t0 = time.monotonic()
    checked = 0
    for degree in range(2, 6):
        profiles = enumerate_branch_profiles(degree, 0, 2, 6)
        hand = _hand_profiles(degree, 6)
        got = {(bp.puncture_multiplicities, bp.interior_vanishing)
               for bp in profiles}
        assert got == hand, degree
        for bp in profiles:
            branching = total_branching(bp)
            verdict = super_rigidity_verdict(bp)
            if 1 <= branching <= 6:
                assert double_point_budget(bp) < 0
                assert verdict.verdict == "injective_forced"
                checked += 1
            elif branching == 0:
                assert verdict.verdict == "inconclusive"
                assert "unbranched" in verdict.note
    elapsed = time.monotonic() - t0
    assert checked > 0 and elapsed < 5.0
    report("PASS criterion 5: %d branched profiles all forced injective, "
           "unbranched ones flagged, in %.2fs" % (checked, elapsed))


def test_criterion_6_kernel_bound():
    t0 = time.monotonic()
    for c in range(-3, 4):
        for gamma in range(5):
            best = None
            for k in range(21):
                for l in range(21):
                    if k <= gamma and l % 2 == 0 and 2 * k + l > 2 * c:
                        if best is None or k + l < best:
                            best = k + l
            assert kernel_bound(c, gamma) == best
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report("PASS criterion 6: kernel bound matches brute force on the "
           "grid, in %.2fs" % elapsed)


def test_criterion_7_string_topology(loop_sweep):
    t0 = time.monotonic()
    group, topology, classes = loop_sweep
    # the simple generator has vanishing cobracket
    assert topology.cobracket(group.canonical_class((1,))).is_zero()
    # co-antisymmetry and co-Jacobi on every class of length <= 6
    cob = {}
    for cls in classes:
        cob[cls] = topology.cobracket(cls)
        swap = TensorSum()
        for (x, y), v in cob[cls].terms.items():
            swap.add((y, x), v)
        assert cob[cls].plus(swap).is_zero(), cls
    for cls in classes:
        triple = TensorSum()
        for (x, y), v in cob[cls].terms.items():
            inner = cob.get(x)
            if inner is None:
                inner = topology.cobracket(x)
                cob[x] = inner
            for (p, q), u in inner.terms.items():
                triple.add((p, q, y), v * u)
        rot1 = TensorSum()
        for (x, y, z), v in triple.terms.items():
            rot1.add((y, z, x), v)
        rot2 = TensorSum()
        for (x, y, z), v in rot1.terms.items():
            rot2.add((y, z, x), v)
        assert triple.plus(rot1).plus(rot2).is_zero(), cls
    # crossing counts against the numeric oracle
    oracle = SelfIntersectionOracle()
    rng = random.Random(99)
    sampled = 0
    pool = [cls for cls in classes if len(cls) >= 2]
    rng.shuffle(pool)
    for cls in pool:
        if group.primitive_root(cls)[1] > 1:
            continue
        try:
            want = oracle.count(cls)
        except ValueError:
            continue
        assert topology.self_intersection_number(cls) == want, cls
        sampled += 1
        if sampled >= 24:
            break
    assert sampled >= 20
    # a class with nonzero sporadic count within length eight
    found = None
    for cls in classes:
        if topology.sporadic_count_direct(cls):
            found = cls
            break
    assert found is not None and len(found) <= 8
    # the two sporadic count paths agree on samples
    for cls in pool[:25]:
        registry = ClassRegistry(group)
        assert (topology.sporadic_count_direct(cls)
                == sporadic_count_from_coefficients(topology, registry,
                                                    cls)), cls
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report("PASS criterion 7: %d classes swept (co-antisymmetry, "
           "co-Jacobi), %d oracle matches, nonzero count at %r, two "
           "count paths agree, in %.0fs"
           % (len(classes), sampled, found, elapsed))


def test_criterion_8_determinism_roundtrip(tmp_path, capsys):
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for path in paths:
        code = cli_main(["enumerate", "--genus", "0", "--ends", "2",
                         "--out", path])
        assert code == 0
    capsys.readouterr()
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    parsed = read_document(paths[0])
    assert canonical_dumps(parsed) == open(paths[0]).read()
    code = cli_main(["cobracket", "--word", "a1a2A1A2",
                     "--out", str(tmp_path / "c.json")])
    capsys.readouterr()
    assert code == 0
    parsed = read_document(str(tmp_path / "c.json"))
    assert canonical_dumps(parsed) == open(str(tmp_path / "c.json")).read()
    report("PASS criterion 8: byte-identical reruns and round-tripping "
           "documents")
