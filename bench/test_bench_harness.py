"""Tiny-size self-test of the benchmark harness.

Runs shrunken versions of the workloads in-process, so it takes a few
seconds; the full workloads only run through run.py.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sft_lab import algebra, cli, words  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_items():
    return (workloads.torsion_items(3, sizes=((4, 8), (6, 12)))
            + workloads.square_zero_items(3, sizes=(8,))
            + workloads.loops_items(3, sample=((4, 3), (6, 2))))


def one_pass(items, traced):
    tracer = spans.Tracer(layers.HOOKS) if traced else None
    if tracer:
        tracer.install()
    try:
        pass_s, records, outputs = worker.run_pass(items)
    finally:
        if tracer:
            tracer.uninstall()
    result = {"pass_s": pass_s, "setup_s": 0.05, "peak_rss_mb": 20.0}
    if tracer:
        result["layers"], result["absent"] = spans.evaluate(layers.METRICS,
                                                            tracer)
    result["digest"] = worker.check_outputs(items, records, outputs)
    result["items"] = records
    return result


def test_tiny_passes_are_correct_and_deterministic(capsys):
    plain = one_pass(tiny_items(), traced=False)
    words._normalize_ray_cached.cache_clear()    # each pass starts cold
    traced = one_pass(tiny_items(), traced=True)
    assert all(not r["error"] and not r["problems"] for r in plain["items"])
    assert plain["digest"] == traced["digest"]

    out = run.summarize("torsion", 3, 0, False, [plain, plain], [])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())

    out = run.summarize("torsion", 3, 0, True, [plain], [traced])
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    layer = {k: v["value"] for k, v in out["metrics"].items()}
    assert layer["algebra.solve_calls"] > 0
    assert layer["algebra.apply_D_calls"] > 0
    assert layer["cobracket.rotation_pairs"] > 0
    assert layer["words.segment_table_builds"] > 0
    assert layer["enumerator.menu_s"] == 0
    capsys.readouterr()


def test_uninstall_restores_the_program():
    originals = (algebra.solve_exact, words.SurfaceGroup.reduce_word)
    tracer = spans.Tracer(layers.HOOKS)
    tracer.install()
    assert algebra.solve_exact is not originals[0]
    tracer.uninstall()
    assert algebra.solve_exact is originals[0]
    assert words.SurfaceGroup.reduce_word is originals[1]


def test_missing_hook_target_reports_metric_absent():
    hooks = [spans.Hook("gone", "sft_lab.algebra", "no_such_solver"),
             spans.Hook("here", "sft_lab.algebra", "apply_D_exact")]
    metrics = [spans.Metric("gone_calls", "count", ("gone",),
                            lambda s, o: s["gone"].calls),
               spans.Metric("here_calls", "count", ("here",),
                            lambda s, o: s["here"].calls)]
    tracer = spans.Tracer(hooks)
    tracer.install()
    try:
        table = cli.load_count_table(workloads.table_document(
            random.Random(1), 4, 4))
        algebra.apply_D_exact(table, algebra.AlgebraElement.one())
    finally:
        tracer.uninstall()
    values, absent = spans.evaluate(metrics, tracer)
    assert values == {"here_calls": 1}
    assert "gone_calls" in absent and "no_such_solver" in absent["gone_calls"]


def test_generated_tables_square_to_zero_and_the_broken_one_does_not():
    trunc = algebra.Truncation(**workloads.TRUNCATION)
    for seed in range(3):
        doc = workloads.table_document(random.Random(seed), 8, 16)
        assert algebra.check_square_zero(cli.load_count_table(doc),
                                         trunc) == (True, None)
    items = workloads.square_zero_items(5, sizes=(8,))
    broken = items[-1]
    ok, witness = broken.run()
    assert not ok and witness is not None and broken.verify((ok, witness)) == []


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loops", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
