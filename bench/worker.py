"""One cold pass of one workload, in a fresh interpreter.

Started by run.py, never by hand: ``worker.py WORKLOAD SEED TRACE`` runs
every item of the workload once and prints one JSON object as its last
line of output.  ``worker.py WORKLOAD SEED setup`` stops after set-up.
A fresh process per pass means every pass starts with empty caches,
as one CLI call does.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    """Import the program from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import sft_lab
    if Path(sft_lab.__file__).resolve().parent.parent != src:
        raise ImportError("sft_lab was imported from %s, not %s"
                          % (sft_lab.__file__, src))


def run_pass(items):
    """Time every item; returns (pass seconds, records, outputs)."""
    records, outputs = [], []
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            out, error = item.run(), None
        except Exception as exc:        # counted as a failed item
            out, error = None, "%s: %s" % (type(exc).__name__, exc)
        records.append({"label": item.label,
                        "seconds": time.perf_counter() - t0,
                        "error": error})
        outputs.append(out)
    return time.perf_counter() - start, records, outputs


def check_outputs(items, records, outputs) -> str:
    """Record known-answer problems per item; returns the output digest."""
    digest = hashlib.sha256()
    for item, record, out in zip(items, records, outputs):
        if record["error"] is None:
            try:
                record["problems"] = item.verify(out)
                text = item.text(out)
            except Exception as exc:    # an unreadable output is wrong
                record["problems"] = ["unreadable output: %s: %s"
                                      % (type(exc).__name__, exc)]
                text = "unreadable"
        else:
            record["problems"] = []
            text = "error " + record["error"]
        digest.update(("%s\n%s\n" % (item.label, text)).encode())
    return digest.hexdigest()


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    _import_program()
    import workloads
    items = workloads.WORKLOADS[name](seed)
    if mode == "setup":
        print(json.dumps({"setup_done": time.monotonic()}))
        return 0
    tracer = None
    if mode == "1":
        import layers
        import spans
        tracer = spans.Tracer(layers.HOOKS)
        tracer.install()
    setup_done = time.monotonic()
    try:
        pass_s, records, outputs = run_pass(items)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"setup_done": setup_done, "pass_s": pass_s}
    if tracer is not None:
        result["layers"], result["absent"] = spans.evaluate(layers.METRICS,
                                                            tracer)
    result["digest"] = check_outputs(items, records, outputs)
    result["items"] = records
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
