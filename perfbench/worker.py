"""One pass of a workload in a fresh interpreter.

Usage: python3 worker.py '<json spec>'

The spec holds the workload, seed, whether to trace, and the report
directory.  The first statement imports hypverify, so the time at which
it returns marks the end of set-up; caches such as the phi-matrix cache
start cold in every pass.  The last line of standard output is one JSON
object with the import time, the task timings, the outputs (arrays as
paths of .npy files in the report directory), the peak resident memory,
and (when traced) the span summary.
"""

import time

import hypverify as hv

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def _store(out, outdir: str, index: int):
    """Write array outputs to .npy files so that no copy stays in memory."""
    if out is None:
        return None
    stored = {}
    for key, val in out.items():
        if isinstance(val, np.ndarray):
            path = os.path.join(outdir, f"task{index}-{key}.npy")
            np.save(path, val)
            stored[key] = {"npy": path}
        else:
            stored[key] = val
    return stored


def main(spec: dict) -> dict:
    tasks = workloads.make_tasks(spec["workload"], spec["seed"])
    os.makedirs(spec["outdir"], exist_ok=True)
    preps = [workloads.prepare(t, hv, spec["outdir"]) for t in tasks]
    recorder = SpanRecorder() if spec["trace"] else None
    if recorder:
        recorder.install(hv)
    results = []
    clock = time.perf_counter
    try:
        for i, (task, prep) in enumerate(zip(tasks, preps)):
            error = None
            t0 = clock()
            try:
                out = workloads.execute(task, prep, hv)
            except Exception:
                out = None
                error = traceback.format_exc(limit=3)
            t1 = clock()
            results.append({"start": t0, "end": t1, "out": _store(out, spec["outdir"], i),
                            "error": error})
            del out
    finally:
        if recorder:
            recorder.uninstall()
    return {
        "imported_at": IMPORTED_AT,
        "hypverify_file": hv.__file__,
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": recorder.summary() if recorder else None,
        "leftover_wrappers": SpanRecorder.leftover_wrappers() if recorder else [],
    }


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write("\n" + json.dumps(result) + "\n")
