#!/usr/bin/env python3
"""hypverify benchmark.

    python3 perfbench/run.py --workload <battery|space_conv|spectral_cold>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  Each pass of a workload runs
in a fresh interpreter (``worker.py``), so the library's caches start cold
as they do for a command-line user.  Passes repeat, one after another
with one client, until the next one would end after ``--seconds``.
Every task is scored against an exact reference (``refs.py``) after the
timed passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from ``spans.py``, measured on traced passes that alternate
with untraced passes of the same tasks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters timed to the return of `import hypverify`, besides
# the one that starts each pass.
SETUP_PROBES = 10
# Hard limit for one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
# The tail metric is the highest percentile with at least ten task times
# beyond it at the smallest task count a run of --seconds gives here
# (BASELINE.json records the counts); battery has one task per pass and
# reports its slowest pass.
TAIL_PERCENTILE = {"battery": 100.0, "space_conv": 80.0, "spectral_cold": 80.0}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
    ("min_digits", "digits"),
)

LAYER_DIGITS = (
    "kernels.heat_kernel.digits",
    "kernels.resolvent_kernel.digits",
    "specialfn.phi_matrix.digits",
    "radial.radial_convolution.digits",
    "spectral.forward_transform.digits",
    "spectral.inverse_transform.digits",
    "inequalities.hls_bilinear.digits",
    "kernels.qk_inverse_kernel.convolution.digits",
    "kernels.qk_inverse_kernel.convolution.edge_digits",
)

FUNCTION_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("errors", "count"))


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric the traced run prints, in order."""
    out = []
    for module, funcs in spans.REPORTED.items():
        for fn in funcs:
            out += [(f"{module}.{fn}.{stat}", unit) for stat, unit in FUNCTION_STATS]
    out += [(f"{m}.self_s", "s") for m in spans.MODULES]
    out += [
        ("specialfn.phi_matrix.entries_per_s", "1/s"),
        ("specialfn.phi_matrix.repeat_ratio", "frac"),
        ("specialfn.phi_matrix.odd_self_s", "s"),
        ("specialfn.phi_matrix.even_self_s", "s"),
        ("radial.convolve_with_kernel.pairs_per_s", "1/s"),
        ("radial.radial_convolution.pairs_per_s", "1/s"),
    ]
    out += [(name, "digits") for name in LAYER_DIGITS]
    out += [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.self_sum_s", "s"),
    ]
    return out


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run a child to completion; returns (perf_counter at spawn, stdout)."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {argv[1]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return t0, proc.stdout


def setup_probe(deadline: float) -> float:
    code = "import time, hypverify; print(time.perf_counter()); print(hypverify.__file__)"
    t0, stdout = _spawn([sys.executable, "-c", code], deadline)
    stamp, path = stdout.split()
    _check_source(path)
    return float(stamp) - t0


def _check_source(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "hypverify").resolve():
        raise BenchError(f"hypverify was imported from {path}, not from {SRC}")


def run_pass(workload: str, seed: int, trace: bool, index: int, deadline: float) -> dict:
    outdir = OUT / f"{workload}-{os.getpid()}" / f"pass-{index}"
    spec = {"workload": workload, "seed": seed, "trace": trace, "outdir": str(outdir)}
    t0, stdout = _spawn([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], deadline)
    res = json.loads(stdout.strip().splitlines()[-1])
    _check_source(res["hypverify_file"])
    res["setup_s"] = res["imported_at"] - t0
    res["trace_on"] = trace
    # tasks run back to back; the gaps between them are the worker storing
    # outputs, which is not the library's time
    res["wall_s"] = sum(r["end"] - r["start"] for r in res["results"])
    return res


def score_passes(tasks: list[dict], passes: list[dict]) -> dict:
    cache: dict = {}
    attempted = failed = 0
    task_digits: list[float] = []
    layer: dict[str, float] = {}
    errors: list[str] = []
    for res in passes:
        for task, r in zip(tasks, res["results"]):
            out = r["out"]
            if out is not None:
                out = {k: (np.load(v["npy"]) if isinstance(v, dict) else v) for k, v in out.items()}
            a, f, d, lay = workloads.score(task, out, cache)
            attempted += a
            failed += f
            if r["error"]:
                errors.append(f"{task['kind']}: {r['error'].strip().splitlines()[-1]}")
            if d is not None:
                task_digits.append(d)
            for k, v in lay.items():
                layer[k] = min(layer.get(k, math.inf), v)
    return {"attempted": attempted, "failed": failed, "digits": task_digits,
            "layer": layer, "errors": errors}


def end_to_end(workload: str, passes: list[dict], setups: list[float], scored: dict) -> dict:
    times = [r["end"] - r["start"] for p in passes for r in p["results"]]
    q = TAIL_PERCENTILE[workload]
    vals = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "task_p50_s": statistics.median(times),
        "task_tail_s": float(np.percentile(times, q)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_frac": 1.0 - scored["failed"] / max(scored["attempted"], 1),
        "min_digits": min(scored["digits"]) if scored["digits"] else 0.0,
    }
    return {name: {"value": vals[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(traced: list[dict], untraced: list[dict], scored: dict) -> dict:
    k = len(traced)
    funcs: dict[str, dict] = {}
    modules: dict[str, float] = {}
    phi = dict.fromkeys(traced[0]["trace"]["phi"], 0)
    pairs: dict[str, list] = {}
    for p in traced:
        s = p["trace"]
        for name, rec in s["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
            for stat in acc:
                acc[stat] += rec[stat]
        for m, v in s["modules"].items():
            modules[m] = modules.get(m, 0.0) + v
        for key in phi:
            val = s["phi"][key]
            phi[key] = max(phi[key], val) if key == "max_entries" else phi[key] + val
        for name, (cnt, dur) in s["pairs"].items():
            acc = pairs.setdefault(name, [0, 0.0])
            acc[0] += cnt
            acc[1] += dur
    vals: dict[str, float] = {}
    for module, names in spans.REPORTED.items():
        for fn in names:
            rec = funcs.get(f"{module}.{fn}", {})
            for stat, _ in FUNCTION_STATS:
                vals[f"{module}.{fn}.{stat}"] = rec.get(stat, 0) / k
    for m in spans.MODULES:
        vals[f"{m}.self_s"] = modules.get(m, 0.0) / k
    vals["specialfn.phi_matrix.entries_per_s"] = (
        phi["entries_new"] / phi["self_new"] if phi["self_new"] > 0 else 0.0)
    vals["specialfn.phi_matrix.repeat_ratio"] = (
        phi["repeats"] / phi["calls"] if phi["calls"] else 0.0)
    vals["specialfn.phi_matrix.odd_self_s"] = phi["odd_self"] / k
    vals["specialfn.phi_matrix.even_self_s"] = phi["even_self"] / k
    for fn in ("convolve_with_kernel", "radial_convolution"):
        cnt, dur = pairs.get(f"radial.{fn}", (0, 0.0))
        vals[f"radial.{fn}.pairs_per_s"] = cnt / dur if dur > 0 else 0.0
    for name in LAYER_DIGITS:
        # 0 where no task of the workload scores that layer against an exact
        # reference: it makes no call of the layer, or (battery) its calls
        # have none; the run lists these names on a line of their own
        vals[name] = scored["layer"].get(name, 0.0)
    # means, like the per-pass sums above, so that the module self times
    # add up to trace.wall_s
    t_wall = statistics.mean(p["wall_s"] for p in traced)
    u_wall = statistics.mean(p["wall_s"] for p in untraced)
    vals["trace.wall_s"] = t_wall
    vals["trace.untraced_wall_s"] = u_wall
    vals["trace.overhead_s"] = t_wall - u_wall
    vals["trace.self_sum_s"] = sum(modules.values()) / k
    census = {
        "phi_matrix": {"calls": phi["calls"] / k,
                       "distinct_keys": (phi["calls"] - phi["repeats"]) / k,
                       "odd_n_calls": phi["odd_calls"] / k, "even_n_calls": phi["even_calls"] / k,
                       "largest_entries": phi["max_entries"]},
        "convolution_pairs": {name: cnt / k for name, (cnt, _) in pairs.items()},
    }
    metrics = {name: {"value": vals[name], "unit": unit} for name, unit in per_layer_metrics()}
    return metrics, census


def _task_census(tasks: list[dict]) -> dict:
    kinds: dict[str, int] = {}
    for t in tasks:
        kinds[t["kind"]] = kinds.get(t["kind"], 0) + 1
    out = {"count": len(tasks), "by_kind": kinds}
    for key in ("N", "M", "M2"):
        sizes = sorted(t[key] for t in tasks if key in t)
        if sizes:
            out[f"{key}_sizes"] = sizes
    ns = [t["n"] for t in tasks if "n" in t]
    if ns:
        out["odd_n_tasks"] = sum(n % 2 for n in ns)
        out["even_n_tasks"] = len(ns) - out["odd_n_tasks"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "hypverify" / "__init__.py").is_file():
        raise BenchError(f"no hypverify sources under {SRC}")
    workdir = OUT / f"{workload}-{os.getpid()}"
    try:
        return _run(workload, seed, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()


def _run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    tasks = workloads.make_tasks(workload, seed)
    setup_probe(deadline)  # writes the bytecode caches; not counted
    setups = [setup_probe(deadline) for _ in range(SETUP_PROBES)]

    passes: list[dict] = []
    t_begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(run_pass(workload, seed, False, len(passes), deadline))
        if trace:
            passes.append(run_pass(workload, seed, True, len(passes), deadline))
        now = time.perf_counter()
        if now - t_begin + (now - round_start) > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    leftovers = sorted({w for p in passes for w in p["leftover_wrappers"]})
    if leftovers:
        raise BenchError(f"tracing left wrappers behind: {leftovers}")

    scored = score_passes(tasks, passes)
    untraced = [p for p in passes if not p["trace_on"]]
    traced = [p for p in passes if p["trace_on"]]
    if trace:
        metrics, census = per_layer(traced, untraced, scored)
        census["tasks_per_pass"] = _task_census(tasks)
        print("census " + json.dumps(census))
        print("digits not measured " + json.dumps(
            [name for name in LAYER_DIGITS if name not in scored["layer"]]))
    else:
        metrics = end_to_end(workload, untraced, setups, scored)
    times = [r["end"] - r["start"] for p in untraced for r in p["results"]]
    cut = np.percentile(times, TAIL_PERCENTILE[workload])
    print(f"task times: {len(times)} samples, {sum(t > cut for t in times)} beyond "
          f"p{TAIL_PERCENTILE[workload]:g}")
    for line in scored["errors"]:
        print(f"task error: {line}")
    print(f"{workload}: {len(untraced)} untraced and {len(traced)} traced passes of "
          f"{len(tasks)} tasks, {time.perf_counter() - start:.1f} s in all")
    return {"correct": scored["failed"] == 0, "attempted": scored["attempted"],
            "failed": scored["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
