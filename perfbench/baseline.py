#!/usr/bin/env python3
"""Record the baseline of the benchmark in perfbench/BASELINE.json.

    python3 perfbench/baseline.py

Runs every workload untraced with seeds 1-10, again with seeds 11-20, and
once traced with seed 1, then writes BASELINE.json afresh.  Per workload
it holds, for every end-to-end metric, the median, quartiles, spread
(quartile distance over the median) and sample count of each set of ten
runs, and how far the second median moved from the first against the
metric's bound; then the traced per-layer metrics and the traffic census.
The machine, the references and the notes are written from the same
measurements and from the benchmark's own constants, so nothing in the
file outlives a re-recording.  Takes about 40 minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SETS = (range(1, 11), range(11, 21))
TRACE_SEED = 1
# Bytes per float64, for working sets computed from array sizes.
_DOUBLE = 8
# Seconds per `verify --suite all` that the README states.
README_BATTERY_S = 36.0


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _lscpu() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in out.splitlines():
        key, _, val = line.partition(":")
        fields[key.strip()] = val.strip()
    return {"cpu_model": fields.get("Model name"), "l2_cache": fields.get("L2 cache"),
            "l3_cache": fields.get("L3 cache")}


def machine(largest_phi_entries: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        **_lscpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: run.child_env()[var]
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "working_sets_MB": {
            "phi_matrix_cli_transform_suite_1024x896": 1024 * 896 * _DOUBLE / 1e6,
            "phi_matrix_largest_in_a_workload": largest_phi_entries * _DOUBLE / 1e6,
            "convolve_chunk_temporary_4e6_doubles": 4e6 * _DOUBLE / 1e6,
            "note": "computed from array sizes, not measured; compare with l2_cache "
                    "and l3_cache above",
        },
    }


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "samples": len(values)}


def compare(sets: list[list[float]], spec: dict) -> dict:
    """Spreads and drift of one metric over the sets, against its bound."""
    summaries = [summarise(v) for v in sets]
    first, second = summaries[0]["median"], summaries[-1]["median"]
    change = (second - first) / first if first else 0.0
    worse_by = change if spec["better"] == "lower" else -change
    spread_checked = spec["name"] != "setup_s"
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "sets": summaries,
        "second_vs_first": change,
        "spreads_within_bound": (not spread_checked
                                 or all(s["spread"] <= spec["bound"] for s in summaries)),
        "drift_within_bound": worse_by <= spec["bound"],
    }


def _runs_summary(workload: str, lines: list[str]) -> dict:
    samples, beyond, passes = [], [], []
    errors = [line for line in lines if line.startswith("task error:")]
    for line in lines:
        if m := re.match(r"task times: (\d+) samples, (\d+) beyond", line):
            samples.append(int(m[1]))
            beyond.append(int(m[2]))
        elif m := re.match(rf"{workload}: (\d+) untraced", line):
            passes.append(int(m[1]))
    return {"untraced_passes_per_run": [min(passes), max(passes)],
            "task_tail_percentile": run.TAIL_PERCENTILE[workload],
            "task_times_per_run": [min(samples), max(samples)],
            "fewest_task_times_beyond_tail": min(beyond),
            "task_errors": errors}


def record_workload(workload: str, bench: dict) -> dict:
    seconds = bench["run_seconds"]
    results, lines = [], []
    for seeds in SETS:
        batch = []
        for seed in seeds:
            res, out = _run(workload, seed, seconds, 0)
            batch.append(res)
            lines += out
            print(workload, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        results.append(batch)
    traced, out = _run(workload, TRACE_SEED, seconds, 1)
    census = unmeasured = None
    for line in out:
        if line.startswith("census "):
            census = json.loads(line[len("census "):])
        elif line.startswith("digits not measured "):
            unmeasured = json.loads(line[len("digits not measured "):])
    everything = [r for batch in results for r in batch]
    return {
        "end_to_end": {spec["name"]: compare([[r["metrics"][spec["name"]]["value"] for r in batch]
                                              for batch in results], spec)
                       for spec in bench["end_to_end"]},
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "runs": _runs_summary(workload, lines),
        f"per_layer_seed_{TRACE_SEED}": {k: v["value"] for k, v in traced["metrics"].items()
                                         if k not in unmeasured},
        "per_layer_digits_not_measured": unmeasured,
        f"census_seed_{TRACE_SEED}": census,
    }


def references() -> dict:
    return {
        "stated_relative_errors": refs.ERRORS,
        "scoring": {
            "profiles": "sup-norm relative error over the grid: max|got - ref| / max|ref|",
            "qk_inverse_kernel": "pointwise relative error on rho in "
                                 f"{list(workloads.QK_CONV_WINDOW)} (convolution route) and "
                                 f"{list(workloads.QK_SPECTRAL_WINDOW)} (spectral route)",
            "scalars": "relative error (hls_bilinear, plancherel_check both sides, "
                       "quadratic_form)",
            "digits": f"-log10 of the error, capped at {workloads.DIGITS_CAP:g}",
        },
    }


def _pct(x: float) -> str:
    return f"{100 * x:.1f} %"


def notes(doc: dict, bench: dict) -> list[str]:
    wl = doc["workloads"]
    bat = wl["battery"]
    bat_wall = bat["end_to_end"]["wall_s"]["sets"][0]["median"]
    rows_per_run = bat["attempted"] // sum(len(s) for s in SETS)
    out = [
        f"Recorded with `python3 perfbench/baseline.py`: {len(SETS[0])} untraced runs per "
        f"workload in each of {len(SETS)} sets (seeds {SETS[0][0]}-{SETS[0][-1]} and "
        f"{SETS[1][0]}-{SETS[1][-1]}), then one traced run with seed {TRACE_SEED}; "
        f"--seconds {bench['run_seconds']} from BENCHMARK.json.",
        "BENCHMARK.json may hold only the keys the benchmark contract names, so the machine "
        "block, the traffic census and the baseline live in this file.",
        f"battery measures {bat_wall:.1f} s per `hypverify verify --suite all` (median wall_s "
        f"of the first set), with {bat['failed']} failed of {bat['attempted']} report rows "
        f"({rows_per_run} per run); the README states about {README_BATTERY_S:g} s.",
        "fail_frac is reported as pass_frac = 1 - fail_frac, because an end-to-end metric may "
        "never read 0; a failing task or report row lowers it.",
        "battery has one task per pass (the whole verify run), so its task_p50_s and "
        "task_tail_s equal its wall_s; its min_digits is the smallest -log10(rel_err) over the "
        "report rows, the two-route agreement of the worst row, not an exact-reference error.",
        f"wall_s is the sum of the task times of one pass, median over the passes of a run; "
        f"setup_s is the median over {run.SETUP_PROBES} import probes and every pass of a run.",
    ]
    for name, entry in wl.items():
        r = entry["runs"]
        out.append(
            f"{name}: {r['untraced_passes_per_run'][0]} to {r['untraced_passes_per_run'][1]} "
            f"untraced passes and {r['task_times_per_run'][0]} to {r['task_times_per_run'][1]} "
            f"task times per run; task_tail_s is their p{r['task_tail_percentile']:g}, with at "
            f"least {r['fewest_task_times_beyond_tail']} task times beyond it in every run.")
    out.append(
        f"space_conv draws HLS exponents from {list(workloads.HLS_LAMBDA)}: hls_bilinear "
        "raises its self-convergence RuntimeError from lambda ~ 1.6 up on 256- to 512-node "
        "grids, and a workload may hold no failing call.")
    out.append(
        "forward_transform(..., lam=SpectralGrid) and inverse_transform(..., rho=RadialGrid) "
        "return only the first value (np.ndim of a grid object is 0); the benchmark passes "
        "node arrays.")
    for name, entry in wl.items():
        if entry["per_layer_digits_not_measured"]:
            why = ("its calls of these layers have no exact reference (report rows compare two "
                   "library routes)" if name == "battery" else "it makes no scored call of them")
            out.append(f"{name} prints 0 for {', '.join(entry['per_layer_digits_not_measured'])}"
                       f", left out of per_layer_seed_{TRACE_SEED} above: {why}.")
    edge = wl["space_conv"][f"per_layer_seed_{TRACE_SEED}"][
        "kernels.qk_inverse_kernel.convolution.edge_digits"]
    out.append(
        f"kernels.qk_inverse_kernel.convolution.digits is scored on rho in "
        f"{list(workloads.QK_CONV_WINDOW)}; edge_digits is over the whole grid and reads "
        f"{edge:.2f} on space_conv, because the convolution route truncates at rho_max.")
    large = sorted(t["N"] for t in workloads.make_tasks("spectral_cold", TRACE_SEED)
                   if t["kind"] in ("forward", "phi"))
    (big_total, big_window), (small_total, small_window) = (workloads.SPECTRAL_LARGE,
                                                            workloads.SPECTRAL_SMALL)
    out.append(
        f"spectral_cold grid sizes (radial N, spectral M): forward transforms and the phi task "
        f"at N in {large} with N + M = {big_total} and lam_max * rho_max = {big_window:g}, "
        "the size of the CLI's transform suite (896 x 1024 at rho_max 12, lam_max 40); the "
        f"other transform tasks at N + M = {small_total} and lam_max * rho_max = "
        f"{small_window:g}; qk_inverse_kernel's spectral route at N = 512 with its own default "
        "spectral grid (1024 nodes, lam_max 160).")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        spreads = [s["spread"] for e in wl.values() for s in e["end_to_end"][name]["sets"]]
        drifts = [e["end_to_end"][name]["second_vs_first"] for e in wl.values()]
        ok = all(e["end_to_end"][name]["spreads_within_bound"]
                 and e["end_to_end"][name]["drift_within_bound"] for e in wl.values())
        out.append(
            f"{name} (bound {spec['bound']}): spreads up to {_pct(max(spreads))}, second set "
            f"median vs first from {_pct(min(drifts))} to {_pct(max(drifts))} over the "
            f"workloads; {'within' if ok else 'OUTSIDE'} the bound"
            + (" (the spread of setup_s is not bounded)" if name == "setup_s" else "") + ".")
    for name, entry in wl.items():
        lay = entry[f"per_layer_seed_{TRACE_SEED}"]
        out.append(
            f"{name} traced: wall_s {lay['trace.wall_s']:.3f} s against "
            f"{lay['trace.untraced_wall_s']:.3f} s untraced (overhead "
            f"{lay['trace.overhead_s']:+.3f} s); module self_s values sum to "
            f"{lay['trace.self_sum_s']:.3f} s.")
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc: dict = {"workloads": {}}
    for wl in workloads.WORKLOADS:
        doc["workloads"][wl] = record_workload(wl, bench)
    largest = max(e[f"census_seed_{TRACE_SEED}"]["phi_matrix"]["largest_entries"]
                  for e in doc["workloads"].values())
    doc = {"machine": machine(largest), **doc, "references": references()}
    doc["notes"] = notes(doc, bench)
    (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
