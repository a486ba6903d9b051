"""Task lists, inputs, library calls and scoring for each workload.

The parent process (run.py) imports this module to draw tasks and score
them; it never imports hypverify.  The worker process (one fresh
interpreter per pass) calls ``prepare`` and ``execute``, the only
functions here that touch the library, which they receive as an argument.

A task is a plain dict drawn from the workload seed.  ``execute`` is the
timed part: it makes the library calls of one task and returns their
outputs together with the grid nodes they live on, so that ``score`` can
evaluate the exact references in ``refs`` at the same points.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import refs

WORKLOADS = ("battery", "space_conv", "spectral_cold")

# Stated scoring windows (rho ranges) for kernels that are only accurate
# away from the grid edge.
QK_CONV_WINDOW = (0.1, 5.0)
QK_SPECTRAL_WINDOW = (2.0, 9.0)
DIGITS_CAP = 15.0

# (N + M, lam_max * rho_max) of spectral_cold's two groups of tasks: the
# size of the CLI's transform suite, and about half of it each way.
SPECTRAL_LARGE = (1920, 480.0)
SPECTRAL_SMALL = (896, 360.0)

# Exponents of the HLS kernel drawn by space_conv.  hls_bilinear raises its
# self-convergence RuntimeError from lambda ~ 1.6 up on 256- to 512-node
# grids (the value it would return there has under 2.4 digits), and a
# workload may contain no failing call, so lambda stays below that.
HLS_LAMBDA = (0.3, 1.4)


def digits(err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if not math.isfinite(err):
        return 0.0
    return DIGITS_CAP if err <= 10.0**-DIGITS_CAP else min(DIGITS_CAP, -math.log10(err))


def sup_rel(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def point_rel(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got / ref - 1.0)))


def _deal(rng, values) -> list:
    """A random permutation of a fixed multiset of values.

    The seed draws which task gets which grid size, window or radius,
    while the multiset is the same for every seed, so the total
    work and the ranking of task costs barely depend on the seed.
    """
    return [v.item() if hasattr(v, "item") else v for v in rng.permutation(np.asarray(values))]


# -- task lists ------------------------------------------------------------


def make_tasks(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "battery":
        return [{"kind": "battery", "seed": int(seed)}]
    if workload == "space_conv":
        return _space_conv_tasks(rng)
    return _spectral_cold_tasks(rng)


def _space_conv_tasks(rng) -> list[dict]:
    tasks = []
    for N in _deal(rng, (496, 528)):
        t1, t2 = (float(x) for x in rng.uniform(0.3, 1.0, 2))
        tasks.append({"kind": "heat_semigroup", "n": 3, "N": N,
                      "rho_max": float(rng.uniform(10.0, 14.0)), "t1": t1, "t2": t2})
    for (n, k), N in zip(((5, 2), (7, 2), (7, 3)), _deal(rng, (472, 480, 488))):
        tasks.append({"kind": "qk_convolution", "n": n, "k": k, "N": N, "rho_max": 12.0})
    # one exponent from each fifth of HLS_LAMBDA; the five HLS tasks sit in
    # the middle of the cost ranking, so they set task_p50_s
    pairs = _deal(rng, ("gauss/gauss", "trial/trial", "gauss/trial", "trial/gauss", "gauss/gauss"))
    edges = np.linspace(*HLS_LAMBDA, 6)
    for i, (pair, N) in enumerate(zip(pairs, _deal(rng, (272, 280, 288, 296, 304)))):
        pf, pg = pair.split("/")
        tasks.append({"kind": "hls", "n": 3, "N": N, "rho_max": 3.0,
                      "lam": float(rng.uniform(edges[i], edges[i + 1])),
                      "f": _profile_params(rng, pf), "g": _profile_params(rng, pg)})
    for n, N in zip(_deal(rng, (3, 5, 7))[:2], _deal(rng, (400, 560))):
        tasks.append({"kind": "resolvent", "n": n, "N": N, "rho_max": 12.0,
                      "s": float(rng.uniform(0.5, 2.5))})
    rng.shuffle(tasks)
    return tasks


def _profile_params(rng, kind: str) -> dict:
    if kind == "gauss":
        return {"kind": "gauss", "a": float(rng.uniform(2.0, 4.0))}
    return {"kind": "trial", "eps": float(rng.uniform(0.25, 0.5))}


def _spectral_cold_tasks(rng) -> list[dict]:
    # Every task gets a radial size and a spectral size that no other task
    # in the pass uses, so each phi_matrix key is new.  The forward
    # transforms and the phi task run at the size of the CLI's transform
    # suite (896 radial by 1024 spectral nodes, lam_max * rho_max = 480,
    # a 7.3 MB phi matrix); the other tasks at about half of it each way
    # (N + M = 896, lam_max * rho_max = 360, 1.6 MB).  Within each group
    # N + M and lam_max * rho_max are fixed, which keeps the cost of its
    # phi_matrix calls within 2 % of each other; the seed deals the sizes,
    # radii and heat times to the tasks.
    small = iter(_deal(rng, range(408, 480, 8)))
    second = iter(_deal(rng, (376, 384, 392)))
    small_rho = iter(_deal(rng, np.linspace(10.0, 13.0, 9)))
    large = iter(_deal(rng, (872, 888, 904, 920)))
    large_rho = iter(_deal(rng, np.linspace(10.0, 13.0, 4)))

    def sized(task, N, group, r):
        total, window = group
        return {**task, "N": N, "M": total - N, "rho_max": r, "lam_max": window / r}

    tasks = []
    for n in (3, 4, 5):
        for kind in ("roundtrip", "plancherel", "quadratic_form"):
            task = sized({"kind": kind, "n": n}, next(small), SPECTRAL_SMALL, next(small_rho))
            task["t"] = float(rng.uniform(0.4, 1.2))
            if kind == "roundtrip":
                task["M2"] = next(second)
            tasks.append(task)
    rng.shuffle(tasks)
    cli_sized = [sized({"kind": "forward", "n": n, "t": float(rng.uniform(0.4, 1.2))},
                       next(large), SPECTRAL_LARGE, next(large_rho)) for n in (3, 4, 5)]
    cli_sized.append(sized({"kind": "phi", "n": 3}, next(large), SPECTRAL_LARGE, next(large_rho)))
    rng.shuffle(cli_sized)
    # the CLI-sized tasks after the others, and qk_spectral last, so that it
    # always meets a full phi-matrix cache holding the four large matrices:
    # its peak memory then does not depend on the order the seed deals
    tasks += cli_sized
    tasks.append({"kind": "qk_spectral", "n": 5, "k": 2, "N": 512, "rho_max": 12.0})
    return tasks


# -- benchmark-side input profiles -------------------------------------------


def _bump(s: float) -> float:
    return math.exp(-1.0 / s) if s > 0.0 else 0.0


def profile_fn(params: dict, n: int, lam: float):
    """Scalar radial profile: a Gaussian or the HLS trial bubble.

    The trial bubble is (eps (1 - r^2) / (2 (eps^2 + r^2)))^((2n - lam)/2)
    in r = tanh(rho/2), smoothly cut off between r = 0.8 and r = 0.9.
    """
    if params["kind"] == "gauss":
        a = params["a"]
        return lambda rho: math.exp(-a * rho * rho)
    eps = params["eps"]
    power = (2.0 * n - lam) / 2.0

    def trial(rho):
        r = math.tanh(0.5 * rho)
        s = (0.9 - r) / 0.1
        lo = _bump(s)
        cut = lo / (lo + _bump(1.0 - s))
        return (0.5 * (1.0 - r * r) * eps / (eps * eps + r * r)) ** power * cut

    return trial


def _on_nodes(fn, nodes) -> np.ndarray:
    return np.array([fn(float(x)) for x in nodes])


# -- worker side: inputs and library calls -----------------------------------


def prepare(task: dict, hv, outdir: str):
    """Untimed set-up: grids and input arrays for one task."""
    kind = task["kind"]
    if kind == "battery":
        return {"argv": ["verify", "--suite", "all", "--seed", str(task["seed"]),
                         "--outdir", outdir]}
    prep = {}
    if "N" in task:
        prep["grid"] = hv.make_radial_grid(rho_max=task["rho_max"], num_nodes=task["N"])
    if "M" in task:
        prep["sgrid"] = hv.make_spectral_grid(lam_max=task["lam_max"], num_nodes=task["M"])
    if "M2" in task:
        prep["sgrid2"] = hv.make_spectral_grid(lam_max=task["lam_max"], num_nodes=task["M2"])
    n = task["n"]
    if kind == "hls":
        for side in ("f", "g"):
            values = _on_nodes(profile_fn(task[side], n, task["lam"]), prep["grid"].nodes)
            prep[side] = hv.RadialFunction(prep["grid"], values, n)
    elif kind in ("forward", "plancherel", "quadratic_form"):
        prep["values"] = refs.heat_profile(task["t"], prep["grid"].nodes, n)
    elif kind == "roundtrip":
        prep["fhat"] = refs.heat_transform(task["t"], prep["sgrid"].nodes, n)
    return prep


def execute(task: dict, prep: dict, hv) -> dict:
    """The timed library calls of one task; returns outputs to score.

    Transforms get node arrays, not grid objects: given a SpectralGrid as
    ``lam`` (or a RadialGrid as ``rho``) they return only the first value.
    """
    kind = task["kind"]
    n = task.get("n")
    if kind == "battery":
        from hypverify import cli

        return {"status": cli.main(prep["argv"]), "report": prep["argv"][-1] + "/report_all.csv"}
    grid = prep.get("grid")
    out = {"rho": grid.nodes} if grid is not None else {}
    if kind == "heat_semigroup":
        f = hv.heat_kernel(task["t1"], grid.nodes, n)
        g = hv.heat_kernel(task["t2"], grid.nodes, n)
        out.update(f=f, g=g, conv=hv.radial_convolution(f, g, grid, n))
    elif kind == "qk_convolution":
        out["kernel"] = hv.qk_inverse_kernel(grid, n, task["k"], route="convolution")
    elif kind == "qk_spectral":
        out["kernel"] = hv.qk_inverse_kernel(grid, n, task["k"], route="spectral")
    elif kind == "hls":
        out["value"] = hv.hls_bilinear(prep["f"], prep["g"], task["lam"])
    elif kind == "resolvent":
        lam0 = task["s"] ** 2 - (n - 1) ** 2 / 4.0
        out["kernel"] = hv.resolvent_kernel(lam0, grid.nodes, n)
    elif kind == "forward":
        out["lam"] = prep["sgrid"].nodes
        out["fhat"] = hv.forward_transform(prep["values"], grid, n, out["lam"])
    elif kind == "roundtrip":
        values = hv.inverse_transform(prep["fhat"], prep["sgrid"], n, grid.nodes)
        out["values"] = values
        out["lam"] = prep["sgrid2"].nodes
        out["fhat"] = hv.forward_transform(values, grid, n, out["lam"])
    elif kind == "plancherel":
        out["space"], out["freq"] = hv.plancherel_check(prep["values"], grid, n, prep["sgrid"])
    elif kind == "quadratic_form":
        spec = hv.MultiplierSpec.laplacian()
        out["value"] = hv.quadratic_form(prep["values"], grid, n, spec, prep["sgrid"])
    elif kind == "phi":
        out["lam"] = prep["sgrid"].nodes
        out["phi"] = hv.phi_matrix(prep["sgrid"].nodes, grid.nodes, n)
    else:
        raise ValueError(f"unknown task kind {kind!r}")
    return out


# -- parent side: references and scores --------------------------------------


def finite(out: dict) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in out.values())


def score(task: dict, out: dict | None, cache: dict) -> tuple[int, int, float | None, dict]:
    """(attempted, failed, task digits, per-layer digits) for one executed task.

    A task fails when a call raised (no outputs), an output is not
    finite, or a sharp bound is violated.  Digits never fail a task.
    ``cache`` holds references already computed in this run, keyed by
    the task, so repeated passes pay for each reference once.
    """
    kind = task["kind"]
    if kind == "battery":
        return _score_battery(out)
    if out is None or not finite(out):
        return 1, 1, None, {}
    key = repr(sorted(task.items()))
    n = task.get("n")
    layer = {}
    if kind == "heat_semigroup":
        rho = out["rho"]
        if key not in cache:
            times = (task["t1"], task["t2"], task["t1"] + task["t2"])
            cache[key] = tuple(refs.heat_h3(t, rho) for t in times)
        f_ref, g_ref, conv_ref = cache[key]
        err = max(sup_rel(out["f"], f_ref), sup_rel(out["g"], g_ref))
        layer["kernels.heat_kernel.digits"] = digits(err)
        layer["radial.radial_convolution.digits"] = digits(sup_rel(out["conv"], conv_ref))
        return 1, 0, min(layer.values()), layer
    if kind in ("qk_convolution", "qk_spectral"):
        rho = out["rho"]
        if key not in cache:
            cache[key] = refs.qk_exact(rho, n, task["k"])
        lo, hi = QK_CONV_WINDOW if kind == "qk_convolution" else QK_SPECTRAL_WINDOW
        sel = (rho >= lo) & (rho <= hi)
        d = digits(point_rel(out["kernel"][sel], cache[key][sel]))
        if kind == "qk_convolution":
            layer["kernels.qk_inverse_kernel.convolution.digits"] = d
            layer["kernels.qk_inverse_kernel.convolution.edge_digits"] = -math.log10(
                point_rel(out["kernel"], cache[key]))
        return 1, 0, d, layer
    if kind == "resolvent":
        if key not in cache:
            cache[key] = refs.resolvent_odd(task["s"], out["rho"], n)
        d = digits(point_rel(out["kernel"], cache[key]))
        layer["kernels.resolvent_kernel.digits"] = d
        return 1, 0, d, layer
    if kind == "hls":
        if key not in cache:
            f = profile_fn(task["f"], n, task["lam"])
            g = profile_fn(task["g"], n, task["lam"])
            p = 2.0 * n / (2.0 * n - task["lam"])
            bound = refs.hls_constant(n, task["lam"]) * refs.lp_norm_h3(f, p, task["rho_max"]) \
                * refs.lp_norm_h3(g, p, task["rho_max"])
            cache[key] = (refs.hls_bilinear_h3(f, g, task["lam"], task["rho_max"]), bound)
        ref, bound = cache[key]
        d = digits(abs(out["value"] / ref - 1.0))
        layer["inequalities.hls_bilinear.digits"] = d
        return 1, int(out["value"] > bound), d, layer
    t = task.get("t")
    if kind == "forward":
        d = digits(sup_rel(out["fhat"], refs.heat_transform(t, out["lam"], n)))
        layer["spectral.forward_transform.digits"] = d
        return 1, 0, d, layer
    if kind == "roundtrip":
        if key not in cache:
            cache[key] = refs.heat_profile(t, out["rho"], n)
        d_inv = digits(sup_rel(out["values"], cache[key]))
        d_fwd = digits(sup_rel(out["fhat"], refs.heat_transform(t, out["lam"], n)))
        layer["spectral.inverse_transform.digits"] = d_inv
        return 1, 0, min(d_inv, d_fwd), layer
    if kind in ("plancherel", "quadratic_form"):
        if (t, n) not in cache:
            cache[(t, n)] = refs.heat_norms(t, n)
        norm, form = cache[(t, n)]
        if kind == "plancherel":
            err = max(abs(out["space"] / norm - 1.0), abs(out["freq"] / norm - 1.0))
        else:
            err = abs(out["value"] / form - 1.0)
        return 1, 0, digits(err), layer
    if kind == "phi":
        d = digits(sup_rel(out["phi"], refs.phi3(out["lam"], out["rho"])))
        layer["specialfn.phi_matrix.digits"] = d
        return 1, 0, d, layer
    raise ValueError(f"unknown task kind {kind!r}")


def _score_battery(out: dict | None):
    """Rows of the verify report: failures, and digits of two-route agreement.

    Each of the report rows counts as one attempt.  A crashed run counts
    as one failed attempt.
    """
    if out is None:
        return 1, 1, None, {}
    with open(out["report"], newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    failed = [r for r in rows if r["pass"] != "true"]
    errs = [float(r["rel_err"]) for r in rows if r["pass"] == "true"]
    d = min(digits(e) for e in errs) if errs else 0.0
    return len(rows), len(failed), d, {}
