"""Checks of the benchmark itself: span recorder, references, metric lists.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

hv = pytest.importorskip("hypverify")


def _children(rec, parent_name):
    names = [s[0] for s in rec.spans]
    out = set()
    for s in rec.spans:
        if s[4] >= 0 and names[s[4]] == parent_name:
            out.add(s[0])
    return out


def test_spans_nest_and_patches_are_undone():
    import hypverify.kernels as kernels
    import hypverify.radial as radial
    import hypverify.spectral as spectral
    import hypverify.specialfn as specialfn

    originals = {
        (kernels, "convolve_with_kernel"): radial.convolve_with_kernel,
        (kernels, "phi_matrix"): specialfn.phi_matrix,
        (spectral, "phi_matrix"): specialfn.phi_matrix,
        (hv, "qk_inverse_kernel"): kernels.qk_inverse_kernel,
        (hv, "forward_transform"): spectral.forward_transform,
    }
    rec = SpanRecorder()
    rec.install(hv)
    try:
        assert hasattr(kernels.convolve_with_kernel, "__span_wrapped__")
        grid = hv.make_radial_grid(rho_max=8.0, num_nodes=96)
        sgrid = hv.make_spectral_grid(lam_max=10.0, num_nodes=96)
        hv.qk_inverse_kernel(grid, 5, 2, route="convolution")
        hv.forward_transform(np.exp(-grid.nodes**2), grid, 3, sgrid.nodes)
    finally:
        rec.uninstall()
    assert "radial.convolve_with_kernel" in _children(rec, "kernels.qk_inverse_kernel.convolution")
    assert "specialfn.phi_matrix" in _children(rec, "spectral.forward_transform")
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    assert SpanRecorder.leftover_wrappers() == []
    summary = rec.summary()
    total = sum(summary["modules"].values())
    outer = sum(s[3] - s[2] for s in rec.spans if s[4] < 0)
    assert math.isclose(total, outer, rel_tol=1e-9)


def test_qk_partial_fractions_match_the_closed_resolvents():
    from hypverify.kernels import _resolvent_closed_odd

    rho = np.linspace(0.2, 9.0, 23)
    exact = refs.qk_exact(rho, 5, 2)
    green = hv.limiting_green_kernel(rho, 5)
    other = (4.0 / 9.0) * (green - _resolvent_closed_odd(-7.0 / 4.0, rho, 5))
    assert np.max(np.abs(other / exact - 1.0)) < 1e-12
    for n, s in ((3, 0.7), (7, 2.5)):
        lam0 = s * s - (n - 1) ** 2 / 4.0
        got = refs.resolvent_odd(s, rho, n)
        assert np.max(np.abs(_resolvent_closed_odd(lam0, rho, n) / got - 1.0)) < 1e-13


def test_heat_references_agree_with_the_library_and_each_other():
    rho = np.geomspace(1e-5, 9.0, 41)
    for n in (3, 4, 5):
        ref = refs.heat_profile(0.6, rho, n)
        assert np.max(np.abs(hv.heat_kernel(0.6, rho, n) / ref - 1.0)) < 1e-11
    t = 0.45
    norm, form = refs.heat_norms(t, 3)
    closed = math.exp(-2 * t) * (8 * math.pi * t) ** -1.5
    assert math.isclose(norm, closed, rel_tol=1e-13)
    assert math.isclose(form, 0.5 * closed * (2 + 1.5 / t), rel_tol=1e-13)


def test_phi3_and_hls_references():
    lam = np.array([0.5, 3.0, 17.0])
    rho = np.array([0.01, 1.0, 6.0])
    got = hv.spherical_function(lam[:, None], rho[None, :], 3)
    assert np.max(np.abs(got - refs.phi3(lam, rho))) < 1e-12
    f = workloads.profile_fn({"kind": "gauss", "a": 3.0}, 3, 0.8)
    g = workloads.profile_fn({"kind": "trial", "eps": 0.4}, 3, 0.8)
    coarse = refs.hls_bilinear_h3(f, g, 0.8, 3.0, tol=1e-9)
    fine = refs.hls_bilinear_h3(f, g, 0.8, 3.0, tol=1e-12)
    assert abs(coarse / fine - 1.0) < refs.ERRORS["hls_inner"]
    p = 6.0 / (6.0 - 0.8)
    norms = refs.lp_norm_h3(f, p, 3.0) * refs.lp_norm_h3(g, p, 3.0)
    assert fine < refs.hls_constant(3, 0.8) * norms


def test_spectral_cold_keys_are_distinct_and_seeded():
    tasks = workloads.make_tasks("spectral_cold", 7)
    assert tasks == workloads.make_tasks("spectral_cold", 7)
    radial = [t["N"] for t in tasks]
    spectral = [t[k] for t in tasks for k in ("M", "M2") if k in t]
    assert len(set(radial)) == len(radial)
    assert len(set(spectral)) == len(spectral)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
