"""Command-line front end: verification suites and kernel tables.

Each suite runs a fixed list of checks and writes one report row per
check.  Reports are deterministic: rows are sorted by check id, floats
are printed with %.17g, the random-point batteries derive from one
seeded generator whose seed is recorded in the header, and no
timestamps are emitted, so identical configurations produce
byte-identical files.  The exit status is 0 exactly when every row
passes; a report is written even when checks fail or crash (a crashed
check becomes a NaN row that fails, and its exception is named on
stderr).

Report schema (CSV column order, same keys in JSON):

    check_id, anchor, lhs, rhs, tol, rel_err, pass

``anchor`` names the mathematical fact the row verifies.  ``rel_err``
is |lhs - rhs| / max(|rhs|, tiny) for comparison rows and the one-sided
overshoot max(0, lhs - rhs) / max(|rhs|, 1) for bound rows.

The checks live in one table (``_check_table``): each entry states its
suite, the id, kind, tolerance and anchor of every row it yields, and a
function of (cfg, rng) that returns only the numbers.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from hypverify import exact, geometry, inequalities, kernels, radial, specialfn, spectral

SUITES = (
    "geometry",
    "kernels",
    "transform",
    "exact",
    "inequalities",
    "constants",
    "all",
)

_TINY = 1e-300


@dataclass(frozen=True)
class CheckRow:
    check_id: str
    anchor: str
    lhs: float
    rhs: float
    tol: float
    rel_err: float
    passed: bool


@dataclass
class RunConfig:
    """Everything a suite run depends on, with defaults for each field."""

    suite: str = "all"
    n: int = 5
    k: int = 2
    p: float | None = None
    lambda_exp: float = 1.0
    eps_grid: tuple = (0.4, 0.2, 0.1, 0.05)
    kmax: int = 6
    seed: int = 0
    fmt: str = "csv"
    out_path: str | None = None
    outdir: str | None = None

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not self.eps_grid or any(e <= 0 for e in self.eps_grid):
            raise ValueError("eps grid must be positive")


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(rhs), _TINY)


def _cmp_row(check_id, anchor, lhs, rhs, tol) -> CheckRow:
    """Two-sided comparison row: pass iff |lhs-rhs|/|rhs| <= tol."""
    r = _rel(float(lhs), float(rhs))
    return CheckRow(check_id, anchor, float(lhs), float(rhs), tol, r, r <= tol)


def _bound_row(check_id, anchor, lhs, rhs, tol) -> CheckRow:
    """One-sided row: pass iff lhs <= rhs + tol*max(|rhs|, 1).

    rel_err holds the overshoot max(0, lhs - rhs) / max(|rhs|, 1).
    """
    over = max(0.0, (float(lhs) - float(rhs)) / max(abs(float(rhs)), 1.0))
    return CheckRow(check_id, anchor, float(lhs), float(rhs), tol, over, over <= tol)


def _failed_row(check_id, anchor, tol) -> CheckRow:
    return CheckRow(check_id, anchor, math.nan, math.nan, tol, math.nan, False)


_BUILDERS = {"cmp": _cmp_row, "bound": _bound_row}


@dataclass(frozen=True)
class Row:
    """What the report states about one row before anything is computed.

    ``kind`` picks the row builder: "cmp" for a two-sided comparison,
    "bound" for lhs <= rhs.
    """

    check_id: str
    kind: str
    tol: float
    anchor: str


class Check:
    """One computation of a suite and the rows it yields.

    ``fn(cfg, rng)`` returns the numbers only: lhs, rhs for each row in
    turn.  If it raises, every row of the check fails with its own
    anchor and tolerance.
    """

    def __init__(self, suite: str, fn, *rows: Row):
        self.suite = suite
        self.fn = fn
        self.rows = rows


# -- geometry -------------------------------------------------------------


def _rand_ball(rng, count, n):
    v = rng.normal(size=(count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rng.uniform(0.05, 0.85, size=(count, 1))
    return v * r


def _model_consistency(cfg, rng):
    pts = _rand_ball(rng, 32, cfg.n)
    worst = 0.0
    for i in range(16):
        x, y = geometry.BallPoint(pts[2 * i]), geometry.BallPoint(pts[2 * i + 1])
        d_ball = geometry.geodesic_distance(x, y)
        d_half = geometry.halfspace_distance(
            geometry.ball_to_halfspace(x), geometry.ball_to_halfspace(y)
        )
        worst = max(worst, abs(d_half - d_ball) / max(d_ball, 1e-12))
    return worst, 0.0


def _shift_invariance(cfg, rng):
    pts = _rand_ball(rng, 24, cfg.n)
    worst = 0.0
    for i in range(8):
        a, x, y = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
        d0 = geometry.geodesic_distance(geometry.BallPoint(x), geometry.BallPoint(y))
        d1 = geometry.geodesic_distance(
            geometry.BallPoint(geometry.mobius_shift(a, x)),
            geometry.BallPoint(geometry.mobius_shift(a, y)),
        )
        worst = max(worst, abs(d1 - d0) / max(d0, 1e-12))
    return worst, 0.0


def _shift_centers(cfg, rng):
    pts = _rand_ball(rng, 8, cfg.n)
    worst = max(float(np.linalg.norm(geometry.mobius_shift(a, a))) for a in pts)
    return worst, 0.0


def _radius_roundtrip(cfg, rng):
    # past rho ~ 10 the ball radius is within 1e-9 of the boundary
    # and the inverse map cannot return more than ~8 digits
    rho = np.geomspace(1e-4, 10.0, 64)
    back = geometry.rho_from_radius(geometry.radius_from_rho(rho))
    return float(np.max(np.abs(back - rho) / rho)), 0.0


def _ball_volume(cfg, rng):
    # V(R) on H^3 has the closed form pi sinh(2R) - 2 pi R
    grid = radial.make_radial_grid(rho_max=2.0, num_nodes=512)
    vol = radial.integrate_radial(np.ones_like(grid.nodes), grid, 3)
    return vol, math.pi * math.sinh(4.0) - 4.0 * math.pi


# -- kernels --------------------------------------------------------------


def _heat_closed_form(t, rho):
    """The heat kernel on H^3 in closed form."""
    gauss = np.exp(-(rho**2) / (4.0 * t))
    return (4.0 * math.pi * t) ** -1.5 * math.exp(-t) * (rho / np.sinh(rho)) * gauss


def _heat_closed(cfg, rng):
    t, rho = 0.7, np.geomspace(0.05, 8.0, 48)
    got = kernels.heat_kernel(t, rho, 3)
    return float(np.max(np.abs(got / _heat_closed_form(t, rho) - 1.0))), 0.0


def _heat_mass(cfg, rng):
    grid = radial.make_radial_grid(rho_max=14.0, num_nodes=896)
    return radial.integrate_radial(kernels.heat_kernel(1.0, grid.nodes, 5), grid, 5), 1.0


def _heat_semigroup(cfg, rng):
    grid = radial.make_radial_grid(rho_max=14.0, num_nodes=640)
    half = kernels.heat_kernel(0.5, grid.nodes, 3)
    conv = radial.convolve_with_kernel(half, lambda d: kernels.heat_kernel(0.5, d, 3), grid, 3)
    one = kernels.heat_kernel(1.0, grid.nodes, 3)
    win = (grid.nodes >= 0.1) & (grid.nodes <= 3.0)
    return float(np.max(np.abs(conv[win] - one[win]))), 0.0


def _resolvent_closed(cfg, rng):
    rr = np.geomspace(0.1, 5.0, 32)
    worst = 0.0
    # shifts sit above the spectral bottom -(n-1)^2/4 of each n
    for n, lam0 in ((3, -0.5), (5, -3.0)):
        got = kernels.resolvent_kernel(lam0, rr, n)
        want = kernels._resolvent_closed_odd(lam0, rr, n)
        worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    return worst, 0.0


def _product_closed(rho):
    # (cosh rho - 1) / (8 pi^2 sinh^3 rho), the closed form of the H^5
    # product kernel, with cosh rho - 1 = 2 sinh^2(rho/2) so that it does
    # not cancel at small rho
    return 2.0 * np.sinh(0.5 * rho) ** 2 / (8.0 * math.pi**2 * np.sinh(rho) ** 3)


def _product_identity(cfg, rng):
    rr = np.geomspace(0.05, 15.0, 64)
    got = kernels.product_resolvent_h5(-4.0, -3.0, rr)
    return float(np.max(np.abs(got / _product_closed(rr) - 1.0))), 0.0


def _product_bound(cfg, rng):
    rr = np.geomspace(0.01, 15.0, 64)
    got = kernels.product_resolvent_h5(-4.0, -3.0, rr)
    cap = 1.0 / (32.0 * math.pi**2 * np.sinh(0.5 * rr) * np.cosh(0.5 * rr) ** 2)
    return float(np.max(got / cap)), 1.0


def _qk_routes(cfg, rng):
    # the convolution route wants a wide fine grid (its quadrature
    # lives there); the spectral route is pointwise but needs a
    # large frequency window for 1e-3 at rho ~ 0.1, so it runs on
    # a coarse probe grid to keep the phi matrix small
    fine = radial.make_radial_grid(rho_max=12.0, num_nodes=896)
    conv = kernels.qk_inverse_kernel(fine, 5, 2, route="convolution")
    probe = radial.make_radial_grid(rho_max=5.2, num_nodes=64)
    spect = kernels.qk_inverse_kernel(probe, 5, 2, route="spectral",
                                      lam_max=960.0, num_lam=6144)
    win = (probe.nodes >= 0.1) & (probe.nodes <= 5.0)
    conv_at = radial.as_callable(conv, fine)(probe.nodes[win])
    return float(np.max(np.abs(conv_at / spect[win] - 1.0))), 0.0


def _qk_bound_stable(cfg, rng):
    # fitted constant in  kernel <= A sinh(rho/2)^{2k-n}
    # must not drift under grid doubling
    coarse = inequalities._qk_bound_constant(256)
    return inequalities._qk_bound_constant(512), coarse


# -- transform ------------------------------------------------------------

def _density_poly(cfg, rng, n):
    lam = np.geomspace(0.1, 30.0, 64)
    want = {3: lam**2 / 4.0, 5: lam**2 * (lam**2 + 4.0) / 576.0}[n]
    return float(np.max(np.abs(specialfn.plancherel_density(lam, n) / want - 1.0))), 0.0


def _transform_grids():
    grid = radial.make_radial_grid(rho_max=12.0, num_nodes=896)
    return grid, spectral.make_spectral_grid(lam_max=40.0, num_nodes=1024)


def _roundtrip(cfg, rng, n):
    grid, sgrid = _transform_grids()
    f = np.exp(-grid.nodes**2)
    fhat = spectral.forward_transform(f, grid, n, sgrid.nodes)
    back = spectral.inverse_transform(fhat, sgrid, n, grid.nodes)
    return float(np.max(np.abs(back - f))), 0.0


def _isometry(cfg, rng):
    grid, sgrid = _transform_grids()
    space, freq = spectral.plancherel_check(np.exp(-grid.nodes**2), grid, 3, sgrid)
    return freq, space


def _phi_sphere_average(cfg, rng):
    got = specialfn.spherical_function(2.0, 1.5, 4)
    want = specialfn.spherical_function_sphere_average(2.0, 1.5, 4)
    return float(got), float(want)


# -- exact ----------------------------------------------------------------

_MONOMIAL_CASES = tuple(
    (n, k, m)
    for n in range(3, 13)
    for k in range(1, (n - 1) // 2 + 1)
    for m in range(0, 7)
)


def _recursion(cfg, rng):
    return (1.0 if exact.verify_sinh_derivative_recursion(cfg.kmax) else 0.0), 1.0


def _monomials(cfg, rng):
    bad = 0
    for n, k, m in _MONOMIAL_CASES:
        lhs, rhs = exact.halfspace_conjugation_monomial_check(n, k, m)
        bad += lhs != rhs
    return float(bad), 0.0


def _ball_conjugation(cfg, rng, n, k):
    return exact.ball_conjugation_numeric_check(n, k), 0.0


# -- inequalities ---------------------------------------------------------


def _one_deficit(cfg, rng, variant):
    n, k = cfg.n, cfg.k
    bubble = inequalities.bubble_family(0.3, n, k)
    p = None
    if variant == "hardy_mazya":
        # subcritical unless --p says otherwise
        p = cfg.p if cfg.p is not None else (2.0 * n + 2.0 * n / (n - 2 * k)) / 4.0
    spec = inequalities.InequalitySpec(variant, n=n, k=k, p=p)
    rep = inequalities.deficit(
        bubble, spec, sgrid=inequalities._bubble_sgrid(), tail_tol=None
    )
    # scale-aware: the deficit is measured relative to |lhs|
    return -rep.deficit / max(abs(rep.lhs), _TINY), 0.0


def _sharp_monotone(cfg, rng):
    spec = inequalities.InequalitySpec("sharp_sobolev", n=cfg.n, k=cfg.k)
    r = inequalities.ratio_curve(spec, cfg.eps_grid)
    return (float(np.max(np.diff(r))) if len(r) > 1 else 0.0), 0.0


def _sharp_extrapolated(cfg, rng):
    spec = inequalities.InequalitySpec("sharp_sobolev", n=cfg.n, k=cfg.k)
    est = inequalities.estimate_best_constant(spec, cfg.eps_grid, extrapolate=True)
    return est, inequalities.sobolev_constant(cfg.n, cfg.k)


def _poincare_bottom(cfg, rng):
    spec = inequalities.InequalitySpec("poincare", n=cfg.n)
    est = inequalities.estimate_best_constant(spec, (0.5, 0.2, 0.05))
    return (cfg.n - 1) ** 2 / 4.0, est


def _hls_battery(cfg, rng):
    lam = cfg.lambda_exp
    C = inequalities.hls_constant(3, lam)
    p = 2.0 * 3 / (2.0 * 3 - lam)
    grid = radial.make_radial_grid(rho_max=6.0, num_nodes=512)
    cands = [
        radial.RadialFunction(grid, np.exp(-grid.nodes**2), 3),
        radial.RadialFunction(grid, np.exp(-2.0 * grid.nodes**2), 3),
        inequalities.hls_trial_family(0.3, 3, lam, grid=grid),
        inequalities.hls_trial_family(0.1, 3, lam, grid=grid),
    ]
    pairs = [(0, 0), (0, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
    worst = 0.0
    for i, j in pairs:
        f, g = cands[i], cands[j]
        ratio = inequalities.hls_bilinear(f, g, lam) / (
            radial.lp_norm(f.values, grid, 3, p) * radial.lp_norm(g.values, grid, 3, p)
        )
        worst = max(worst, ratio / C)
    return worst, 1.0


def _hls_concentration(cfg, rng):
    C = inequalities.hls_constant(3, cfg.lambda_exp)
    spec = inequalities.InequalitySpec("hls", n=3, lambda_exp=cfg.lambda_exp)
    est = inequalities.estimate_best_constant(spec, (0.2, 0.1, 0.05))
    return est, C, est, C


def _conv_bound(cfg, rng, a, b, n):
    return inequalities.convolution_bound_check(a, b, n).max_ratio, 1.0


def _euclid_composition(cfg, rng):
    return inequalities.riesz_composition_identity(1.0, 0.8)


def _biharmonic(cfg, rng):
    rep = inequalities.biharmonic_hardy_identity_check()
    return rep.spectral_rel, 0.0, rep.quadrature_rel, 0.0


def _symbol_gap(cfg, rng):
    return inequalities.symbol_gap_infimum(np.geomspace(1e-3, 50.0, 200)), 0.0


def _duality(cfg, rng):
    rep = inequalities.duality_chain_check()
    return rep.norm_sq, rep.chained_constant * rep.form


# -- constants ------------------------------------------------------------


def _sobolev_3_1(cfg, rng):
    return inequalities.sobolev_constant(3, 1), 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)


def _sobolev_routes(cfg, rng):
    n, k = cfg.n, cfg.k
    via = inequalities.riesz_gamma(2.0 * k, n) / inequalities.hls_constant(n, n - 2.0 * k)
    return inequalities.sobolev_constant(n, k), via


def _riesz_gamma_2(cfg, rng):
    return inequalities.riesz_gamma(2.0, 3), 4.0 * math.pi


def _riesz_gamma_4(cfg, rng):
    return inequalities.riesz_gamma(4.0, 5), 16.0 * math.pi**2


def _hls_3_1(cfg, rng):
    want = (4.0 / 3.0) * (4.0 / math.sqrt(math.pi)) ** (2.0 / 3.0)
    return inequalities.hls_constant(3, 1.0), want


# -- the table ------------------------------------------------------------


def _check_table(cfg: RunConfig) -> list:
    """Every check of every suite, in run order, for this configuration.

    Order matters: the geometry checks draw from the shared generator in
    turn, and later checks reuse phi matrices cached by earlier ones.
    """
    return [
        Check("geometry", _model_consistency,
              Row("geom_model_consistency", "bound", 1e-10,
                  "ball and half-space distances agree under the model map")),
        Check("geometry", _shift_invariance,
              Row("geom_shift_invariance", "bound", 1e-10,
                  "distance is invariant under the hyperbolic translation")),
        Check("geometry", _shift_centers,
              Row("geom_shift_centers", "bound", 1e-12,
                  "the translation by a sends a to the origin")),
        Check("geometry", _radius_roundtrip,
              Row("geom_radius_roundtrip", "bound", 1e-12,
                  "rho <-> ball radius conversions invert each other")),
        Check("geometry", _ball_volume,
              Row("geom_ball_volume_h3", "cmp", 1e-10,
                  "geodesic ball volume closed form in dimension 3")),
        Check("kernels", _heat_closed,
              Row("kern_heat_closed_h3", "bound", 1e-12,
                  "heat kernel matches the dimension-3 closed form")),
        Check("kernels", _heat_mass,
              Row("kern_heat_mass_h5", "cmp", 1e-6, "heat kernel has unit mass")),
        # measured 1.4e-17 (absolute; heat(1) is at most 8.2e-3 on [0.1, 3]),
        # so the tolerance leaves five digits of room
        Check("kernels", _heat_semigroup,
              Row("kern_heat_semigroup_h3", "bound", 1e-12,
                  "heat(1/2) * heat(1/2) composes to heat(1)")),
        Check("kernels", _resolvent_closed,
              Row("kern_resolvent_closed_odd", "bound", 1e-8,
                  "resolvent quadrature matches odd-dimension closed forms")),
        Check("kernels", _product_identity,
              Row("kern_product_resolvent_h5", "bound", 1e-12,
                  "product kernel matches the resolvent-difference closed form")),
        Check("kernels", _product_bound,
              Row("kern_product_resolvent_bound", "bound", 0.0,
                  "product kernel stays below its displayed envelope")),
        Check("kernels", _qk_routes,
              Row("kern_qk_inverse_routes", "bound", 1e-3,
                  "inverse kernel: convolution and spectral routes agree")),
        Check("kernels", _qk_bound_stable,
              Row("kern_qk_bound_fit_stability", "cmp", 0.05,
                  "fitted inverse-kernel bound constant stable under doubling")),
        *(
            Check("transform", partial(_density_poly, n=n),
                  Row(f"tran_density_poly_h{n}", "bound", 1e-12,
                      f"inversion density equals its polynomial form, dimension {n}"))
            for n in (3, 5)
        ),
        *(
            Check("transform", partial(_roundtrip, n=n),
                  Row(f"tran_roundtrip_n{n}", "bound", 1e-6,
                      "forward-then-inverse transform returns the profile"))
            for n in (3, 4, 5)
        ),
        Check("transform", _isometry,
              Row("tran_isometry", "cmp", 1e-6, "transform preserves the L2 norm")),
        Check("transform", _phi_sphere_average,
              Row("tran_phi_sphere_avg", "cmp", 1e-8,
                  "spherical function equals its sphere-average route")),
        Check("exact", _recursion,
              Row("exact_ladder_recursion", "cmp", 0.0,
                  "iterated ladder coefficients match the integer recursion, "
                  f"k <= {cfg.kmax}")),
        Check("exact", _monomials,
              Row("exact_conjugation_monomials", "cmp", 0.0,
                  "half-space conjugation identity exact on "
                  f"{len(_MONOMIAL_CASES)} monomial cases")),
        *(
            Check("exact", partial(_ball_conjugation, n=n, k=k),
                  Row(f"exact_ball_conjugation_n{n}k{k}", "bound", 1e-4,
                      "ball conjugation identity by nested finite differences"))
            for n, k in ((3, 1), (5, 1), (5, 2))
        ),
        *(
            Check("inequalities", partial(_one_deficit, variant=variant),
                  Row(f"ineq_deficit_{variant}", "bound", 1e-8,
                      "deficit is nonnegative on the concentrating profile"))
            for variant in ("qk_sobolev", "hardy_mazya", "sharp_sobolev")
            + (("h5_biharmonic",) if (cfg.n, cfg.k) == (5, 2) else ())
        ),
        Check("inequalities", _sharp_monotone,
              Row("ineq_sharp_monotone", "bound", 1e-12,
                  "Rayleigh ratio is non-increasing along the concentration")),
        Check("inequalities", _sharp_extrapolated,
              Row("ineq_sharp_extrapolated", "cmp", 0.02,
                  "extrapolated Rayleigh limit hits the sharp constant")),
        Check("inequalities", _poincare_bottom,
              Row("ineq_poincare_bottom", "bound", 0.0,
                  "spread exponential ratios stay above the spectral gap")),
        Check("inequalities", _hls_battery,
              Row("ineq_hls_battery", "bound", 1e-6,
                  "bilinear ratios stay below the sharp constant, six pairs")),
        Check("inequalities", _hls_concentration,
              Row("ineq_hls_concentration", "cmp", 0.05,
                  "concentrating ratios reach the sharp constant from below"),
              Row("ineq_hls_strictly_below", "bound", 0.0,
                  "concentrating ratios never cross the sharp constant")),
        *(
            Check("inequalities", partial(_conv_bound, a=a, b=b, n=n),
                  Row(f"ineq_conv_bound_a{a:g}_b{b:g}_n{n}", "bound", 1e-6,
                      "kernel composition stays below its closed-form bound"))
            for a, b, n in ((1.0, 2.0, 5), (2.0, 2.0, 5), (1.0, 1.0, 4))
        ),
        # measured 1.6e-15 (fixed Gauss sums, the same at every seed), and
        # at most 2.7e-15 over (alpha, beta) = (0.5, 1.7), (2, 0.5), (0.3,
        # 0.3) and (1.5, 1.2); the tolerance is 130 times the row's value
        Check("inequalities", _euclid_composition,
              Row("ineq_riesz_composition", "cmp", 2e-13,
                  "Euclidean power-kernel composition identity by quadrature")),
        Check("inequalities", _biharmonic,
              Row("ineq_biharmonic_spectral", "bound", 1e-6,
                  "second-order Hardy identity through the squared symbol"),
              Row("ineq_biharmonic_quadrature", "bound", 1e-3,
                  "second-order Hardy identity by half-space quadrature")),
        Check("inequalities", _symbol_gap,
              Row("ineq_symbol_gap_infimum", "bound", 1e-5,
                  "fourth-order symbol ratio collapses at the spectrum bottom")),
        Check("inequalities", _duality,
              Row("ineq_duality_chain", "bound", 0.0,
                  "critical norm bounded through the chained kernel constants")),
        Check("constants", _sobolev_3_1,
              Row("const_sobolev_3_1", "cmp", 1e-12,
                  "first-order sharp constant closed form, dimension 3")),
        Check("constants", _sobolev_routes,
              Row(f"const_sobolev_{cfg.n}_{cfg.k}_routes", "cmp", 1e-13,
                  "sharp constant: closed form vs kernel-normalization route")),
        Check("constants", _riesz_gamma_2,
              Row("const_riesz_gamma_2_h3", "cmp", 1e-14,
                  "Riesz normalization gamma(2) in dimension 3 is 4 pi")),
        Check("constants", _riesz_gamma_4,
              Row("const_riesz_gamma_4_h5", "cmp", 1e-14,
                  "Riesz normalization gamma(4) in dimension 5 is 16 pi^2")),
        Check("constants", _hls_3_1,
              Row("const_hls_3_1", "cmp", 1e-14,
                  "sharp bilinear constant closed form, dimension 3")),
    ]


# -- report writing -------------------------------------------------------


def _fmt(x: float) -> str:
    return "%.17g" % x


def _output_path(path: str | None, outdir: str | None, name: str) -> str:
    if path is None:
        path = os.path.join(outdir or os.environ.get("HYPVERIFY_OUTDIR", "."), name)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


_HEADER = ("check_id", "anchor", "lhs", "rhs", "tol", "rel_err", "pass")


def _write_report(rows, cfg: RunConfig) -> str:
    path = _output_path(cfg.out_path, cfg.outdir, f"report_{cfg.suite}.{cfg.fmt}")
    rows = sorted(rows, key=lambda r: r.check_id)
    if cfg.fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(f"# suite={cfg.suite} seed={cfg.seed}\n")
            writer = csv.writer(fh)
            writer.writerow(_HEADER)
            for r in rows:
                nums = [_fmt(x) for x in (r.lhs, r.rhs, r.tol, r.rel_err)]
                writer.writerow([r.check_id, r.anchor, *nums, str(r.passed).lower()])
    else:
        def num(x):
            # crashed checks carry NaN; JSON has no NaN, so emit null
            return x if math.isfinite(x) else None

        doc = {"suite": cfg.suite, "seed": cfg.seed, "rows": []}
        for r in rows:
            nums = [num(x) for x in (r.lhs, r.rhs, r.tol, r.rel_err)]
            cells = [r.check_id, r.anchor, *nums, r.passed]
            doc["rows"].append(dict(zip(_HEADER, cells)))
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return path


def run_suite(cfg: RunConfig) -> tuple[int, str]:
    """Run one suite (or all of them); returns (exit status, report path)."""
    rng = np.random.default_rng(cfg.seed)
    names = SUITES[:-1] if cfg.suite == "all" else (cfg.suite,)
    table = _check_table(cfg)
    rows: list[CheckRow] = []
    errors: dict[str, str] = {}
    for check in (c for name in names for c in table if c.suite == name):
        try:
            vals = check.fn(cfg, rng)
            if len(vals) != 2 * len(check.rows):
                raise ValueError(f"{len(vals)} numbers for {len(check.rows)} rows")
            rows.extend([
                _BUILDERS[row.kind](row.check_id, row.anchor, lhs, rhs, row.tol)
                for row, lhs, rhs in zip(check.rows, vals[::2], vals[1::2])
            ])
        except Exception as exc:
            for row in check.rows:
                rows.append(_failed_row(row.check_id, row.anchor, row.tol))
                errors[row.check_id] = f"{type(exc).__name__}: {exc}"
    path = _write_report(rows, cfg)
    failed = [r for r in rows if not r.passed]
    for r in sorted(failed, key=lambda r: r.check_id):
        raised = f"; raised {errors[r.check_id]}" if r.check_id in errors else ""
        print(
            f"FAIL {r.check_id}: rel_err {_fmt(r.rel_err)} tol {_fmt(r.tol)}{raised}",
            file=sys.stderr,
        )
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed -> {path}")
    return (0 if not failed else 1), path


# -- kernel tables --------------------------------------------------------


_TABLE_KERNELS = ("heat", "resolvent", "green", "product-resolvent", "qk-inverse")


def tabulate_kernel(kind: str, rho_list, n: int, out_path: str | None = None,
                    t: float = 1.0, lam0: float = 0.0, outdir: str | None = None) -> str:
    """Write a CSV table rho, value, reference, rel_err for one kernel.

    The reference column holds a closed form when one exists for the
    requested dimension: heat and the limiting inverse in dimension 3,
    resolvents in odd dimensions, the product kernel, and the inverse
    gap-product kernel by the closed partial fractions of its symbol,
    so that rel_err reads the value's own error.  Otherwise it is left
    empty.
    """
    rho = np.asarray(list(rho_list), dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("rho values must be positive")
    if kind not in _TABLE_KERNELS:
        raise ValueError(f"unknown kernel {kind!r}")
    if kind == "product-resolvent" and n != 5:
        raise ValueError("the product kernel lives in dimension 5")
    ref = None
    if not rho.size:
        vals = rho
    elif kind == "heat":
        vals = kernels.heat_kernel(t, rho, n)
        if n == 3:
            ref = _heat_closed_form(t, rho)
    elif kind == "resolvent":
        vals = kernels.resolvent_kernel(lam0, rho, n)
        if n % 2 == 1:
            ref = kernels._resolvent_closed_odd(lam0, rho, n)
    elif kind == "green":
        vals = kernels.limiting_green_kernel(rho, n)
        if n == 3:
            ref = 1.0 / (4.0 * math.pi * np.sinh(rho))
    elif kind == "product-resolvent":
        vals = kernels.product_resolvent_h5(-4.0, -3.0, rho)
        ref = _product_closed(rho)
    else:
        # the convolution route truncates the kernel at the grid's end,
        # which must lie well beyond the largest rho asked for
        grid = radial.make_radial_grid(rho_max=float(np.max(rho)) + 6.0, num_nodes=512)
        order = 2 if n >= 5 else 1
        conv = kernels.qk_inverse_kernel(grid, n, order, route="convolution")
        vals = radial.as_callable(conv, grid)(rho)
        ref = _qk_partial_fractions(rho, n, order)

    path = _output_path(out_path, outdir, f"kernel_{kind}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "value", "reference", "rel_err"])
        for i in range(rho.size):
            v = float(vals[i])
            tail = ("", "") if ref is None else (_fmt(float(ref[i])), _fmt(_rel(v, float(ref[i]))))
            writer.writerow([_fmt(rho[i]), _fmt(v), *tail])
    return path


def _qk_partial_fractions(rho, n: int, k: int) -> np.ndarray:
    # the inverse gap product in closed form, odd n: with x = lam^2/4 and
    # a_i = c_i + (n-1)^2/4, 1/prod_i (x + a_i) = sum_i [prod_(j != i)
    # (a_j - a_i)]^(-1) / (x + a_i), where a_j - a_i = c_j - c_i and
    # 1/(x + a_i) is the resolvent at shift c_i, the Green kernel at c_1
    shifts = [-(n - 1) ** 2 / 4.0, *kernels._gap_shifts(n, k)]
    return sum(
        kernels._resolvent_closed_odd(c, rho, n) / math.prod(d - c for d in shifts if d != c)
        for c in shifts
    )


# -- constants printer ----------------------------------------------------


def print_constants(n: int, k: int, stream=None) -> None:
    stream = stream or sys.stdout
    lam = n - 2 * k
    s_nk = inequalities.sobolev_constant(n, k)
    c = inequalities.hls_constant(n, float(lam))
    g = inequalities.riesz_gamma(2.0 * k, n)
    s31 = inequalities.sobolev_constant(3, 1)
    ref31 = 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)
    print(f"S({n},{k})       = {_fmt(s_nk)}", file=stream)
    print(f"C({n},{lam})       = {_fmt(c)}", file=stream)
    print(f"gamma({2*k}) on R^{n} = {_fmt(g)}", file=stream)
    print(
        f"consistency S(3,1) = {_fmt(s31)} vs 3(pi/2)^(4/3) = {_fmt(ref31)}"
        f"  rel {_fmt(_rel(s31, ref31))}",
        file=stream,
    )


# -- argument parsing ------------------------------------------------------


def _parse_eps(text: str) -> tuple:
    try:
        vals = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad eps list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("eps list is empty")
    return vals


def _parse_rho(text: str) -> tuple:
    if not text.strip():
        return ()
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rho list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    # dest names the RunConfig field; metavar keeps the flag's name in help
    cfg = RunConfig()
    tab = inspect.signature(tabulate_kernel).parameters
    ap = argparse.ArgumentParser(
        prog="hypverify",
        description="verification suites for hyperbolic-space inequality checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=SUITES, default=cfg.suite)
    v.add_argument("--n", type=int, default=cfg.n)
    v.add_argument("--k", type=int, default=cfg.k)
    v.add_argument("--p", type=float, default=cfg.p)
    v.add_argument("--lam", type=float, dest="lambda_exp", metavar="LAM",
                   default=cfg.lambda_exp,
                   help="bilinear kernel exponent for the hls rows (on H^3): "
                        "0 < lam < 2; from 2 on they raise NotImplementedError")
    v.add_argument("--eps", type=_parse_eps, dest="eps_grid", metavar="EPS",
                   default=cfg.eps_grid, help="comma-separated concentration parameters")
    v.add_argument("--kmax", type=int, default=cfg.kmax,
                   help="depth of the exact recursion checks")
    v.add_argument("--seed", type=int, default=cfg.seed)
    v.add_argument("--format", choices=("csv", "json"), dest="fmt", default=cfg.fmt)
    v.add_argument("--out", dest="out_path", metavar="OUT", default=cfg.out_path,
                   help="report path")
    v.add_argument("--outdir", default=cfg.outdir,
                   help="report directory (default: $HYPVERIFY_OUTDIR or .)")

    c = sub.add_parser("constants", help="print the sharp constants")
    c.add_argument("--n", type=int, default=5)
    c.add_argument("--k", type=int, default=2)

    t = sub.add_parser("tabulate", help="write a kernel value table")
    t.add_argument("--kernel", required=True,
                   choices=_TABLE_KERNELS)
    t.add_argument("--n", type=int, default=3)
    t.add_argument("--t", type=float, default=tab["t"].default, help="heat time")
    t.add_argument("--lam0", type=float, default=tab["lam0"].default,
                   help="resolvent shift, at least -(n-1)^2/4")
    t.add_argument("--rho", type=_parse_rho, required=True,
                   help="comma-separated rho values (may be empty)")
    t.add_argument("--out", dest="out_path", metavar="OUT", default=tab["out_path"].default)
    t.add_argument("--outdir", default=tab["outdir"].default)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "constants":
            print_constants(args.n, args.k)
            return 0
        if args.command == "tabulate":
            print(tabulate_kernel(args.kernel, args.rho, args.n, out_path=args.out_path,
                                  t=args.t, lam0=args.lam0, outdir=args.outdir))
            return 0
        cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
        return run_suite(cfg)[0]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
