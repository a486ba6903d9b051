"""End-to-end acceptance battery.

Eleven stand-alone checks, each pinned to its stated tolerance and
printing one summary line on success.  Between them they touch every
load-bearing route in the package: closed kernels against quadrature,
exact integer identities, transform isometry, deficit positivity on
concentrating families, and the two-route kernel comparisons.  Run
with -v (or -s for the summary lines).
"""

import math

import numpy as np
import pytest

from hypverify.exact import (
    ball_conjugation_numeric_check,
    halfspace_conjugation_monomial_check,
    sinh_expansion_coefficients,
    verify_sinh_derivative_recursion,
)
from hypverify.inequalities import (
    InequalitySpec,
    biharmonic_hardy_identity_check,
    bubble_family,
    convolution_bound_check,
    deficit,
    estimate_best_constant,
    hls_bilinear,
    hls_constant,
    hls_trial_family,
    ratio_curve,
    riesz_composition_identity,
    riesz_gamma,
    sobolev_constant,
    symbol_gap_infimum,
)
from hypverify.kernels import (
    fractional_green_h3,
    heat_kernel,
    product_resolvent_h5,
    qk_inverse_kernel,
    resolvent_kernel,
)
from hypverify.radial import (
    RadialFunction,
    as_callable,
    integrate_radial,
    lp_norm,
    make_radial_grid,
    radial_convolution,
)
from hypverify.specialfn import plancherel_density
from hypverify.spectral import (
    forward_transform,
    inverse_transform,
    make_spectral_grid,
    plancherel_prefactor,
)


@pytest.fixture(scope="module")
def sgrid_bubble():
    # wide measured window for the C^{1,1} concentrating profiles
    return make_spectral_grid(lam_max=180.0, num_nodes=1080)


@pytest.fixture(scope="module")
def bubble52():
    return bubble_family(0.3, 5, 2)


def test_criterion_01_resolvent_closed_forms():
    rho = np.array([0.1, 1.0, 5.0])
    worst = 0.0
    for n in (3, 4, 5, 6):
        lam0 = -n * (n - 2) / 4.0
        got = resolvent_kernel(lam0, rho, n)
        alpha_n = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
        want = (
            (2.0 * np.sinh(0.5 * rho)) ** (2.0 - n)
            - (2.0 * np.cosh(0.5 * rho)) ** (2.0 - n)
        ) / (n * (n - 2) * alpha_n)
        worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    assert worst <= 1e-8

    rho = np.geomspace(0.1, 8.0, 40)
    s3 = np.sinh(rho) ** 3
    got3 = resolvent_kernel(-3.0, rho, 5)
    got4 = resolvent_kernel(-4.0, rho, 5)
    rel3 = float(np.max(np.abs(got3 * 8.0 * math.pi**2 * s3 - 1.0)))
    rel4 = float(np.max(np.abs(got4 * 8.0 * math.pi**2 * s3 / np.cosh(rho) - 1.0)))
    assert max(rel3, rel4) <= 1e-10
    print(
        f"criterion 01 PASS - resolvent vs closed forms: conformal {worst:.2e}, "
        f"shift values {max(rel3, rel4):.2e}"
    )


def test_criterion_02_product_kernel_identity_and_bound():
    rho = np.geomspace(0.05, 15.0, 80)
    got = product_resolvent_h5(-4.0, -3.0, rho)
    # resolvent(-4) - resolvent(-3), written in its cancellation-free form
    want = 2.0 * np.sinh(0.5 * rho) ** 2 / (8.0 * math.pi**2 * np.sinh(rho) ** 3)
    rel = float(np.max(np.abs(got / want - 1.0)))
    assert rel <= 1e-12

    rho = np.geomspace(1e-3, 15.0, 120)
    got = product_resolvent_h5(-4.0, -3.0, rho)
    cap = 1.0 / (32.0 * math.pi**2 * np.sinh(0.5 * rho) * np.cosh(0.5 * rho) ** 2)
    overshoot = float(np.max(got / cap)) - 1.0
    assert overshoot <= 0.0
    print(
        f"criterion 02 PASS - product kernel: identity rel {rel:.2e}, "
        f"envelope margin {-overshoot:.2e}"
    )


def test_criterion_03_heat_kernel():
    rho = np.geomspace(0.05, 8.0, 60)
    worst_closed = 0.0
    for t in (0.1, 1.0):
        got = heat_kernel(t, rho, 3)
        want = (
            (4.0 * math.pi * t) ** -1.5
            * math.exp(-t)
            * (rho / np.sinh(rho))
            * np.exp(-(rho**2) / (4.0 * t))
        )
        worst_closed = max(worst_closed, float(np.max(np.abs(got / want - 1.0))))
    assert worst_closed <= 1e-12

    grid = make_radial_grid(rho_max=14.0, num_nodes=896)
    worst_mass = 0.0
    for n in (3, 4, 5):
        for t in (0.1, 1.0):
            mass = integrate_radial(heat_kernel(t, grid.nodes, n), grid, n)
            worst_mass = max(worst_mass, abs(mass - 1.0))
    assert worst_mass <= 1e-6

    cgrid = make_radial_grid(rho_max=14.0, num_nodes=640)
    half = heat_kernel(0.5, cgrid.nodes, 3)
    conv = radial_convolution(half, half, cgrid, 3)
    one = heat_kernel(1.0, cgrid.nodes, 3)
    win = (cgrid.nodes >= 0.1) & (cgrid.nodes <= 3.0)
    sup = float(np.max(np.abs(conv[win] - one[win])))
    assert sup <= 1e-4
    print(
        f"criterion 03 PASS - heat kernel: closed {worst_closed:.2e}, "
        f"mass {worst_mass:.2e}, semigroup sup {sup:.2e}"
    )


def test_criterion_04_transform_roundtrip_isometry_density():
    grid = make_radial_grid(rho_max=14.0, num_nodes=1024)
    sgrid = make_spectral_grid(lam_max=40.0, num_nodes=1024)
    rho = grid.nodes
    battery = [
        np.exp(-(rho**2)),
        (1.0 + rho**2) * np.exp(-(rho**2)),
        np.exp(-2.0 * (np.cosh(rho) - 1.0)),
        np.exp(-(rho**2) / 4.0),
        rho**2 * np.exp(-(rho**2)),
    ]
    worst_rt = 0.0
    worst_iso = 0.0
    for n in (3, 4, 5):
        dens = plancherel_density(sgrid.nodes, n)
        pref = plancherel_prefactor(n)
        for f in battery:
            fhat = forward_transform(f, grid, n, sgrid.nodes)
            back = inverse_transform(fhat, sgrid, n, rho)
            worst_rt = max(
                worst_rt, float(np.max(np.abs(back - f)) / np.max(np.abs(f)))
            )
            space = integrate_radial(f**2, grid, n)
            freq = pref * float(np.sum(sgrid.weights * fhat**2 * dens))
            worst_iso = max(worst_iso, abs(freq / space - 1.0))
    assert worst_rt <= 1e-6
    assert worst_iso <= 1e-6

    lam = np.geomspace(0.05, 35.0, 80)
    d3 = float(np.max(np.abs(plancherel_density(lam, 3) / (lam**2 / 4.0) - 1.0)))
    d5 = float(
        np.max(
            np.abs(
                plancherel_density(lam, 5) / (lam**2 * (lam**2 + 4.0) / 576.0) - 1.0
            )
        )
    )
    assert max(d3, d5) <= 1e-12
    print(
        f"criterion 04 PASS - transform: roundtrip {worst_rt:.2e}, "
        f"isometry {worst_iso:.2e}, densities {max(d3, d5):.2e}"
    )


def test_criterion_05_exact_suite():
    assert verify_sinh_derivative_recursion(8)
    for k in range(1, 9):
        assert sinh_expansion_coefficients(k)[0] == math.factorial(2 * k)

    cases = 0
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            for m in range(0, 7):
                lhs, rhs = halfspace_conjugation_monomial_check(n, k, m)
                assert lhs == rhs, (n, k, m)
                cases += 1

    worst = 0.0
    for n, k in ((3, 1), (5, 1), (5, 2)):
        worst = max(worst, ball_conjugation_numeric_check(n, k))
    assert worst <= 1e-4
    print(
        f"criterion 05 PASS - exact suite: recursion k<=8, {cases} monomial "
        f"cases, ball check {worst:.2e}"
    )


def test_criterion_06_constants_and_recorded_discrepancy():
    s31 = riesz_gamma(2.0, 3) / hls_constant(3, 1.0)
    want = 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)
    rel_s = abs(s31 / want - 1.0)
    assert rel_s <= 1e-12

    rel_g = abs(riesz_gamma(4.0, 5) / (16.0 * math.pi**2) - 1.0)
    assert rel_g <= 1e-12

    # recorded discrepancy: the displayed product-kernel constant is an
    # envelope, high by exactly cosh(rho/2); the true closed form
    # carries cosh^3 in the denominator where the display has cosh^2
    rho = np.array([0.5, 1.0, 2.0])
    kern = product_resolvent_h5(-4.0, -3.0, rho)
    displayed = 1.0 / (
        32.0 * math.pi**2 * np.sinh(0.5 * rho) * np.cosh(0.5 * rho) ** 2
    )
    ratio = kern / displayed
    assert np.max(np.abs(ratio * np.cosh(0.5 * rho) - 1.0)) <= 1e-10
    print(
        f"criterion 06 PASS - constants: S(3,1) {rel_s:.2e}, gamma(4) {rel_g:.2e}; "
        f"recorded: displayed product envelope exceeds the kernel by "
        f"cosh(rho/2) (ratio at rho=1: {float(ratio[1]):.6f})"
    )


def test_criterion_07_sharpness_probe(bubble52, sgrid_bubble):
    spec = InequalitySpec("sharp_sobolev", n=5, k=2)
    eps = (0.4, 0.2, 0.1, 0.05)
    ratios = ratio_curve(spec, eps)
    assert np.all(np.diff(ratios) <= 1e-12)

    est = estimate_best_constant(spec, eps, extrapolate=True)
    s52 = sobolev_constant(5, 2)
    rel = abs(est / s52 - 1.0)
    assert rel <= 0.02

    subcrit = 8.0 / 3.0
    reports = {
        "qk_sobolev": deficit(
            bubble52, InequalitySpec("qk_sobolev", n=5, k=2),
            sgrid=sgrid_bubble, tail_tol=None,
        ),
        "hardy_mazya": deficit(
            bubble52, InequalitySpec("hardy_mazya", n=5, k=2, p=subcrit),
            sgrid=sgrid_bubble, tail_tol=None,
        ),
        "sharp_sobolev": deficit(
            bubble52, spec, sgrid=sgrid_bubble, tail_tol=None,
        ),
        "h5_biharmonic": deficit(
            bubble52, InequalitySpec("h5_biharmonic", n=5, k=2),
            sgrid=sgrid_bubble, tail_tol=None,
        ),
    }
    margin = math.inf
    for name, rep in reports.items():
        rel_def = rep.deficit / abs(rep.lhs)
        assert rel_def >= -1e-8, name
        margin = min(margin, rel_def)
    print(
        f"criterion 07 PASS - sharpness: monotone ratios, Richardson rel "
        f"{rel:.2e}, smallest deficit margin {margin:+.2e} relative"
    )


def test_criterion_08_hls_battery_and_concentration():
    lam_exp = 1.0
    C = hls_constant(3, lam_exp)
    p = 6.0 / 5.0
    grid = make_radial_grid(rho_max=6.0, num_nodes=512)
    cands = [
        RadialFunction(grid, np.exp(-grid.nodes**2), 3),
        RadialFunction(grid, np.exp(-2.0 * grid.nodes**2), 3),
        hls_trial_family(0.3, 3, lam_exp, grid=grid),
        hls_trial_family(0.1, 3, lam_exp, grid=grid),
    ]
    worst = 0.0
    for i, j in ((0, 0), (0, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        f, g = cands[i], cands[j]
        ratio = hls_bilinear(f, g, lam_exp) / (
            lp_norm(f.values, grid, 3, p) * lp_norm(g.values, grid, 3, p)
        )
        worst = max(worst, ratio / C)
    assert worst <= 1.0 + 1e-6

    spec = InequalitySpec("hls", n=3, lambda_exp=lam_exp)
    est = estimate_best_constant(spec, (0.2, 0.1, 0.05))
    assert est < C
    gap = (C - est) / C
    assert gap <= 0.05
    print(
        f"criterion 08 PASS - bilinear: battery max {worst:.8f} of sharp, "
        f"concentration within {gap:.2e} and strictly below"
    )


def test_criterion_09_convolution_bound_and_euclidean_identity():
    margins = []
    for alpha, beta, n in ((1.0, 2.0, 5), (2.0, 2.0, 5), (1.0, 1.0, 4)):
        rep = convolution_bound_check(alpha, beta, n)
        assert rep.max_ratio <= 1.0 + 1e-6, (alpha, beta, n)
        margins.append(rep.max_ratio)
    lhs, rhs = riesz_composition_identity(1.0, 0.8)
    rel = abs(lhs / rhs - 1.0)
    assert rel <= 1e-6
    print(
        f"criterion 09 PASS - composition: bound ratios "
        f"{', '.join('%.6f' % m for m in margins)}; identity rel {rel:.2e}"
    )


def test_criterion_10_fractional_kernels_and_hardy_identity():
    rho = np.geomspace(0.01, 10.0, 60)
    rel_k = float(
        np.max(
            np.abs(
                fractional_green_h3(rho, 2.0) * 4.0 * math.pi * np.sinh(rho) - 1.0
            )
        )
    )
    assert rel_k <= 1e-12

    grid = np.geomspace(1e-3, 15.0, 400)
    for alpha in (1.0, 1.5, 2.0, 2.5):
        psi = (2.0 * np.sinh(0.5 * grid) / grid) ** (2.0 - alpha) / np.cosh(
            0.5 * grid
        )
        assert np.all(psi <= 1.0 + 1e-12)
        assert np.all(np.diff(psi) < 0.0)

    rep = biharmonic_hardy_identity_check()
    assert rep.spectral_rel <= 1e-6
    assert rep.quadrature_rel <= 1e-3

    lam = np.geomspace(1e-3, 50.0, 200)
    inf_ratio = symbol_gap_infimum(lam)
    assert inf_ratio <= 1e-5
    print(
        f"criterion 10 PASS - fractional/Hardy: kernel {rel_k:.2e}, envelopes "
        f"monotone, identity ({rep.spectral_rel:.2e}, {rep.quadrature_rel:.2e}), "
        f"symbol gap {inf_ratio:.2e}"
    )


def test_criterion_11_qk_inverse_two_routes_and_bound_fit():
    fine = make_radial_grid(rho_max=12.0, num_nodes=896)
    conv = qk_inverse_kernel(fine, 5, 2, route="convolution")
    probe = make_radial_grid(rho_max=5.2, num_nodes=64)
    spect = qk_inverse_kernel(
        probe, 5, 2, route="spectral", lam_max=960.0, num_lam=6144
    )
    win = (probe.nodes >= 0.1) & (probe.nodes <= 5.0)
    conv_at = as_callable(conv, fine)(probe.nodes[win])
    rel = float(np.max(np.abs(conv_at / spect[win] - 1.0)))
    assert rel <= 1e-3

    fits = []
    for nodes in (512, 1024):
        grid = make_radial_grid(rho_max=18.0, num_nodes=nodes)
        kern = qk_inverse_kernel(grid, 5, 2, route="convolution")
        sel = (grid.nodes >= 1e-3) & (grid.nodes <= 15.0)
        fits.append(float(np.max(kern[sel] * np.sinh(0.5 * grid.nodes[sel]))))
    drift = abs(fits[1] / fits[0] - 1.0)
    assert math.isfinite(fits[1])
    assert drift <= 0.05
    print(
        f"criterion 11 PASS - inverse kernel: routes {rel:.2e} on [0.1,5], "
        f"fitted bound constant {fits[1]:.6f} drift {drift:.2e}"
    )
