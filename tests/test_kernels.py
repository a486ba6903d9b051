import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, digamma

from hypverify.exact import LaurentElement, sinh_expansion_coefficients
from hypverify.kernels import (
    _resolvent_closed_odd,
    _resolvent_rule,
    frac_resolvent_h3,
    fractional_green_h3,
    heat_kernel,
    limiting_green_kernel,
    product_resolvent_h5,
    qk_inverse_kernel,
    resolvent_kernel,
)
from hypverify.radial import (
    convolve_with_kernel,
    integrate_radial,
    make_radial_grid,
    radial_convolution,
    radial_laplacian,
)
from hypverify.spectral import forward_transform

RHO = np.geomspace(1e-4, 12.0, 160)
LAM = np.array([0.3, 1.0, 3.0, 8.0])


class TestHeatClosedForms:
    def test_h3_exact(self):
        # dimension 3 collapses to a pure Gaussian in rho; the range stops
        # where the Gaussian is still far above the underflow threshold
        for t in (0.01, 0.05, 0.25, 0.5, 1.0):
            rho = np.geomspace(1e-6, min(12.0, 40.0 * math.sqrt(t)), 160)
            got = heat_kernel(t, rho, 3)
            want = (
                (4.0 * math.pi * t) ** -1.5
                * math.exp(-t)
                * (rho / np.sinh(rho))
                * np.exp(-(rho**2) / (4.0 * t))
            )
            assert np.max(np.abs(got / want - 1.0)) < 1e-13

    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_small_time_against_mpmath(self, n):
        # L^m e^(-rho^2/4t) by mpmath differentiation in u = cosh rho, where
        # L = -d/du; small t and small rho put the ladder terms deep into
        # cancellation, which the exact Taylor series must absorb
        mp = pytest.importorskip("mpmath")
        t, m = 0.01, (n - 1) // 2
        rho = np.geomspace(1e-6, 3.0, 25)

        def ladder(r):
            with mp.workdps(60):
                f = lambda u: mp.re(mp.exp(-mp.acosh(u) ** 2 / (4 * mp.mpf(t))))
                return float((-1) ** m * mp.diff(f, mp.cosh(mp.mpf(r)), m))

        pref = (2.0 * math.pi) ** -m * math.exp(-((n - 1) ** 2) * t / 4.0)
        want = pref / math.sqrt(4.0 * math.pi * t) * np.array([ladder(r) for r in rho])
        assert np.max(np.abs(heat_kernel(t, rho, n) / want - 1.0)) < 1e-12

    def test_h4_small_time_against_direct_quadrature(self):
        # Weyl half-integral of L^2 e^(-r^2/4t), integrated independently
        # after r = rho + u^2; r coth r - 1 from its series below r = 0.3
        t = 0.01
        c = math.exp(-2.25 * t) / (2.0 * math.sqrt(2.0) * math.pi**2 * math.sqrt(4.0 * math.pi * t))

        def l2(r):
            xc = (r * r / 3 - r**4 / 45 + 2 * r**6 / 945 - r**8 / 4725 + 2 * r**10 / 93555
                  if r < 0.3 else r / math.tanh(r) - 1.0)
            g = math.exp(-r * r / (4.0 * t))
            return g * (xc + r * r / (2.0 * t)) / (2.0 * t * math.sinh(r) ** 2)

        for rho_val in (1e-4, 0.01, 0.3, 2.0):
            def integrand(u):
                r = rho_val + u * u
                gap = 2.0 * math.sinh(rho_val + 0.5 * u * u) * math.sinh(0.5 * u * u)
                return 2.0 * l2(r) * math.sinh(r) * u / math.sqrt(gap) if u else 0.0

            want, _ = quad(integrand, 0.0, 1.5, limit=400, epsabs=0.0, epsrel=1e-13)
            got = heat_kernel(t, np.array([rho_val]), 4)[0]
            assert got == pytest.approx(c * want, rel=1e-11)

    @pytest.mark.parametrize("rho_val", [0.05, 1.0, 4.0])
    def test_h2_against_direct_quadrature(self, rho_val):
        # classical half-integral formula, integrated independently
        # after r = rho + u^2 removes the endpoint singularity
        t = 0.7
        c = math.sqrt(2.0) * (4.0 * math.pi * t) ** -1.5 * math.exp(-t / 4.0)

        def integrand(u):
            r = rho_val + u * u
            return (
                2.0
                * u
                * r
                * math.exp(-r * r / (4.0 * t))
                / math.sqrt(math.cosh(r) - math.cosh(rho_val))
            )

        want, _ = quad(integrand, 1e-12, 9.0, limit=400)
        got = heat_kernel(t, np.array([rho_val]), 2)[0]
        assert got == pytest.approx(c * want, rel=1e-9)

    def test_small_rho_stable(self):
        # the ladder terms cancel catastrophically near zero, where the
        # exact Taylor series takes over; the values must stay smooth
        # through each seam (0.5 at n = 5, 1.0 at n = 7)
        for n in (3, 4, 5, 7):
            r = np.array([1e-6, 1e-4, 0.01, 0.049, 0.051, 0.06, 0.49, 0.51, 0.99, 1.01])
            vals = heat_kernel(0.5, r, n)
            assert np.all(np.isfinite(vals))
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)
            assert abs(vals[0] / vals[1] - 1.0) < 1e-6


class TestHeatProperties:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unit_mass(self, n, grid12):
        h = heat_kernel(0.6, grid12.nodes, n)
        assert integrate_radial(h, grid12, n) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_forward_transform_is_symbol(self, n, grid12):
        t = 0.5
        h = heat_kernel(t, grid12.nodes, n)
        got = forward_transform(h, grid12, n, LAM)
        want = np.exp(-t * ((n - 1) ** 2 + LAM**2) / 4.0)
        assert np.max(np.abs(got / want - 1.0)) < 1e-9

    def test_semigroup(self, grid_conv):
        h4 = heat_kernel(0.4, grid_conv.nodes, 3)
        h6 = heat_kernel(0.6, grid_conv.nodes, 3)
        h10 = heat_kernel(1.0, grid_conv.nodes, 3)
        conv = radial_convolution(h4, h6, grid_conv, 3)
        sel = grid_conv.nodes <= 6.0
        # measured 1.3e-11
        assert np.max(np.abs(conv[sel] / h10[sel] - 1.0)) < 5e-11

    def test_positive_and_decreasing(self, grid12):
        for n in (2, 3, 4, 5, 6):
            h = heat_kernel(1.0, grid12.nodes, n)
            assert np.all(h > 0)
            assert np.all(np.diff(h) < 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, np.array([1.0]), 3)
        with pytest.raises(ValueError):
            heat_kernel(-0.5, np.array([1.0]), 3)
        with pytest.raises(ValueError):
            heat_kernel(0.5, np.array([0.0, 1.0]), 3)
        for n in (3, 4):
            # NaN is not a positive distance, in the odd and the even branch
            with pytest.raises(ValueError):
                heat_kernel(1.0, np.array([np.nan, 1.0]), n)
        with pytest.raises(ValueError):
            heat_kernel(0.5, np.array([1.0]), 1)


class TestLimitingGreen:
    def test_h3_h5_h7_closed(self):
        s = np.sinh(RHO)
        got = limiting_green_kernel(RHO, 3)
        assert np.max(np.abs(got * 4.0 * math.pi * s - 1.0)) < 1e-14

        got = limiting_green_kernel(RHO, 5)
        want = np.cosh(RHO) / (8.0 * math.pi**2 * s**3)
        assert np.max(np.abs(got / want - 1.0)) < 1e-14

        got = limiting_green_kernel(RHO, 7)
        want = (2.0 / s**3 + 3.0 / s**5) / (16.0 * math.pi**3)
        assert np.max(np.abs(got / want - 1.0)) < 1e-14

    def test_h2_against_legendre_q(self):
        # independent special-function route for the even seed
        mp = pytest.importorskip("mpmath")
        rho = np.geomspace(1e-3, 10.0, 25)
        got = limiting_green_kernel(rho, 2)
        want = np.array(
            [
                float(mp.re(mp.legenq(mp.mpf(-0.5), 0, mp.cosh(mp.mpf(r)), type=3)))
                for r in rho
            ]
        ) / (2.0 * math.pi)
        assert np.max(np.abs(got / want - 1.0)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_resolvent_at_bottom(self, n):
        # the compact-integral resolvent at the borderline shift is a
        # fully independent second route in every dimension
        lam0 = -((n - 1) ** 2) / 4.0
        rv = resolvent_kernel(lam0, RHO, n)
        gv = limiting_green_kernel(RHO, n)
        assert np.max(np.abs(rv / gv - 1.0)) < 1e-10

    def test_annihilated_by_shifted_laplacian(self, grid12):
        # away from the pole the kernel solves (-Delta - 9/4) G = 0
        g4 = limiting_green_kernel(grid12.nodes, 4)
        resid = -radial_laplacian(g4, grid12, 4) - 2.25 * g4
        win = (grid12.nodes > 0.5) & (grid12.nodes < 8.0)
        assert np.max(np.abs(resid[win] / g4[win])) < 1e-4

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            limiting_green_kernel(np.array([0.0]), 3)


class TestResolvent:
    @pytest.mark.parametrize(
        "n,lam0",
        [(3, -0.75), (3, 0.5), (3, 3.0), (5, -1.75), (5, 1.0), (7, 1.0)]
        # near the bottom of the spectrum, s = sqrt(lam0 + (n-1)^2/4) small
        + [(n, s * s - (n - 1) ** 2 / 4.0) for n in (3, 5, 7, 9) for s in (0.05, 0.01)],
    )
    def test_matches_closed_odd_forms(self, n, lam0):
        rv = resolvent_kernel(lam0, RHO, n)
        cv = _resolvent_closed_odd(lam0, RHO, n)
        assert np.max(np.abs(rv / cv - 1.0)) < 1e-13

    @pytest.mark.parametrize("lam0", [0.5, 2.0])
    def test_h2_against_legendre_q(self, lam0):
        mp = pytest.importorskip("mpmath")
        theta = math.sqrt(lam0 + 0.25) - 0.5
        rho = np.geomspace(1e-3, 8.0, 25)
        got = resolvent_kernel(lam0, rho, 2)
        with mp.workdps(30):
            want = np.array(
                [
                    float(mp.re(mp.legenq(mp.mpf(theta), 0, mp.cosh(mp.mpf(r)), type=3)))
                    for r in rho
                ]
            ) / (2.0 * math.pi)
        assert np.max(np.abs(got / want - 1.0)) < 1e-12

    def test_h2_log_offset_digamma(self):
        # both kernels blow up like -log(rho)/2pi; the difference tends
        # to the digamma offset of the two indices
        a, b = 0.5, 2.0
        tha = math.sqrt(a + 0.25) - 0.5
        thb = math.sqrt(b + 0.25) - 0.5
        diff = (
            resolvent_kernel(a, np.array([1e-5]), 2)[0]
            - resolvent_kernel(b, np.array([1e-5]), 2)[0]
        )
        want = (digamma(thb + 1.0) - digamma(tha + 1.0)) / (2.0 * math.pi)
        assert diff == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("n,lam0", [(3, 1.0), (4, 0.5), (5, 1.0)])
    def test_forward_transform_is_symbol(self, n, lam0, grid12):
        rv = resolvent_kernel(lam0, grid12.nodes, n)
        got = forward_transform(rv, grid12, n, LAM)
        want = 1.0 / (((n - 1) ** 2 + LAM**2) / 4.0 + lam0)
        assert np.max(np.abs(got / want - 1.0)) < 1e-6

    def test_composition_is_divided_difference(self, grid_conv):
        # (-Delta+a)^(-1)(-Delta+b)^(-1) by actual convolution against
        # the partial-fraction form
        a, b = -15.0 / 4.0, -7.0 / 4.0
        ra = _resolvent_closed_odd(a, grid_conv.nodes, 5)
        conv = convolve_with_kernel(
            ra, lambda d: _resolvent_closed_odd(b, d, 5), grid_conv, 5
        )
        prod = product_resolvent_h5(a, b, grid_conv.nodes)
        sel = (grid_conv.nodes >= 0.1) & (grid_conv.nodes <= 5.0)
        assert np.max(np.abs(conv[sel] / prod[sel] - 1.0)) < 3e-3

    def test_rejects_shift_below_spectrum(self):
        with pytest.raises(ValueError):
            resolvent_kernel(-2.5, np.array([1.0]), 3)

    @pytest.mark.parametrize(
        "theta,tol",
        [(-0.5, 2e-15), (-0.25, 2e-15), (0.0, 2e-15), (0.7, 2e-15), (1.5, 2e-15), (3.0, 2e-15)],
    )
    def test_rule_integrates_the_jacobi_weight(self, theta, tol):
        # int_0^2 w^theta (2-w)^theta dw = 2^(2 theta + 1) B(theta + 1, theta + 1)
        _, wt = _resolvent_rule(theta)
        exact = 2.0 ** (2.0 * theta + 1.0) * beta(theta + 1.0, theta + 1.0)
        assert abs(wt.sum() / exact - 1.0) < tol

    @pytest.mark.parametrize("theta", [-0.5, 0.7])
    def test_rule_is_graded_toward_zero_only(self, theta):
        # 45 dyadic panels and a Jacobi panel below them, one Jacobi panel
        # on [1, 2]: 16 nodes each
        w, _ = _resolvent_rule(theta)
        assert w.size == 16 * (45 + 2)
        assert np.count_nonzero((w > 1.0) & (w < 2.0)) == 16

    @pytest.mark.parametrize("n,lam0", [(3, -0.5), (5, -3.0)])
    def test_large_rho_silent(self, n, lam0):
        # sinh(rho/2)^2 and sinh(rho)^(2-n) leave the float range long
        # before rho = 800; the kernel there is below it and reads 0
        rho = np.array([1.0, 30.0, 800.0])
        with np.errstate(all="raise"):
            got = resolvent_kernel(lam0, rho, n)
        assert got[2] == 0.0
        assert np.max(np.abs(got[:2] / _resolvent_closed_odd(lam0, rho[:2], n) - 1.0)) < 1e-13


class TestLargeRho:
    def test_ladder_kernels_finite_without_warnings(self):
        # sinh(800) and cosh(800) overflow a double; the ladder evaluator
        # never forms them
        rho = np.array([1.0, 48.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                vals = [
                    heat_kernel(1.0, rho, 5),
                    limiting_green_kernel(rho, 5),
                    _resolvent_closed_odd(-3.0, rho, 5),
                ]
        for v in vals:
            assert np.all(np.isfinite(v))
            assert np.all(v >= 0.0) and v[0] > 0.0

    @pytest.mark.parametrize("n", [4, 6])
    def test_even_kernels_silent_past_the_float_range(self, n):
        # at rho = 800 the half-integral's sigma window would leave the
        # float range; the kernels there are below it, read 0, and do not
        # size the window of the other rows
        rho = np.array([1.0, 400.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                heat = heat_kernel(1.0, rho, n)
                green = limiting_green_kernel(rho, n)
        assert heat[0] == pytest.approx(heat_kernel(1.0, rho[:1], n)[0], rel=1e-12)
        assert green[0] == pytest.approx(limiting_green_kernel(rho[:1], n)[0], rel=1e-12)
        assert heat[1] == heat[2] == green[2] == 0.0

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_green_matches_the_resolvent_down_to_the_float_range(self, n):
        # the Weyl integrand ~ e^(-(m+1) r) underflows well before the
        # kernel does; wherever the resolvent at the bottom of the
        # spectrum is a nonzero float the two must agree.  Measured 1.3e-14
        # on [1e-4, 2] and 1.6e-13 past it
        bottom = -(n - 1) ** 2 / 4.0
        rho = np.geomspace(1e-4, 2.0, 80)
        got = limiting_green_kernel(rho, n) / resolvent_kernel(bottom, rho, n)
        assert np.max(np.abs(got - 1.0)) < 1e-13
        if n == 2:
            # its window leaves the float range before the kernel does
            return
        rho = np.arange(2.0, 720.0, 2.0)
        green = limiting_green_kernel(rho, n)
        ref = resolvent_kernel(bottom, rho, n)
        nz = ref != 0.0
        assert rho[nz][-1] > 180.0
        assert np.max(np.abs(green[nz] / ref[nz] - 1.0)) < 1e-12

    def test_even_heat_matches_mpmath_at_the_bottom_of_the_float_range(self):
        # n = 4, t = 10: the Weyl integrand L^2 e^(-r^2/40) ~ e^(-2r - r^2/40)
        # leaves the normal range near rho = 134, the kernel only past 138.
        # The reference is the same half-integral in 40 digits, in
        # r = rho + u^2 and by Gauss-Legendre on dyadic panels in u
        mp = pytest.importorskip("mpmath")
        t = 10.0
        rho = np.arange(128.0, 140.0, 2.0)
        got = heat_kernel(t, rho, 4)
        with mp.workdps(40):
            k = 1 / (4 * mp.mpf(t))
            pref = mp.exp(-mp.mpf(9) / 4 * t) / (
                2 * mp.pi * mp.sqrt(2) * mp.pi * mp.sqrt(4 * mp.pi * t)
            )
            for r0, g in zip(rho, got):
                r0 = mp.mpf(r0)

                def f(u):
                    r = r0 + u * u
                    # L^2 e^(-k r^2), L = -(1/sinh) d/dr
                    l2 = 2 * k * mp.exp(-k * r * r) * (
                        r * mp.coth(r) + 2 * k * r * r - 1) / mp.sinh(r) ** 2
                    return 2 * u * l2 * mp.sinh(r) / mp.sqrt(
                        2 * mp.sinh((r + r0) / 2) * mp.sinh(u * u / 2))

                w = 1 / mp.sqrt(2 * k * r0 + 1)
                edges = [0] + [w * 2 ** (j / mp.mpf(4)) for j in range(-24, 32)]
                want = pref * mp.quad(f, edges, method="gauss-legendre")
                assert abs(g / want - 1) < 1e-9

    def test_even_kernel_past_the_float_range_but_not_below_it_raises(self):
        # in dimension 2 the Green kernel at rho = 700 is ~ e^(-350), still
        # a normal float, but its sigma window is not
        with pytest.raises(ValueError):
            limiting_green_kernel(np.array([1.0, 700.0]), 2)


class TestFracResolventH3:
    def test_alpha_one_collapses(self):
        s = 1.3
        got = frac_resolvent_h3(RHO, s, 1.0)
        want = np.exp(-s * RHO) / (4.0 * math.pi * np.sinh(RHO))
        assert np.max(np.abs(got / want - 1.0)) < 1e-13

    def test_alpha_two_is_shift_derivative(self):
        # d/dlam0 of e^(-s rho)/(4 pi sinh) with s = sqrt(lam0 + 1)
        s = 1.1
        got = frac_resolvent_h3(RHO, s, 2.0)
        want = (RHO / (2.0 * s)) * np.exp(-s * RHO) / (4.0 * math.pi * np.sinh(RHO))
        assert np.max(np.abs(got / want - 1.0)) < 1e-12

    def test_forward_transform_is_symbol(self, grid12):
        s, alpha = 1.2, 1.6
        fr = frac_resolvent_h3(grid12.nodes, s, alpha)
        got = forward_transform(fr, grid12, 3, LAM)
        want = (LAM**2 / 4.0 + s**2) ** -alpha
        assert np.max(np.abs(got / want - 1.0)) < 1e-4

    def test_semigroup_in_alpha(self, grid_conv):
        fa = frac_resolvent_h3(grid_conv.nodes, 1.2, 0.8)
        fb = frac_resolvent_h3(grid_conv.nodes, 1.2, 1.4)
        fc = frac_resolvent_h3(grid_conv.nodes, 1.2, 2.2)
        conv = radial_convolution(fa, fb, grid_conv, 3)
        sel = (grid_conv.nodes >= 0.1) & (grid_conv.nodes <= 5.0)
        # measured 9.4e-6, the same with fb's closed kernel in place of its
        # interpolant, so the interpolant does not set it; it falls like
        # N^-2.7 (1.4e-6 at 1280 nodes), as the radial Gauss sum over the
        # |r - s|^1.8 kink that fb's rho^-0.2 leaves on the diagonal would
        assert np.max(np.abs(conv[sel] / fc[sel] - 1.0)) < 2e-5

    def test_positive(self):
        assert np.all(frac_resolvent_h3(RHO, 0.7, 0.6) > 0)
        assert np.all(frac_resolvent_h3(RHO, 2.0, 3.2) > 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            frac_resolvent_h3(RHO, 0.0, 1.0)
        with pytest.raises(ValueError):
            frac_resolvent_h3(RHO, 1.0, -1.0)


class TestFractionalGreenH3:
    def test_alpha_two_is_limiting_green(self):
        got = fractional_green_h3(RHO, 2.0)
        want = limiting_green_kernel(RHO, 3)
        assert np.max(np.abs(got / want - 1.0)) < 1e-14

    def test_alpha_one_closed_value(self):
        got = fractional_green_h3(np.array([1.0]), 1.0)
        want = 1.0 / (2.0 * math.pi**2 * math.sinh(1.0))
        assert abs(float(got[0]) / want - 1.0) < 1e-14

    def test_is_small_shift_limit_of_bessel_family(self):
        # order alpha/2 in the Bessel family; correction is O(s^(3-alpha))
        alpha = 1.5
        got = frac_resolvent_h3(RHO, 1e-6, alpha / 2.0)
        want = fractional_green_h3(RHO, alpha)
        assert np.max(np.abs(got / want - 1.0)) < 1e-7

    def test_envelope_ratio_below_one_and_decreasing(self):
        rho = np.geomspace(1e-3, 15.0, 400)
        for alpha in (1.0, 1.5, 2.0, 2.5):
            psi = (2.0 * np.sinh(0.5 * rho) / rho) ** (2.0 - alpha) / np.cosh(
                0.5 * rho
            )
            assert np.all(psi <= 1.0 + 1e-12)
            assert np.all(np.diff(psi) < 0.0)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            fractional_green_h3(RHO, 0.5)
        with pytest.raises(ValueError):
            fractional_green_h3(RHO, 3.0)


class TestProductResolvent:
    def test_forward_transform_is_symbol(self, grid12):
        a, b = -7.0 / 4.0, 9.0 / 4.0
        pr = product_resolvent_h5(a, b, grid12.nodes)
        got = forward_transform(pr, grid12, 5, LAM)
        want = 1.0 / (((16.0 + LAM**2) / 4.0 + a) * ((16.0 + LAM**2) / 4.0 + b))
        assert np.max(np.abs(got / want - 1.0)) < 1e-5

    @pytest.mark.parametrize("a,b", [(-4.0, -3.0), (-3.5, 0.5), (0.0, 5.0)])
    def test_against_mpmath_from_the_pole_out(self, a, b):
        # (R_a - R_b)/(b - a), R_c = e^(-s rho)(cosh rho + s sinh rho) /
        # (8 pi^2 sinh^3 rho), s = sqrt(c + 4), in 40 digits: the two
        # rho^-3 poles cancel to rho^-1 without loss there
        mp = pytest.importorskip("mpmath")
        rho = np.array([1e-7, 1e-6, 1e-5, 1e-3, 0.05, 0.5, 1.0, 5.0, 15.0])
        with mp.workdps(40):
            def res(c, r):
                s = mp.sqrt(mp.mpf(c) + 4)
                return mp.exp(-s * r) * (mp.cosh(r) + s * mp.sinh(r)) / (8 * mp.pi**2 * mp.sinh(r) ** 3)

            want = np.array([
                float((res(a, mp.mpf(r)) - res(b, mp.mpf(r))) / (mp.mpf(b) - mp.mpf(a)))
                for r in rho
            ])
        assert np.max(np.abs(product_resolvent_h5(a, b, rho) / want - 1.0)) < 1e-13

    def test_positive_and_symmetric_in_shifts(self):
        pa = product_resolvent_h5(-15.0 / 4.0, -7.0 / 4.0, RHO)
        pb = product_resolvent_h5(-7.0 / 4.0, -15.0 / 4.0, RHO)
        assert np.all(pa > 0)
        assert np.max(np.abs(pa / pb - 1.0)) < 1e-15

    def test_rejects_equal_shifts(self):
        with pytest.raises(ValueError):
            product_resolvent_h5(1.0, 1.0, RHO)


class TestQkInverse:
    def test_k1_is_limiting_green(self, grid12):
        got = qk_inverse_kernel(grid12, 3, 1, route="convolution")
        want = limiting_green_kernel(grid12.nodes, 3)
        assert np.max(np.abs(got / want - 1.0)) < 1e-12

    def test_h5_k2_convolution_vs_partial_fractions(self, grid12):
        # operator partial fractions give an exact closed form:
        # Q2^(-1) = (4/9) [ (Q1)^(-1) - (-Delta - 7/4)^(-1) ]
        exact = (4.0 / 9.0) * (
            limiting_green_kernel(grid12.nodes, 5)
            - _resolvent_closed_odd(-7.0 / 4.0, grid12.nodes, 5)
        )
        got = qk_inverse_kernel(grid12, 5, 2, route="convolution")
        sel = (grid12.nodes >= 0.1) & (grid12.nodes <= 5.0)
        assert np.max(np.abs(got[sel] / exact[sel] - 1.0)) < 1e-3

    def test_h5_k2_spectral_vs_partial_fractions(self, grid12):
        exact = (4.0 / 9.0) * (
            limiting_green_kernel(grid12.nodes, 5)
            - _resolvent_closed_odd(-7.0 / 4.0, grid12.nodes, 5)
        )
        got = qk_inverse_kernel(grid12, 5, 2, route="spectral")
        sel = (grid12.nodes >= 2.0) & (grid12.nodes <= 9.0)
        assert np.max(np.abs(got[sel] / exact[sel] - 1.0)) < 5e-4

    def test_h5_k2_routes_agree(self, grid12):
        # the headline dual-route check: quadrature convolution of
        # closed forms against the inversion integral, no shared code
        kc = qk_inverse_kernel(grid12, 5, 2, route="convolution")
        ks = qk_inverse_kernel(grid12, 5, 2, route="spectral")
        sel = (grid12.nodes >= 0.5) & (grid12.nodes <= 5.0)
        assert np.max(np.abs(kc[sel] / ks[sel] - 1.0)) < 3e-3

    def test_h7_k2_convolution_vs_partial_fractions(self, grid12):
        # same identity one rung up: shift -27/4, gap 9/4
        exact = (4.0 / 9.0) * (
            limiting_green_kernel(grid12.nodes, 7)
            - _resolvent_closed_odd(-27.0 / 4.0, grid12.nodes, 7)
        )
        got = qk_inverse_kernel(grid12, 7, 2, route="convolution")
        sel = (grid12.nodes >= 0.1) & (grid12.nodes <= 5.0)
        assert np.max(np.abs(got[sel] / exact[sel] - 1.0)) < 1e-3

    def test_positive(self, grid12):
        vals = qk_inverse_kernel(grid12, 5, 2, route="convolution")
        assert np.all(vals > 0)

    def test_rejects_bad_arguments(self, grid12):
        with pytest.raises(ValueError):
            qk_inverse_kernel(grid12, 4, 1, route="convolution")
        with pytest.raises(ValueError):
            qk_inverse_kernel(grid12, 5, 0)
        with pytest.raises(ValueError):
            qk_inverse_kernel(grid12, 5, 3)
        with pytest.raises(ValueError):
            qk_inverse_kernel(grid12, 5, 2, route="cepstral")


class TestDimensionCheck:
    # the kernels share specialfn's check: an integer n >= 2, numpy
    # integers included, bools excluded
    CALLS = {
        "heat_kernel": lambda n: heat_kernel(0.5, RHO, n),
        "limiting_green_kernel": lambda n: limiting_green_kernel(RHO, n),
        "resolvent_kernel": lambda n: resolvent_kernel(1.0, RHO, n),
        "qk_inverse_kernel": lambda n: qk_inverse_kernel(
            make_radial_grid(rho_max=6.0, num_nodes=48), n, 1, route="spectral", lam_max=20.0, num_lam=64
        ),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("n", [1, -3, 2.5, 3.0, True, np.bool_(True), "3"])
    def test_rejects_bad_dimension(self, name, n):
        with pytest.raises(ValueError, match="integer dimension"):
            self.CALLS[name](n)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_numpy_integer_accepted(self, name):
        for n in (3, 4):
            assert np.array_equal(self.CALLS[name](np.int64(n)), self.CALLS[name](n))


class TestRecursionCoefficients:
    # the integer rows a_i of L^(2k)(1/sinh) = sum_i a_i sinh^(-(2k+1+2i))
    # that limiting_green_kernel's ladder rests on

    def test_low_orders(self):
        assert sinh_expansion_coefficients(1) == (2, 3)
        assert sinh_expansion_coefficients(2) == (24, 120, 105)

    def test_powers(self):
        # L^4(1/sinh) carries exactly the powers sinh^-5, sinh^-7, sinh^-9
        elem = LaurentElement.inv_sinh()
        for _ in range(4):
            elem = elem.apply_inv_sinh_derivative()
        powers = [5 + 2 * i for i in range(len(sinh_expansion_coefficients(2)))]
        assert powers == [5, 7, 9]
        assert sorted(-p for p, _ in elem.terms) == powers
        assert all(e == 0 for _, e in elem.terms)

    def test_evaluate_matches_ladder(self):
        # 2k ladder steps on 1/sinh, done with exact arithmetic
        rho = np.linspace(0.3, 4.0, 17)
        for k in (1, 2, 3):
            elem = LaurentElement.inv_sinh()
            for _ in range(2 * k):
                elem = elem.apply_inv_sinh_derivative()
            got = sum(
                float(a) * np.sinh(rho) ** -(2 * k + 1 + 2 * i)
                for i, a in enumerate(sinh_expansion_coefficients(k))
            )
            assert np.max(np.abs(got / elem.evaluate(rho) - 1.0)) < 1e-12

    def test_as_floats(self):
        arr = np.array(sinh_expansion_coefficients(1), dtype=float)
        assert arr.dtype == float
        assert np.array_equal(arr, [2.0, 3.0])
