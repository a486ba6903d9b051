import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma

from hypverify.exact import LaurentElement, sinh_expansion_coefficients
from hypverify.kernels import (
    _resolvent_closed_odd,
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
        assert np.max(np.abs(conv[sel] / h10[sel] - 1.0)) < 1e-5

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
        [(3, -0.75), (3, 0.5), (3, 3.0), (5, -1.75), (5, 1.0), (7, 1.0)],
    )
    def test_matches_closed_odd_forms(self, n, lam0):
        rv = resolvent_kernel(lam0, RHO, n)
        cv = _resolvent_closed_odd(lam0, RHO, n)
        assert np.max(np.abs(rv / cv - 1.0)) < 1e-13

    @pytest.mark.parametrize("lam0", [0.5, 2.0])
    def test_h2_against_legendre_q(self, lam0):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        theta = math.sqrt(lam0 + 0.25) - 0.5
        rho = np.geomspace(1e-3, 8.0, 25)
        got = resolvent_kernel(lam0, rho, 2)
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
        assert np.max(np.abs(conv[sel] / fc[sel] - 1.0)) < 1e-4

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
