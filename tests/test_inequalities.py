import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre, legvander
from scipy.integrate import quad
from scipy.special import hyp2f1, roots_legendre

from hypverify import cli, inequalities, kernels, radial
from hypverify.inequalities import (
    _BUBBLE_CUTOFF,
    InequalitySpec,
    _flat_bubble,
    _hls_2f1,
    _hls_angular,
    _qk_bound_constant,
    biharmonic_hardy_identity_check,
    bubble_family,
    convolution_bound_check,
    deficit,
    duality_chain_check,
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
from hypverify.radial import (
    RadialFunction,
    convolve_with_kernel,
    integrate_radial,
    lp_norm,
    make_radial_grid,
    radial_laplacian,
    sphere_area,
)
from hypverify.spectral import (
    InsufficientDecayError,
    MultiplierSpec,
    make_spectral_grid,
    quadratic_form,
)

# Trial profiles are C^{1,1} at their truncation radius, so their
# spectral tails decay polynomially and never clear the default decay
# guard; deficits of bubbles therefore run with the guard off on this
# window, whose truncation error was measured against the Euclidean
# oracle at ~2e-4 of a fourth-order form (worst case over the eps
# range used below).
SGRID_BUBBLE = make_spectral_grid(lam_max=180.0, num_nodes=1080)


@pytest.fixture(scope="module")
def hls_grid():
    return make_radial_grid(rho_max=6.0, num_nodes=512)


@pytest.fixture(scope="module")
def sharp52_ratios():
    # shared by the monotonicity and extrapolation tests
    spec = InequalitySpec("sharp_sobolev", n=5, k=2)
    return ratio_curve(spec, (0.4, 0.2, 0.1, 0.05))


class TestConstants:
    def test_riesz_gamma_small_cases(self):
        # gamma(2) on R^3 is 4 pi, gamma(4) on R^5 is 16 pi^2
        assert abs(riesz_gamma(2.0, 3) - 4.0 * math.pi) < 1e-13
        assert abs(riesz_gamma(4.0, 5) - 16.0 * math.pi**2) < 1e-12

    def test_riesz_gamma_normalizes_composition(self):
        # gamma(a) gamma(b) / gamma(a+b) is what the composition
        # identity produces; sanity-check one closed value
        # gamma(1,3) = 2 pi^2, so gamma(1)^2/gamma(2) = 4 pi^4/(4 pi) = pi^3
        g = riesz_gamma
        val = g(1.0, 3) * g(1.0, 3) / g(2.0, 3)
        assert abs(val - math.pi**3) < 1e-10

    def test_hls_constant_3_1_closed_form(self):
        want = (4.0 / 3.0) * (4.0 / math.sqrt(math.pi)) ** (2.0 / 3.0)
        assert abs(hls_constant(3, 1.0) / want - 1.0) < 1e-15

    def test_sobolev_3_1_closed_form(self):
        want = 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)
        assert abs(sobolev_constant(3, 1) / want - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "n,k", [(3, 1), (4, 1), (5, 1), (5, 2), (7, 2), (9, 3), (12, 5)]
    )
    def test_sobolev_equals_gamma_over_hls(self, n, k):
        # two independent routes to the same constant
        via_ratio = riesz_gamma(2.0 * k, n) / hls_constant(n, n - 2.0 * k)
        assert abs(sobolev_constant(n, k) / via_ratio - 1.0) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            riesz_gamma(3.0, 3)
        with pytest.raises(ValueError):
            hls_constant(3, 0.0)
        with pytest.raises(ValueError):
            sobolev_constant(4, 2)


class TestInequalitySpec:
    def test_variant_and_parameter_validation(self):
        with pytest.raises(ValueError):
            InequalitySpec("sobolev", n=5)
        with pytest.raises(ValueError):
            InequalitySpec("qk_sobolev", n=5, k=3)
        with pytest.raises(ValueError):
            InequalitySpec("hardy_mazya", n=5, k=2, p=12.0)  # above critical
        with pytest.raises(ValueError):
            InequalitySpec("hardy_mazya", n=5, k=2, p=2.0)  # p must exceed 2
        with pytest.raises(ValueError):
            InequalitySpec("hls", n=3)  # lambda required
        with pytest.raises(ValueError):
            InequalitySpec("hls", n=3, lambda_exp=3.0)
        with pytest.raises(ValueError):
            InequalitySpec("h5_biharmonic", n=5, k=1)

    def test_sharp_variant_forces_critical_exponent(self):
        s = InequalitySpec("sharp_sobolev", n=5, k=2)
        assert s.p == 10.0
        with pytest.raises(ValueError):
            InequalitySpec("sharp_sobolev", n=5, k=2, p=4.0)

    def test_hls_exponent(self):
        s = InequalitySpec("hls", n=3, lambda_exp=1.0)
        assert abs(s.p - 6.0 / 5.0) < 1e-15

    def test_hardy_constant_k1(self):
        # the k = 1 gap product is exactly 1/4
        s = InequalitySpec("hardy_mazya", n=3, k=1, p=3.0)
        assert s.gap_constant == 0.25

    def test_gap_product_k2(self):
        s = InequalitySpec("poincare_pk", n=5, k=2)
        assert s.gap_constant == (1.0 / 4.0) * (9.0 / 4.0)


class TestBubbleFamily:
    def test_positive_and_decreasing(self):
        u = bubble_family(0.2, 5, 2)
        assert np.all(u.values >= 0.0)
        inside = u.values[:-1] - u.values[1:]
        assert np.all(inside >= -1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            bubble_family(0.0, 5, 2)
        with pytest.raises(ValueError):
            bubble_family(0.1, 4, 2)

    @pytest.mark.parametrize("eps", [0.4, 0.1])
    def test_critical_norm_is_euclidean(self, eps):
        # conformal volume factors cancel exactly at the critical
        # exponent, so the hyperbolic p-norm must equal the flat one
        n, k = 5, 2
        u = bubble_family(eps, n, k)
        hyp = lp_norm(u.values, u.grid, n, 10.0)
        x, w = roots_legendre(400)
        r = 0.5 * _BUBBLE_CUTOFF * (x + 1.0)
        wr = 0.5 * _BUBBLE_CUTOFF * w
        euc = (
            sphere_area(n)
            * np.sum(np.abs(_flat_bubble(r, eps, n, k)) ** 10 * r ** (n - 1) * wr)
        ) ** 0.1
        assert abs(hyp / euc - 1.0) < 1e-10

    def test_rayleigh_against_euclidean_quadrature(self):
        # independent flat-side oracle: the fourth-order numerator
        # int |Delta w|^2 dx by 1-D radial quadrature with the closed
        # form of Delta w; agreement is limited by the measured
        # spectral-window truncation (~2e-4), not by the oracle
        n, k, eps = 5, 2, 0.1
        u = bubble_family(eps, n, k)
        spec = InequalitySpec("sharp_sobolev", n=n, k=k)
        rep = deficit(u, spec, sgrid=SGRID_BUBBLE, tail_tol=None)

        R = _BUBBLE_CUTOFF
        e2 = eps * eps
        b = -0.5 * (e2 + R * R) ** -1.5
        x, w = roots_legendre(400)
        r = 0.5 * R * (x + 1.0)
        wr = 0.5 * R * w
        t = e2 + r * r
        lap0 = (-(t**-1.5) + 3.0 * r * r * t**-2.5) + 4.0 * -(t**-1.5)
        lap = math.sqrt(eps) * (lap0 - 2.0 * n * b)
        num = sphere_area(n) * np.sum(lap**2 * r ** (n - 1) * wr)
        assert abs(rep.lhs / num - 1.0) < 1e-3

        # the ratio sits above the sharp constant by c*eps with c of
        # order one for this truncation; at eps = 0.1 that is ~27%
        S = sobolev_constant(n, k)
        assert 1.0 < rep.ratio / S < 1.30


class TestDeficit:
    @pytest.mark.parametrize(
        "variant,p",
        [
            ("qk_sobolev", None),
            ("hardy_mazya", 10.0 / 3.0),
            ("sharp_sobolev", None),
            ("h5_biharmonic", None),
        ],
    )
    def test_battery_nonnegative(self, variant, p):
        spec = InequalitySpec(variant, n=5, k=2, p=p)
        u = bubble_family(0.3, 5, 2)
        rep = deficit(u, spec, sgrid=SGRID_BUBBLE, tail_tol=None)
        assert rep.deficit >= -1e-8 * abs(rep.lhs)

    def test_zero_profile_nan_guarded(self):
        grid = make_radial_grid(rho_max=3.0, num_nodes=256)
        u = RadialFunction(grid, np.zeros(256), 5)
        rep = deficit(u, InequalitySpec("qk_sobolev", n=5, k=2))
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.deficit == 0.0
        assert math.isnan(rep.ratio)

    def test_decay_guard_propagates(self):
        # with the default tail guard on, the truncated bubble's
        # polynomial spectral tail must be rejected, not silently
        # truncated
        u = bubble_family(0.4, 5, 2)
        with pytest.raises(InsufficientDecayError):
            deficit(u, InequalitySpec("qk_sobolev", n=5, k=2))

    def test_dimension_mismatch(self):
        u = bubble_family(0.3, 5, 2)
        with pytest.raises(ValueError):
            deficit(u, InequalitySpec("qk_sobolev", n=7, k=2))

    @pytest.mark.parametrize("n,eps,tol", [(3, 0.5, 1e-3), (5, 0.05, 5e-3)])
    def test_poincare_rayleigh_matches_decay_rate(self, n, eps, tol):
        # |grad e^{-a rho}|^2 = a^2 e^{-2 a rho} pointwise, so the
        # Rayleigh quotient of the (smoothly truncated) exponential is
        # a^2 up to the truncation tail
        spec = InequalitySpec("poincare", n=n)
        r = ratio_curve(spec, (eps,))
        assert abs(r[0] / ((n - 1) / 2.0 + eps) ** 2 - 1.0) < tol


class TestHalfspace:
    def test_direct_halfspace_quadrature_n3(self):
        # independent oracle: u = x1^{-1/2} v(rho) on the upper half
        # space, cosh rho = (x1^2 + 1 + s^2)/(2 x1); the raw integrand
        # |grad u|^2 - u^2/(4 x1^2) is integrated in (x1, s) with no
        # integration by parts, and must reproduce the ball-side gap
        # form.  The 1/4 is the k = 1 gap product.
        from scipy.interpolate import CubicSpline

        u3 = bubble_family(0.2, 3, 1)
        spec = InequalitySpec("hardy_mazya", n=3, k=1, p=3.0)
        rep = deficit(u3, spec, sgrid=SGRID_BUBBLE, tail_tol=None)

        sp = CubicSpline(u3.grid.nodes, u3.values)
        dsp = sp.derivative()
        rho_max = 2.95
        lo, hi = u3.grid.nodes[0], u3.grid.nodes[-1]
        xg, wx = roots_legendre(120)
        sg, ws = roots_legendre(48)
        total = 0.0
        edges = np.geomspace(math.exp(-rho_max), math.exp(rho_max), 41)
        for a, b in zip(edges[:-1], edges[1:]):
            x1 = 0.5 * (a + b) + 0.5 * (b - a) * xg
            w1 = 0.5 * (b - a) * wx
            smax2 = 2.0 * x1 * math.cosh(rho_max) - x1**2 - 1.0
            for xi, wi, sm2 in zip(x1, w1, smax2):
                if sm2 <= 0.0:
                    continue
                sm = math.sqrt(sm2)
                sv = 0.5 * sm * (sg + 1.0)
                ws2 = 0.5 * sm * ws
                arg = np.maximum((xi**2 + 1.0 + sv**2) / (2.0 * xi), 1.0 + 1e-15)
                rho = np.arccosh(arg)
                rc = np.clip(rho, lo, hi)
                v, vp = sp(rc), dsp(rc)
                sh = np.sinh(np.maximum(rho, 1e-12))
                r1 = (xi**2 - 1.0 - sv**2) / (2.0 * xi**2 * sh)
                rs = sv / (xi * sh)
                du1 = -0.5 * xi**-1.5 * v + xi**-0.5 * vp * r1
                dus = xi**-0.5 * vp * rs
                integ = du1**2 + dus**2 - 0.25 * xi**-3.0 * v**2
                total += wi * 2.0 * math.pi * float(np.sum(integ * sv * ws2))
        assert abs(total / rep.lhs - 1.0) < 1e-3


class TestEstimateBestConstant:
    def test_sharp52_monotone(self, sharp52_ratios):
        r = sharp52_ratios
        assert np.all(np.diff(r) <= 1e-12)  # ordered by decreasing eps

    def test_sharp52_richardson_within_2_percent(self, sharp52_ratios):
        # first-order Richardson from the two smallest eps; the
        # truncation error is linear in eps for this family
        spec = InequalitySpec("sharp_sobolev", n=5, k=2)
        est = estimate_best_constant(spec, (0.4, 0.2, 0.1, 0.05), extrapolate=True)
        assert abs(est / sobolev_constant(5, 2) - 1.0) < 0.02

    def test_sharp31_upper_bound_and_extrapolation(self):
        spec = InequalitySpec("sharp_sobolev", n=3, k=1)
        S = sobolev_constant(3, 1)
        est = estimate_best_constant(spec, (0.4, 0.2, 0.1, 0.05))
        assert est >= S  # every ratio bounds the sharp constant above
        ext = estimate_best_constant(spec, (0.4, 0.2, 0.1, 0.05), extrapolate=True)
        assert abs(ext / S - 1.0) < 0.02

    @pytest.mark.parametrize("n", [3, 5])
    def test_poincare_estimate_above_gap(self, n):
        spec = InequalitySpec("poincare", n=n)
        est = estimate_best_constant(spec, (0.5, 0.2, 0.05))
        assert est >= (n - 1) ** 2 / 4.0

    def test_poincare_pk_estimate_above_gap(self):
        spec = InequalitySpec("poincare_pk", n=5, k=2)
        r = ratio_curve(spec, (0.5, 0.2, 0.05))
        assert np.all(np.diff(r) <= 0.0)
        assert np.min(r) >= 9.0 / 16.0

    def test_singleton_grid(self):
        spec = InequalitySpec("sharp_sobolev", n=5, k=2)
        r = ratio_curve(spec, (0.3,))
        est = estimate_best_constant(spec, (0.3,))
        assert est == r[0]

    def test_empty_grid_raises(self):
        spec = InequalitySpec("sharp_sobolev", n=5, k=2)
        with pytest.raises(ValueError):
            ratio_curve(spec, ())


class TestHLS:
    def test_six_pair_battery_below_constant(self, hls_grid):
        C = hls_constant(3, 1.0)
        p = 6.0 / 5.0
        nodes = hls_grid.nodes

        def rf(vals):
            return RadialFunction(hls_grid, np.asarray(vals, dtype=float), 3)

        cands = {
            "g1": rf(np.exp(-(nodes**2))),
            "g2": rf(np.exp(-2.0 * nodes**2)),
            "gh": rf(np.exp(-0.25 * nodes**2)),
            "ex": rf(np.exp(-2.0 * nodes)),
            "t3": hls_trial_family(0.3, 3, 1.0, grid=hls_grid),
            "t15": hls_trial_family(0.15, 3, 1.0, grid=hls_grid),
        }
        pairs = [
            ("g1", "g1"),
            ("g1", "g2"),
            ("gh", "g1"),
            ("ex", "g1"),
            ("t3", "t3"),
            ("t3", "t15"),
        ]
        for fa, ga in pairs:
            f, g = cands[fa], cands[ga]
            ratio = hls_bilinear(f, g, 1.0) / (
                lp_norm(f.values, hls_grid, 3, p) * lp_norm(g.values, hls_grid, 3, p)
            )
            assert ratio <= C * (1.0 + 1e-6), (fa, ga)

    def test_concentrating_family_approaches_constant(self, hls_grid):
        # non-attainment: the ratio climbs toward the constant but
        # stays strictly below it
        C = hls_constant(3, 1.0)
        p = 6.0 / 5.0
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            f = hls_trial_family(eps, 3, 1.0, grid=hls_grid)
            ratios.append(
                hls_bilinear(f, f, 1.0) / lp_norm(f.values, hls_grid, 3, p) ** 2
            )
        assert ratios[0] < ratios[1] < ratios[2] < C
        assert 1.0 - ratios[-1] / C <= 0.05

    def test_estimate_is_max_of_curve(self, hls_grid):
        spec = InequalitySpec("hls", n=3, lambda_exp=1.0)
        r = ratio_curve(spec, (0.2, 0.1))
        est = estimate_best_constant(spec, (0.2, 0.1))
        assert est == max(r)

    def test_bilinear_symmetry(self, hls_grid):
        f = RadialFunction(hls_grid, np.exp(-(hls_grid.nodes**2)), 3)
        g = hls_trial_family(0.3, 3, 1.0, grid=hls_grid)
        assert abs(hls_bilinear(f, g, 1.0) / hls_bilinear(g, f, 1.0) - 1.0) < 1e-12

    def test_unconverged_kernel_raises(self, hls_grid):
        # from lambda = n - 1 on, the inner integral is singular on the
        # diagonal and the band rule cannot integrate it; it must say
        # so (NotImplementedError, a RuntimeError) rather than return
        # a number
        f = RadialFunction(hls_grid, np.exp(-(hls_grid.nodes**2)), 3)
        with pytest.raises(RuntimeError):
            hls_bilinear(f, f, 2.5)

    def test_grid_mismatch(self, hls_grid):
        other = make_radial_grid(rho_max=6.0, num_nodes=256)
        f = RadialFunction(hls_grid, np.exp(-(hls_grid.nodes**2)), 3)
        g = RadialFunction(other, np.exp(-(other.nodes**2)), 3)
        with pytest.raises(ValueError):
            hls_bilinear(f, g, 1.0)

    def test_trial_family_validation(self):
        with pytest.raises(ValueError):
            hls_trial_family(0.1, 3, 0.0)
        with pytest.raises(ValueError):
            hls_trial_family(-0.1, 3, 1.0)


def _angular_by_quad(r, s, lam, n):
    # int_0^pi (a^2 + c sin^2(theta/2))^(-lam/2) sin^(n-2) theta d theta
    # by adaptive quad, cut geometrically above the knee at the scale
    # theta ~ a / sqrt(c) where the integrand turns over
    a2 = (2.0 * math.sinh(0.5 * (r - s))) ** 2
    c = 4.0 * math.sinh(r) * math.sinh(s)
    if a2 == 0.0:
        # on the diagonal it is theta^(n-2-lam) times a smooth factor
        def smooth(th):
            if th == 0.0:
                return c ** (-0.5 * lam) * 2.0**lam
            return (
                c ** (-0.5 * lam)
                * (th / math.sin(0.5 * th)) ** lam
                * (math.sin(th) / th) ** (n - 2)
            )

        return quad(smooth, 0.0, math.pi, weight="alg", wvar=(n - 2 - lam, 0.0),
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    def integrand(th):
        return (a2 + c * math.sin(0.5 * th) ** 2) ** (-0.5 * lam) * math.sin(th) ** (n - 2)

    knee = 2.0 * math.sqrt(a2 / c)
    cuts = [0.0, *(x for x in knee * 4.0 ** np.arange(40) if x < math.pi), math.pi]
    return sum(
        quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )


def _trial_h3(eps, lam):
    # hls_trial_family's profile on H^3 as a scalar function of rho
    def bump(x):
        return math.exp(-1.0 / x) if x > 0.0 else 0.0

    def profile(rho):
        r = math.tanh(0.5 * rho)
        edge = (0.9 - r) / 0.1
        cut = bump(edge) / (bump(edge) + bump(1.0 - edge))
        return (0.5 * (1.0 - r * r) * eps / (eps * eps + r * r)) ** (3.0 - 0.5 * lam) * cut

    return profile


def _hls_h3_by_quad(f, g, lam, rho_max):
    # 8 pi^2 int int f g sinh r sinh s (b^(2-lam) - a^(2-lam))/(2-lam):
    # the n = 3 product formula, inner integral split at its kink s = r
    def angular(r, s):
        a = 2.0 * math.sinh(0.5 * abs(r - s))
        b = 2.0 * math.sinh(0.5 * (r + s))
        return (b ** (2.0 - lam) - a ** (2.0 - lam)) / (2.0 - lam)

    def inner(r):
        def gr(s):
            return g(s) * math.sinh(s) * angular(r, s)

        lo = quad(gr, 0.0, r, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        hi = quad(gr, r, rho_max, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        return f(r) * math.sinh(r) * (lo + hi)

    return 8.0 * math.pi**2 * quad(inner, 0.0, rho_max, epsabs=0.0, epsrel=1e-11, limit=200)[0]


class TestHLSClosedForm:
    # pairs (r, s): generic, w -> 0 (one radius near the origin) and
    # w = 1 (the diagonal)
    PAIRS = ((0.7, 1.3), (1e-7, 2.5), (3.0, 1e-6), (0.8, 0.8), (2.0, 2.0), (1e-3, 1e-3))

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_angular_integral_against_quad(self, n):
        for lam in (0.3, 1.0, n - 1.05):
            for r, s in self.PAIRS:
                got = _hls_angular(np.float64(r), np.float64(s), lam, n)
                want = _angular_by_quad(r, s, lam, n)
                assert abs(got / want - 1.0) < 1e-12, (lam, r, s)

    def test_angular_integral_near_the_diagonal_n3(self):
        # 1 - w ~ 2e-13: the n = 3 form takes log(1 - w) from a/b there.
        # Other n are left out: scipy's hyp2f1 sees w alone and, for
        # lam = n - 1.05, is off by 2.5e-5 at this pair
        for lam in (0.3, 1.0, 1.95):
            got = _hls_angular(np.float64(1.0), np.float64(1.0 + 1e-6), lam, 3)
            want = _angular_by_quad(1.0, 1.0 + 1e-6, lam, 3)
            assert abs(got / want - 1.0) < 1e-12, lam

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 1.5, 1.95])
    def test_n3_elementary_form_is_the_2f1(self, lam):
        w = np.concatenate(
            [np.geomspace(1e-12, 0.5, 30), 1.0 - np.geomspace(0.5, 1e-15, 30), [1.0]]
        )
        got = _hls_2f1(lam, 3, w, np.sqrt(1.0 - w))
        with mpmath.workdps(30):
            want = np.array([float(mpmath.hyp2f1(0.5 * lam, 1, 2, x)) for x in w])
        assert np.max(np.abs(got / want - 1.0)) < 1e-14
        # scipy agrees to its own 4e-14 until 1 - w < 1e-13, which it
        # evaluates as w = 1
        sel = w < 1.0 - 1e-10
        scipy_2f1 = hyp2f1(0.5 * lam, 1.0, 2.0, w[sel])
        assert np.max(np.abs(got[sel] / scipy_2f1 - 1.0)) < 1e-13

    @pytest.mark.parametrize("lam", [0.5, 1.4, 1.9])
    def test_bilinear_against_quad_oracle(self, lam):
        grid = make_radial_grid(rho_max=3.0, num_nodes=288)
        f = RadialFunction(grid, np.exp(-(grid.nodes**2)), 3)
        g = hls_trial_family(0.3, 3, lam, grid=grid)
        trial = _trial_h3(0.3, lam)
        assert np.allclose([trial(x) for x in grid.nodes], g.values, rtol=1e-12, atol=0.0)
        want = _hls_h3_by_quad(lambda r: math.exp(-r * r), trial, lam, 3.0)
        assert abs(hls_bilinear(f, g, lam) / want - 1.0) < 1e-10

    @pytest.mark.parametrize("n,lam", [(4, 0.5), (5, 1.0)])
    def test_bilinear_against_theta_graded_route(self, n, lam):
        # the route hls_bilinear used to take: a graded angular rule,
        # then plain Gauss sums over the |r-s|^(n-1-lam) kink, which
        # costs the oracle about 6e-7 (n = 4) and 1e-7 (n = 5) here
        grid = make_radial_grid(rho_max=3.0, num_nodes=144)
        f = RadialFunction(grid, np.exp(-(grid.nodes**2)), n)
        g = RadialFunction(grid, np.exp(-2.0 * grid.nodes**2), n)
        inner = convolve_with_kernel(
            g.values, lambda d: (2.0 * np.sinh(0.5 * d)) ** -lam, grid, n
        )
        want = integrate_radial(f.values * inner, grid, n)
        assert abs(hls_bilinear(f, g, lam) / want - 1.0) < 1e-6

    def test_strong_kink_is_grid_stable(self):
        # n = 5, lam = 3.5: the kink is |r-s|^(1/2); plain sums over it
        # miss by 1e-2 on these grids, the band rule holds 1e-10
        vals = []
        for size in (96, 192):
            grid = make_radial_grid(rho_max=3.0, num_nodes=size)
            f = RadialFunction(grid, np.exp(-(grid.nodes**2)), 5)
            g = RadialFunction(grid, np.exp(-2.0 * grid.nodes**2), 5)
            vals.append(hls_bilinear(f, g, 3.5))
        assert abs(vals[0] / vals[1] - 1.0) < 1e-9

    def test_estimate_sits_below_constant_and_is_grid_converged(self):
        # the default 768-node trial grid used to put the eps = 0.025
        # ratio 2.7e-5 above the sharp constant
        spec = InequalitySpec("hls", n=3, lambda_exp=1.0)
        est = estimate_best_constant(spec, (0.05, 0.025))
        assert est < hls_constant(3, 1.0)
        fine = make_radial_grid(rho_max=3.0, num_nodes=1536)
        ratio = deficit(hls_trial_family(0.025, 3, 1.0, grid=fine), spec).ratio
        assert abs(est / ratio - 1.0) < 1e-8

    def test_lambda_from_n_minus_1_not_implemented(self):
        grid = make_radial_grid(rho_max=3.0, num_nodes=64)
        f = RadialFunction(grid, np.exp(-(grid.nodes**2)), 5)
        with pytest.raises(NotImplementedError, match="n - 1"):
            hls_bilinear(f, f, 4.0)


def _band_full_depth(grid, lam, n):
    # the band as first written: all four pieces graded ceil(36/(n - lam))
    # levels deep, Legendre moments from numpy's Legendre.basis
    order = radial._GRID_ORDER
    rho = grid.nodes
    size = rho.size
    panels = size // order
    edges = grid.edges
    p = np.arange(size) // order
    start = edges[np.stack([np.maximum(p - 1, 0), p, p + 1, np.minimum(p + 2, panels)], axis=1)]
    end = np.stack([edges[p], rho, rho, edges[p + 1]], axis=1)
    owner = np.stack([np.maximum(p - 1, 0), p, p, np.minimum(p + 1, panels - 1)], axis=1)
    levels = math.ceil(36 / (n - lam))
    frac, wfrac = radial._panel_nodes(
        np.concatenate([[0.0], 2.0 ** np.arange(-levels, 1.0)]), order
    )
    y = (2.0 * rho.reshape(panels, order) - edges[:-1, None] - edges[1:, None]) / np.diff(
        edges
    )[:, None]
    to_nodes = np.linalg.inv(legvander(y, order - 1))
    out = np.zeros((size, size))
    for r in radial._blocks(size, 4 * frac.size):
        t = end[r, :, None] + (start[r] - end[r])[..., None] * frac
        wt = np.abs(start[r] - end[r])[..., None] * wfrac * np.sinh(t) ** (n - 1)
        wt = wt * _hls_angular(rho[r, None, None], t, lam, n)
        lo, hi = edges[owner[r]][..., None], edges[owner[r] + 1][..., None]
        x = (2.0 * t - lo - hi) / (hi - lo)
        moments = np.stack(
            [np.sum(wt * Legendre.basis(k)(x), axis=-1) for k in range(order)], axis=-1
        )
        weights = np.einsum("iqk,iqkj->iqj", moments, to_nodes[owner[r]])
        cols = owner[r, :, None] * order + np.arange(order)
        np.add.at(out, (np.arange(size)[r, None, None], cols), weights)
    return out


class TestHLSForm:
    @pytest.mark.parametrize(
        "n,lam,size,tol",
        [
            (3, 1.0, 288, 1e-15),
            (3, 1.9, 288, 1e-15),
            (3, 1.9, 768, 1e-15),
            # neighbouring panel widths differ by 6.3x and 9.8x here, so
            # the neighbour pieces take 9 levels; 8 would miss by 1.5e-15
            # and 7e-14
            (3, 1.99, 96, 1e-15),
            (3, 1.9, 1536, 1e-15),
            # scipy's 2F1 near w = 1 sets these
            (4, 1.0, 144, 1e-12),
            (4, 2.5, 96, 1e-12),
            (5, 1.0, 96, 1e-12),
        ],
    )
    def test_band_matches_the_full_depth_rule(self, n, lam, size, tol):
        grid = make_radial_grid(rho_max=3.0, num_nodes=size)
        got = inequalities._hls_band(grid, lam, n)
        want = _band_full_depth(grid, lam, n)
        err = np.max(np.abs(got - want), axis=1) / np.sum(np.abs(want), axis=1)
        assert np.max(err) < tol

    def test_recurrence_moments_match_legendre_basis(self):
        rng = np.random.default_rng(7)
        wt = rng.standard_normal((5, 2, 40))
        x = rng.uniform(-1.0, 1.0, (5, 2, 40))
        got = inequalities._legendre_moments(wt, x)
        want = np.stack(
            [np.sum(wt * Legendre.basis(k)(x), axis=-1) for k in range(radial._GRID_ORDER)],
            axis=-1,
        )
        scale = np.sum(np.abs(wt), axis=-1, keepdims=True)
        assert np.max(np.abs(got - want) / scale) < 1e-15

    def test_one_build_per_grid_and_exponent(self, monkeypatch):
        builds = []
        band = inequalities._hls_band

        def spy(grid, lam, n):
            builds.append((grid, lam, n))
            return band(grid, lam, n)

        monkeypatch.setattr(inequalities, "_hls_band", spy)
        inequalities._hls_form.cache_clear()
        cli._hls_battery(cli.RunConfig(), None)
        assert len(builds) == 1
        inequalities._hls_form.cache_clear()
        estimate_best_constant(InequalitySpec("hls", n=3, lambda_exp=1.0), (0.2, 0.1, 0.05))
        assert len(builds) == 2

        grid = make_radial_grid(rho_max=3.0, num_nodes=96)
        f = RadialFunction(grid, np.exp(-(grid.nodes**2)), 3)
        g = hls_trial_family(0.3, 3, 1.0, grid=grid)
        first = hls_bilinear(f, g, 1.0)
        hls_bilinear(g, f, 1.0)
        assert len(builds) == 3
        other_lam = hls_bilinear(f, g, 0.5)
        assert len(builds) == 4
        twin = make_radial_grid(rho_max=3.0, num_nodes=96)
        again = hls_bilinear(
            RadialFunction(twin, f.values, 3), RadialFunction(twin, g.values, 3), 1.0
        )
        assert len(builds) == 5
        inequalities._hls_form.cache_clear()
        assert hls_bilinear(f, g, 0.5) == other_lam
        assert again == first

        form = inequalities._hls_form(grid, 0.5, 3)
        assert not form.flags.writeable
        with pytest.raises(ValueError):
            form[0, 0] = 0.0

    def test_angular_entries_of_one_build(self, monkeypatch):
        # a count, not a timing: 38k far pairs and 129k band entries,
        # where four full-depth band pieces took 213k in all
        entries = []
        angular = inequalities._hls_angular

        def counting(r, s, lam, n):
            entries.append(np.broadcast(r, s).size)
            return angular(r, s, lam, n)

        monkeypatch.setattr(inequalities, "_hls_angular", counting)
        inequalities._hls_form.cache_clear()
        grid = make_radial_grid(rho_max=3.0, num_nodes=288)
        f = RadialFunction(grid, np.exp(-(grid.nodes**2)), 3)
        hls_bilinear(f, f, 1.0)
        assert 0 < sum(entries) < 1.8e5
        assert max(entries) <= radial._BLOCK_ENTRIES


class TestConvolutionBound:
    @pytest.mark.parametrize("alpha,beta,n", [(1.0, 2.0, 5), (2.0, 2.0, 5), (1.0, 1.0, 4)])
    def test_bound_holds(self, alpha, beta, n):
        rep = convolution_bound_check(alpha, beta, n)
        # the ratio tends to 1 from below at the origin, so the worst
        # point sits at the window's small end with a thin margin
        assert rep.max_ratio < 1.0
        assert rep.max_ratio > 0.9
        assert rep.worst_rho < 0.5

    @pytest.mark.parametrize("alpha,beta,n", [(1.0, 2.0, 5), (2.0, 2.0, 5), (1.0, 1.0, 4)])
    def test_power_kernel_angular_rule_is_converged(self, alpha, beta, n, monkeypatch):
        # rerun with every pair on one deep dyadic rule: 16-node panels
        # down to 5 levels below the cap
        probes = (0.05, 0.3, 2.0, 10.0)
        got = [inequalities._power_kernel_convolution(alpha, beta, n, ry) for ry in probes]

        def deep(i, j, kernel, rho, n, cap):
            return radial._angular_integrals(i, j, kernel, rho, *radial._theta_graded(n, cap + 5, 16))

        monkeypatch.setattr(inequalities, "_graded_integrals", deep)
        want = [inequalities._power_kernel_convolution(alpha, beta, n, ry) for ry in probes]
        assert np.max(np.abs(np.array(got) / np.array(want) - 1.0)) < 1e-14

    def test_angular_entries_of_one_row(self, monkeypatch):
        # a count, not a timing: the sinh-mapped rule takes 3.44M
        # (pair, theta) entries for the 48 probes, the dyadic one 7.32M
        entries = []
        inner = radial._angular_integrals

        def counting(i, j, kern, grd, th, wth):
            entries.append(i.size * th.size)
            return inner(i, j, kern, grd, th, wth)

        monkeypatch.setattr(radial, "_angular_integrals", counting)
        convolution_bound_check(1.0, 2.0, 5)
        assert 0 < sum(entries) < 4.5e6

    def test_symmetric_case_n3(self):
        rep = convolution_bound_check(1.0, 1.0, 3)
        assert rep.max_ratio < 1.0

    def test_euclidean_composition_identity(self):
        # fixed Gauss-Jacobi sums: measured 1.6e-15, 6.7e-16, 8.9e-16 and
        # 1.3e-15 against the gamma ratio
        for alpha, beta in ((1.0, 0.8), (0.5, 1.7), (2.0, 0.5), (0.3, 0.3)):
            lhs, rhs = riesz_composition_identity(alpha, beta)
            assert abs(lhs / rhs - 1.0) < 1e-13, (alpha, beta)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            convolution_bound_check(2.0, 2.0, 3)  # alpha+beta >= n
        with pytest.raises(ValueError):
            riesz_composition_identity(1.0, 1.0)  # degenerate antiderivative
        with pytest.raises(ValueError):
            riesz_composition_identity(2.0, 2.0)


class TestBiharmonicHardyIdentity:
    def test_both_routes_agree(self):
        rep = biharmonic_hardy_identity_check()
        assert rep.spectral_rel < 1e-12
        assert rep.quadrature_rel < 1e-12

    def test_zero_function_trivial(self):
        # both sides of the spectral identity vanish on the zero
        # profile
        grid = make_radial_grid(rho_max=12.0, num_nodes=896)
        z = np.zeros(grid.nodes.size)
        fd = radial_laplacian(z, grid, 5) + 3.0 * z
        lhs = integrate_radial(fd**2, grid, 5)
        sym = MultiplierSpec(
            "((lam^2+4)/4)^2", lambda lam, n: ((lam**2 + 4.0) / 4.0) ** 2
        )
        rhs = quadratic_form(z, grid, 5, sym, make_spectral_grid(40.0, 1024))
        assert lhs == 0.0 and rhs == 0.0


class TestSymbolGapInfimum:
    def test_vanishes_near_zero(self):
        lam = np.geomspace(1e-3, 50.0, 400)
        inf = symbol_gap_infimum(lam)
        assert inf <= 1e-5
        assert inf > 0.0

    def test_tends_to_one_at_infinity(self):
        lam = np.array([1e-3, 1e4])
        val = (1e4**4 + 10.0 * 1e4**2) / (1e4**2 + 4.0) ** 2
        assert abs(val - 1.0) < 1e-6
        # but the infimum over any grid reaching zero stays tiny
        assert symbol_gap_infimum(lam) <= 1e-5

    def test_positivity(self):
        lam = np.geomspace(1e-2, 10.0, 50)
        vals = (lam**4 + 10.0 * lam**2) / (lam**2 + 4.0) ** 2
        assert np.all(vals > 0.0)

    def test_requires_grid_near_zero(self):
        with pytest.raises(ValueError):
            symbol_gap_infimum([1.0, 2.0])
        with pytest.raises(ValueError):
            symbol_gap_infimum([])


class TestDualityChain:
    def test_end_to_end(self):
        rep = duality_chain_check()
        assert rep.kernel_constant > 0.0
        assert rep.norm_sq <= rep.chained_constant * rep.form
        # the chain is lossy but not wildly so
        assert rep.chained_constant * rep.form / rep.norm_sq < 10.0

    def test_stability_row_and_chain_share_one_convolution(self, monkeypatch):
        # the 512-node fit serves both the stability row and the chain,
        # so the two run the convolution route at 256 and 512 nodes only
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].size)
            return convolve_with_kernel(*args, **kwargs)

        _qk_bound_constant.cache_clear()
        monkeypatch.setattr(kernels, "convolve_with_kernel", counting)
        fine, coarse = cli._qk_bound_stable(cli.RunConfig(), None)
        rep = duality_chain_check()
        assert calls == [256, 512]
        assert rep.kernel_constant == 2.0 * fine

    def test_memoised_constant_equals_a_fresh_fit(self):
        _qk_bound_constant.cache_clear()
        got = _qk_bound_constant(256)
        grid = make_radial_grid(rho_max=10.0, num_nodes=256)
        kern = kernels.qk_inverse_kernel(grid, 5, 2, route="convolution")
        past = grid.nodes > 1e-4
        assert got == float(np.max(kern[past] * np.sinh(0.5 * grid.nodes[past])))
        assert _qk_bound_constant.cache_info().currsize == 1

    def test_fit_skips_the_shared_first_panel_and_can_disagree(self):
        # the exact kernel by partial fractions of the symbol x (x + 9/4),
        # x = lam^2/4: (4/9)(G - R) with R the resolvent at shift -7/4;
        # its sup past 1e-4 sits at 1e-4, where the float difference
        # still holds about 8 digits
        rho = np.geomspace(1e-4, 10.0, 20001)
        exact = (4.0 / 9.0) * (
            kernels.limiting_green_kernel(rho, 5)
            - kernels._resolvent_closed_odd(-7.0 / 4.0, rho, 5)
        )
        want = float(np.max(exact * np.sinh(0.5 * rho)))
        coarse, fine = _qk_bound_constant(256), _qk_bound_constant(512)
        assert abs(coarse / want - 1.0) < 1e-2
        assert abs(fine / want - 1.0) < 1e-2
        # the two grids resolve the fitted window differently, so the
        # stability row compares two numbers that can disagree
        assert abs(fine - coarse) > 1e-6


class TestHolderInterpolation:
    def test_interpolation_inequality(self):
        # 1/p = (1-s)/2 + s/q with p = 10/3, q = 10 gives s = 1/2
        u = bubble_family(0.3, 5, 2)
        lp = lp_norm(u.values, u.grid, 5, 10.0 / 3.0)
        l2 = lp_norm(u.values, u.grid, 5, 2.0)
        l10 = lp_norm(u.values, u.grid, 5, 10.0)
        assert lp <= math.sqrt(l2 * l10)
