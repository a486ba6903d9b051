import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_legendre

from hypverify import radial
from hypverify.kernels import (
    _gap_shifts,
    _resolvent_closed_odd,
    frac_resolvent_h3,
    heat_kernel,
    limiting_green_kernel,
)
from hypverify.radial import (
    Grid,
    RadialFunction,
    _fornberg_weights,
    _panel_nodes,
    _theta_graded,
    as_callable,
    convolve_with_kernel,
    integrate_radial,
    lp_norm,
    make_radial_grid,
    radial_convolution,
    radial_laplacian,
    sphere_area,
)


class TestSphereArea:
    def test_known_values(self):
        assert sphere_area(1) == pytest.approx(2.0)
        assert sphere_area(2) == pytest.approx(2.0 * math.pi)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi)
        assert sphere_area(4) == pytest.approx(2.0 * math.pi**2)
        with pytest.raises(ValueError):
            sphere_area(0)


class TestGrid:
    def test_structure(self):
        g = make_radial_grid(rho_max=10.0, num_nodes=256)
        assert g.size <= 256
        assert g.nodes[0] > 0
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[-1] < 10.0
        assert np.all(g.weights > 0)
        # weights sum to the interval length
        assert g.weights.sum() == pytest.approx(10.0, rel=1e-13)

    def test_small_rho_max(self):
        g = make_radial_grid(rho_max=0.5, num_nodes=128)
        assert g.nodes[-1] < 0.5
        assert g.weights.sum() == pytest.approx(0.5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_radial_grid(rho_max=-1.0)
        with pytest.raises(ValueError):
            Grid(np.array([0.2, 0.1]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            Grid(np.array([0.1, 0.2]), np.array([1.0, -1.0]), 1.0)


# (num, a, b) of rules the library builds: the radial panels, the
# deepest angular rule (45 levels, the power-kernel bound's cap), the
# n = 4 Mehler quadrature, the resolvent's endpoint panels at
# theta = -1/2 (the limiting Green kernel) and 1/2, and the Riesz
# half-line rules at beta = 0.8 and a = 3 - alpha - beta = 1.2
_GAUSS_JACOBI_RULES = [
    (8, 0.0, 0.0),
    (241, 0.0, 0.0),
    (48, 0.5, 0.0),
    (16, 0.0, -0.5),
    (16, 0.0, 0.5),
    (16, -0.2, 0.0),
    (16, 0.0, 0.2),
]


def _jacobi_moments(kmax: int, a: float, b: float) -> list:
    # m_k = int_{-1}^{1} x^k (1-x)^a (1+x)^b dx for k <= kmax at 40 digits:
    # m_0 = 2^(a+b+1) B(a+1, b+1), and integrating the derivative of
    # x^k (1-x)^(a+1) (1+x)^(b+1) over [-1, 1] gives
    # (k + a + b + 2) m_(k+1) = k m_(k-1) + (b - a) m_k
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        m = [2 ** (a + b + 1) * mpmath.beta(a + 1, b + 1)]
        m.append((b - a) * m[0] / (a + b + 2))
        for k in range(1, kmax):
            m.append((k * m[k - 1] + (b - a) * m[k]) / (k + a + b + 2))
        return [float(v) for v in m[: kmax + 1]]


class TestGaussJacobi:
    @pytest.mark.parametrize("num, a, b", _GAUSS_JACOBI_RULES)
    def test_is_scipys_rule(self, num, a, b):
        # bit for bit scipy's rule: the builder only caches it
        x, w = radial._gauss_jacobi(num, a, b)
        want = roots_legendre(num) if a == b == 0.0 else roots_jacobi(num, a, b)
        assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])

    def test_read_only_and_cached(self):
        x, w = radial._gauss_jacobi(48, 0.5, 0.0)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        again = radial._gauss_jacobi(48, 0.5, 0.0)
        assert again[0] is x and again[1] is w

    @pytest.mark.parametrize("num, a, b", _GAUSS_JACOBI_RULES)
    def test_integrates_monomials_below_twice_the_order(self, num, a, b):
        x, w = radial._gauss_jacobi(num, a, b)
        moments = _jacobi_moments(2 * num - 1, a, b)
        got = np.vander(x, 2 * num, increasing=True).T @ w
        assert np.max(np.abs(got - moments)) < 1e-13 * moments[0]


class TestPanelNodes:
    @pytest.mark.parametrize("order", [8, 12, 16, 48])
    def test_exact_to_degree_two_order_minus_one(self, order):
        # the one composite Gauss-Legendre builder: exact on x^(2 order - 1)
        # over panels of unequal width
        bounds = np.array([0.0, 0.1, 0.35, 1.0, 2.7, 3.0])
        x, w = _panel_nodes(bounds, order)
        assert x.size == w.size == order * (bounds.size - 1)
        p = 2 * order - 1
        exact = (bounds[-1] ** (p + 1) - bounds[0] ** (p + 1)) / (p + 1)
        assert abs(w @ x**p / exact - 1.0) < 1e-13


class TestIntegration:
    def test_sinh_square_closed_form(self):
        # int_0^R sinh^2 = sinh(2R)/4 - R/2, times |S^2|
        g = make_radial_grid(rho_max=5.0, num_nodes=512)
        got = integrate_radial(np.ones(g.size), g, 3)
        want = 4.0 * math.pi * (math.sinh(10.0) / 4.0 - 2.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_gaussian_n3(self, grid12):
        vals = np.exp(-(grid12.nodes**2))
        want = math.pi**1.5 * (math.e - 1.0)
        assert integrate_radial(vals, grid12, 3) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_gaussian_other_dims(self, n, grid12):
        vals = np.exp(-(grid12.nodes**2))
        oracle, err = quad(
            lambda r: math.exp(-(r**2)) * math.sinh(r) ** (n - 1), 0, 12.0
        )
        assert integrate_radial(vals, grid12, n) == pytest.approx(
            sphere_area(n) * oracle, rel=1e-10
        )

    def test_batched(self, grid12):
        vals = np.stack([np.exp(-(grid12.nodes**2)), np.exp(-grid12.nodes) * 0.0])
        out = integrate_radial(vals, grid12, 3)
        assert out.shape == (2,)
        assert out[1] == 0.0

    def test_lp_norms(self, grid12):
        vals = np.exp(-(grid12.nodes**2))
        l2 = lp_norm(vals, grid12, 3, 2.0)
        direct = math.sqrt(integrate_radial(vals**2, grid12, 3))
        assert l2 == pytest.approx(direct, rel=1e-14)
        assert lp_norm(vals, grid12, 3, np.inf) == pytest.approx(vals.max())
        with pytest.raises(ValueError):
            lp_norm(vals, grid12, 3, 0.0)


def _shift_one(arr, index, by):
    out = np.array(arr)
    out[index] += by
    return out


# grids that as_callable must refuse, each built from a 64-node grid on [0, 3]
_NOT_GAUSS_GRIDS = {
    # not a multiple of 8 nodes
    "midpoint": lambda g: Grid((np.arange(100) + 0.5) * 0.03, np.full(100, 0.03), 3.0),
    # 16 nodes whose weights sum to the panel widths, but not Gauss nodes
    "uniform": lambda g: Grid((np.arange(16) + 0.5) / 16.0, np.full(16, 1.0 / 16.0), 1.0),
    # Gauss panels that stop short of top
    "short": lambda g: Grid(g.nodes, g.weights, 3.5),
    # one node moved inside its panel
    "moved_node": lambda g: Grid(_shift_one(g.nodes, 20, 1e-6), g.weights, 3.0),
    # weight traded between two nodes of one panel, panel sums unchanged
    "traded_weight": lambda g: Grid(
        g.nodes, _shift_one(_shift_one(g.weights, 9, 1e-7), 10, -1e-7), 3.0
    ),
}


class TestInterpolation:
    def test_reproduces_nodes(self, grid12):
        vals = np.exp(-(grid12.nodes**2) / 2.0)
        f = as_callable(vals, grid12)
        assert np.allclose(f(grid12.nodes), vals, rtol=1e-12, atol=1e-14)

    def test_midpoints(self, grid12):
        # measured 3.1e-13
        vals = np.exp(-(grid12.nodes**2) / 2.0)
        f = as_callable(vals, grid12)
        mid = 0.5 * (grid12.nodes[:-1] + grid12.nodes[1:])
        exact = np.exp(-(mid**2) / 2.0)
        err = np.max(np.abs(f(mid) - exact))
        assert err < 1e-12

    def test_power_law_profile_at_and_between_nodes(self, grid12):
        # frac_resolvent_h3(., 1.2, 1.4) behaves like rho^-0.2 at 0 and
        # like e^(-2.2 rho) far out; pointwise relative, from the end of
        # the first panel [0, 1e-4] on: measured 1.1e-11 at the nodes and
        # 7.9e-11 between them
        rho = grid12.nodes
        f = as_callable(frac_resolvent_h3(rho, 1.2, 1.4), grid12)
        at_nodes = f(rho[rho >= 1e-4]) / frac_resolvent_h3(rho[rho >= 1e-4], 1.2, 1.4)
        assert np.max(np.abs(at_nodes - 1.0)) < 5e-11
        x = np.geomspace(1e-4, 11.99, 20_000)
        assert np.max(np.abs(f(x) / frac_resolvent_h3(x, 1.2, 1.4) - 1.0)) < 4e-10

    @pytest.mark.parametrize(
        "profile, rho_min, coarse_err",
        [("gaussian", 1e-5, 2e-9), ("power_law", 1e-4, 3e-7)],
        ids=["gaussian", "power_law"],
    )
    def test_spectral_accuracy_under_refinement(self, profile, rho_min, coarse_err):
        # degree-7 panels: 320 -> 640 nodes lowers the error 200x (Gaussian,
        # 1.0e-9 -> 4.8e-12, absolute) and 170x (rho^-0.2 profile, 1.7e-7
        # -> 1.0e-9, relative); a cubic spline gains 16x at best
        fn = {
            "gaussian": lambda r: np.exp(-(r**2) / 2.0),
            "power_law": lambda r: frac_resolvent_h3(r, 1.2, 1.4),
        }[profile]
        x = np.geomspace(rho_min, 11.99, 20_000)
        errs = []
        for num_nodes in (320, 640):
            grid = make_radial_grid(rho_max=12.0, num_nodes=num_nodes)
            got = as_callable(fn(grid.nodes), grid)(x)
            scale = 1.0 if profile == "gaussian" else fn(x)
            errs.append(np.max(np.abs(got - fn(x)) / scale))
        assert errs[0] < coarse_err
        assert errs[1] < errs[0] / 100.0

    def test_rejects_values_off_the_grid(self, grid12):
        with pytest.raises(ValueError, match="grid nodes"):
            as_callable(np.ones(grid12.size - 1), grid12)
        with pytest.raises(ValueError, match="grid nodes"):
            as_callable(np.ones((2, grid12.size)), grid12)

    @pytest.mark.parametrize("case", sorted(_NOT_GAUSS_GRIDS))
    def test_rejects_grids_that_are_not_composite_gauss(self, case):
        grid = _NOT_GAUSS_GRIDS[case](make_radial_grid(rho_max=3.0, num_nodes=64))
        with pytest.raises(ValueError, match="8-node panels"):
            as_callable(np.ones(grid.size), grid)

    def test_zero_beyond_support(self, grid12):
        f = as_callable(np.ones(grid12.size), grid12)
        assert f(15.0) == 0.0
        out = f(np.array([1.0, 20.0]))
        assert out[1] == 0.0 and out[0] == pytest.approx(1.0)


class TestFornberg:
    def test_uniform_second_derivative(self):
        w = _fornberg_weights(0.0, np.array([-1.0, 0.0, 1.0]), 2)
        assert np.allclose(w[:, 2], [1.0, -2.0, 1.0])
        assert np.allclose(w[:, 1], [-0.5, 0.0, 0.5])
        assert np.allclose(w[:, 0], [0.0, 1.0, 0.0])

    def test_polynomial_exactness(self):
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(-1.0, 1.0, size=7))
        x0 = 0.1
        w = _fornberg_weights(x0, xs, 2)
        for deg in range(7):
            vals = xs**deg
            d1 = deg * x0 ** (deg - 1) if deg >= 1 else 0.0
            d2 = deg * (deg - 1) * x0 ** (deg - 2) if deg >= 2 else 0.0
            assert float(w[:, 1] @ vals) == pytest.approx(d1, abs=1e-9)
            assert float(w[:, 2] @ vals) == pytest.approx(d2, abs=1e-8)


class TestRadialLaplacian:
    def test_gaussian(self, grid12):
        rho = grid12.nodes
        f = np.exp(-(rho**2))
        got = radial_laplacian(f, grid12, 3)
        want = (4.0 * rho**2 - 2.0 - 4.0 * rho * np.cosh(rho) / np.sinh(rho)) * f
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err < 1e-6

    def test_sech_cubed_n4(self, grid12):
        # in dimension 4 the sech^3 profile has Laplacian -12 sech^5
        f = np.cosh(grid12.nodes) ** -3.0
        got = radial_laplacian(f, grid12, 4)
        want = -12.0 * np.cosh(grid12.nodes) ** -5.0
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err < 1e-6

    def test_near_zero_is_clean(self, grid12):
        # the even fit must not blow up 1/rho at the innermost nodes
        rho = grid12.nodes
        f = np.exp(-(rho**2))
        got = radial_laplacian(f, grid12, 5)
        inner = rho < 1e-3
        want = (4.0 * rho**2 - 2.0 - 8.0 * rho / np.tanh(rho)) * f
        assert np.max(np.abs(got[inner] - want[inner])) < 1e-8

    def test_rejects_shape_mismatch(self, grid12):
        with pytest.raises(ValueError):
            radial_laplacian(np.ones(3), grid12, 3)


def _abel_oracle_n3(f_vals, inner_antideriv, grid):
    """For n=3 the angular integral collapses; with E an antiderivative
    of g(d) sinh(d) the convolution is
    (2 pi / sinh rx) * int f(ry) sinh(ry) [E(rx+ry) - E(|rx-ry|)] dry."""
    rho = grid.nodes
    w = grid.weights * f_vals * np.sinh(rho)
    out = np.empty(grid.size)
    for i, rx in enumerate(rho):
        upper = inner_antideriv(rx + rho)
        lower = inner_antideriv(np.abs(rx - rho))
        out[i] = 2.0 * math.pi / math.sinh(rx) * float(w @ (upper - lower))
    return out


class TestConvolution:
    def test_against_abel_reduction(self, grid_conv):
        # g = exp(-2(cosh d - 1)): g sinh d integrates in closed form
        rho = grid_conv.nodes
        f = np.exp(-(rho**2))
        g = np.exp(-2.0 * (np.cosh(rho) - 1.0))
        got = radial_convolution(f, g, grid_conv, 3)
        want = _abel_oracle_n3(
            f, lambda r: -np.exp(-2.0 * (np.cosh(r) - 1.0)) / 2.0, grid_conv
        )
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        # measured 1.1e-11
        assert err < 3e-11

    def test_symmetry(self, grid_conv):
        rho = grid_conv.nodes
        f = np.exp(-(rho**2))
        g = np.exp(-2.0 * (np.cosh(rho) - 1.0))
        fg = radial_convolution(f, g, grid_conv, 3)
        gf = radial_convolution(g, f, grid_conv, 3)
        scale = np.max(np.abs(fg))
        # both orders interpolate one factor, so symmetry holds to the
        # interpolant's resolution, not to machine precision: 4.3e-12
        assert np.max(np.abs(fg - gf)) / scale < 1e-11

    def test_dimension_two_works(self, grid_conv):
        # n = 2 has sin^0 angular weight; just exercise the path
        rho = grid_conv.nodes
        f = np.exp(-(rho**2))
        out = radial_convolution(f, f, grid_conv, 2)
        assert np.all(np.isfinite(out))
        assert out[0] > 0

    def test_kernel_callable_smooth_agrees(self, grid_conv):
        rho = grid_conv.nodes
        f = np.exp(-(rho**2))
        g = np.exp(-2.0 * (np.cosh(rho) - 1.0))
        via_grid = radial_convolution(f, g, grid_conv, 3)
        via_kernel = convolve_with_kernel(
            f, lambda d: np.exp(-2.0 * (np.cosh(d) - 1.0)), grid_conv, 3
        )
        scale = np.max(np.abs(via_grid))
        # measured 4.4e-12
        assert np.max(np.abs(via_grid - via_kernel)) / scale < 1e-11

    @pytest.mark.parametrize("num_nodes, tol", [(160, 2e-4), (480, 3e-8)], ids=["160", "480"])
    def test_narrow_kernel_against_abel_oracle(self, num_nodes, tol):
        # a narrow g varies on angles ~1e-5 at the outer radii, which the
        # graded rule resolves; the interpolant of g sets the error (1.1e-4
        # at 160 nodes, 1.4e-8 at 480)
        grid = make_radial_grid(rho_max=12.0, num_nodes=num_nodes)
        rho = grid.nodes
        f = np.exp(-rho)
        got = radial_convolution(f, np.exp(-50.0 * (np.cosh(rho) - 1.0)), grid, 3)
        want = _abel_oracle_n3(f, lambda r: -np.exp(-50.0 * (np.cosh(r) - 1.0)) / 50.0, grid)
        assert _rel_err(got, want) < tol

    def test_heat_pair_is_pointwise_accurate_at_large_radius(self):
        # each output against its own value, where heat(1) falls from 4e-6
        # to 3e-20 of its peak: 1.7e-8 at worst on [6, 12]
        grid = make_radial_grid(rho_max=14.0, num_nodes=640)
        half = heat_kernel(0.5, grid.nodes, 3)
        got = radial_convolution(half, half, grid, 3)
        win = (grid.nodes >= 6.0) & (grid.nodes <= 12.0)
        want = heat_kernel(1.0, grid.nodes[win], 3)
        assert np.max(np.abs(got[win] / want - 1.0)) < 3e-8

    def test_singular_kernel_against_oracle(self, grid_conv):
        # kernel 1/(2 sinh(d/2)) is singular at d = 0; its product with
        # sinh d is cosh(d/2), antiderivative 2 sinh(d/2)
        rho = grid_conv.nodes
        f = np.exp(-(rho**2))
        got = convolve_with_kernel(
            f, lambda d: 1.0 / (2.0 * np.sinh(d / 2.0)), grid_conv, 3
        )
        want = _abel_oracle_n3(f, lambda r: 2.0 * np.sinh(r / 2.0), grid_conv)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err < 1e-6


def _rowwise_convolution(f_vals, kernel, grid, n, theta, wtheta):
    """The angular quadrature summed row by row over every (i, j, theta),
    with no symmetry and no blocks."""
    rho = grid.nodes
    fw = f_vals * grid.weights * np.sinh(rho) ** (n - 1)
    s2 = np.sin(0.5 * theta) ** 2
    out = np.empty(grid.size)
    for i, rx in enumerate(rho):
        a = 2.0 * np.sinh(0.5 * (rx - rho)) ** 2
        b = math.sinh(rx) * np.sinh(rho)
        vm1 = a[:, None] + 2.0 * b[:, None] * s2[None, :]
        d = np.log1p(vm1 + np.sqrt(vm1 * (vm1 + 2.0)))
        out[i] = sphere_area(n - 1) * ((kernel(d) @ wtheta) @ fw)
    return out


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


_KERNELS = {
    # s = 1 resolvent, as in the Q_k^-1 convolution route
    "resolvent": lambda n: lambda d: _resolvent_closed_odd(1.0 - (n - 1) ** 2 / 4.0, d, n),
    "singular": lambda n: lambda d: 1.0 / (2.0 * np.sinh(d / 2.0)),
    "smooth": lambda n: lambda d: np.exp(-2.0 * (np.cosh(d) - 1.0)),
}


# 1.5 times the measured error for each (n, num_nodes)
_HEAT_PAIR_BOUNDS = {
    (3, 120): 3.2e-7, (3, 200): 3.5e-9, (3, 528): 2.1e-12,
    (5, 120): 3.0e-6, (5, 200): 7.2e-8, (5, 528): 1.4e-11,
}


class TestSymmetricAssembly:
    """The upper-triangle, blocked assembly against the plain row sum."""

    @pytest.mark.parametrize("num_nodes", [120, 200])
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_convolve_with_kernel_matches_row_sum(self, name, n, num_nodes, monkeypatch):
        grid = make_radial_grid(rho_max=12.0, num_nodes=num_nodes)
        theta, wtheta = _theta_graded(n, 15, 12)
        blocks = []
        inner = radial._angular_integrals

        def spy(i, j, kern, rho, th, wth):
            blocks.append((i * grid.size + j, radial._BLOCK_ENTRIES // th.size))
            return inner(i, j, kern, rho, th, wth)

        monkeypatch.setattr(radial, "_angular_integrals", spy)
        f = np.exp(-(grid.nodes**2))
        kernel = _KERNELS[name](n)
        got = convolve_with_kernel(f, kernel, grid, n)
        want = _rowwise_convolution(f, kernel, grid, n, theta, wtheta)
        assert _rel_err(got, want) < 1e-14
        # several blocks, each within its depth's step, some ragged, and
        # together every pair of the upper triangle once
        assert len(blocks) > 1
        assert all(pairs.size <= step for pairs, step in blocks)
        assert any(pairs.size < step for pairs, step in blocks)
        iu, ju = np.triu_indices(grid.size)
        seen = np.sort(np.concatenate([pairs for pairs, _ in blocks]))
        assert np.array_equal(seen, np.sort(iu * grid.size + ju))

    @pytest.mark.parametrize("num_nodes", [120, 200, 528])
    @pytest.mark.parametrize("n", [3, 5])
    def test_radial_convolution_heat_pair_against_closed_heat(self, n, num_nodes):
        # the interpolant of g is not analytic in theta, so no angular rule
        # gets it to 1e-14; what users see is the error against a closed
        # form.  heat(0.5) * heat(0.5) = heat(1), sup-relative on [0, 12]:
        # measured 2.14e-7, 2.32e-9, 1.39e-12 (n = 3) and 1.98e-6, 4.77e-8,
        # 9.25e-12 (n = 5) on 120, 200, 528 nodes
        bound = _HEAT_PAIR_BOUNDS[n, num_nodes]
        grid = make_radial_grid(rho_max=12.0, num_nodes=num_nodes)
        half = heat_kernel(0.5, grid.nodes, n)
        got = radial_convolution(half, half, grid, n)
        assert _rel_err(got, heat_kernel(1.0, grid.nodes, n)) < bound

    def test_peak_allocation_is_bounded(self):
        # one 4e6-entry block temporary alone would take 32 MB
        grid = make_radial_grid(rho_max=12.0, num_nodes=480)
        f = np.exp(-(grid.nodes**2))
        tracemalloc.start()
        try:
            convolve_with_kernel(f, _KERNELS["singular"](5), grid, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
    def test_peak_rss_rise_is_bounded(self):
        # the peak RSS also sees glibc heap fragmentation, which tracemalloc
        # misses.  One 896-node call raises it by 16.7-16.9 MB (the N x N
        # matrix, the pair indices and the pair integrals); gathering each
        # depth group's indices at once instead of block by block raises
        # it by 21.7 MB.  Bound: 17 MB plus 2.5 MB of margin.  Measured in
        # a fresh interpreter as VmHWM, the peak of its own memory map: its
        # ru_maxrss would start at the peak RSS of the process that spawned it
        script = textwrap.dedent(
            """
            import numpy as np
            from hypverify.radial import convolve_with_kernel, make_radial_grid

            def peak_kb():
                with open("/proc/self/status") as fh:
                    return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))

            grid = make_radial_grid(rho_max=12.0, num_nodes=896)
            f = np.exp(-(grid.nodes**2))
            before = peak_kb()
            convolve_with_kernel(f, lambda d: 1.0 / (2.0 * np.sinh(d / 2.0)), grid, 5)
            print(peak_kb() - before)
            """
        )
        src = str(Path(radial.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) / 1024.0 < 19.5


# (id, n, kernel): the kernels of the Q_k^-1 convolution route, and 1/(2 sinh(d/2))
_DEPTH_CASES = (
    [(f"green_n{n}", n, lambda d, n=n: limiting_green_kernel(d, n)) for n in (3, 5, 7)]
    + [
        (f"resolvent_n{n}_c{c:g}", n, lambda d, c=c, n=n: _resolvent_closed_odd(c, d, n))
        for n in (5, 7)
        for c in _gap_shifts(n, (n - 1) // 2)
    ]
    + [("singular_n5", 5, _KERNELS["singular"](5))]
)


class TestPerPairDepth:
    """Each pair's depth of the sinh-mapped rule against dyadic rules."""

    @pytest.mark.parametrize("num_nodes", [120, 200, 480])
    @pytest.mark.parametrize("name, n, kernel", _DEPTH_CASES, ids=[c[0] for c in _DEPTH_CASES])
    def test_matches_the_deepest_rule(self, name, n, kernel, num_nodes, monkeypatch):
        grid = make_radial_grid(rho_max=12.0, num_nodes=num_nodes)
        f = np.exp(-(grid.nodes**2))
        theta, wtheta = _theta_graded(n, 15, 12)
        cap_theta = radial._theta_sinh(n, radial._MAX_LEVELS)[0]
        calls = []
        inner = radial._angular_integrals

        def spy(i, j, kern, grd, th, wth):
            calls.append((i, j, th))
            return inner(i, j, kern, grd, th, wth)

        monkeypatch.setattr(radial, "_angular_integrals", spy)
        got = convolve_with_kernel(f, kernel, grid, n)
        want = _rowwise_convolution(f, kernel, grid, n, theta, wtheta)
        assert _rel_err(got, want) < 1e-14
        # every diagonal pair, where d reaches 0, is in the cap group
        diagonal = 0
        for i, j, th in calls:
            on_diag = i == j
            if on_diag.any():
                assert np.array_equal(th, cap_theta)
            diagonal += int(on_diag.sum())
        assert diagonal == grid.size

    @pytest.mark.parametrize("num_nodes", [120, 200])
    @pytest.mark.parametrize("name, n, kernel", _DEPTH_CASES, ids=[c[0] for c in _DEPTH_CASES])
    def test_every_pair_matches_a_deep_dyadic_rule(self, name, n, kernel, num_nodes):
        # pair by pair, so the pairs near rho_max count as much as any: the
        # outputs above weigh them by f = e^(-rho^2) and cannot see them.
        # Measured 3.0e-14 at worst; a dyadic rule capped at 15 levels
        # is up to 1.6e-2 off on those pairs
        grid = make_radial_grid(rho_max=12.0, num_nodes=num_nodes)
        iu, ju = np.triu_indices(grid.size)
        got = radial._graded_integrals(iu, ju, kernel, grid.nodes, n, radial._MAX_LEVELS)
        deep = radial._angular_integrals(iu, ju, kernel, grid.nodes, *_theta_graded(n, 40, 16))
        assert np.max(np.abs(got / deep - 1.0)) < 5e-14

    def test_angular_entries_stay_below_a_fifth_of_the_fixed_rule(self, monkeypatch):
        # a count, not a timing: a return to one depth for every pair, or
        # to 12 nodes on every octave, shows here at once (the sinh-mapped
        # rule needs 16.5 % of the fixed 192-node rule, the dyadic one 27.8 %)
        grid = make_radial_grid(rho_max=12.0, num_nodes=480)
        entries = []
        inner = radial._angular_integrals

        def counting(i, j, kern, grd, th, wth):
            entries.append(i.size * th.size)
            return inner(i, j, kern, grd, th, wth)

        monkeypatch.setattr(radial, "_angular_integrals", counting)
        convolve_with_kernel(np.exp(-(grid.nodes**2)), _KERNELS["singular"](5), grid, 5)
        fixed = grid.size * (grid.size + 1) // 2 * _theta_graded(5, 15, 12)[0].size
        assert 0 < sum(entries) < fixed / 5


class TestRadialFunction:
    def test_roundtrip(self, grid12):
        rf = RadialFunction(grid12, np.exp(-(grid12.nodes**2)), 3)
        integral = integrate_radial(rf.values, rf.grid, rf.n)
        assert integral == pytest.approx(math.pi**1.5 * (math.e - 1.0), rel=1e-12)
        assert lp_norm(rf.values, rf.grid, rf.n, 2.0) > 0
        assert as_callable(rf.values, rf.grid)(0.5) == pytest.approx(math.exp(-0.25), rel=1e-8)

    def test_shape_guard(self, grid12):
        with pytest.raises(ValueError):
            RadialFunction(grid12, np.ones(3), 3)
