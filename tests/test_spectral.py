"""Transform round trips, Plancherel, multipliers, and decay guards."""

import math

import numpy as np
import pytest

from hypverify.radial import (
    Grid,
    integrate_radial,
    make_radial_grid,
    radial_laplacian,
)
from hypverify.specialfn import spherical_function
from hypverify.spectral import (
    InsufficientDecayError,
    MultiplierSpec,
    forward_transform,
    inverse_transform,
    make_spectral_grid,
    plancherel_check,
    plancherel_prefactor,
    quadratic_form,
)


@pytest.fixture(scope="module")
def grid_exp():
    # rho_max = 20 so that e^(-2 rho) tails are below 1e-8 relative
    return make_radial_grid(20.0, 1280)


class TestGrid:
    def test_structure(self, sgrid40):
        assert sgrid40.size == sgrid40.nodes.size == sgrid40.weights.size
        assert sgrid40.top == 40.0
        assert np.all(np.diff(sgrid40.nodes) > 0)
        assert sgrid40.nodes[0] > 0
        assert np.all(sgrid40.weights > 0)
        assert abs(float(np.sum(sgrid40.weights)) - 40.0) < 1e-10

    def test_small_window(self):
        g = make_spectral_grid(0.5, 64)
        assert g.top == 0.5
        assert abs(float(np.sum(g.weights)) - 0.5) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            make_spectral_grid(-1.0)
        with pytest.raises(ValueError):
            Grid(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 2.0)
        with pytest.raises(ValueError):
            Grid(np.array([1.0, 2.0]), np.array([1.0]), 2.0)
        with pytest.raises(ValueError):
            Grid(np.array([1.0, 2.0]), np.array([1.0, -1.0]), 2.0)


class TestPrefactor:
    def test_closed_values(self):
        assert abs(plancherel_prefactor(2) - 1.0 / (4 * math.pi**2)) < 1e-16
        assert abs(plancherel_prefactor(3) - 1.0 / (4 * math.pi**2)) < 1e-16
        assert abs(plancherel_prefactor(4) - 1.0 / math.pi**3) < 1e-16
        assert abs(plancherel_prefactor(5) - 1.5 / math.pi**3) < 1e-16


def _battery(rho):
    return [
        (3, np.exp(-(rho**2))),
        (4, (1.0 + rho**2) * np.exp(-(rho**2))),
        (5, np.exp(-2.0 * (np.cosh(rho) - 1.0))),
        (2, np.exp(-(rho**2) / 4.0)),
        (3, rho**2 * np.exp(-(rho**2))),
    ]


class TestRoundTrip:
    def test_battery(self, grid12, sgrid40):
        for n, f in _battery(grid12.nodes):
            fhat = forward_transform(f, grid12, n, sgrid40.nodes)
            back = inverse_transform(fhat, sgrid40, n, grid12.nodes)
            rel = np.max(np.abs(back - f)) / np.max(np.abs(f))
            assert rel < 1e-8, (n, rel)

    def test_plancherel_battery(self, grid12, sgrid40):
        for n, f in _battery(grid12.nodes):
            space, freq = plancherel_check(f, grid12, n, sgrid40)
            assert abs(space - freq) / space < 1e-11, n

    def test_forward_scalar_and_even(self, grid12, sgrid40):
        f = np.exp(-grid12.nodes**2)
        v = forward_transform(f, grid12, 3, 2.5)
        assert isinstance(v, float)
        vpm = forward_transform(f, grid12, 3, np.array([2.5, -2.5]))
        assert vpm[0] == vpm[1] == v

    def test_forward_at_zero_matches_phi0_integral(self, grid12):
        f = np.exp(-grid12.nodes**2)
        v0 = forward_transform(f, grid12, 3, 0.0)
        ref = integrate_radial(f * spherical_function(0.0, grid12.nodes, 3), grid12, 3)
        assert abs(v0 - ref) < 1e-12 * abs(ref)

    def test_shape_guards(self, grid12, sgrid40):
        with pytest.raises(ValueError):
            forward_transform(np.ones(3), grid12, 3, sgrid40.nodes)
        with pytest.raises(ValueError):
            inverse_transform(np.ones(3), sgrid40, 3, grid12.nodes)


class TestHeatMultiplier:
    def test_closed_form_dimension_three(self, grid12, sgrid40):
        # inverse transform of the heat multiplier against the closed
        # kernel (4 pi t)^(-3/2) e^(-t) e^(-rho^2/4t) rho/sinh(rho);
        # this pins the inversion prefactor to 12 digits
        t = 0.5
        sym = np.exp(-t * (sgrid40.nodes**2 + 4.0) / 4.0)
        h = inverse_transform(sym, sgrid40, 3, grid12.nodes)
        rho = grid12.nodes
        closed = (
            (4.0 * math.pi * t) ** -1.5
            * math.exp(-t)
            * np.exp(-(rho**2) / (4.0 * t))
            * rho
            / np.sinh(rho)
        )
        assert np.max(np.abs(h - closed)) / np.max(closed) < 1e-10


class TestExponentialProfile:
    # f = e^(-2 rho) in dimension 3: the transform is the rational
    # function 256 pi / ((4 + lam^2)(36 + lam^2)), which decays so
    # slowly that a 40-window inversion is honest only to a few 1e-3;
    # the forward side and the Plancherel sum are still sharp

    def test_forward_closed_form(self, grid_exp, sgrid40):
        f = np.exp(-2.0 * grid_exp.nodes)
        fhat = forward_transform(f, grid_exp, 3, sgrid40.nodes)
        lam = sgrid40.nodes
        exact = 256.0 * math.pi / ((4.0 + lam**2) * (36.0 + lam**2))
        assert np.max(np.abs(fhat - exact) / exact) < 1e-6

    def test_plancherel_pi_over_six(self, grid_exp, sgrid40):
        f = np.exp(-2.0 * grid_exp.nodes)
        # tail fraction sits right at the default threshold, so relax
        # it explicitly and assert the measured truncation level
        space, freq = plancherel_check(f, grid_exp, 3, sgrid40, tail_tol=1e-4)
        assert abs(space - math.pi / 6.0) < 1e-10
        assert abs(space - freq) / space < 1e-4

    def test_inverse_raises_by_default(self, grid_exp, sgrid40):
        f = np.exp(-2.0 * grid_exp.nodes)
        fhat = forward_transform(f, grid_exp, 3, sgrid40.nodes)
        with pytest.raises(InsufficientDecayError):
            inverse_transform(fhat, sgrid40, 3, grid_exp.nodes)

    def test_inverse_truncation_level(self, grid_exp, sgrid40):
        f = np.exp(-2.0 * grid_exp.nodes)
        fhat = forward_transform(f, grid_exp, 3, sgrid40.nodes)
        back = inverse_transform(fhat, sgrid40, 3, grid_exp.nodes, tail_tol=None)
        win = (grid_exp.nodes >= 0.5) & (grid_exp.nodes <= 8.0)
        rel = np.max(np.abs(back - f)[win]) / np.max(f[win])
        assert rel < 5e-3


class TestMultipliers:
    def test_gjms_symbol_equals_shifted_product(self, sgrid40):
        # the factorized symbol prod (lam^2 + (2i-1)^2)/4 must agree
        # with the defining product of shifted Laplacian symbols for
        # every dimension: (n-1)^2 - n(n-2) = 1 does the cancelling
        lam = sgrid40.nodes
        for n in (3, 4, 5, 8):
            lap = MultiplierSpec.laplacian()(lam, n)
            prod = np.ones_like(lam)
            for k in (1, 2, 3):
                prod = prod * (lap + k * (k - 1) - n * (n - 2) / 4.0)
                sym = MultiplierSpec.gjms(k)(lam, n)
                assert np.max(np.abs(prod - sym) / sym) < 1e-13, (n, k)

    def test_low_order_closed_forms(self):
        lam = np.linspace(0.0, 10.0, 11)
        assert np.allclose(
            MultiplierSpec.gjms(1)(lam, 6), (lam**2 + 1.0) / 4.0, rtol=0, atol=0
        )
        assert np.allclose(
            MultiplierSpec.gjms_gap(1)(lam, 6), lam**2 / 4.0, rtol=0, atol=0
        )
        q2 = lam**2 / 4.0 * (lam**2 + 9.0) / 4.0
        assert np.allclose(MultiplierSpec.gjms_gap(2)(lam, 6), q2, rtol=1e-15)

    def test_reciprocal_and_minus(self):
        lam = np.linspace(0.5, 20.0, 40)
        spec = MultiplierSpec.gjms(2)
        assert np.allclose(
            spec(lam, 5) * spec.reciprocal()(lam, 5), 1.0, rtol=1e-15
        )
        shifted = spec.minus(3.0)
        assert np.allclose(shifted(lam, 5), spec(lam, 5) - 3.0, rtol=0, atol=0)
        assert MultiplierSpec.gjms_gap(1).reciprocal()(np.array([2.0]), 5)[0] == (
            pytest.approx(1.0)
        )

    def test_bad_order(self):
        with pytest.raises(ValueError):
            MultiplierSpec.gjms(0)
        with pytest.raises(ValueError):
            MultiplierSpec.gjms_gap(0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_laplacian_multiplier_matches_fd(self, n, grid12, sgrid40):
        f = np.exp(-grid12.nodes**2)
        fhat = forward_transform(f, grid12, n, sgrid40.nodes)
        g = inverse_transform(
            fhat * MultiplierSpec.laplacian()(sgrid40.nodes, n),
            sgrid40,
            n,
            grid12.nodes,
        )
        fd = -radial_laplacian(f, grid12, n)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-7

    def test_gjms_one_matches_fd(self, grid12, sgrid40):
        n = 4
        f = np.exp(-grid12.nodes**2)
        fhat = forward_transform(f, grid12, n, sgrid40.nodes)
        g = inverse_transform(
            fhat * MultiplierSpec.gjms(1)(sgrid40.nodes, n),
            sgrid40,
            n,
            grid12.nodes,
        )
        fd = -radial_laplacian(f, grid12, n) - n * (n - 2) / 4.0 * f
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-7


class TestQuadraticForm:
    def test_matches_fd_direct(self, grid12, sgrid40):
        f = np.exp(-grid12.nodes**2)
        qf = quadratic_form(f, grid12, 3, MultiplierSpec.laplacian(), sgrid40)
        direct = integrate_radial(f * (-radial_laplacian(f, grid12, 3)), grid12, 3)
        assert abs(qf - direct) / abs(direct) < 1e-8

    def test_slow_decay_raises(self, grid_exp, sgrid40):
        f = np.exp(-2.0 * grid_exp.nodes)
        with pytest.raises(InsufficientDecayError):
            quadratic_form(f, grid_exp, 3, MultiplierSpec.gjms(2), sgrid40)

