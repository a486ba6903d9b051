import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from hypverify import specialfn
from hypverify.radial import radial_laplacian
from hypverify.specialfn import (
    harish_chandra_c,
    log_gamma_complex,
    phi_matrix,
    plancherel_density,
    spherical_function,
    spherical_function_sphere_average,
)


class TestLogGamma:
    @given(st.floats(0.5, 20.0), st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_right_half_plane_matches_scipy(self, x, y):
        z = complex(x, y)
        assert log_gamma_complex(z) == pytest.approx(
            complex(sps.loggamma(z)), rel=1e-12, abs=1e-12
        )

    @given(st.floats(-10.0, 0.4), st.floats(0.05, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_reflected_gamma_value(self, x, y):
        # the branch may differ by 2 pi i, so compare after exponentiating
        z = complex(x, y)
        ours = np.exp(log_gamma_complex(z))
        ref = np.exp(complex(sps.loggamma(z)))
        assert ours == pytest.approx(ref, rel=1e-10)

    @given(st.floats(-10.0, 0.4), st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_reflected_real_part(self, x, y):
        # log |Gamma| is branch-free
        z = complex(x, y)
        if abs(z.imag) < 1e-3 and abs(z - round(z.real)) < 1e-2:
            return  # too close to a pole for a meaningful comparison
        assert log_gamma_complex(z).real == pytest.approx(
            float(sps.loggamma(z).real), rel=1e-10, abs=1e-10
        )

    def test_large_imaginary_no_overflow(self):
        # naive reflection through sin(pi z) overflows near |Im z| ~ 230
        z = complex(0.3, 500.0)
        got = log_gamma_complex(z)
        assert np.isfinite(got.real) and np.isfinite(got.imag)
        assert got.real == pytest.approx(float(sps.loggamma(z).real), rel=1e-12)
        zc = complex(0.3, -500.0)
        assert log_gamma_complex(zc).real == pytest.approx(got.real, rel=1e-13)

    @given(st.floats(0.1, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_imaginary_axis_modulus(self, lam):
        # |Gamma(i y)|^2 = pi / (y sinh(pi y)), in log form
        got = 2.0 * log_gamma_complex(1j * lam).real
        want = (
            math.log(math.pi)
            - math.log(lam)
            - (math.pi * lam + math.log1p(-math.exp(-2.0 * math.pi * lam)) - math.log(2.0))
        )
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_real_axis_matches_lgamma(self):
        for x in (0.7, 1.0, 4.5, 11.0):
            assert log_gamma_complex(complex(x, 0.0)).real == pytest.approx(
                math.lgamma(x), rel=1e-13
            )

    def test_vectorized(self):
        z = np.array([1.0 + 2.0j, 0.2 - 3.0j, 5.0 + 0.0j])
        out = log_gamma_complex(z)
        assert out.shape == (3,)


class TestHarishChandraC:
    @given(st.floats(0.05, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_n3_closed_form(self, lam):
        assert harish_chandra_c(lam, 3) == pytest.approx(2.0 / (1j * lam), rel=1e-11)

    @given(st.floats(0.05, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_n5_closed_form(self, lam):
        il = 1j * lam
        assert harish_chandra_c(lam, 5) == pytest.approx(
            24.0 / (il * (2.0 + il)), rel=1e-11
        )

    @given(st.floats(0.05, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_n7_closed_form(self, lam):
        il = 1j * lam
        assert harish_chandra_c(lam, 7) == pytest.approx(
            480.0 / (il * (2.0 + il) * (4.0 + il)), rel=1e-11
        )

    def test_pole_at_zero(self):
        with pytest.raises(ValueError):
            harish_chandra_c(0.0, 3)
        with pytest.raises(ValueError):
            harish_chandra_c(np.array([1.0, 0.0]), 4)

    def test_conjugate_symmetry(self):
        lam = 3.7
        for n in (2, 3, 4, 6):
            assert harish_chandra_c(-lam, n) == pytest.approx(
                np.conj(harish_chandra_c(lam, n)), rel=1e-12
            )


class TestPlancherelDensity:
    @given(st.floats(0.01, 60.0))
    @settings(max_examples=100, deadline=None)
    def test_n3(self, lam):
        assert plancherel_density(lam, 3) == pytest.approx(lam**2 / 4.0, rel=1e-11)

    @given(st.floats(0.01, 60.0))
    @settings(max_examples=100, deadline=None)
    def test_n5(self, lam):
        want = lam**2 * (lam**2 + 4.0) / 576.0
        assert plancherel_density(lam, 5) == pytest.approx(want, rel=1e-11)

    @given(st.floats(0.01, 60.0))
    @settings(max_examples=100, deadline=None)
    def test_n7(self, lam):
        want = lam**2 * (lam**2 + 4.0) * (lam**2 + 16.0) / 230400.0
        assert plancherel_density(lam, 7) == pytest.approx(want, rel=1e-11)

    @given(st.floats(0.01, 40.0))
    @settings(max_examples=100, deadline=None)
    def test_n2(self, lam):
        # even dimensions are genuinely transcendental:
        # |c|^(-2) = (pi lam / 2) tanh(pi lam / 2)
        want = 0.5 * math.pi * lam * math.tanh(0.5 * math.pi * lam)
        assert plancherel_density(lam, 2) == pytest.approx(want, rel=1e-11)

    def test_zero_limit(self):
        assert plancherel_density(0.0, 3) == 0.0
        out = plancherel_density(np.array([0.0, 2.0]), 3)
        assert out[0] == 0.0 and out[1] == pytest.approx(1.0)

    def test_even(self):
        lam = np.linspace(0.3, 10.0, 7)
        for n in (2, 3, 4, 5):
            assert np.allclose(
                plancherel_density(lam, n), plancherel_density(-lam, n), rtol=1e-12
            )


class TestSphericalFunction:
    @given(st.floats(0.1, 40.0), st.floats(0.01, 12.0))
    @settings(max_examples=150, deadline=None)
    def test_n3_closed_form(self, lam, rho):
        want = 2.0 * math.sin(0.5 * lam * rho) / (lam * math.sinh(rho))
        assert spherical_function(lam, rho, 3) == pytest.approx(
            want, rel=1e-10, abs=1e-12
        )

    def test_lambda_zero_n3(self):
        rho = np.array([0.5, 2.0, 7.0])
        assert np.allclose(
            spherical_function(0.0, rho, 3), rho / np.sinh(rho), rtol=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_value_at_origin(self, n):
        lam = np.array([0.0, 1.0, 7.7, 33.0])
        vals = spherical_function(lam, 0.0, n)
        assert np.allclose(vals, 1.0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_bounded_by_phi_zero(self, n):
        rho = np.linspace(0.1, 12.0, 25)
        phi0 = spherical_function(0.0, rho, n)
        for lam in (0.5, 3.0, 17.0, 40.0):
            vals = spherical_function(lam, rho, n)
            assert np.all(np.isfinite(vals))
            assert np.all(np.abs(vals) <= phi0 * (1.0 + 1e-12))

    def test_even_in_lambda(self):
        rho = np.linspace(0.2, 9.0, 11)
        a = spherical_function(6.2, rho, 4)
        b = spherical_function(-6.2, rho, 4)
        assert np.allclose(a, b, rtol=1e-14)

    def test_n2_against_conical_legendre(self):
        mp = pytest.importorskip("mpmath")
        for lam, rho in [(0.7, 0.5), (2.3, 1.5), (5.0, 3.0), (11.0, 0.8)]:
            want = float(
                mp.re(mp.legenp(mp.mpc(-0.5, 0.5 * lam), 0, mp.cosh(rho)))
            )
            got = spherical_function(lam, rho, 2)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_sphere_average_cross_route(self, n):
        # two independent integral representations must agree where the
        # boundary-layer route is trustworthy
        rho = np.linspace(0.1, 3.0, 9)
        for lam in (0.7, 3.3, 11.0):
            a = spherical_function(lam, rho, n)
            b = spherical_function_sphere_average(lam, rho, n)
            assert np.allclose(a, b, rtol=1e-8, atol=1e-12)

    def test_sphere_average_rejects_rho_above_12(self):
        # past rho = 12 the boundary layer outruns the dyadic grading
        # (3e-3 relative to phi_0 at rho = 13, up to 89 % at rho = 16)
        assert np.isfinite(spherical_function_sphere_average(3.0, 12.0, 3))
        with pytest.raises(ValueError):
            spherical_function_sphere_average(3.0, np.array([1.0, 12.5]), 3)

    @pytest.mark.parametrize("n,lam", [(3, 5.3), (4, 5.3), (5, 2.0), (2, 4.5)])
    def test_eigenfunction_residual(self, n, lam, grid12):
        # tolerance is set by the finite-difference Laplacian, whose
        # truncation error grows like (lam/2)^7 h^5, not by phi itself
        vals = spherical_function(lam, grid12.nodes, n)
        lap = radial_laplacian(vals, grid12, n)
        ev = ((n - 1) ** 2 + lam**2) / 4.0
        resid = lap + ev * vals
        assert np.max(np.abs(resid)) / ev < 1e-5

    def test_scalar_api(self):
        out = spherical_function(2.0, 1.0, 3)
        assert isinstance(out, float)


def _probes() -> list:
    # rho = 0, lam = 0, both sides of the Gauss-series seam
    # rho^2 + (lam rho/2)^2 = 1/2, lam up to 1000 and rho up to 48
    probes = [(0.0, 0.0), (7.0, 0.0), (1000.0, 0.0), (0.0, 1e-3), (0.0, 0.3),
              (0.0, 0.7), (0.0, 0.72), (0.0, 3.0), (0.0, 48.0), (1000.0, 1e-3),
              (1000.0, 1.0), (30.0, 48.0), (200.0, 12.0), (1000.0, 48.0)]
    for rho in (0.05, 0.3, 0.6):
        t = math.sqrt(0.5 - rho * rho)
        probes += [(2.0 * t * f / rho, rho) for f in (0.999, 1.001)]
    return probes


def _hypergeometric(lam, rho, n):
    # phi = 2F1((n-1)/4 + i lam/4, (n-1)/4 - i lam/4; n/2; -sinh^2 rho)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.mpf(n - 1) / 4
        b = 1j * mp.mpf(lam) / 4
        z = -mp.sinh(mp.mpf(rho)) ** 2
        return float(mp.re(mp.hyp2f1(a + b, a - b, mp.mpf(n) / 2, z)))


def _assert_against_hypergeometric(probes, n, tol):
    # each probe's error relative to phi_0
    for lam, rho in probes:
        got = phi_matrix(np.array([lam]), np.array([rho]), n)[0, 0]
        err = abs(got - _hypergeometric(lam, rho, n)) / _hypergeometric(0.0, rho, n)
        assert err < tol, (lam, rho, float(err))


def _assert_finite_and_bounded(lam, n):
    # phi_matrix at rho = 1, 48, 800 (lam[0] = 0) raises no floating-point
    # error and stays within |phi| <= phi_0
    rho = np.array([1.0, 48.0, 800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            mat = phi_matrix(lam, rho, n)
    assert np.all(np.isfinite(mat))
    assert np.all(np.abs(mat) <= mat[0] * (1.0 + 1e-12))


class TestPhiMatrix:
    def test_matches_elementwise(self):
        # n = 4: phi_matrix takes the Gauss series, the Harish-Chandra series
        # and the quadrature, spherical_function the quadrature alone; they
        # agree to 8.6e-15 relative to phi_0
        lam = np.linspace(0.0, 30.0, 40)
        rho = np.linspace(0.01, 10.0, 35)
        mat = phi_matrix(lam, rho, 4)
        assert mat.shape == (40, 35)
        spot = spherical_function(lam[:, None], rho[None, :], 4)
        phi0 = spherical_function(0.0, rho, 4)
        assert np.max(np.abs(mat - spot) / phi0) < 2e-14

    def test_cache_returns_same_object(self):
        lam = np.linspace(0.0, 5.0, 8)
        rho = np.linspace(0.1, 2.0, 6)
        a = phi_matrix(lam, rho, 3)
        b = phi_matrix(lam, rho, 3)
        assert a is b
        assert not a.flags.writeable

    def test_distinct_dimensions_distinct_entries(self):
        lam = np.linspace(0.0, 5.0, 8)
        rho = np.linspace(0.1, 2.0, 6)
        a = phi_matrix(lam, rho, 3)
        b = phi_matrix(lam, rho, 5)
        assert not np.allclose(a, b)

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            phi_matrix(np.zeros((2, 2)), np.ones(3), 3)
        for n in (3, 4):
            with pytest.raises(ValueError, match="finite"):
                phi_matrix(np.ones(2), np.array([1.0, np.nan]), n)
            with pytest.raises(ValueError, match="finite"):
                phi_matrix(np.array([np.inf, 1.0]), np.ones(3), n)
            with pytest.raises(ValueError, match="nonnegative"):
                phi_matrix(np.array([1.0, 3.0]), np.array([-1.0, 1.0]), n)

    # odd n <= 9: phi_matrix takes the closed form, spherical_function stays
    # the Jacobi quadrature, so each check below compares two routes.  Odd
    # n > 9 keep the quadrature in phi_matrix; the closed form would miss
    # the seam probes by 3e-10 at n = 11 and 2e-8 at n = 13, so the
    # tolerances below also pin that fallback.
    # At n = 3 the worst probe is 2.4e-16 (the closed form alone, with no
    # series in the corner).
    ODD_TOL = {3: 1e-15, 5: 5e-14, 7: 5e-13, 9: 5e-12, 11: 2e-11, 13: 2e-11, 21: 5e-11}

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 21])
    def test_odd_closed_form_matches_jacobi(self, n):
        lam = np.linspace(0.0, 30.0, 25)
        rho = np.concatenate([[0.0], np.geomspace(1e-3, 12.0, 30)])
        mat = phi_matrix(lam, rho, n)
        spot = spherical_function(lam[:, None], rho[None, :], n)
        phi0 = spherical_function(0.0, rho, n)
        assert np.max(np.abs(mat - spot) / phi0) < 1e-10

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 21])
    def test_odd_against_hypergeometric(self, n):
        # The quadrature of n > 9 would need 18 000 nodes at lam = 1000,
        # rho = 48 (15 s), so that probe is kept for the closed form only.
        probes = _probes()
        if n > 9:
            probes.remove((1000.0, 48.0))
        _assert_against_hypergeometric(probes, n, self.ODD_TOL[n])

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_large_rho_finite(self, n):
        # sinh(800) overflows a double; the closed form never forms it
        _assert_finite_and_bounded(np.array([0.0, 1.0, 40.0]), n)

    # even n <= 8: phi_matrix takes the Harish-Chandra series outside the
    # Gauss series where rho >= _HC_MIN_RHO[n] and lam rho >= _HC_MIN_PHASE,
    # and the quadrature on the band left.  The worst probe below is
    # 4.4e-14, 6.3e-15, 1.2e-14, 5.4e-14 for n = 2, 4, 6, 8, each on an
    # entry the quadrature keeps (lam = 0 at rho = 48 for n = 2, lam = 1000
    # at rho = 1 for n = 8); the Jacobi route reached 2.1e-12, 3.1e-14,
    # 4.2e-14, 2.2e-13 on the same probes (without lam = 1000, rho = 48).
    EVEN_TOL = {2: 1e-13, 4: 2e-14, 6: 3e-14, 8: 1e-13}

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_against_hypergeometric(self, n):
        # the common probes plus both sides of the rho seam and of the
        # lam rho seam
        probes = _probes()
        for f in (0.999, 1.001):
            seam = specialfn._HC_MIN_RHO[n] * f
            probes += [(lam, seam) for lam in (1e-3, 0.5, 5.0, 40.0)]
            probes += [(specialfn._HC_MIN_PHASE * f / rho, rho) for rho in (2.0, 12.0)]
        _assert_against_hypergeometric(probes, n, self.EVEN_TOL[n])

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_large_rho_finite(self, n):
        # e^(-2 rho) and e^(-rho0 rho) underflow quietly; 1/lam stays finite
        _assert_finite_and_bounded(np.array([0.0, 1e-3, 1.0, 40.0]), n)

    def test_even_route_takes_c_from_its_own_gamma_quotient(self, monkeypatch):
        # an error in _log_c would cancel between phi and the Plancherel
        # density if the Harish-Chandra series shared it
        def broken(lam, n):
            raise AssertionError("_log_c called")

        monkeypatch.setattr(specialfn, "_log_c", broken)
        monkeypatch.setattr(specialfn, "_PHI_CACHE", OrderedDict())
        lam = np.linspace(0.0, 30.0, 17)
        rho = np.linspace(0.0, 12.0, 13)
        mat = phi_matrix(lam, rho, 4)
        assert np.all(np.isfinite(mat))
        with pytest.raises(AssertionError):
            plancherel_density(lam, 4)

    # The Gauss-series corner rho^2 + (lam rho/2)^2 < 1/2 as one matrix, so
    # that the column bands of one call meet: rho from 1e-6 to just inside
    # sqrt(1/2) with rho = 0, lam from 0 to 1000, and rows 0.1 % either side
    # of the seam at five rho.  The entries checked are those in the series
    # and those within 1 % of the seam outside it; farther out the closed
    # form, the Harish-Chandra series and the quadrature have the tests
    # above.  Against 40-digit mpmath the worst entry in the series is
    # 2.3e-16 to 4.8e-16 for these n (4.9e-16 to 7.0e-16 when the series
    # was summed entry by entry).
    CORNER_RHO = (0.0, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.7071)
    CORNER_LAM = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0)

    @pytest.mark.parametrize("n", [2, 4, 5, 6, 7, 8, 9])
    def test_series_corner_against_hypergeometric(self, n, monkeypatch):
        monkeypatch.setattr(specialfn, "_PHI_CACHE", OrderedDict())
        rho = np.array(self.CORNER_RHO)
        lam = list(self.CORNER_LAM)
        for r in (1e-3, 0.05, 0.3, 0.6, 0.7):
            lam += [2.0 * math.sqrt(0.5 - r * r) / r * f for f in (0.999, 1.001)]
        lam = np.array(lam)
        with np.errstate(all="raise"):
            mat = phi_matrix(lam, rho, n)
        tol = (self.ODD_TOL if n % 2 else self.EVEN_TOL)[n]
        rows, cols = np.nonzero(rho**2 + (0.5 * lam[:, None] * rho) ** 2 < 0.505)
        assert np.count_nonzero(rho[cols] ** 2 + (0.5 * lam[rows] * rho[cols]) ** 2 > 0.5) >= 5
        for i, j in zip(rows, cols):
            err = abs(mat[i, j] - _hypergeometric(lam[i], rho[j], n)) / _hypergeometric(0.0, rho[j], n)
            assert err < tol, (lam[i], rho[j], float(err))

    @pytest.mark.parametrize("n", [3, 4, 5, 9])
    def test_unsorted_and_repeated_arguments(self, n):
        # the column bands sort rho and the series picks its rows by mask,
        # so the order of the arguments must not matter
        rng = np.random.default_rng(3)
        lam = rng.choice([0.0, 0.3, 2.0, 7.5, 40.0, 300.0], 60)
        rho = np.concatenate([np.geomspace(1e-5, 0.7, 12), [0.3, 0.3, 0.0, 1e-3, 0.69, 2.0, 9.0]])
        rho = rho[rng.permutation(rho.size)]
        p = rng.permutation(lam.size)
        q = rng.permutation(rho.size)
        phi0 = phi_matrix(np.zeros(1), rho[q], n)[0]
        got = phi_matrix(lam[p], rho[q], n)
        want = phi_matrix(lam, rho, n)[p][:, q]
        assert np.max(np.abs(got - want) / phi0) <= 1e-15

    def test_n3_takes_no_series(self, monkeypatch):
        # phi_3 = (rho/sinh rho) sinc(lam rho/2) needs no series; n = 5 does
        def spy(*args):
            raise AssertionError("series called")

        monkeypatch.setattr(specialfn, "_series_plan", spy)
        monkeypatch.setattr(specialfn, "_series_fill", spy)
        monkeypatch.setattr(specialfn, "_PHI_CACHE", OrderedDict())
        lam = np.array([0.0, 0.5, 3.0, 40.0, 1000.0])
        rho = np.array([0.0, 1e-6, 1e-3, 0.1, 0.5, 0.7, 3.0])
        mat = phi_matrix(lam, rho, 3)
        t = 0.5 * lam[:, None] * rho[1:]
        sinc = np.where(t == 0.0, 1.0, np.sin(t) / np.where(t == 0.0, 1.0, t))
        assert np.allclose(mat[:, 1:], rho[1:] / np.sinh(rho[1:]) * sinc, rtol=1e-15, atol=0.0)
        assert np.all(mat[:, 0] == 1.0)
        with pytest.raises(AssertionError, match="series called"):
            phi_matrix(lam, rho, 5)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
    def test_tiny_rho_without_warnings(self, n, monkeypatch):
        # 1/sinh rho overflows at subnormal rho and its powers well before;
        # every entry lies in the series (or, at n = 3, is rho/sinh rho)
        monkeypatch.setattr(specialfn, "_PHI_CACHE", OrderedDict())
        lam = np.array([0.0, 3.0, 1e3])
        rho = np.array([1e-310, 1e-200, 1e-100, 1e-20])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mats = [phi_matrix(lam, rho, n)] + [phi_matrix(lam, rho[j : j + 1], n) for j in range(rho.size)]
        for mat in mats:
            assert np.all(np.abs(mat - 1.0) <= np.finfo(float).eps)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_huge_lambda_fails_loudly_or_is_right(self, n, monkeypatch):
        # at |lam| >= 1e155 n = 2 to 9 used to raise overflow warnings and
        # n = 7, 9 return NaN, and the quadrature asked scipy for rules too
        # large to allocate.  Now every call returns finite values within
        # |phi| <= 1 or raises the ValueError of the lam bound or of the
        # Jacobi node cap; at the bound itself, 1e8, both outcomes occur
        monkeypatch.setattr(specialfn, "_PHI_CACHE", OrderedDict())
        returned = set()
        for rho in (0.3, 1.0):
            for lam in (1e8, 1e100, 1e155, 1e200):
                for fn in (phi_matrix, spherical_function):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            vals = fn(np.array([lam]), np.array([rho]), n)
                        except ValueError as err:
                            assert "|lam| must be at most" in str(err) or "lam * rho" in str(err)
                            continue
                    assert np.all(np.isfinite(vals)) and np.all(np.abs(vals) <= 1.0)
                    returned.add(lam)
        # up to n = 9 some rho takes a closed form or the Harish-Chandra
        # series; n = 8 takes the quadrature below rho = 1.5
        assert returned == ({1e8} if n <= 9 and n != 8 else set())

    def test_jacobi_node_cap(self, monkeypatch):
        # lam rho = 1e5 asked for 37 540 nodes, about a minute of rule
        # building; the cap refuses it before any rule is built
        assert specialfn._node_count(10_816.0) <= specialfn._MAX_JACOBI_NODES
        for phase in (10_817.0, 1e5, np.inf, np.nan):
            with pytest.raises(ValueError, match="lam \\* rho"):
                specialfn._node_count(phase)

        def no_rule(*args):
            raise AssertionError("rule built")

        monkeypatch.setattr(specialfn, "_gauss_jacobi", no_rule)
        with pytest.raises(ValueError, match="lam \\* rho = 100000 "):
            spherical_function(1e5, 1.0, 11)
        with pytest.raises(ValueError, match="lam \\* rho"):
            phi_matrix(np.array([0.0, 4e4]), np.array([0.5, 1.0]), 11)


class TestDimensionCheck:
    # one check for every public function of specialfn (and the kernels):
    # an integer n >= 2, numpy integers included, bools excluded
    CALLS = {
        "harish_chandra_c": lambda n: harish_chandra_c(1.5, n),
        "plancherel_density": lambda n: plancherel_density(1.5, n),
        "spherical_function": lambda n: spherical_function(1.5, 0.5, n),
        "spherical_function_sphere_average": lambda n: spherical_function_sphere_average(1.5, 0.5, n),
        "phi_matrix": lambda n: phi_matrix(np.array([0.0, 1.5]), np.array([0.5, 2.0]), n),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("n", [1, 0, -3, 2.5, 3.0, True, np.bool_(True), "3", None])
    def test_rejects_bad_dimension(self, name, n):
        with pytest.raises(ValueError, match="integer dimension"):
            self.CALLS[name](n)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_numpy_integer_accepted(self, name):
        for n in (2, 3, 4):
            assert np.array_equal(self.CALLS[name](np.int64(n)), self.CALLS[name](n))
