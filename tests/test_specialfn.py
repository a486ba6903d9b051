import math
import warnings

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestPhiMatrix:
    def test_matches_elementwise(self):
        lam = np.linspace(0.0, 30.0, 40)
        rho = np.linspace(0.01, 10.0, 35)
        mat = phi_matrix(lam, rho, 4)
        assert mat.shape == (40, 35)
        spot = spherical_function(lam[:, None], rho[None, :], 4)
        assert np.allclose(mat, spot, rtol=1e-10, atol=1e-12)

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
    ODD_TOL = {3: 5e-15, 5: 5e-14, 7: 5e-13, 9: 5e-12, 11: 2e-11, 13: 2e-11, 21: 5e-11}

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
        # phi = 2F1((n-1)/4 + i lam/4, (n-1)/4 - i lam/4; n/2; -sinh^2 rho),
        # probed at rho = 0, lam = 0, both sides of the series/ladder seam
        # rho^2 + (lam rho/2)^2 = 1/2, lam up to 1000 and rho up to 48.
        # The quadrature of n > 9 would need 18 000 nodes at lam = 1000,
        # rho = 48 (15 s), so that probe is kept for the closed form only.
        mp = pytest.importorskip("mpmath")

        def exact(lam, rho):
            with mp.workdps(30):
                a = mp.mpf(n - 1) / 4
                b = 1j * mp.mpf(lam) / 4
                z = -mp.sinh(mp.mpf(rho)) ** 2
                return float(mp.re(mp.hyp2f1(a + b, a - b, mp.mpf(n) / 2, z)))

        probes = [(0.0, 0.0), (7.0, 0.0), (1000.0, 0.0), (0.0, 1e-3), (0.0, 0.3),
                  (0.0, 0.7), (0.0, 0.72), (0.0, 3.0), (0.0, 48.0), (1000.0, 1e-3),
                  (1000.0, 1.0), (30.0, 48.0), (200.0, 12.0)]
        if n <= 9:
            probes.append((1000.0, 48.0))
        for rho in (0.05, 0.3, 0.6):
            t = math.sqrt(0.5 - rho * rho)
            probes += [(2.0 * t * f / rho, rho) for f in (0.999, 1.001)]
        for lam, rho in probes:
            got = phi_matrix(np.array([lam]), np.array([rho]), n)[0, 0]
            err = abs(got - exact(lam, rho)) / exact(0.0, rho)
            assert err < self.ODD_TOL[n], (lam, rho, float(err))

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_large_rho_finite(self, n):
        # sinh(800) overflows a double; the closed form never forms it
        lam = np.array([0.0, 1.0, 40.0])
        rho = np.array([1.0, 48.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                mat = phi_matrix(lam, rho, n)
        assert np.all(np.isfinite(mat))
        phi0 = mat[0]
        assert np.all(np.abs(mat) <= phi0 * (1.0 + 1e-12))
