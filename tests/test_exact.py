import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypverify.exact import (
    LaurentElement,
    Poly,
    ball_conjugation_numeric_check,
    ball_laplace_beltrami,
    evaluate_rows,
    gjms_operator,
    halfspace_conjugation_monomial_check,
    ladder,
    sinh_expansion_coefficients,
    verify_sinh_derivative_recursion,
)

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


class TestLaurentElement:
    def test_cosh_square_reduction(self):
        # cosh^2 enters as 1 + sinh^2, giving a canonical form
        e = LaurentElement({(0, 2): 1})
        assert e == LaurentElement({(0, 0): 1, (2, 0): 1})
        e = LaurentElement({(-3, 3): 2})
        assert e == LaurentElement({(-3, 1): 2, (-1, 1): 2})

    def test_zero_terms_drop(self):
        e = LaurentElement({(1, 0): 1}) - LaurentElement({(1, 0): 1})
        assert e.terms == {}
        assert e == LaurentElement()

    def test_multiplication_numeric(self):
        a = LaurentElement({(2, 1): Fraction(1, 3), (0, 0): 2})
        b = LaurentElement({(-1, 1): 5})
        rho = np.linspace(0.3, 2.5, 7)
        assert np.allclose(
            (a * b).evaluate(rho), a.evaluate(rho) * b.evaluate(rho), rtol=1e-13
        )

    def test_scalar_multiplication(self):
        a = LaurentElement({(1, 1): 3})
        assert (a * Fraction(1, 2)).coefficient(1, 1) == Fraction(3, 2)
        assert (2 * a).coefficient(1, 1) == 6

    @given(st.integers(-4, 4), st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_derivative_matches_fd(self, p, eps):
        e = LaurentElement({(p, eps): 1})
        d = e.derivative()
        rho = np.linspace(0.5, 2.0, 5)
        h = 1e-6
        fd = (e.evaluate(rho + h) - e.evaluate(rho - h)) / (2 * h)
        assert np.allclose(d.evaluate(rho), fd, rtol=1e-8, atol=1e-8)

    def test_ladder_iterates(self):
        # -(1/sinh) d/drho applied to 1/sinh, first four iterates
        g = LaurentElement.inv_sinh()
        g1 = g.apply_inv_sinh_derivative()
        assert g1 == LaurentElement({(-3, 1): 1})
        g2 = g1.apply_inv_sinh_derivative()
        assert g2 == LaurentElement({(-3, 0): 2, (-5, 0): 3})
        g3 = g2.apply_inv_sinh_derivative()
        assert g3 == LaurentElement({(-5, 1): 6, (-7, 1): 15})
        g4 = g3.apply_inv_sinh_derivative()
        assert g4 == LaurentElement({(-5, 0): 24, (-7, 0): 120, (-9, 0): 105})

    def test_ladder_matches_numeric(self):
        e = LaurentElement({(2, 0): 1, (0, 1): Fraction(1, 2)})
        out = e.apply_inv_sinh_derivative()
        rho = np.linspace(0.4, 2.0, 9)
        h = 1e-6
        fd = -(e.evaluate(rho + h) - e.evaluate(rho - h)) / (2 * h) / np.sinh(rho)
        assert np.allclose(out.evaluate(rho), fd, rtol=1e-8)

    def test_repr_runs(self):
        assert "sinh" in repr(LaurentElement({(-3, 1): 2}))
        assert repr(LaurentElement()) == "LaurentElement(0)"


class TestLadder:
    # The engine's terms against mpmath differentiation of the seed itself:
    # in u = cosh rho the ladder L = -(1/sinh) d/drho is -d/du, so
    # L^m f(rho) = (-1)^m (d/du)^m f(arccosh u).  The spherical case runs
    # the e^(-kappa rho) terms at kappa = i k and compares the real part
    # with L^m cos(k rho).
    SEEDS = {
        "resolvent": (1, -1, 0.8, lambda mp, r: mp.exp(-0.8 * r) / mp.sinh(r)),
        "green": (1, -1, 0.0, lambda mp, r: 1 / mp.sinh(r)),
        "heat": (2, 0, 0.9, lambda mp, r: mp.exp(-0.9 * r * r)),
        "spherical": (1, 0, 0.6j, lambda mp, r: mp.cos(0.6 * r)),
    }

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", sorted(SEEDS))
    def test_against_numerical_differentiation(self, seed, m):
        mp = pytest.importorskip("mpmath")
        a, start, kappa, f = self.SEEDS[seed]
        rho = np.array([0.3, 1.1, 2.5])
        terms = ladder(a, m, start)
        rows = evaluate_rows([[(1.0, elem)] for _, elem in terms], rho)
        got = sum(kappa**q * rho**u * row for ((q, u), _), row in zip(terms, rows))
        got = (got * np.exp(-kappa * rho**a)).real
        with mp.workdps(40):
            want = [
                float(mp.re((-1) ** m * mp.diff(lambda u: f(mp, mp.acosh(u)), mp.cosh(r), m)))
                for r in rho
            ]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_evaluate_is_overflow_free(self):
        # coth sinh^(p+1) in place of cosh sinh^p, and 1/sinh from e^(-rho)
        e = LaurentElement({(-3, 1): 2, (-5, 0): 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                vals = e.evaluate(np.array([1e-6, 1.0, 800.0]))
        assert vals[2] == 0.0
        assert vals[1] == pytest.approx(2 * math.cosh(1) / math.sinh(1) ** 3 + math.sinh(1) ** -5)


class TestSinhRecursion:
    def test_known_rows(self):
        assert sinh_expansion_coefficients(0) == (1,)
        assert sinh_expansion_coefficients(1) == (2, 3)
        assert sinh_expansion_coefficients(2) == (24, 120, 105)

    def test_leading_and_trailing(self):
        for k in range(1, 9):
            a = sinh_expansion_coefficients(k)
            assert a[0] == math.factorial(2 * k)
            tail = 1
            for l in range(k):
                tail *= (4 * l + 1) * (4 * l + 3)
            assert a[-1] == tail
            assert all(x > 0 for x in a)

    def test_recursion_against_symbolic_ladder(self):
        assert verify_sinh_derivative_recursion(k_max=8)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sinh_expansion_coefficients(-1)


class TestHalfspaceMonomialConjugation:
    def test_sweep_exact(self):
        for n in range(3, 13):
            for k in range(1, 5):
                for m in range(0, 7):
                    lhs, rhs = halfspace_conjugation_monomial_check(n, k, m)
                    assert lhs == rhs, (n, k, m)

    def test_degenerate_zero(self):
        # n = 4, k = 1, m = 1 sits on the kernel of the conjugated operator
        lhs, rhs = halfspace_conjugation_monomial_check(4, 1, 1)
        assert lhs == 0
        assert rhs == 0

    def test_values_are_fractions(self):
        lhs, rhs = halfspace_conjugation_monomial_check(5, 2, 3)
        assert isinstance(lhs, Fraction)
        assert isinstance(rhs, Fraction)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            halfspace_conjugation_monomial_check(5, 0, 1)


def weighted_laplacian_conjugation_check(n, m, alpha):
    """Zeroth-order bookkeeping of conjugating by a power of the height.

    For u = x1^m and weight x1^alpha the second-order coefficient
    identity reads

        (m - alpha)(m - alpha - 1)
            = m(m - n + 1) + alpha(alpha + 1) + (n - 2 - 2 alpha) m.

    The dimension n cancels; both sides are returned as Fractions (exact
    floats convert without rounding).
    """
    n, m, alpha = (Fraction(x) for x in (n, m, alpha))
    lhs = (m - alpha) * (m - alpha - 1)
    rhs = m * (m - n + 1) + alpha * (alpha + 1) + (n - 2 - 2 * alpha) * m
    return lhs, rhs


class TestWeightedLaplacianConjugation:
    @given(small_fractions, small_fractions, st.integers(2, 12))
    @settings(max_examples=150, deadline=None)
    def test_identity(self, m, alpha, n):
        lhs, rhs = weighted_laplacian_conjugation_check(n, m, alpha)
        assert lhs == rhs

    @given(small_fractions, small_fractions)
    @settings(max_examples=50, deadline=None)
    def test_dimension_cancels(self, m, alpha):
        l3, r3 = weighted_laplacian_conjugation_check(3, m, alpha)
        l9, r9 = weighted_laplacian_conjugation_check(9, m, alpha)
        assert l3 == l9 == r3 == r9

    def test_accepts_exact_floats(self):
        lhs, rhs = weighted_laplacian_conjugation_check(4, 2, 0.5)
        assert lhs == rhs == Fraction(3, 4)


class TestPoly:
    def test_arithmetic(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        p = (x + y) * (x - y)
        assert p == Poly(2, {(2, 0): 1, (0, 2): -1})

    def test_laplacian_of_radius_squared(self):
        for n in (2, 3, 5):
            r2 = Poly.radius_squared(n)
            assert r2.laplacian() == Poly.constant(n, 2 * n)

    def test_euler_scales_by_degree(self):
        p = Poly(3, {(2, 1, 0): Fraction(5)})
        assert p.euler() == Poly(3, {(2, 1, 0): Fraction(15)})

    def test_evaluate_batched(self):
        p = Poly(2, {(1, 0): 1, (0, 2): Fraction(1, 2)})
        x = np.array([[1.0, 2.0], [0.0, 4.0], [3.0, 0.0]])
        assert np.allclose(p.evaluate(x), [3.0, 8.0, 3.0])

    def test_ball_laplacian_at_origin(self):
        # at x = 0 the conformal factors are 1, so the hyperbolic and
        # flat Laplacians of x1^2 agree there
        p = Poly(3, {(2, 0, 0): 1})
        val = ball_laplace_beltrami(p).evaluate(np.zeros(3))
        assert val == pytest.approx(2.0 * 0.25)

    def test_exponent_length_mismatch(self):
        with pytest.raises(ValueError):
            Poly(2, {(1, 0, 0): 1})


class TestGjmsOperator:
    def test_first_operator_on_constant(self):
        # P_1 1 = -n(n-2)/4 since Delta_H 1 = 0
        for n in (3, 4, 5):
            one = Poly.constant(n, 1)
            assert gjms_operator(one, 1) == Poly.constant(n, Fraction(-n * (n - 2), 4))

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            gjms_operator(Poly.constant(3, 1), 0)


class TestBallConjugation:
    def test_k1_n3_constant(self):
        err = ball_conjugation_numeric_check(3, 1, f=Poly.constant(3, 1))
        assert err < 1e-6

    def test_k1_n3_generic(self):
        f = Poly.constant(3, 1) + Poly.variable(3, 0) + Poly(3, {(0, 2, 0): 1})
        err = ball_conjugation_numeric_check(3, 1, f=f)
        assert err < 1e-6

    def test_k1_n5(self):
        f = Poly.variable(5, 0) * Poly.variable(5, 1) + Poly.constant(5, 2)
        err = ball_conjugation_numeric_check(5, 1, f=f)
        assert err < 1e-6

    def test_k2_n4_polynomial_weight(self):
        # k - n/2 = 0 here, so the inner weight is 1 and the finite
        # differences act on a plain polynomial
        f = Poly.constant(4, 1) + Poly.radius_squared(4)
        err = ball_conjugation_numeric_check(4, 2, f=f)
        assert err < 1e-7

    def test_k2_n5(self):
        err = ball_conjugation_numeric_check(5, 2, f=Poly.constant(5, 1))
        assert err < 1e-4

    def test_k2_n3(self):
        f = Poly.constant(3, 1) + Poly.variable(3, 1)
        err = ball_conjugation_numeric_check(3, 2, f=f)
        assert err < 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ball_conjugation_numeric_check(3, 1, f=Poly.constant(4, 1))
