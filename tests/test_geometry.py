import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypverify.geometry import (
    BOUNDARY_TOL,
    BallPoint,
    BoundaryError,
    HalfSpacePoint,
    ball_to_halfspace,
    geodesic_distance,
    half_distance_factors,
    halfspace_distance,
    halfspace_to_ball,
    mobius_shift,
    radius_from_rho,
    rho_from_radius,
    volume_density,
)


@st.composite
def ball_vectors(draw, n=None, max_radius=0.85):
    """A point of the n-ball with |x| <= max_radius, any direction."""
    if n is None:
        n = draw(st.integers(min_value=2, max_value=5))
    comps = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    v = np.asarray(comps, dtype=float)
    norm = np.linalg.norm(v)
    r = draw(st.floats(0.0, max_radius))
    if norm < 1e-6:
        return np.zeros(n)
    return v / norm * r


@st.composite
def ball_vector_pairs(draw, count=2, max_radius=0.85):
    n = draw(st.integers(min_value=2, max_value=5))
    return tuple(draw(ball_vectors(n=n, max_radius=max_radius)) for _ in range(count))


class TestPoints:
    def test_ball_point_basic(self):
        p = BallPoint([0.3, 0.0, 0.4])
        assert p.n == 3
        assert p.radius == pytest.approx(0.5)
        assert p.rho == pytest.approx(2.0 * np.arctanh(0.5))

    def test_coords_frozen(self):
        p = BallPoint([0.1, 0.2])
        with pytest.raises(ValueError):
            p.coords[0] = 0.9

    def test_boundary_rejection(self):
        with pytest.raises(BoundaryError):
            BallPoint([1.0, 0.0])
        with pytest.raises(BoundaryError):
            BallPoint([0.0, 1.0 - 0.1 * BOUNDARY_TOL])
        with pytest.raises(BoundaryError):
            HalfSpacePoint([0.0, 1.0])
        with pytest.raises(BoundaryError):
            HalfSpacePoint([-0.5, 0.0])
        # comfortably interior points are fine
        BallPoint([0.0, 1.0 - 1e-6])
        HalfSpacePoint([1e-6, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BallPoint([np.nan, 0.0])
        with pytest.raises(ValueError):
            HalfSpacePoint([np.inf, 0.0])

    def test_halfspace_height(self):
        q = HalfSpacePoint([2.0, -1.0, 5.0])
        assert q.height == 2.0
        assert q.n == 3


class TestMobiusShift:
    @given(ball_vector_pairs())
    @settings(max_examples=200, deadline=None)
    def test_involution(self, pair):
        a, x = pair
        back = mobius_shift(a, mobius_shift(a, x))
        assert np.allclose(back, x, atol=1e-12)

    @given(ball_vector_pairs())
    @settings(max_examples=200, deadline=None)
    def test_norm_identity(self, pair):
        # 1 - |T_a(x)|^2 = (1-|a|^2)(1-|x|^2) / (|x-a|^2 + (1-|a|^2)(1-|x|^2))
        a, x = pair
        t = mobius_shift(a, x)
        lhs = 1.0 - t @ t
        oma = 1.0 - a @ a
        omx = 1.0 - x @ x
        den = np.sum((x - a) ** 2) + oma * omx
        assert lhs == pytest.approx(oma * omx / den, rel=1e-11)

    @given(ball_vectors())
    @settings(max_examples=100, deadline=None)
    def test_shift_swaps_center_and_origin(self, a):
        n = a.size
        assert np.allclose(mobius_shift(a, a), np.zeros(n), atol=1e-13)
        assert np.allclose(mobius_shift(a, np.zeros(n)), a, atol=1e-13)

    @given(ball_vectors())
    @settings(max_examples=100, deadline=None)
    def test_zero_shift_is_antipode(self, x):
        assert np.allclose(mobius_shift(np.zeros(x.size), x), -x, atol=1e-14)

    @given(ball_vector_pairs(count=3))
    @settings(max_examples=150, deadline=None)
    def test_distance_invariance(self, triple):
        a, x, y = triple
        d0 = geodesic_distance(x, y)
        d1 = geodesic_distance(mobius_shift(a, x), mobius_shift(a, y))
        assert d1 == pytest.approx(d0, rel=1e-10, abs=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-0.3, 0.3, size=3)
        x = rng.uniform(-0.4, 0.4, size=(7, 5, 3))
        out = mobius_shift(a, x)
        assert out.shape == x.shape
        for i in range(7):
            for j in range(5):
                assert np.allclose(out[i, j], mobius_shift(a, x[i, j]))

    def test_ball_point_roundtrips_type(self):
        p = BallPoint([0.2, -0.1, 0.05])
        out = mobius_shift(np.array([0.1, 0.0, 0.0]), p)
        assert isinstance(out, BallPoint)

    def test_rejects_outside(self):
        with pytest.raises(BoundaryError):
            mobius_shift(np.array([1.5, 0.0]), np.array([0.1, 0.1]))
        with pytest.raises(BoundaryError):
            mobius_shift(np.array([0.1, 0.0]), np.array([1.0, 0.5]))


class TestDistances:
    @given(st.floats(0.0, 0.95), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_distance_to_origin(self, r, n):
        x = np.zeros(n)
        x[0] = r
        assert geodesic_distance(np.zeros(n), x) == pytest.approx(
            2.0 * np.arctanh(r), abs=1e-13
        )

    @given(ball_vector_pairs())
    @settings(max_examples=150, deadline=None)
    def test_half_factors_consistent(self, pair):
        x, y = pair
        s, c = half_distance_factors(x, y)
        assert c * c - s * s == pytest.approx(1.0, rel=1e-12)
        d = geodesic_distance(x, y)
        assert np.sinh(d / 2.0) == pytest.approx(s, rel=1e-10, abs=1e-13)

    @given(ball_vector_pairs())
    @settings(max_examples=150, deadline=None)
    def test_sinh_half_matches_shifted_radius(self, pair):
        # |T_y(x)| read through 2 atanh gives the same distance
        x, y = pair
        t = mobius_shift(y, x)
        rho = 2.0 * np.arctanh(np.linalg.norm(t))
        assert geodesic_distance(x, y) == pytest.approx(rho, rel=1e-10, abs=1e-12)

    @given(ball_vector_pairs(count=3))
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, triple):
        x, y, z = triple
        dxz = geodesic_distance(x, z)
        assert dxz <= geodesic_distance(x, y) + geodesic_distance(y, z) + 1e-12

    @given(ball_vector_pairs())
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, pair):
        x, y = pair
        assert geodesic_distance(x, y) == pytest.approx(
            geodesic_distance(y, x), rel=1e-14, abs=1e-15
        )

    def test_halfspace_vertical_geodesic(self):
        # on the vertical axis the distance is |log(a/b)|
        for a, b in [(1.0, 2.0), (0.25, 4.0), (3.0, 3.0)]:
            p = np.array([a, 0.0, 0.0])
            q = np.array([b, 0.0, 0.0])
            assert halfspace_distance(p, q) == pytest.approx(
                abs(np.log(a / b)), abs=1e-13
            )

    def test_halfspace_distance_batched(self):
        rng = np.random.default_rng(3)
        x = np.abs(rng.uniform(0.5, 2.0, size=(4, 3)))
        y = np.abs(rng.uniform(0.5, 2.0, size=(4, 3)))
        d = halfspace_distance(x, y)
        assert d.shape == (4,)


class TestModelMaps:
    @given(ball_vectors())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, x):
        h = ball_to_halfspace(x)
        assert h[0] > 0.0
        back = halfspace_to_ball(h)
        assert np.allclose(back, x, atol=1e-12)

    def test_origin_to_e1(self):
        out = ball_to_halfspace(np.zeros(4))
        assert np.allclose(out, [1.0, 0.0, 0.0, 0.0])

    def test_types_roundtrip(self):
        p = BallPoint([0.3, 0.1, -0.2])
        h = ball_to_halfspace(p)
        assert isinstance(h, HalfSpacePoint)
        assert isinstance(halfspace_to_ball(h), BallPoint)

    @given(ball_vector_pairs())
    @settings(max_examples=150, deadline=None)
    def test_distances_agree_across_models(self, pair):
        x, y = pair
        d_ball = geodesic_distance(x, y)
        d_half = halfspace_distance(ball_to_halfspace(x), ball_to_halfspace(y))
        assert d_half == pytest.approx(d_ball, rel=1e-10, abs=1e-12)

    @given(ball_vectors(max_radius=0.8))
    @settings(max_examples=100, deadline=None)
    def test_height_formula(self, y):
        # first coordinate of the image is (1-|y|^2)/|y+e1|^2
        h = ball_to_halfspace(y)
        shifted = y.copy()
        shifted[0] += 1.0
        assert h[0] == pytest.approx(
            (1.0 - y @ y) / (shifted @ shifted), rel=1e-12
        )

    def test_jacobian_is_conformal(self):
        # numeric Jacobian should be (2/|y+e1|^2) times an orthogonal matrix
        rng = np.random.default_rng(11)
        h = 1e-6
        for n in (2, 3, 5):
            y = rng.uniform(-0.4, 0.4, size=n)
            jac = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                jac[:, j] = (ball_to_halfspace(y + e) - ball_to_halfspace(y - e)) / (
                    2.0 * h
                )
            shifted = y.copy()
            shifted[0] += 1.0
            s = 2.0 / (shifted @ shifted)
            gram = jac.T @ jac
            assert np.allclose(gram, s * s * np.eye(n), rtol=1e-5, atol=1e-8)
            # conformal factor and height combine to the ball metric factor
            x1 = ball_to_halfspace(y)[0]
            assert s / x1 == pytest.approx(2.0 / (1.0 - y @ y), rel=1e-12)


class TestVolumeDensity:
    def test_known_values(self):
        assert volume_density(BallPoint([0.0, 0.0, 0.0])) == pytest.approx(8.0)
        assert volume_density(HalfSpacePoint([1.0, 0.0, 0.0])) == pytest.approx(1.0)
        assert volume_density(HalfSpacePoint([2.0, 1.0, 0.0])) == pytest.approx(0.125)

    def test_raw_arrays(self):
        x = np.array([[0.0, 0.0], [0.5, 0.0]])
        out = volume_density(x, model="ball")
        assert out.shape == (2,)
        assert out[0] == pytest.approx(4.0)
        assert out[1] == pytest.approx((2.0 / 0.75) ** 2)
        with pytest.raises(ValueError):
            volume_density(x)

    @given(ball_vectors(n=3))
    @settings(max_examples=100, deadline=None)
    def test_models_agree(self, y):
        # pushforward of ball volume equals half-space volume:
        # density_ball(y) = density_half(T y) * |det DT|, det = s^n
        shifted = y.copy()
        shifted[0] += 1.0
        s = 2.0 / (shifted @ shifted)
        lhs = volume_density(y, model="ball")
        rhs = volume_density(ball_to_halfspace(y), model="halfspace") * s**3
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestRadialCoordinates:
    @given(st.floats(0.0, 12.0))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, rho):
        # atanh amplifies rounding by 1/(1-r^2) ~ e^rho, hence the cap on rho
        assert rho_from_radius(radius_from_rho(rho)) == pytest.approx(
            rho, rel=1e-12, abs=1e-10
        )

    def test_bounds(self):
        with pytest.raises(BoundaryError):
            rho_from_radius(1.0)
        with pytest.raises(BoundaryError):
            rho_from_radius(-0.1)


def test_shift_invariance_of_integral_n2():
    # quadrature check that the volume element is Mobius invariant: for
    # f = exp(-d(x,0)^2) on the plane model, integrating f(T_a x) gives
    # the same number as integrating f
    S = 12.0
    ns, nt = 160, 256
    s_nodes, s_weights = np.polynomial.legendre.leggauss(ns)
    s = 0.5 * S * (s_nodes + 1.0)
    ws = 0.5 * S * s_weights
    t = np.arange(nt) * (2.0 * np.pi / nt)
    wt = 2.0 * np.pi / nt

    u = np.tanh(s / 2.0)
    pts = np.stack(
        [
            np.outer(u, np.cos(t)),
            np.outer(u, np.sin(t)),
        ],
        axis=-1,
    )  # (ns, nt, 2)
    jac = np.sinh(s)[:, None] * ws[:, None] * wt

    a = np.array([0.35, -0.2])
    f_plain = np.exp(-(geodesic_distance(pts, np.zeros(2)) ** 2))
    f_shift = np.exp(-(geodesic_distance(mobius_shift(a, pts), np.zeros(2)) ** 2))

    i_plain = float(np.sum(f_plain * jac))
    i_shift = float(np.sum(f_shift * jac))
    assert i_shift == pytest.approx(i_plain, rel=1e-6)
