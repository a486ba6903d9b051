"""Ball and half-space models of real hyperbolic space.

Coordinates, distances, Mobius self-maps of the ball, and the conformal
identification of the two models.  Distance formulas are written in
cancellation-free form (differences of squares are never expanded), so
they stay accurate for nearby points and for points far from the
origin.  Points close to the model boundary are rejected outright
rather than clamped; see ``BOUNDARY_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Points with 1 - |x|^2 (ball) or x_1 (half-space) below this are
# refused.  Every formula in this module loses all precision in that
# regime, so silently accepting such points would produce garbage.
BOUNDARY_TOL = 1e-9


class BoundaryError(ValueError):
    """Raised for points outside the open model domain or too close to its boundary."""


def _validated_coords(raw, kind: str) -> np.ndarray:
    c = np.array(raw, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise ValueError(f"{kind} coordinates must form a 1-d array of length >= 2")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"{kind} coordinates must be finite")
    return c


@dataclass(frozen=True, eq=False)
class BallPoint:
    """Point of the unit-ball model, |x| < 1."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        c = _validated_coords(self.coords, "ball")
        if float(c @ c) > (1.0 - BOUNDARY_TOL) ** 2:
            raise BoundaryError(
                f"|x| = {float(np.linalg.norm(c)):.17g} is not inside the open unit ball"
            )
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.coords.size

    @property
    def radius(self) -> float:
        return float(np.linalg.norm(self.coords))

    @property
    def rho(self) -> float:
        """Geodesic distance to the origin, 2 atanh |x|."""
        return 2.0 * float(np.arctanh(self.radius))


@dataclass(frozen=True, eq=False)
class HalfSpacePoint:
    """Point of the upper half-space model, first coordinate > 0."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        c = _validated_coords(self.coords, "half-space")
        if c[0] < BOUNDARY_TOL:
            raise BoundaryError(f"height x_1 = {c[0]:.17g} is not positive")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.coords.size

    @property
    def height(self) -> float:
        return float(self.coords[0])


def _coords(x) -> np.ndarray:
    if isinstance(x, (BallPoint, HalfSpacePoint)):
        return x.coords
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise ValueError("expected coordinates along the last axis, length >= 2")
    return arr


def _check_in_ball(c: np.ndarray) -> None:
    r2 = np.sum(c * c, axis=-1)
    if np.any(r2 > (1.0 - BOUNDARY_TOL) ** 2):
        raise BoundaryError("point(s) outside the open unit ball")


def _check_in_halfspace(c: np.ndarray) -> None:
    if np.any(c[..., 0] < BOUNDARY_TOL):
        raise BoundaryError("point(s) with non-positive height")


def mobius_shift(a, x):
    """Mobius self-map T_a of the ball model, sending a to the origin.

        T_a(x) = (|x-a|^2 a - (1-|a|^2)(x-a)) / (|x-a|^2 + (1-|a|^2)(1-|x|^2))

    The denominator equals 1 - 2 x.a + |x|^2 |a|^2, rewritten so it is a
    sum of nonnegative terms.  T_a is an involution and a hyperbolic
    isometry.  ``x`` may carry leading batch axes; coordinates live on
    the last axis.  Returns a ``BallPoint`` when ``x`` is one.
    """
    ac = _coords(a)
    if ac.ndim != 1:
        raise ValueError("the shift center must be a single point")
    _check_in_ball(ac)
    xc = _coords(x)
    _check_in_ball(xc)

    xa = xc - ac
    q = np.sum(xa * xa, axis=-1, keepdims=True)
    oma = 1.0 - float(ac @ ac)
    omx = 1.0 - np.sum(xc * xc, axis=-1, keepdims=True)
    out = (q * ac - oma * xa) / (q + oma * omx)
    if isinstance(x, BallPoint):
        return BallPoint(out)
    return out


def half_distance_factors(x, y):
    """sinh and cosh of half the ball-model distance between x and y.

    With g = (1-|x|^2)(1-|y|^2):

        sinh(d/2) = |x-y| / sqrt(g)
        cosh(d/2) = sqrt(|x-y|^2 + g) / sqrt(g)

    Both are exact up to rounding; no large-term cancellation occurs.
    Inputs broadcast over leading axes.
    """
    xc = _coords(x)
    yc = _coords(y)
    _check_in_ball(xc)
    _check_in_ball(yc)
    diff = xc - yc
    d2 = np.sum(diff * diff, axis=-1)
    omx = 1.0 - np.sum(xc * xc, axis=-1)
    omy = 1.0 - np.sum(yc * yc, axis=-1)
    g = omx * omy
    sinh_half = np.sqrt(d2 / g)
    cosh_half = np.sqrt((d2 + g) / g)
    return sinh_half, cosh_half


def geodesic_distance(x, y):
    """Hyperbolic distance between two points of the ball model."""
    sinh_half, _ = half_distance_factors(x, y)
    return 2.0 * np.arcsinh(sinh_half)


def halfspace_distance(x, y):
    """Hyperbolic distance in the half-space model.

    Uses sinh(d/2) = |x-y| / (2 sqrt(x_1 y_1)), the stable form of
    cosh d = 1 + |x-y|^2 / (2 x_1 y_1).
    """
    xc = _coords(x)
    yc = _coords(y)
    _check_in_halfspace(xc)
    _check_in_halfspace(yc)
    diff = xc - yc
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    sinh_half = d / (2.0 * np.sqrt(xc[..., 0] * yc[..., 0]))
    return 2.0 * np.arcsinh(sinh_half)


def _inversion_about_minus_e1(c: np.ndarray) -> np.ndarray:
    # x -> -e1 + 2 (x + e1) / |x + e1|^2, a self-inverse conformal map
    # exchanging the ball and the upper half-space.
    shifted = np.array(c, dtype=float)
    shifted[..., 0] += 1.0
    q = np.sum(shifted * shifted, axis=-1, keepdims=True)
    out = 2.0 * shifted / q
    out[..., 0] -= 1.0
    return out


def ball_to_halfspace(x):
    """Map a ball-model point to the half-space model.

    The identification is inversion through the boundary point -e1:
    0 goes to e1, the boundary sphere to the hyperplane {x_1 = 0}, and
    hyperbolic distances are preserved.  Conformal factor 2/|x+e1|^2.
    """
    xc = _coords(x)
    _check_in_ball(xc)
    out = _inversion_about_minus_e1(xc)
    if isinstance(x, BallPoint):
        return HalfSpacePoint(out)
    return out


def halfspace_to_ball(x):
    """Map a half-space point to the ball model (inverse of ``ball_to_halfspace``)."""
    xc = _coords(x)
    _check_in_halfspace(xc)
    out = _inversion_about_minus_e1(xc)
    if isinstance(x, HalfSpacePoint):
        return BallPoint(out)
    return out


def volume_density(p, model: str | None = None):
    """Density of hyperbolic volume against Lebesgue measure at a point.

    Ball model: (2/(1-|x|^2))^n.  Half-space model: x_1^(-n).  Pass a
    ``BallPoint``/``HalfSpacePoint``, or a coordinate array together
    with ``model`` in {"ball", "halfspace"} (batched arrays allowed).
    """
    if isinstance(p, BallPoint):
        c, model = p.coords, "ball"
    elif isinstance(p, HalfSpacePoint):
        c, model = p.coords, "halfspace"
    else:
        if model not in ("ball", "halfspace"):
            raise ValueError("model must be 'ball' or 'halfspace' for raw coordinates")
        c = _coords(p)
    n = c.shape[-1]
    if model == "ball":
        _check_in_ball(c)
        return (2.0 / (1.0 - np.sum(c * c, axis=-1))) ** n
    _check_in_halfspace(c)
    return c[..., 0] ** (-float(n))


def radius_from_rho(rho):
    """Ball-model radius tanh(rho/2) of the sphere at geodesic distance rho."""
    return np.tanh(np.asarray(rho, dtype=float) / 2.0)


def rho_from_radius(r):
    """Geodesic distance 2 atanh(r) of the Euclidean sphere of radius r < 1."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0 - BOUNDARY_TOL):
        raise BoundaryError("radius must lie in [0, 1)")
    return 2.0 * np.arctanh(r)
