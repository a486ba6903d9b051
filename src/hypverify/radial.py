"""Radial grids, quadrature, differentiation, and convolution.

Radial profiles are sampled on composite Gauss-Legendre grids whose
panels are graded toward rho = 0 (integrable kernel singularities live
there) and uniform farther out.  Integration always carries the
hyperbolic surface weight |S^(n-1)| sinh(rho)^(n-1); convolution is the
rotation-invariant pairing

    (f * g)(x) = int f(y) g(d(x, y)) dV(y)

reduced to a double integral over the radius of y and the angle between
x and y.  The distance under the integral is computed through
cosh(d) - 1 written as a sum of two nonnegative terms, which keeps
short distances fully accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n, 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Quadrature nodes and weights on [0, rho_max] (plain d rho weights)."""

    nodes: np.ndarray
    weights: np.ndarray
    rho_max: float

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(np.diff(nodes) <= 0) or nodes[0] <= 0:
            raise ValueError("nodes must be strictly increasing and positive")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rho_max", float(self.rho_max))

    @property
    def size(self) -> int:
        return self.nodes.size


# Gauss-Legendre nodes per panel of the radial and spectral grids
_GRID_ORDER = 8
_RADIAL_INNER = 1e-4


def _panel_nodes(bounds: np.ndarray, order: int):
    # composite Gauss-Legendre rule, ``order`` nodes on each [bounds[i], bounds[i+1]]
    x, w = roots_legendre(order)
    lo = bounds[:-1]
    hi = bounds[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _graded_bounds(top: float, num_nodes: int, inner: float, order: int) -> np.ndarray:
    # panel edges on [0, top]: [0, inner], geometric panels to 1, then
    # uniform panels; about num_nodes / order panels in all
    panels = max(4, num_nodes // order)
    if top <= 1.0:
        return np.concatenate([[0.0], np.geomspace(inner, top, panels)])
    rest = panels - 1
    n_geo = rest // 2
    n_uni = rest - n_geo
    geo = np.geomspace(inner, 1.0, n_geo + 1)
    uni = np.linspace(1.0, top, n_uni + 1)
    return np.concatenate([[0.0], geo, uni[1:]])


def make_radial_grid(
    rho_max: float = 20.0,
    num_nodes: int = 2048,
    kind: str = "graded",
) -> RadialGrid:
    """Composite quadrature grid on [0, rho_max].

    ``graded`` (the default): one panel [0, 1e-4], geometrically
    growing panels from 1e-4 to 1, then uniform panels out to
    ``rho_max``, each carrying 8 Gauss-Legendre nodes.  The
    grading resolves integrands that behave like a power of rho at the
    origin.  ``uniform``: midpoint nodes with equal spacing, used by
    the finite-difference convergence tests where self-similar
    refinement matters more than quadrature accuracy.
    """
    if rho_max <= 0:
        raise ValueError("rho_max must be positive")
    if kind == "uniform":
        h = rho_max / num_nodes
        nodes = (np.arange(num_nodes) + 0.5) * h
        weights = np.full(num_nodes, h)
        return RadialGrid(nodes, weights, rho_max)
    if kind != "graded":
        raise ValueError("kind must be 'graded' or 'uniform'")

    bounds = _graded_bounds(rho_max, num_nodes, _RADIAL_INNER, _GRID_ORDER)
    nodes, weights = _panel_nodes(bounds, _GRID_ORDER)
    return RadialGrid(nodes, weights, rho_max)


def integrate_radial(values, grid: RadialGrid, n: int) -> float:
    """Integral over H^n of a radial profile sampled on the grid.

    |S^(n-1)| * sum_i w_i values_i sinh(rho_i)^(n-1).  Batched values
    integrate along the last axis.
    """
    values = np.asarray(values, dtype=float)
    w = grid.weights * np.sinh(grid.nodes) ** (n - 1)
    out = sphere_area(n) * (values @ w)
    return float(out) if out.ndim == 0 else out


def lp_norm(values, grid: RadialGrid, n: int, p: float) -> float:
    """L^p norm against hyperbolic volume; p = inf gives the sup over nodes."""
    values = np.asarray(values, dtype=float)
    if np.isinf(p):
        return float(np.max(np.abs(values)))
    if p <= 0:
        raise ValueError("p must be positive")
    return float(integrate_radial(np.abs(values) ** p, grid, n)) ** (1.0 / p)


def as_callable(values, grid: RadialGrid):
    """Interpolate grid samples as a function of distance.

    Cubic spline in the variable cosh(rho), in which smooth radial
    (hence even) profiles are smooth; evaluates to 0 beyond rho_max.
    """
    x = np.cosh(grid.nodes)
    spline = CubicSpline(x, np.asarray(values, dtype=float))
    x_lo, x_hi = x[0], x[-1]

    def evaluate(rho):
        u = np.cosh(np.asarray(rho, dtype=float))
        out = spline(np.clip(u, x_lo, x_hi))
        return np.where(u > x_hi, 0.0, out)

    return evaluate


def _fornberg_weights(x0: float, xs: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for derivatives 0..m at x0 on nodes xs."""
    k = len(xs)
    c = np.zeros((k, m + 1))
    c1 = 1.0
    c4 = xs[0] - x0
    c[0, 0] = 1.0
    for i in range(1, k):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for s in range(mn, 0, -1):
                    c[i, s] = c1 * (s * c[i - 1, s - 1] - c5 * c[i - 1, s]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for s in range(mn, 0, -1):
                c[j, s] = (c4 * c[j, s] - s * c[j, s - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def _coth_minus_inv(rho: np.ndarray) -> np.ndarray:
    # coth(rho) - 1/rho, series below 1e-3 to dodge the 1/rho cancellation
    rho = np.asarray(rho, dtype=float)
    out = np.empty_like(rho)
    small = rho < 1e-3
    rs = rho[small]
    out[small] = rs / 3.0 - rs**3 / 45.0 + 2.0 * rs**5 / 945.0
    rb = rho[~small]
    out[~small] = np.cosh(rb) / np.sinh(rb) - 1.0 / rb
    return out


_FIT_WINDOW = 0.05


def radial_laplacian(values, grid: RadialGrid, n: int, order: int = 6) -> np.ndarray:
    """Radial part f'' + (n-1) coth(rho) f' of the hyperbolic Laplacian.

    Differentiation uses Fornberg stencils of width order+1 on the
    nonuniform grid, with the profile extended evenly through rho = 0.
    Nodes below rho = 0.05 (when at least 8 of them exist) are
    instead handled by an even polynomial fit, which evaluates
    f'/rho without dividing by rho; the innermost nodes would otherwise
    amplify rounding by 1/rho.  ``order`` = 2 gives the classical
    3-point stencil for convergence studies.
    """
    values = np.asarray(values, dtype=float)
    rho = grid.nodes
    if values.shape != rho.shape:
        raise ValueError("values must be sampled on the grid nodes")
    if order not in (2, 6):
        raise ValueError("order must be 2 or 6")
    width = order + 1
    half = width // 2
    N = rho.size
    if N < width:
        raise ValueError("grid too small for the stencil")

    out = np.empty_like(values)
    done = np.zeros(N, dtype=bool)

    fit_mask = rho < _FIT_WINDOW
    n_fit = int(fit_mask.sum())
    if n_fit >= 8:
        rs = rho[fit_mask]
        scale = rs[-1]
        # even polynomial a0 + a1 u + ... + a4 u^4 in u = (rho/scale)^2
        u = (rs / scale) ** 2
        A = np.vander(u, 5, increasing=True)
        coef, *_ = np.linalg.lstsq(A, values[fit_mask], rcond=None)
        k = np.arange(5)
        # f'(rho)/rho and f''(rho) from the fit, no 1/rho division
        upow = u[:, None] ** np.maximum(k[None, :] - 1, 0)
        fp_over_rho = (upow * (2 * k / scale**2) * coef[None, :]).sum(axis=1)
        fpp = (upow * (2 * k * (2 * k - 1) / scale**2) * coef[None, :]).sum(axis=1)
        fp = fp_over_rho * rs
        out[fit_mask] = fpp + (n - 1) * (fp_over_rho + _coth_minus_inv(rs) * fp)
        done[fit_mask] = True

    # evenly extended node/value arrays so near-zero stencils stay centered
    rho_ext = np.concatenate([-rho[half - 1 :: -1], rho])
    val_ext = np.concatenate([values[half - 1 :: -1], values])
    coth = np.cosh(rho) / np.sinh(rho)
    for i in np.nonzero(~done)[0]:
        start = min(i, N + half - width)
        xs = rho_ext[start : start + width]
        w = _fornberg_weights(rho[i], xs, 2)
        seg = val_ext[start : start + width]
        fp = float(w[:, 1] @ seg)
        fpp = float(w[:, 2] @ seg)
        out[i] = fpp + (n - 1) * coth[i] * fp
    return out


def _theta_plain(num: int, n: int):
    x, w = roots_legendre(num)
    theta = 0.5 * math.pi * (x + 1.0)
    weight = 0.5 * math.pi * w * np.sin(theta) ** (n - 2)
    return theta, weight


def _theta_graded(n: int, levels: int, per_panel: int):
    # dyadic panels accumulating at theta = 0, where the two-point
    # distance degenerates and singular kernels concentrate
    bounds = np.concatenate(
        [[0.0], math.pi * 2.0 ** (-np.arange(levels, -1, -1, dtype=float))]
    )
    theta, w = _panel_nodes(bounds, per_panel)
    return theta, w * np.sin(theta) ** (n - 2)


def _conv_rows(
    out_idx: np.ndarray,
    f_weighted: np.ndarray,
    kernel,
    grid: RadialGrid,
    n: int,
    theta: np.ndarray,
    wtheta: np.ndarray,
) -> np.ndarray:
    rho = grid.nodes
    rx = rho[out_idx]
    sh_x = np.sinh(rx)
    sh_y = np.sinh(rho)
    a = 2.0 * np.sinh(0.5 * (rx[:, None] - rho[None, :])) ** 2
    b = sh_x[:, None] * sh_y[None, :]
    s2 = np.sin(0.5 * theta) ** 2
    vm1 = a[..., None] + 2.0 * b[..., None] * s2[None, None, :]
    d = np.log1p(vm1 + np.sqrt(vm1 * (vm1 + 2.0)))
    inner = kernel(d) @ wtheta
    return sphere_area(n - 1) * (inner @ f_weighted)


def _convolve(f_values, kernel, grid, n, theta, wtheta):
    f_weighted = (
        np.asarray(f_values, dtype=float)
        * grid.weights
        * np.sinh(grid.nodes) ** (n - 1)
    )
    N = grid.size
    # rows per block, so a block's distance array holds about 4e6 entries
    chunk = max(1, int(4e6 / (N * len(theta))))
    out = np.empty(N)
    for s in range(0, N, chunk):
        idx = np.arange(s, min(s + chunk, N))
        out[idx] = _conv_rows(idx, f_weighted, kernel, grid, n, theta, wtheta)
    return out


_THETA_NODES = 64
_THETA_TOL = 1e-8
_MAX_THETA_NODES = 512


def radial_convolution(f_values, g_values, grid: RadialGrid, n: int) -> np.ndarray:
    """Convolution of two radial profiles sampled on the same grid.

    The inner angular integral uses Gauss-Legendre with the sin^(n-2)
    weight written explicitly; the node count starts at 64 and doubles
    until a probe subset of outputs moves by less than 1e-8 relative,
    stopping at 512 (both profiles are assumed smooth; use
    ``convolve_with_kernel`` for singular kernels).
    g is interpolated between nodes and treated as 0 beyond rho_max.
    """
    geval = as_callable(g_values, grid)
    probe = np.unique(np.linspace(0, grid.size - 1, 8).astype(int))
    f_weighted = (
        np.asarray(f_values, dtype=float)
        * grid.weights
        * np.sinh(grid.nodes) ** (n - 1)
    )

    num = _THETA_NODES
    theta, wtheta = _theta_plain(num, n)
    ref = _conv_rows(probe, f_weighted, geval, grid, n, theta, wtheta)
    while num < _MAX_THETA_NODES:
        theta2, wtheta2 = _theta_plain(2 * num, n)
        nxt = _conv_rows(probe, f_weighted, geval, grid, n, theta2, wtheta2)
        scale = max(float(np.max(np.abs(nxt))), 1e-300)
        if float(np.max(np.abs(nxt - ref))) <= _THETA_TOL * scale:
            break
        num *= 2
        theta, wtheta = theta2, wtheta2
        ref = nxt
    return _convolve(f_values, geval, grid, n, theta, wtheta)


def convolve_with_kernel(f_values, kernel, grid: RadialGrid, n: int) -> np.ndarray:
    """Convolve grid samples of f with a radial kernel given as a callable.

    Meant for kernels with an integrable singularity at zero distance
    (Green-type kernels): the angular quadrature is graded dyadically
    toward theta = 0 so the near-diagonal region is resolved.  The
    callable receives distances as an ndarray and must handle values
    down to ~1e-4 * sinh(rho).
    """
    theta, wtheta = _theta_graded(n, 15, 12)
    return _convolve(f_values, kernel, grid, n, theta, wtheta)


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """A radial profile bound to its grid and ambient dimension."""

    grid: RadialGrid
    values: np.ndarray
    n: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must be sampled on the grid nodes")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: RadialGrid, fn, n: int) -> "RadialFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float), n)

    def integral(self) -> float:
        return integrate_radial(self.values, self.grid, self.n)

    def lp(self, p: float) -> float:
        return lp_norm(self.values, self.grid, self.n, p)

    def laplacian(self, order: int = 6) -> "RadialFunction":
        return RadialFunction(
            self.grid, radial_laplacian(self.values, self.grid, self.n, order), self.n
        )

    def __call__(self, rho):
        return as_callable(self.values, self.grid)(rho)
