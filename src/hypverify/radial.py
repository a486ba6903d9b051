"""Radial grids, quadrature, differentiation, and convolution.

Radial profiles are sampled on composite Gauss-Legendre grids whose
panels are graded toward rho = 0 (integrable kernel singularities live
there) and uniform farther out.  Integration always carries the
hyperbolic surface weight |S^(n-1)| sinh(rho)^(n-1); convolution is the
rotation-invariant pairing

    (f * g)(x) = int f(y) g(d(x, y)) dV(y)

reduced to a double integral over the radius of y and the angle between
x and y.  Every angular integral, of a kernel given as a callable or of
grid samples interpolated panel by panel, goes through one rule: a
Gauss-Legendre rule under a sinh map that crowds its nodes toward
angle 0, where singular kernels concentrate, only as far for each pair
of radii as the gap between them requires.  The angular
integral is symmetric in the two radii, so it is computed once per pair
on the upper triangle of the grid, in blocks of about 2e4 (pair, angle)
entries, mirrored into one N x N matrix and applied to f with a single
matrix-vector product.  The distance under the integral is computed
through cosh(d) - 1 written as a sum of two nonnegative terms, which
keeps short distances fully accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legder, legvander
from scipy.special import roots_jacobi, roots_legendre


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n, 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and weights on [0, top] (plain d rho or d lam weights)."""

    nodes: np.ndarray
    weights: np.ndarray
    top: float

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
        object.__setattr__(self, "top", float(self.top))

    @property
    def size(self) -> int:
        return self.nodes.size


# Gauss-Legendre nodes per panel of the radial and spectral grids
_GRID_ORDER = 8
_RADIAL_INNER = 1e-4


@lru_cache(maxsize=128)
def _gauss_jacobi(num: int, a: float, b: float):
    # Gauss-Jacobi nodes and weights on [-1, 1] for the weight
    # (1-x)^a (1+x)^b, Gauss-Legendre at a = b = 0: every Gauss rule of
    # the package, read-only since shared.  Cached: the angular rule is
    # asked for once per depth group of every convolution, and uncached,
    # scipy's eigenvalue solve took half the time of the power-kernel
    # bound's 48 probes.  A seed-0 battery builds 50 distinct rules (45
    # Legendre orders, 0.05-0.09 s in all), so 128 entries never evict
    if a == 0.0 and b == 0.0:
        x, w = roots_legendre(num)
    else:
        x, w = roots_jacobi(num, a, b)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_nodes(bounds: np.ndarray, order: int):
    # composite Gauss-Legendre rule, ``order`` nodes on each [bounds[i], bounds[i+1]]
    x, w = _gauss_jacobi(order, 0.0, 0.0)
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


def make_radial_grid(rho_max: float = 20.0, num_nodes: int = 2048) -> Grid:
    """Composite quadrature grid on [0, rho_max].

    One panel [0, 1e-4], geometrically growing panels from 1e-4 to 1,
    then uniform panels out to ``rho_max``, each carrying 8
    Gauss-Legendre nodes.  The grading resolves integrands that behave
    like a power of rho at the origin.
    """
    if rho_max <= 0:
        raise ValueError("rho_max must be positive")
    bounds = _graded_bounds(rho_max, num_nodes, _RADIAL_INNER, _GRID_ORDER)
    nodes, weights = _panel_nodes(bounds, _GRID_ORDER)
    return Grid(nodes, weights, rho_max)


def integrate_radial(values, grid: Grid, n: int) -> float:
    """Integral over H^n of a radial profile sampled on the grid.

    |S^(n-1)| * sum_i w_i values_i sinh(rho_i)^(n-1).  Batched values
    integrate along the last axis.
    """
    values = np.asarray(values, dtype=float)
    w = grid.weights * np.sinh(grid.nodes) ** (n - 1)
    out = sphere_area(n) * (values @ w)
    return float(out) if out.ndim == 0 else out


def lp_norm(values, grid: Grid, n: int, p: float) -> float:
    """L^p norm against hyperbolic volume; p = inf gives the sup over nodes."""
    values = np.asarray(values, dtype=float)
    if np.isinf(p):
        return float(np.max(np.abs(values)))
    if p <= 0:
        raise ValueError("p must be positive")
    return float(integrate_radial(np.abs(values) ** p, grid, n)) ** (1.0 / p)


def _panel_edges(grid: Grid) -> np.ndarray:
    # edges of the composite Gauss-Legendre panels of ``grid``, each panel's
    # width read off the sum of its weights; ValueError unless the panels
    # carry _GRID_ORDER nodes each, tile [0, top], and rebuild the grid's
    # nodes and weights
    if grid.size % _GRID_ORDER:
        raise ValueError(f"the grid must consist of {_GRID_ORDER}-node panels")
    width = grid.weights.reshape(-1, _GRID_ORDER).sum(axis=1)
    edges = np.concatenate([[0.0], np.cumsum(width)])
    nodes, weights = _panel_nodes(edges, _GRID_ORDER)
    scale = np.repeat(width, _GRID_ORDER)
    if (
        abs(edges[-1] - grid.top) > 1e-12 * grid.top
        or np.any(np.abs(nodes - grid.nodes) > 1e-10 * scale)
        or np.any(np.abs(weights - grid.weights) > 1e-10 * scale)
    ):
        raise ValueError(
            f"the grid is not a Gauss-Legendre rule of {_GRID_ORDER}-node panels on [0, top]"
        )
    return edges


@lru_cache(maxsize=None)
def _legendre_projection():
    # 8 x 8 matrix taking the values at a panel's Gauss nodes to the
    # Legendre coefficients of their interpolant: c_k = (2k+1)/2 sum_j
    # w_j P_k(x_j) v_j, exact since the rule integrates P_k P_m (k, m < 8)
    x, w = _gauss_jacobi(_GRID_ORDER, 0.0, 0.0)
    proj = legvander(x, _GRID_ORDER - 1) * w[:, None] * (np.arange(_GRID_ORDER) + 0.5)
    proj.flags.writeable = False
    return proj


def _panel_interpolant(coef, dcoef, edges, rho, panel):
    # the degree-7 polynomial with Legendre coefficients coef[panel] on
    # each [edges[panel], edges[panel + 1]], and its rho-derivative (from
    # the coefficients dcoef of its x-derivative), at rho
    mid = 0.5 * (edges[panel] + edges[panel + 1])
    half = 0.5 * (edges[panel + 1] - edges[panel])
    basis = legvander((rho - mid) / half, _GRID_ORDER - 1)
    g = np.einsum("ij,ij->i", basis, coef[panel])
    dg = np.einsum("ij,ij->i", basis[:, :-1], dcoef[panel]) / half
    return g, dg


# Table points per unit of log rho in ``as_callable``.  Cubic Hermite on
# a step h in s = log rho misses g by at most h^4/384 max |d^4 g / ds^4|.
# Where g varies like exp(phi(s)) with log-slope q = rho g'/g, the fourth
# s-derivative is about q^4 g, a relative error of (q h)^4 / 384.  The
# frac resolvents with s = 1.2 fall like e^(-2.2 rho), q = -27 at
# rho = 12: 1.7e-11 at h = 1/3000 (1.1e-11 measured at the nodes of an
# 896-node grid), below the 4e-11 of the panel interpolant itself on 640
# nodes; 1000 points per unit would add 1e-9 (measured 9e-10).  heat(0.5)
# reaches q = -144 at rho = 12 (1.4e-8), where its interpolant on 640
# nodes is 1.5e-4 off and the kernel is e^-72 of its peak.  Near 0,
# q = -0.2 for rho^-0.2, which a table uniform in rho cannot follow
_TABLE_DENSITY = 3000


def as_callable(values, grid: Grid):
    """Interpolate grid samples as a function of distance.

    On each 8-node panel of the grid the samples define a degree-7
    polynomial in rho, exact at the nodes and graded like the grid.  That
    piecewise polynomial is tabulated once, with its derivative, on
    points uniform in log rho (3000 per unit, about 47 000 for a grid on
    [0, 12]; a step across a panel edge takes the panel on its right) and
    read back by cubic Hermite interpolation: one log and four gathers
    per point.  It is constant below the first node and 0 beyond
    rho_max.  On 896 nodes to rho = 12, exp(-rho^2/2) is reproduced to
    5e-15 at the nodes and 3.3e-13 between them, and the rho^-0.2
    profile frac_resolvent_h3(rho, 1.2, 1.4) to 1.1e-11 at the nodes and
    7.9e-11 between them (pointwise relative, from rho = 1e-4 on: no
    polynomial on the first panel, [0, 1e-4], follows rho^-0.2).  Raises
    ValueError when ``values`` is not sampled on the grid nodes or the
    grid is not a composite 8-node Gauss-Legendre rule on [0, rho_max].
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError("values must be sampled on the grid nodes")
    edges = _panel_edges(grid)
    lo, top = float(grid.nodes[0]), grid.top
    s0 = math.log(lo)
    steps = max(1, math.ceil(_TABLE_DENSITY * (math.log(top) - s0)))
    h = (math.log(top) - s0) / steps
    rho = np.exp(s0 + h * np.arange(steps + 1))
    # each panel's interpolant of the samples, in Legendre coefficients
    coef = values.reshape(-1, _GRID_ORDER) @ _legendre_projection()
    dcoef = legder(coef, axis=1)
    panel = np.clip(np.searchsorted(edges, rho, side="right") - 1, 0, coef.shape[0] - 1)
    g, dg = _panel_interpolant(coef, dcoef, edges, rho, panel)
    # a step across a panel edge takes both ends from the panel on its
    # right, so that no step mixes two polynomials (the first panel's
    # cannot follow rho^-0.2, and its slope at 1e-4 is far off)
    g_lo, dg_lo = g[:-1].copy(), dg[:-1].copy()
    cross = np.flatnonzero(panel[:-1] != panel[1:])
    g_lo[cross], dg_lo[cross] = _panel_interpolant(
        coef, dcoef, edges, rho[cross], panel[cross + 1]
    )
    # Hermite cubic c0 + c1 t + c2 t^2 + c3 t^3 on each step, t in [0, 1],
    # with the slopes h dg/ds = h rho dg/drho at both ends
    m_lo = h * rho[:-1] * dg_lo
    m_hi = h * rho[1:] * dg[1:]
    dv = g[1:] - g_lo
    c0, c1, c2, c3 = g_lo, m_lo, 3.0 * dv - 2.0 * m_lo - m_hi, m_lo + m_hi - 2.0 * dv
    inv_h = 1.0 / h

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        u = (np.log(np.clip(r, lo, top)) - s0) * inv_h
        k = np.minimum(u.astype(np.intp), steps - 1)
        t = u - k
        out = ((c3[k] * t + c2[k]) * t + c1[k]) * t + c0[k]
        return np.where(r > top, 0.0, out)

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


def radial_laplacian(values, grid: Grid, n: int) -> np.ndarray:
    """Radial part f'' + (n-1) coth(rho) f' of the hyperbolic Laplacian.

    Differentiation uses 7-point Fornberg stencils on the nonuniform
    grid, with the profile extended evenly through rho = 0.
    Nodes below rho = 0.05 (when at least 8 of them exist) are
    instead handled by an even polynomial fit, which evaluates
    f'/rho without dividing by rho; the innermost nodes would otherwise
    amplify rounding by 1/rho.
    """
    values = np.asarray(values, dtype=float)
    rho = grid.nodes
    if values.shape != rho.shape:
        raise ValueError("values must be sampled on the grid nodes")
    width = 7
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


def _theta_graded(n: int, levels: int, per_panel: int):
    # dyadic panels accumulating at theta = 0, where the two-point
    # distance degenerates and singular kernels concentrate
    bounds = np.concatenate(
        [[0.0], math.pi * 2.0 ** (-np.arange(levels, -1, -1, dtype=float))]
    )
    theta, w = _panel_nodes(bounds, per_panel)
    return theta, w * np.sin(theta) ** (n - 2)


# (pair, theta) entries per block of the angular quadrature.  Each block
# temporary (160 kB) stays cache-sized and is reused from glibc's heap;
# from 5e4 entries on, the first convolution in a fresh process faults
# its temporaries in afresh block after block (74 000 page faults for a
# 480-node Q_k^-1 kernel, against 1 200 at this size)
_BLOCK_ENTRIES = 20_000


def _blocks(rows: int, width: int):
    # slices of range(rows), each about _BLOCK_ENTRIES / width rows long
    step = max(1, _BLOCK_ENTRIES // width)
    return (slice(s, s + step) for s in range(0, rows, step))


def _angular_integrals(i, j, kernel, rho, theta, wtheta) -> np.ndarray:
    # sum_theta kernel(d) w_theta for each pair (rho[i[p]], rho[j[p]]), d the
    # distance between points at those radii and angle theta
    sh = np.sinh(rho)
    s2 = np.sin(0.5 * theta) ** 2
    out = np.empty(i.size)
    for blk in _blocks(i.size, theta.size):
        bi = i[blk]
        bj = j[blk]
        a = 2.0 * np.sinh(0.5 * (rho[bi] - rho[bj])) ** 2
        b = sh[bi] * sh[bj]
        vm1 = a[:, None] + 2.0 * b[:, None] * s2[None, :]
        d = np.log1p(vm1 + np.sqrt(vm1 * (vm1 + 2.0)))
        out[blk] = kernel(d) @ wtheta
    return out


# depth cap of a convolution's angular rule: the diagonal pairs, where d
# reaches 0, take it
_MAX_LEVELS = 40


def _theta_sinh(n: int, depth: int):
    # one Gauss-Legendre rule in tau, 16 + 5 depth nodes, under the map
    # theta = theta_m sinh(tau) onto [0, pi] (Johnston & Elliott's sinh
    # transformation for nearly singular integrals), theta_m = pi 2^-depth.
    # A pair whose cosh d - 1 vanishes at theta = +-i theta_c with
    # theta_m <= theta_c < 2 theta_m has that zero at distance pi/2 from
    # the real tau axis, whatever its depth, so the nodes grow only with
    # the length T = asinh(pi / theta_m) of the tau interval
    theta_m = math.pi * 2.0**-depth
    x, w = _gauss_jacobi(16 + 5 * depth, 0.0, 0.0)
    half = 0.5 * math.asinh(math.pi / theta_m)
    tau = half * (x + 1.0)
    theta = theta_m * np.sinh(tau)
    return theta, half * w * theta_m * np.cosh(tau) * np.sin(theta) ** (n - 2)


def _theta_levels(i, j, rho, cap: int) -> np.ndarray:
    # depth L of the sinh-mapped rule for each pair (rho[i], rho[j]).  In
    # theta, cosh d - 1 = a + 2 b sin^2(theta/2) vanishes near
    # theta = +-i theta_c, theta_c = 2 sinh(|rho_i - rho_j|/2) / sqrt(b);
    # L = ceil(log2(pi / theta_c)) puts theta_m = pi 2^-L in
    # (theta_c / 2, theta_c].  The floor on theta_c sends the pairs with
    # d = 0 (theta_c = 0) to the cap without dividing by 0.  Blocked and
    # stored as int8, so no pair-sized float array is made
    sh = np.sinh(rho)
    floor = math.pi * 2.0**-cap
    level = np.empty(i.size, dtype=np.int8)
    for blk in _blocks(i.size, 1):
        bi = i[blk]
        bj = j[blk]
        theta_c = 2.0 * np.sinh(0.5 * np.abs(rho[bi] - rho[bj])) / np.sqrt(sh[bi] * sh[bj])
        depth = np.ceil(np.log2(math.pi / np.maximum(theta_c, floor)))
        level[blk] = np.clip(depth, 1, cap)
    return level


def _graded_integrals(i, j, kernel, rho, n: int, cap: int) -> np.ndarray:
    # _angular_integrals with each pair on the sinh-mapped rule of its own
    # depth (at most cap): pairs are sorted by depth and each depth runs
    # as one batch
    level = _theta_levels(i, j, rho, cap)
    order = np.argsort(level, kind="stable")
    depths, counts = np.unique(level, return_counts=True)
    out = np.empty(i.size)
    for depth, grp in zip(depths, np.split(order, np.cumsum(counts)[:-1])):
        theta, wtheta = _theta_sinh(n, int(depth))
        # gathered block by block: group-sized index copies, left on the
        # heap between the block temporaries, raised the peak RSS of an
        # 896-node convolution by 4 MB
        for blk in _blocks(grp.size, theta.size):
            sel = grp[blk]
            out[sel] = _angular_integrals(i[sel], j[sel], kernel, rho, theta, wtheta)
    return out


def convolve_with_kernel(f_values, kernel, grid: Grid, n: int) -> np.ndarray:
    """Convolve grid samples of f with a radial kernel given as a callable.

    The kernel may have an integrable singularity at zero distance
    (Green-type kernels) or be smooth; as a function of the angle theta
    between the two points it is assumed analytic wherever the distance
    d is not 0.  The angular quadrature is one Gauss-Legendre rule of
    16 + 5 L nodes in tau, mapped onto [0, pi] by
    theta = theta_m sinh(tau), theta_m = pi 2^-L, where L is chosen per
    pair of radii (r, s): L = clip(ceil(log2(pi / theta_c)), 1, 40), with
    theta_c = 2 sinh(|r - s|/2) / sqrt(sinh r sinh s) about where
    cosh d - 1 has its complex zero in theta.  The map keeps that zero
    at distance pi/2 from the real tau axis at every depth, so the nodes
    grow only linearly with L.  The diagonal pairs get the deepest,
    216-node rule; the rest need fewer (32 nodes on average at 480
    nodes on [0, 12]), and every pair stays within 5e-14 of a dyadic
    rule with 16 nodes on each of 41 panels.  The angular integral is
    symmetric in r and s, so it is computed on the upper triangle only,
    mirrored into one N x N matrix and applied to f with one
    matrix-vector product.  The callable receives distances as a 2-d
    ndarray, one row per pair of radii and one column per angular node.
    It must handle values down to about 2.5e-15 * sinh(rho) (the
    smallest node of the 216-node rule, which only the diagonal pairs
    use; 5.0e-21 at the innermost node of a 480-node grid on [0, 12]); the
    Green, resolvent and heat kernels of ``hypverify.kernels`` stay
    finite there for n <= 7.
    """
    N = grid.size
    iu, ju = np.triu_indices(N)
    pairs = _graded_integrals(iu, ju, kernel, grid.nodes, n, _MAX_LEVELS)
    A = np.empty((N, N))
    A[iu, ju] = pairs
    A[ju, iu] = pairs
    f_weighted = np.asarray(f_values, dtype=float) * grid.weights * np.sinh(grid.nodes) ** (n - 1)
    return sphere_area(n - 1) * (A @ f_weighted)


def radial_convolution(f_values, g_values, grid: Grid, n: int) -> np.ndarray:
    """Convolution of two radial profiles sampled on the same grid.

    g is interpolated by ``as_callable`` (each panel's degree-7
    interpolant, tabulated in log rho, 0 beyond rho_max) and convolved
    with f by ``convolve_with_kernel``, on the same per-pair angular
    rule.  The interpolant has kinks at panel edges and table steps, so
    it is not analytic in theta, and the angular rule limits the result
    on coarse grids: against a 30-level dyadic rule on the same
    interpolant the output differs by about as much as against the
    closed kernel.  heat(0.5) * heat(0.5) on H^3 is 2.1e-7, 2.3e-9 and
    1.4e-12 off the closed heat(1) on 120, 200 and 528 nodes on [0, 12]
    (sup-relative; 2.0e-6, 4.8e-8 and 9.3e-12 on H^5), where the closed
    kernel passed to ``convolve_with_kernel`` is at most 1.6e-10 off at
    120 nodes and 8e-14 at 200.  A kernel known in closed form is better
    passed directly.
    """
    return convolve_with_kernel(f_values, as_callable(g_values, grid), grid, n)


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """A radial profile bound to its grid and ambient dimension."""

    grid: Grid
    values: np.ndarray
    n: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must be sampled on the grid nodes")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
