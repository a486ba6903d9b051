"""Sharp constants, deficit functionals, and trial families.

The functional inequalities verified here all live on hyperbolic space
but are calibrated by Euclidean sharp constants, imported through the
ball model's conformal dictionary: with r = tanh(rho/2),

    u = ((1 - r^2)/2)^((n-2k)/2) w        (Sobolev-type transplant)
    u = ((1 - r^2)/2)^((2n-lam)/2) F      (HLS-type transplant)

the critical-exponent norms and the leading quadratic forms match their
Euclidean counterparts exactly, so concentrating Euclidean extremals
("bubbles") become trial families whose ratios approach the sharp
constants from the correct side.

Left-hand sides are always evaluated spectrally (quadratic_form with
the operator's symbol); iterated finite differences of order 2k are
avoided on principle.  Bilinear Hardy-Littlewood-Sobolev forms reduce,
through the closed-form angular integral of the distance kernel, to a
double radial sum.  The kernel-composition bound integrates its power
kernel over angles with the per-pair angular rule of the radial convolutions.

Constants:

    riesz_gamma(alpha, n) = pi^(n/2) 2^alpha Gamma(alpha/2)
                            / Gamma(n/2 - alpha/2),

the normalization for which (-Delta)^(-alpha/2) has Euclidean kernel
|x|^(alpha-n) / riesz_gamma(alpha);

    hls_constant(n, lam) = pi^(lam/2) Gamma((n-lam)/2) / Gamma(n-lam/2)
                           * (Gamma(n/2)/Gamma(n))^(-1+lam/n),

the sharp diagonal constant for the kernel |x-y|^(-lam); and

    sobolev_constant(n, k) = riesz_gamma(2k) / hls_constant(n, n-2k),

the sharp constant in the k-th order Sobolev inequality, which also has
the closed form 2^(2k) pi^k Gamma(n/2+k)/Gamma(n/2-k)
(Gamma(n/2)/Gamma(n))^(2k/n) (both are computed and tested against
each other).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.special import beta, hyp2f1

from hypverify.kernels import qk_inverse_kernel
from hypverify.radial import (
    _GRID_ORDER,
    Grid,
    RadialFunction,
    _blocks,
    _gauss_jacobi,
    _graded_integrals,
    _panel_nodes,
    integrate_radial,
    lp_norm,
    make_radial_grid,
    radial_laplacian,
    sphere_area,
)
from hypverify.spectral import (
    MultiplierSpec,
    make_spectral_grid,
    quadratic_form,
)

VARIANTS = (
    "poincare",
    "poincare_pk",
    "qk_sobolev",
    "hardy_mazya",
    "sharp_sobolev",
    "hls",
    "h5_biharmonic",
)


# -- sharp constants ---------------------------------------------------


def riesz_gamma(alpha: float, n: int) -> float:
    """Normalization gamma(alpha) of the Riesz kernel |x|^(alpha-n)."""
    if not 0.0 < alpha < n:
        raise ValueError("need 0 < alpha < n")
    return (
        math.pi ** (n / 2.0)
        * 2.0**alpha
        * math.gamma(alpha / 2.0)
        / math.gamma((n - alpha) / 2.0)
    )


def hls_constant(n: int, lambda_exp: float) -> float:
    """Sharp diagonal constant for the kernel |x - y|^(-lambda_exp)."""
    if not 0.0 < lambda_exp < n:
        raise ValueError("need 0 < lambda_exp < n")
    lam = lambda_exp
    return (
        math.pi ** (lam / 2.0)
        * math.gamma((n - lam) / 2.0)
        / math.gamma(n - lam / 2.0)
        * (math.gamma(n / 2.0) / math.gamma(n)) ** (-1.0 + lam / n)
    )


def sobolev_constant(n: int, k: int) -> float:
    """Sharp constant of the k-th order Sobolev inequality.

    Closed form of riesz_gamma(2k)/hls_constant(n, n-2k); for (3, 1)
    this is 3 (pi/2)^(4/3).
    """
    if not 1 <= k < n / 2.0:
        raise ValueError("need 1 <= k < n/2")
    return (
        2.0 ** (2 * k)
        * math.pi**k
        * math.gamma(n / 2.0 + k)
        / math.gamma(n / 2.0 - k)
        * (math.gamma(n / 2.0) / math.gamma(n)) ** (2.0 * k / n)
    )


# -- inequality descriptors --------------------------------------------


def _gap_product(k: int) -> float:
    # bottom of the k-th product symbol: prod (2i-1)^2 / 4
    out = 1.0
    for i in range(1, k + 1):
        out *= (2 * i - 1) ** 2 / 4.0
    return out


@dataclass(frozen=True)
class InequalitySpec:
    """One inequality instance: variant plus its parameters.

    Variants and their left/right sides (forms are quadratic, norms
    squared):

        poincare       |grad u|^2        vs  ||u||_2^2,  gap (n-1)^2/4
        poincare_pk    P_k form          vs  ||u||_2^2,  gap prod (2i-1)^2/4
        qk_sobolev     Q_k form          vs  ||u||_p^2
        hardy_mazya    P_k form - gap    vs  ||u||_p^2; on the half
                       space, v = x1^(n/2-k) u turns this into the
                       Hardy-Sobolev-Maz'ya inequality for v, whose
                       p-norm carries the weight x1^gamma,
                       gamma = (n-2k) p/2 - n
        sharp_sobolev  P_k form          vs  ||u||_p^2 at critical p,
                       constant sobolev_constant(n, k)
        hls            bilinear form     vs  ||u||_p ||u||_p
        h5_biharmonic  the n = 5 form with symbol lam^2 (lam^2+4)/16
                       vs ||u||_10^2, constant sobolev_constant(5, 2)
    """

    variant: str
    n: int
    k: int = 1
    p: float | None = None
    lambda_exp: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.variant == "hls":
            if self.lambda_exp is None or not 0.0 < self.lambda_exp < self.n:
                raise ValueError("hls needs 0 < lambda_exp < n")
            object.__setattr__(self, "p", 2.0 * self.n / (2.0 * self.n - self.lambda_exp))
            return
        if self.variant == "poincare":
            object.__setattr__(self, "p", 2.0)
            return
        if self.variant == "h5_biharmonic":
            if self.n != 5 or self.k != 2:
                raise ValueError("this variant is the n = 5, k = 2 form")
        if not 1 <= self.k < self.n / 2.0:
            raise ValueError("need 1 <= k < n/2")
        if self.variant == "poincare_pk":
            object.__setattr__(self, "p", 2.0)
            return
        crit = self.critical_p
        if self.variant == "sharp_sobolev" or self.variant == "h5_biharmonic":
            if self.p is not None and abs(self.p - crit) > 1e-12:
                raise ValueError("sharp variants use the critical exponent")
            object.__setattr__(self, "p", crit)
            return
        if self.p is None:
            object.__setattr__(self, "p", crit)
        if not 2.0 < self.p <= crit + 1e-12:
            raise ValueError("need 2 < p <= 2n/(n-2k)")

    @property
    def critical_p(self) -> float:
        return 2.0 * self.n / (self.n - 2 * self.k)

    @property
    def gap_constant(self) -> float:
        return _gap_product(self.k)

    def multiplier(self) -> MultiplierSpec | None:
        if self.variant == "poincare":
            return MultiplierSpec.laplacian()
        if self.variant in ("poincare_pk", "sharp_sobolev"):
            return MultiplierSpec.gjms(self.k)
        if self.variant == "qk_sobolev":
            return MultiplierSpec.gjms_gap(self.k)
        if self.variant == "hardy_mazya":
            return MultiplierSpec.gjms(self.k).minus(self.gap_constant)
        if self.variant == "h5_biharmonic":
            return MultiplierSpec(
                "lam^2 (lam^2+4)/16",
                lambda lam, n: lam**2 * (lam**2 + 4.0) / 16.0,
            )
        return None

    def default_constant(self) -> float:
        if self.variant == "poincare":
            return (self.n - 1) ** 2 / 4.0
        if self.variant == "poincare_pk":
            return self.gap_constant
        if self.variant in ("sharp_sobolev", "h5_biharmonic"):
            return sobolev_constant(self.n, self.k)
        if self.variant == "hls":
            return hls_constant(self.n, self.lambda_exp)
        return 1.0


@dataclass(frozen=True)
class DeficitReport:
    lhs: float
    rhs: float
    constant_used: float
    deficit: float
    ratio: float

    @staticmethod
    def build(lhs: float, rhs: float, constant: float) -> "DeficitReport":
        ratio = lhs / rhs if rhs != 0.0 else math.nan
        return DeficitReport(lhs, rhs, constant, lhs - constant * rhs, ratio)


# -- trial families ----------------------------------------------------


def _bump(s):
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def _cutoff(r, edge: float = 0.9, width: float = 0.1):
    """Smooth transition from 1 below edge-width to 0 above edge."""
    s = (edge - np.asarray(r, dtype=float)) / width
    lo = _bump(s)
    return lo / (lo + _bump(1.0 - s))


_BUBBLE_CUTOFF = 0.9


@lru_cache(maxsize=1)
def _trial_grid() -> Grid:
    # the default grid of both trial families
    return make_radial_grid(rho_max=3.0, num_nodes=768)


def _flat_bubble(r, eps: float, n: int, k: int):
    # bubble minus its tangent parabola at the cutoff radius: the
    # profile is C^{1,1}, nonnegative, and decreasing on [0, R]
    m = n - 2 * k
    R = _BUBBLE_CUTOFF
    e2 = eps**2
    a = (e2 + R * R) ** (-m / 2.0)
    b = -(m / 2.0) * (e2 + R * R) ** (-m / 2.0 - 1.0)
    r = np.asarray(r, dtype=float)
    w0 = (e2 + r * r) ** (-m / 2.0)
    inside = w0 - (a + b * (r * r - R * R))
    return eps ** (m / 2.0) * np.where(r < R, inside, 0.0)


def bubble_family(
    eps: float, n: int, k: int, grid: Grid | None = None
) -> RadialFunction:
    """Concentrating Sobolev trial family as a hyperbolic radial function.

    The flat-side profile is the standard bubble
    (eps/(eps^2+r^2))^((n-2k)/2) truncated by subtracting its tangent
    parabola at ball radius 0.9, so value and slope both vanish there.
    A multiplicative cutoff would inject its own derivatives into the
    higher-order Rayleigh quotient and swamp the sharp constant when
    n - 2k is small; the matched truncation costs only O(eps^(n-2k)),
    which two-point extrapolation in eps then removes.  The result is
    pulled back to a hyperbolic radial function via r = tanh(rho/2)
    with the conformal weight ((1-r^2)/2)^((n-2k)/2), under which the
    critical norm and the leading quadratic form are exactly Euclidean.
    """
    if eps <= 0.0:
        raise ValueError("need epsilon > 0")
    if not 1 <= k < n / 2.0:
        raise ValueError("need 1 <= k < n/2")
    if grid is None:
        grid = _trial_grid()
    r = np.tanh(0.5 * grid.nodes)
    conf = (0.5 * (1.0 - r**2)) ** ((n - 2 * k) / 2.0)
    return RadialFunction(grid, conf * _flat_bubble(r, eps, n, k), n)


def hls_trial_family(
    eps: float, n: int, lambda_exp: float, grid: Grid | None = None
) -> RadialFunction:
    """Concentrating family adapted to the bilinear form.

    The transplant exponent is (2n - lam)/2, not the Sobolev (n-2k)/2:
    with it, both the bilinear form and the critical p-norm equal their
    Euclidean values exactly, so the ratio climbs to hls_constant.
    Without ``grid``, every call shares one 768-node grid to rho = 3,
    so hls_bilinear builds its form once for all eps of one lambda.
    """
    if not 0.0 < lambda_exp < n:
        raise ValueError("need 0 < lambda_exp < n")
    if eps <= 0.0:
        raise ValueError("need eps > 0")
    if grid is None:
        grid = _trial_grid()
    power = (2.0 * n - lambda_exp) / 2.0
    r = np.tanh(0.5 * grid.nodes)
    vals = (0.5 * (1.0 - r**2) * eps / (eps**2 + r**2)) ** power * _cutoff(r)
    return RadialFunction(grid, vals, n)


# -- deficit functionals -----------------------------------------------


# Largest spectral window the default 768-node trial grid supports
# before forward-transform aliasing noise (amplified by the order-2k
# symbol) overtakes the kink tail of the truncated bubble.  Measured
# against the Euclidean oracle: truncating here costs at most ~3e-4 of
# a fourth-order form, uniformly over concentration scales down to 0.05.
_BUBBLE_LAM_MAX = 180.0


def _bubble_sgrid() -> Grid:
    return make_spectral_grid(lam_max=_BUBBLE_LAM_MAX, num_nodes=1080)


def deficit(
    u: RadialFunction,
    spec: InequalitySpec,
    sgrid: Grid | None = None,
    tail_tol: float | None = 1e-5,
) -> DeficitReport:
    """Evaluate lhs, rhs, and deficit = lhs - C*rhs for one spec.

    C is ``spec.default_constant()``.  The quadratic left side is
    computed spectrally, so ``sgrid`` must resolve the profile.  A
    smooth compactly supported cutoff has a sub-exponential spectral
    tail that never clears the default tail guard; for such profiles
    pass tail_tol=None together with a window whose truncation error
    has been measured (ratio_curve does this for the built-in
    families).  For 'hls' the left side is the bilinear form of u with
    itself and the deficit is <= 0 (the constant sits above).
    """
    if u.n != spec.n:
        raise ValueError("profile dimension does not match the spec")
    c = spec.default_constant()
    if spec.variant == "hls":
        lhs = hls_bilinear(u, u, spec.lambda_exp)
        rhs = lp_norm(u.values, u.grid, u.n, spec.p) ** 2
        return DeficitReport.build(lhs, rhs, c)
    if sgrid is None:
        sgrid = make_spectral_grid(lam_max=160.0, num_nodes=1024)
    rhs = lp_norm(u.values, u.grid, u.n, spec.p) ** 2
    mult = spec.multiplier()
    if spec.variant in ("poincare", "poincare_pk"):
        # profiles approaching the spectral bottom put an eps-narrow
        # spike at lam = 0 that no fixed grid resolves; the bottom
        # constant times the L2 mass is split off and integrated
        # directly, leaving a symbol vanishing at lam = 0 that kills
        # the spike.  Symbol-wise the multiplier is unchanged.
        bottom = spec.default_constant()
        lhs = quadratic_form(
            u.values, u.grid, u.n, mult.minus(bottom), sgrid, tail_tol=tail_tol
        ) + bottom * lp_norm(u.values, u.grid, u.n, 2.0) ** 2
    else:
        lhs = quadratic_form(u.values, u.grid, u.n, mult, sgrid, tail_tol=tail_tol)
    return DeficitReport.build(lhs, rhs, c)


def _hls_2f1(lam: float, n: int, w, ratio):
    """2F1(lam/2, (n-1)/2; n-1; w) for w in (0, 1] and lam < n - 1.

    ``ratio`` is sqrt(1 - w), supplied separately because near w = 1 it
    carries 1 - w to full relative accuracy where w cannot.  For n = 3
    the function is (1 - (1-w)^(1-lam/2)) / ((1-lam/2) w), written with
    expm1 and with log(1 - w) taken from log1p(-w) for small w and from
    the ratio near 1, so it keeps full accuracy at both ends and is
    finite at w = 1.  Every other n goes to scipy, which sees w only.
    """
    if n == 3:
        e = 1.0 - 0.5 * lam
        with np.errstate(divide="ignore"):
            # log(0) = -inf on the diagonal, where expm1 gives -1
            log_rest = np.where(w < 0.5, np.log1p(-w), 2.0 * np.log(ratio))
        return -np.expm1(e * log_rest) / (e * w)
    return hyp2f1(0.5 * lam, 0.5 * (n - 1), n - 1.0, w)


def _hls_angular(r, s, lam: float, n: int):
    """int_0^pi (2 sinh(d/2))^(-lam) sin^(n-2)(theta) d theta.

    d is the distance between points at radii r and s, seen from the
    origin at angle theta.  With a = 2 sinh(|r-s|/2), b = 2 sinh((r+s)/2)
    and w = 1 - (a/b)^2 = sinh r sinh s / sinh^2((r+s)/2), the chordal
    product formula gives

        2^(n-2) B((n-1)/2, (n-1)/2) b^(-lam) 2F1(lam/2, (n-1)/2; n-1; w).

    w is kept in [tiny, 1], so one radius may be 0 (where 2F1 = 1).
    """
    sh = np.sinh(0.5 * (r + s))
    w = np.clip(np.sinh(r) * np.sinh(s) / sh**2, np.finfo(float).tiny, 1.0)
    ratio = np.sinh(0.5 * np.abs(r - s)) / sh
    half = 0.5 * (n - 1)
    return (
        2.0 ** (n - 2)
        * beta(half, half)
        * (2.0 * sh) ** -lam
        * _hls_2f1(lam, n, w, ratio)
    )


# The innermost piece of the diagonal band has width 2^-levels of its
# panel and carries about 2^(-levels (n - lam)) of the kink; the depth
# is chosen so that this share is 2^-36.
_HLS_BAND_BITS = 36


def _legendre_moments(wt, x) -> np.ndarray:
    # sum over the last axis of wt P_k(x) for k < _GRID_ORDER, P_k by the
    # recurrence (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1), evaluated
    # in place in three arrays of x's shape
    out = np.empty(wt.shape[:-1] + (_GRID_ORDER,))
    out[..., 0] = np.sum(wt, axis=-1)
    out[..., 1] = np.sum(wt * x, axis=-1)
    prev, cur, spare = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, _GRID_ORDER - 1):
        np.multiply(2 * k + 1, x, out=spare)
        spare *= cur
        prev *= k
        spare -= prev
        spare /= k + 1
        prev, cur, spare = cur, spare, prev
        np.multiply(wt, cur, out=spare)
        out[..., k + 1] = np.sum(spare, axis=-1)
    return out


def _hls_band(grid: Grid, lam: float, n: int) -> np.ndarray:
    """Product-integration weights of the inner integral near its kink.

    The angular integral has a |r - s|^(n-1-lam) kink on the diagonal.
    Row i of the result holds the weights of the inner integral
    int K(rho_i, s) g(s) sinh^(n-1)(s) ds over the panel holding rho_i
    and its two neighbours.  The own panel is split at rho_i into two
    pieces graded dyadically toward it, ceil(36/(n - lam)) levels deep.
    Each neighbour is one piece graded toward its edge nearest rho_i,
    only as deep as the grid's panel widths ask (8 levels on
    make_radial_grid's grids of 144 to 768 nodes to rho = 3).  g is
    interpolated from the panel's own nodes, through Legendre moments
    of the piece's weights, so the weights belong to those nodes.  Every
    (row, piece, node) temporary holds at most radial._BLOCK_ENTRIES
    entries.
    """
    rho = grid.nodes
    size = rho.size
    panels = size // _GRID_ORDER
    edges = grid.edges
    p = np.arange(size) // _GRID_ORDER
    width = np.diff(edges)
    y = (2.0 * rho.reshape(panels, _GRID_ORDER) - edges[:-1, None] - edges[1:, None]) / (
        width[:, None]
    )
    to_nodes = np.linalg.inv(legvander(y, _GRID_ORDER - 1))
    # A neighbour piece of width h' ends short of the kink by the gap
    # from rho_i to the panel edge, at least (1 - x_1)/2 = 0.0199 of the
    # own panel's width for 8 Gauss nodes.  Graded L levels with
    # 2^-L h' <= gap, every sub-piece sees the kink at least its own
    # width away, as in a full-depth grading; so L = ceil(log2(h'/gap)),
    # which is 8 while neighbouring panel widths differ by at most 5.1x.
    reach = np.maximum(
        width[np.maximum(p - 1, 0)] / (rho - edges[p]),
        width[np.minimum(p + 1, panels - 1)] / (edges[p + 1] - rho),
    )
    # pieces run from `start` to their end nearest rho_i; a missing
    # neighbour is an empty piece at 0 or rho_max
    sides = np.stack([edges[p], edges[p + 1]], axis=1)
    own = (
        sides,
        np.stack([rho, rho], axis=1),
        np.stack([p, p], axis=1),
        math.ceil(_HLS_BAND_BITS / (n - lam)),
    )
    neighbours = (
        edges[np.stack([np.maximum(p - 1, 0), np.minimum(p + 2, panels)], axis=1)],
        sides,
        np.stack([np.maximum(p - 1, 0), np.minimum(p + 1, panels - 1)], axis=1),
        math.ceil(math.log2(np.max(reach))),
    )
    out = np.zeros((size, size))
    for start, end, owner, levels in (own, neighbours):
        frac, wfrac = _panel_nodes(
            np.concatenate([[0.0], 2.0 ** np.arange(-levels, 1.0)]), _GRID_ORDER
        )
        for r in _blocks(size, 2 * frac.size):
            t = end[r, :, None] + (start[r] - end[r])[..., None] * frac
            wt = (
                np.abs(start[r] - end[r])[..., None]
                * wfrac
                * np.sinh(t) ** (n - 1)
                * _hls_angular(rho[r, None, None], t, lam, n)
            )
            # Legendre moments of the weights in the owner panel's
            # coordinate, mapped to its nodes by the inverse
            # Legendre-Vandermonde matrix
            lo, hi = edges[owner[r]][..., None], edges[owner[r] + 1][..., None]
            moments = _legendre_moments(wt, (2.0 * t - lo - hi) / (hi - lo))
            weights = np.einsum("iqk,iqkj->iqj", moments, to_nodes[owner[r]])
            cols = owner[r, :, None] * _GRID_ORDER + np.arange(_GRID_ORDER)
            np.add.at(out, (np.arange(size)[r, None, None], cols), weights)
    return out


@lru_cache(maxsize=1)
def _hls_form(grid: Grid, lam: float, n: int) -> np.ndarray:
    # the symmetrised matrix W K W of hls_bilinear, W = weights sinh^(n-1),
    # in one N x N array; read-only, since every caller with this key
    # gets the same array
    rho = grid.nodes
    size = rho.size
    wvol = grid.weights * np.sinh(rho) ** (n - 1)
    form = _hls_band(grid, lam, n)
    form *= wvol[:, None]
    form += form.T
    form *= 0.5
    # off the band, one closed-form kernel value per symmetric pair; the
    # far columns of row i start two panels past its own
    first = (np.arange(size) // _GRID_ORDER + 2) * _GRID_ORDER
    for r in _blocks(size, size):
        i, j = np.nonzero(np.arange(size) >= first[r, None])
        i += r.start
        form[i, j] = form[j, i] = wvol[i] * _hls_angular(rho[i], rho[j], lam, n) * wvol[j]
    form.flags.writeable = False
    return form


def hls_bilinear(f: RadialFunction, g: RadialFunction, lambda_exp: float) -> float:
    """Bilinear form with kernel (2 sinh(d/2))^(-lambda_exp), 0 < lambda < n-1.

    The angular integral is done in closed form (``_hls_angular``), so
    the form is the double radial sum f W K W g with
    W = weights sinh^(n-1), times |S^(n-1)| |S^(n-2)|.  Away from the
    diagonal band of three panels per node the sum is plain Gauss; on
    the band a product rule (``_hls_band``) integrates the
    |r - s|^(n-1-lambda) kink.  The weighted matrix is symmetrised, so
    the form is symmetric in f and g to rounding.  It is built once per
    grid object, lambda and n, and the last one built is kept: further
    pairs (f, g) on that grid cost one matrix-vector product.

    Measured on n = 3, a 288-node grid to rho = 3, a Gaussian against
    the eps = 0.3 trial profile, against an adaptive-quad oracle of the
    same closed form: relative error 3e-13 at lambda = 0.5 and 1, 5e-13
    at 1.4, 9e-13 at 1.6, 3e-12 at 1.9 and 4e-12 at 1.99, where plain
    Gauss sums over the kink miss by 2e-4 at lambda = 1 and 0.1 at 1.9.
    At n = 4, 5 and 7 (lambda = 0.5 or 1, and n - 1.5 at n = 4, 5) the
    value moves by at most 1e-11 from 144 to 288 nodes.  Those n use
    scipy's 2F1, which reads 1 - w below about 1e-13 as w = 1 and so
    loses accuracy on the band's deepest nodes once lambda nears n - 1.
    For lambda >= n - 1 the kink becomes a singularity that this rule
    does not integrate, and NotImplementedError is raised.
    """
    if f.grid is not g.grid or f.n != g.n:
        raise ValueError("f and g must share one grid and dimension")
    n, lam, grid = f.n, lambda_exp, f.grid
    if not 0.0 < lam < n:
        raise ValueError("need 0 < lambda_exp < n")
    if lam >= n - 1:
        raise NotImplementedError(
            f"lambda_exp = {lam} >= n - 1 = {n - 1}: the inner integral is "
            "singular like |r - s|^(n-1-lambda) on the diagonal (log at "
            "n - 1), which the graded band does not integrate; that needs "
            "a Jacobi-weighted innermost panel"
        )
    form = _hls_form(grid, lam, n)
    return sphere_area(n) * sphere_area(n - 1) * float(f.values @ form @ g.values)


# -- best-constant estimation ------------------------------------------


def _trial(spec: InequalitySpec, eps: float) -> RadialFunction:
    if spec.variant == "hls":
        return hls_trial_family(eps, spec.n, spec.lambda_exp)
    if spec.variant in ("poincare", "poincare_pk"):
        # spread-out exponentials approach the spectral bottom; eps is
        # the decay-rate margin above (n-1)/2.  The window must hold
        # several e-foldings of the slow surplus rate eps, and the
        # cutoff sits far out where the trial's own decay makes the
        # cutoff's derivative energy negligible even in fourth-order
        # forms (a hard truncation would not be: its corner carries
        # infinite P_k energy for k >= 2).
        grid = make_radial_grid(rho_max=48.0, num_nodes=1536)
        a = (spec.n - 1) / 2.0 + eps
        vals = np.exp(-a * grid.nodes) * _cutoff(grid.nodes, edge=44.0, width=8.0)
        return RadialFunction(grid, vals, spec.n)
    return bubble_family(eps, spec.n, spec.k)


def ratio_curve(spec: InequalitySpec, eps_grid) -> np.ndarray:
    """lhs/rhs along the trial family, one entry per eps.

    Spectral windows: the trial profiles are only C^{1,1} at their
    truncation radius (bubbles) or origin cusp (exponentials), so their
    spectral integrands decay polynomially and never clear the default
    tail guard; each family runs with the guard off on a window whose
    truncation error was measured against closed forms or Euclidean
    quadrature oracles (about 3e-4 of a fourth-order form or better).
    """
    eps_arr = [float(e) for e in eps_grid]
    if not eps_arr:
        raise ValueError("eps grid must be nonempty")
    sgrid = None  # the hls form is not spectral
    if spec.variant in ("poincare", "poincare_pk"):
        sgrid = make_spectral_grid(lam_max=64.0, num_nodes=768)
    elif spec.variant != "hls":
        sgrid = _bubble_sgrid()
    out = []
    for eps in eps_arr:
        out.append(deficit(_trial(spec, eps), spec, sgrid=sgrid, tail_tol=None).ratio)
    return np.array(out)


def estimate_best_constant(
    spec: InequalitySpec,
    eps_grid,
    extrapolate: bool = False,
) -> float:
    """Best-constant estimate from the trial family.

    Default: the extreme ratio over the family -- min for >=-type
    inequalities (an upper bound on the best constant), max for 'hls' (a
    lower bound), each up to the measured quadrature error.  For 'hls'
    at lambda = 1 and eps down to 0.025, the 768-node default trial grid
    agrees with 1536 and 3072 nodes to 2e-16, and the estimate sits
    1.4e-5 below the constant.  With extrapolate=True the two smallest
    eps are combined by first-order Richardson, estimating the eps -> 0
    limit; that value is an estimate, not a bound.
    """
    ratios = ratio_curve(spec, eps_grid)
    if extrapolate and len(ratios) >= 2:
        order = np.argsort([float(e) for e in eps_grid])
        e0, e1 = (float(eps_grid[i]) for i in order[:2])
        r0, r1 = (float(ratios[i]) for i in order[:2])
        return r0 + (r0 - r1) * e0 / (e1 - e0)
    if spec.variant == "hls":
        return float(np.max(ratios))
    return float(np.min(ratios))


# -- structural checks -------------------------------------------------


@dataclass(frozen=True)
class ConvolutionBoundReport:
    bound_constant: float
    max_ratio: float
    worst_rho: float


_POWER_RHO_MAX = 45.0
_BOUND_PROBES = 48
# depth cap of the angular rule: no pair (rho_y, r) has d = 0, so it
# only has to reach the deepest level theta_c asks for, 42 at rho_y = 10
_POWER_LEVELS = 45


def _power_kernel_convolution(alpha, beta, n, rho_y):
    """[ (sinh d/2)^(a-n)(cosh d/2)^(-a-b) ] * (sinh rho/2)^(b-n) at one point.

    Both factors are singular and the composition develops a weak
    singularity across rho = rho_y, so the radial panels grade into
    that point from both sides.  The angular integral of each pair
    (rho_y, r) is that of ``convolve_with_kernel``: the sinh-mapped
    rule of radial._graded_integrals, as deep as the pair needs.
    """
    ry = float(rho_y)
    left = np.concatenate(
        [
            [0.0],
            ry * np.geomspace(1e-6, 0.5, 22),
            ry * (1.0 - np.geomspace(0.5, 1e-8, 22))[1:],
        ]
    )
    right = np.concatenate(
        [
            ry * (1.0 + np.geomspace(1e-8, 0.5, 22)),
            np.geomspace(1.5 * ry, _POWER_RHO_MAX, 30)[1:],
        ]
    )
    r, wr = _panel_nodes(np.concatenate([left, right]), 12)

    def kernel(d):
        return np.sinh(0.5 * d) ** (alpha - n) * np.cosh(0.5 * d) ** (-alpha - beta)

    # the pairs (rho_y, r_j), with rho_y appended as node r.size
    inner = _graded_integrals(
        np.full(r.size, r.size), np.arange(r.size), kernel, np.append(r, ry), n, _POWER_LEVELS
    )
    fvol = np.sinh(0.5 * r) ** (beta - n) * np.sinh(r) ** (n - 1) * wr
    return sphere_area(n - 1) * float(inner @ fvol)


def convolution_bound_check(alpha: float, beta: float, n: int) -> ConvolutionBoundReport:
    """Pointwise kernel-composition bound for 0.05 <= rho <= 10.

    Convolves (sinh rho/2)^(alpha-n) (cosh rho/2)^(-alpha-beta) with
    (sinh rho/2)^(beta-n) and compares against

        2^n gamma(alpha) gamma(beta)/gamma(alpha+beta)
        (sinh rho/2)^(alpha+beta-n) (cosh rho/2)^(-alpha),

    the hyperbolic sharpening of the Euclidean composition identity.
    The ratio approaches 1 from below as rho -> 0, so the smallest of
    the 48 geometric probe points carry margins as thin as 1e-4.  At
    each point the angular rule is within 3.1e-15 of a dyadic rule with
    16-node panels down to 5 levels below the cap, and 20-node radial
    panels move the values by at most 2.6e-9.  The report carries the worst
    ratio and where it occurs.
    """
    if not (0.0 < alpha < n and 0.0 < beta < n and alpha + beta < n):
        raise ValueError("need alpha, beta, alpha+beta in (0, n)")
    probes = np.geomspace(0.05, 10.0, _BOUND_PROBES)
    const = 2.0**n * riesz_gamma(alpha, n) * riesz_gamma(beta, n) / riesz_gamma(
        alpha + beta, n
    )
    ratio = np.empty(_BOUND_PROBES)
    for i, ry in enumerate(probes):
        conv = _power_kernel_convolution(alpha, beta, n, ry)
        bound = (
            const
            * math.sinh(0.5 * ry) ** (alpha + beta - n)
            * math.cosh(0.5 * ry) ** (-alpha)
        )
        ratio[i] = conv / bound
    worst = int(np.argmax(ratio))
    return ConvolutionBoundReport(const, float(ratio[worst]), float(probes[worst]))


# nodes of each Gauss rule in riesz_composition_identity
_RIESZ_NODES = 16


def _riesz_half_line(a: float, beta: float) -> float:
    # I(a) = int_0^1 r^(a-2) B(r) dr, B(r) = [(1+r)^(beta-1) - (1-r)^(beta-1)]
    # / (beta-1), split at 1/2.  On [0, 1/2], B(r)/r is even and analytic
    # (radius 1), so Gauss-Jacobi with weight r^(a-1) takes it; B is
    # formed as (1-r)^(beta-1) expm1(2 (beta-1) atanh r) / (beta-1), which
    # does not cancel at small r.  On [1/2, 1] the (1+r) term is smooth
    # (Gauss-Legendre) and the (1-r) term gets Gauss-Jacobi with weight
    # (1-r)^(beta-1)
    q = _RIESZ_NODES
    b1 = beta - 1.0
    x, w = _gauss_jacobi(q, 0.0, a - 1.0)
    r = 0.25 * (1.0 + x)
    bracket = (1.0 - r) ** b1 * np.expm1(2.0 * b1 * np.arctanh(r)) / (b1 * r)
    inner = 0.25**a * float(w @ bracket)
    x, w = _gauss_jacobi(q, 0.0, 0.0)
    r = 0.75 + 0.25 * x
    plus = 0.25 * float(w @ (r ** (a - 2.0) * (1.0 + r) ** b1))
    x, w = _gauss_jacobi(q, b1, 0.0)
    r = 0.75 + 0.25 * x
    minus = 0.25**beta * float(w @ r ** (a - 2.0))
    return inner + (plus - minus) / b1


def riesz_composition_identity(alpha: float, beta: float):
    """Euclidean n = 3 ingredient: the |x|-power composition integral.

    Returns (quadrature value, gamma-ratio prediction) for
    int |x|^(alpha-3) |y-x|^(beta-3) dx at |y| = 1.  The angular
    integral collapses to a two-term power difference, and r = 1/u maps
    the radial tail [1, inf) onto [0, 1] with alpha replaced by
    3 - alpha - beta, so the value is 2 pi (I(alpha) + I(3 - alpha - beta))
    with I done by three 16-node Gauss rules that carry the endpoint
    powers as weights.  Against the gamma ratio: 1.6e-15 at
    (alpha, beta) = (1, 0.8), at most 1.3e-15 at (0.5, 1.7), (2, 0.5)
    and (0.3, 0.3).
    """
    n = 3
    if not (0.0 < alpha < n and 0.0 < beta < n and alpha + beta < n):
        raise ValueError("need alpha, beta, alpha+beta in (0, 3)")
    if abs(beta - 1.0) < 1e-12:
        raise ValueError("beta = 1 hits the degenerate angular antiderivative")
    val = _riesz_half_line(alpha, beta) + _riesz_half_line(n - alpha - beta, beta)
    lhs = 2.0 * math.pi * val
    rhs = riesz_gamma(alpha, 3) * riesz_gamma(beta, 3) / riesz_gamma(alpha + beta, 3)
    return lhs, rhs


@dataclass(frozen=True)
class HardyIdentityReport:
    spectral_rel: float
    quadrature_rel: float


def biharmonic_hardy_identity_check() -> HardyIdentityReport:
    """Two routes into the second-order Hardy identity on dimension 5.

    (i) spectral: for radial f, the integral of (Delta f + 3 f)^2 over
    hyperbolic volume equals the quadratic form with squared symbol
    ((16 + lam^2)/4 - 3)^2 = ((lam^2 + 4)/4)^2; the left side is built
    from the finite-difference Laplacian, so the routes share nothing.

    (ii) half-space: for u = x1^(1/2) a(x1) b(|x'|), the flat integral
    of (Delta u + u/(4 x1^2))^2 equals the hyperbolic integral of
    (Delta_H f + 3 f)^2 with f = x1^(1/2) u, both done by tensor
    quadrature.  The report carries the relative gap of each route.
    """
    grid = make_radial_grid(rho_max=12.0, num_nodes=896)
    f = np.exp(-(grid.nodes**2))
    fd = radial_laplacian(f, grid, 5) + 3.0 * f
    lhs = integrate_radial(fd**2, grid, 5)
    sym = MultiplierSpec(
        "((lam^2+4)/4)^2", lambda lam, n: ((lam**2 + 4.0) / 4.0) ** 2
    )
    rhs = quadratic_form(f, grid, 5, sym, make_spectral_grid(40.0, 1024))
    rel_i = abs(lhs / rhs - 1.0)

    x1, w1 = _panel_nodes(np.array([1e-9, 2.0, 8.0, 30.0]), 48)
    s, ws = _panel_nodes(np.array([1e-9, 2.0, 6.0]), 48)
    X1 = x1[:, None]
    S = s[None, :]
    a = X1**2 * np.exp(-X1)
    a1 = (2.0 * X1 - X1**2) * np.exp(-X1)
    a2 = (2.0 - 4.0 * X1 + X1**2) * np.exp(-X1)
    b = np.exp(-(S**2))
    rad_b = (4.0 * S**2 - 8.0) * np.exp(-(S**2))
    # Hardy side: the 1/(4 x1^2) term cancels the conjugation
    # singularity exactly, leaving a regular integrand
    half = (X1**-0.5 * a1 + X1**0.5 * a2) * b + X1**0.5 * a * rad_b
    # hyperbolic side with f = x1 a b
    hyp = X1**2 * (X1 * a2 - a1) * b + X1**3 * a * rad_b
    meas = 2.0 * math.pi**2 * S**3 * w1[:, None] * ws[None, :]
    ih = float(np.sum(half**2 * meas))
    iH = float(np.sum(hyp**2 * X1**-5.0 * meas))
    rel_ii = abs(ih / iH - 1.0)
    return HardyIdentityReport(rel_i, rel_ii)


def symbol_gap_infimum(lambda_grid) -> float:
    """inf over the grid of (lam^4 + 10 lam^2)/(lam^2 + 4)^2.

    The ratio vanishes quadratically at lam = 0, which is exactly why
    no positive constant can sit between the two fourth-order symbols.
    """
    lam = np.asarray(lambda_grid, dtype=float)
    if lam.size == 0 or np.min(lam) > 0.1:
        raise ValueError("grid must reach down toward lam = 0")
    vals = (lam**4 + 10.0 * lam**2) / (lam**2 + 4.0) ** 2
    return float(np.min(vals))


@dataclass(frozen=True)
class DualityChainReport:
    norm_sq: float
    form: float
    kernel_constant: float
    chained_constant: float


@lru_cache(maxsize=None)
def _qk_bound_constant(num_nodes: int) -> float:
    """Fitted A in Q_k^-1 kernel <= A sinh(rho/2)^(2k-n), n = 5, k = 2.

    The largest kernel * sinh(rho/2)^(n-2k) over the nodes past the
    first panel [0, 1e-4] of the rho_max = 10 grid with num_nodes
    nodes, the kernel by the convolution route.  Every grid shares that
    panel, and there the route reads the kernel up to 92 % high; past it
    the 256- and 512-node fits differ, so a comparison of the two can
    fail.
    """
    grid = make_radial_grid(rho_max=10.0, num_nodes=num_nodes)
    kern = qk_inverse_kernel(grid, 5, 2, route="convolution")
    past = grid.nodes > grid.edges[1]
    return float(np.max(kern[past] * np.sinh(0.5 * grid.nodes[past])))


def duality_chain_check() -> DualityChainReport:
    """End-to-end bound ||f||_q^2 <= A C ||f||_{Q_k}^2, q = 2n/(n-2k).

    On H^5 with k = 2 and the eps = 0.2 bubble.  A is the fitted
    constant with the inverse kernel bounded by
    A (2 sinh(rho/2))^(2k-n), C the sharp bilinear constant at
    lam = n - 2k; Cauchy-Schwarz in the Q_k inner product plus the
    bilinear bound chains them.  All three numbers are computed
    independently; the report carries both sides of the inequality.
    A is 2^(n-2k) times the 512-node fit of ``_qk_bound_constant``,
    which skips the nodes of the grid's first panel [0, 1e-4]; on that
    panel the exact kernel * sinh(rho/2) exceeds its value at 1e-4 by
    less than 1e-4 relative.
    """
    n, k = 5, 2
    A = 2.0 ** (n - 2 * k) * _qk_bound_constant(512)
    spec = InequalitySpec("qk_sobolev", n=n, k=k)
    f = bubble_family(0.2, n, k)
    form = quadratic_form(
        f.values, f.grid, n, MultiplierSpec.gjms_gap(k), _bubble_sgrid(), tail_tol=None
    )
    norm_sq = lp_norm(f.values, f.grid, n, spec.critical_p) ** 2
    chained = A * hls_constant(n, n - 2 * k)
    return DualityChainReport(norm_sq, form, A, chained)
