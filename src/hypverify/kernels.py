"""Heat, Green, and resolvent kernels as radial profiles.

Everything here descends from one structural fact: in the variable
u = cosh(rho) the ladder operator L = -(1/sinh rho) d/drho is plain
-d/du, and passing from dimension n to n+2 costs one ladder step and a
factor 1/(2 pi),

    K_{n+2} = (2 pi)^(-1) L K_n            (kernels at matched spectral
                                            parameter; for the heat
                                            kernel the matching shifts
                                            time by e^(-n t)).

Odd dimensions therefore have closed forms generated from the
dimension-3 seed by iterating L, which ``exact.ladder`` does with exact
rational coefficients for the heat, Green and resolvent seeds alike;
near rho = 0, where the heat kernel's ladder terms cancel, the exact
Taylor series of the same terms takes over.  Even dimensions sit half a
step down: they are reached by the Weyl half-integral

    (W f)(rho) = int_rho^inf (L f)(r) sinh(r) (cosh r - cosh rho)^(-1/2) dr,

computed after the substitution sigma = sqrt(cosh r - cosh rho), which
removes the endpoint singularity and turns the measure into plain
d sigma.  W commutes with L (both are Weyl operators in u), so the
order of ladder steps and the half-step never matters.

The general-shift resolvent uses an independent route: a compact
integral with Jacobi endpoint weights,

    R(rho) = A_n (sinh rho)^(2-n) int_0^2 (delta + w)^mu w^theta (2-w)^theta dw,

    delta = 2 sinh^2(rho/2),  theta = sqrt(lam0 + (n-1)^2/4) - 1/2,
    mu = (n-4)/2 - theta,
    A_n = (2 pi)^(-n/2) Gamma(n/2 + theta) / (2^(theta+1) Gamma(theta+1)),

valid in every dimension n >= 2, which the tests pin against the
odd-dimension ladder forms and against the spectral multiplier route.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import kv, roots_jacobi, roots_legendre

from hypverify.exact import evaluate_rows, ladder, ladder_taylor
from hypverify.radial import RadialGrid, convolve_with_kernel
from hypverify.spectral import (
    MultiplierSpec,
    make_spectral_grid,
    plancherel_prefactor,
)
from hypverify.specialfn import _log_sinh, phi_matrix, plancherel_density


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError("need an integer dimension n >= 2")


def _positive_rho(rho) -> np.ndarray:
    out = np.asarray(rho, dtype=float)
    # all(> 0) rather than any(<= 0), so that NaN fails too
    if not np.all(out > 0.0):
        raise ValueError("kernels are evaluated at rho > 0")
    return out


def _ladder_sum(a: int, m: int, start: int, kappa: float, r, scale: float = 1.0):
    # scale * sum kappa^q r^u E(r) over ladder(a, m, start), the seed
    # e^(-kappa r^a) left out; Horner in r over u
    terms = ladder(a, m, start)
    top = max(u for (_, u), _ in terms)
    rows = [[(scale * kappa**q, e) for (q, v), e in terms if v == u] for u in range(top + 1)]
    rows = evaluate_rows(rows, r)
    total = rows[top]
    for row in rows[-2::-1]:
        total *= r
        total += row
    return total


# The Gaussian ladder's terms cancel near rho = 0, so below _GAUSS_SEAM[m]
# (1.6 for m > 4) the Taylor series of ``ladder_taylor`` (radius pi in
# rho) takes over.  Against mpmath at t = 0.01, 0.5 and 5, each seam is
# where the terms lose under 4e-15, and both sides stay within 1e-14 up
# to m = 5 and 1e-12 up to m = 7.  m = 1 is one term and needs no series.
_GAUSS_SEAM = {1: 0.0, 2: 0.5, 3: 1.0, 4: 1.3}
_GAUSS_ORDER = 48


def _gaussian_ladder(m: int, t: float, r: np.ndarray) -> np.ndarray:
    # L^m e^(-r^2/4t) at r > 0
    kappa = 0.25 / t
    near = r < _GAUSS_SEAM.get(m, 1.6)
    out = np.empty_like(r)
    out[~near] = _ladder_sum(2, m, 0, kappa, r[~near])
    if np.any(near):
        series = ladder_taylor(m, _GAUSS_ORDER)
        coefs = sum(kappa**q * np.array(a, dtype=float) for q, a in enumerate(series))
        out[near] = np.polyval(coefs[::-1], r[near] ** 2)
    out *= np.exp(-(r**2) / (4.0 * t))
    return out


def heat_kernel(t: float, rho, n: int):
    """Heat kernel e^(t Delta) at time t and distance rho on H^n.

    Odd n: exact ladder form

        (2 pi)^(-m) e^(-(n-1)^2 t/4) (4 pi t)^(-1/2) L^m e^(-rho^2/4t),
        m = (n-1)/2.

    Even n: the same expression half a step up, pushed through the Weyl
    half-integral.  Positive, mass 1, and matching the spectral route
    e^(-t((n-1)^2+lam^2)/4); requires rho > 0.  Near rho = 0, where the
    ladder terms cancel, the exact Taylor series of the ladder takes over,
    so small t and small rho keep full accuracy.
    """
    _check_dimension(n)
    if t <= 0:
        raise ValueError("t must be positive")
    r = _positive_rho(rho)
    gap = (n - 1) ** 2 / 4.0
    if n % 2 == 1:
        m = (n - 1) // 2
        pref = (2.0 * math.pi) ** (-m) * math.exp(-gap * t) / math.sqrt(
            4.0 * math.pi * t
        )
        return pref * _gaussian_ladder(m, t, r)
    m = (n - 2) // 2
    pref = (
        (2.0 * math.pi) ** (-m)
        * math.exp(-gap * t)
        / (math.sqrt(2.0) * math.pi * math.sqrt(4.0 * math.pi * t))
    )
    # cut where the Gaussian has dropped by e^(-42) relative to its
    # value at the largest rho requested: r_c^2 = rho^2 + 168 t
    rho_top = float(np.max(r))
    sigma_max = math.exp(0.5 * math.sqrt(rho_top**2 + 170.0 * t)) + 10.0
    return pref * _weyl_half_integral(lambda x: _gaussian_ladder(m + 1, t, x), r, sigma_max)


def _weyl_half_integral(fn, rho: np.ndarray, sigma_max: float):
    """2 int_0^sigma_max fn(r(sigma)) d sigma, r = arccosh(cosh rho + sigma^2).

    This is int_rho^inf fn(r) sinh(r) (cosh r - cosh rho)^(-1/2) dr with
    the square-root endpoint removed.  Callers size sigma_max so the
    truncated tail is negligible relative to the result at the largest
    rho requested; the panel count grows with the window so the
    per-panel ratio stays resolvable.
    """
    shape = rho.shape
    rr = np.atleast_1d(rho).ravel()
    delta = 2.0 * np.sinh(0.5 * rr) ** 2
    # the integrand varies on scale sigma ~ sqrt(delta) near sigma = 0
    # (r(sigma)^2 ~ 2 delta + 2 sigma^2 there), so the low panels grade
    # geometrically down to the smallest delta requested
    s0 = min(0.5 * math.sqrt(float(np.min(delta))), 0.25)
    nlo = max(8, int(math.log2(1.0 / s0)) + 5)
    ngeo = max(56, int(6.0 * math.log(sigma_max)) + 16)
    bounds = np.concatenate(
        [
            [0.0],
            np.geomspace(s0, 1.0, nlo),
            np.geomspace(1.0, sigma_max, ngeo)[1:],
        ]
    )
    x, w = roots_legendre(16)
    mid = 0.5 * (bounds[:-1] + bounds[1:])
    half = 0.5 * np.diff(bounds)
    sig = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    xx = delta[:, None] + sig[None, :] ** 2
    r = np.log1p(xx + np.sqrt(xx * (xx + 2.0)))
    out = 2.0 * (fn(r) @ wts)
    return out.reshape(shape) if shape else float(out[0])


# -- limiting Green kernel ---------------------------------------------


def limiting_green_kernel(rho, n: int):
    """Kernel of (-Delta - (n-1)^2/4)^(-1), the bottom-of-spectrum Green
    function.

    Odd n = 2m+3: the exact ladder form (2 pi)^(-m) L^m [1/(4 pi sinh)],
    whose coefficients are the positive integers from the sinh
    recursion.  Even n: Weyl half-integral of the ladder of 1/(2 sinh).
    Blows up like rho^(2-n) at the origin (log for n = 2) and decays
    like e^(-(n-1) rho / 2)."""
    _check_dimension(n)
    r = _positive_rho(rho)
    if n % 2 == 1:
        m = (n - 3) // 2
        return _ladder_sum(1, m, -1, 0.0, r, 1.0 / (4.0 * math.pi * (2.0 * math.pi) ** m))
    m = (n - 2) // 2
    # integrand ~ sigma^(-2(m+1)) so the truncated tail ~ sigma^(-(2m+1));
    # the kernel itself is ~ e^(-(2m+1) rho / 2), so relative accuracy
    # needs sigma_max >> e^(rho/2) by the tolerance's (2m+1)-th root
    rho_top = float(np.max(r))
    sigma_max = (math.exp(0.5 * rho_top) + 10.0) * 10.0 ** (13.0 / (2 * m + 1))
    pref = 1.0 / (math.sqrt(2.0) * math.pi * (2.0 * math.pi) ** m)
    return pref * _weyl_half_integral(lambda x: _ladder_sum(1, m, -1, 0.0, x, 0.5), r, sigma_max)


# -- resolvent, arbitrary shift ----------------------------------------

_RESOLVENT_LEVELS = 45
_LOG_TINY = math.log(np.finfo(float).tiny)
_RESOLVENT_ORDER = 16


def _resolvent_rule(theta: float):
    # panel bounds dyadic toward both endpoints of [0, 2]; endpoint
    # panels carry the w^theta / (2-w)^theta weights via Jacobi rules
    J = _RESOLVENT_LEVELS
    q = _RESOLVENT_ORDER
    left = 2.0 ** -np.arange(J, -1, -1, dtype=float)
    bounds = np.concatenate([[0.0], left, 2.0 - left[::-1][1:], [2.0]])

    xj, wj = roots_jacobi(q, 0.0, theta)
    xl, wl = roots_legendre(q)

    nodes = []
    weights = []
    # first panel [0, b]: w = b (x+1)/2 absorbs w^theta into the Jacobi
    # weight; the regular (2-w)^theta factor stays explicit
    b = bounds[1]
    wfirst = b * 0.5 * (xj + 1.0)
    nodes.append(wfirst)
    weights.append(wj * (0.5 * b) ** (theta + 1.0) * (2.0 - wfirst) ** theta)
    # middle panels: plain Gauss-Legendre, weights evaluated explicitly
    for lo, hi in zip(bounds[1:-2], bounds[2:-1]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        wmid = mid + half * xl
        nodes.append(wmid)
        weights.append(half * wl * wmid**theta * (2.0 - wmid) ** theta)
    # last panel [2-b, 2]: 2 - w = b (x+1)/2 absorbs (2-w)^theta
    wlast = 2.0 - b * 0.5 * (xj + 1.0)
    nodes.append(wlast)
    weights.append(wj * (0.5 * b) ** (theta + 1.0) * wlast**theta)
    return np.concatenate(nodes), np.concatenate(weights)


def resolvent_kernel(lam0: float, rho, n: int):
    """Kernel of (-Delta + lam0)^(-1) on H^n, lam0 above -(n-1)^2/4.

    Compact Jacobi-weighted integral; every dimension n >= 2.  At
    lam0 = -(n-1)^2/4 (theta = -1/2) this is the limiting Green kernel,
    which the tests exploit as a cross-route anchor.
    """
    _check_dimension(n)
    r = _positive_rho(rho)
    gap = (n - 1) ** 2 / 4.0
    if lam0 < -gap:
        raise ValueError("lam0 must be >= -(n-1)^2/4")
    theta = math.sqrt(lam0 + gap) - 0.5
    mu = 0.5 * (n - 4) - theta
    w, wt = _resolvent_rule(theta)
    pref = (
        (2.0 * math.pi) ** (-n / 2.0)
        * math.gamma(n / 2.0 + theta)
        / (2.0 ** (theta + 1.0) * math.gamma(theta + 1.0))
    )
    shape = r.shape
    rr = np.atleast_1d(r).ravel()
    # (delta + w)^mu = delta^mu (1 + w/delta)^mu, and delta^mu sinh^(2-n)
    # in log form, since both factors leave the float range long before
    # rho = 800.  Past delta = e^40 the pair factor is 1 to rounding; the
    # clamp keeps w/delta from underflowing.
    log_delta = math.log(2.0) + 2.0 * _log_sinh(0.5 * rr)
    ratio = np.exp(-np.minimum(log_delta, 40.0))
    inner = (1.0 + w[None, :] * ratio[:, None]) ** mu @ wt
    log_out = math.log(pref) + np.log(inner) + mu * log_delta + (2 - n) * _log_sinh(rr)
    # below the normal range the kernel is 0; exp would underflow there
    out = np.exp(log_out, out=np.zeros_like(log_out), where=log_out > _LOG_TINY)
    return out.reshape(shape) if shape else float(out[0])


# -- closed odd-dimension resolvents -------------------------------------


def _resolvent_closed_odd(lam0: float, rho: np.ndarray, n: int) -> np.ndarray:
    # exact ladder form for odd n; the seed e^(-s rho)/(4 pi sinh rho)
    # is the dimension-3 resolvent with the matched shift
    m = (n - 3) // 2
    s = math.sqrt(lam0 + (n - 1) ** 2 / 4.0)
    out = _ladder_sum(1, m, -1, s, rho, 1.0 / (4.0 * math.pi * (2.0 * math.pi) ** m))
    out *= np.exp(-s * rho)
    return out


def frac_resolvent_h3(rho, s: float, alpha: float):
    """Kernel of (-Delta - 1 + s^2)^(-alpha) on H^3 (Bessel closed form).

        sqrt(pi) / (2 pi^2 Gamma(alpha)) * s (rho/2s)^(alpha-1/2)
        K_(alpha-3/2)(s rho) / sinh(rho)

    At alpha = 1 this collapses to e^(-s rho)/(4 pi sinh rho).  The
    family is a convolution semigroup in alpha, which the tests check.
    """
    if s <= 0 or alpha <= 0:
        raise ValueError("need s > 0 and alpha > 0")
    r = _positive_rho(rho)
    pref = math.sqrt(math.pi) / (2.0 * math.pi**2 * math.gamma(alpha)) * s
    return (
        pref
        * (r / (2.0 * s)) ** (alpha - 0.5)
        * kv(alpha - 1.5, s * r)
        / np.sinh(r)
    )


def fractional_green_h3(rho, alpha: float):
    """Kernel of (-Delta - 1)^(-alpha/2) on H^3, for 1 <= alpha < 3.

        2^(-alpha) pi^(-3/2) (Gamma((3-alpha)/2)/Gamma(alpha/2))
            * rho^(alpha-2) / sinh(rho)

    This is the s -> 0 limit of ``frac_resolvent_h3`` at order alpha/2;
    at alpha = 2 it collapses to the limiting Green kernel
    1/(4 pi sinh rho).  Its envelope ratio

        Psi_alpha(rho) = (2 sinh(rho/2)/rho)^(2-alpha) / cosh(rho/2)

    is <= 1 and decreasing, which is how the kernel gets compared
    against the (2 sinh(rho/2))^(alpha-2) shape.
    """
    if not 1.0 <= alpha < 3.0:
        raise ValueError("alpha must lie in [1, 3)")
    r = _positive_rho(rho)
    pref = (
        2.0**-alpha
        * math.pi**-1.5
        * math.gamma((3.0 - alpha) / 2.0)
        / math.gamma(alpha / 2.0)
    )
    return pref * r ** (alpha - 2.0) / np.sinh(r)


def product_resolvent_h5(a: float, b: float, rho):
    """Kernel of (-Delta + a)^(-1) (-Delta + b)^(-1) on H^5, a != b.

    Partial fractions against the two closed resolvents:
    (R_a - R_b) / (b - a).
    """
    if a == b:
        raise ValueError("shifts must differ (double poles not covered)")
    r = _positive_rho(rho)
    ra = _resolvent_closed_odd(a, r, 5)
    rb = _resolvent_closed_odd(b, r, 5)
    return (ra - rb) / (b - a)


# -- inverse kernels of the gap-product operators ------------------------


def _gap_shifts(n: int, k: int):
    # -Delta + c_i has symbol (lam^2 + (2i-1)^2)/4 when
    # c_i = ((2i-1)^2 - (n-1)^2)/4
    return [((2 * i - 1) ** 2 - (n - 1) ** 2) / 4.0 for i in range(2, k + 1)]


def qk_inverse_kernel(
    grid: RadialGrid,
    n: int,
    k: int,
    route: str = "convolution",
    lam_max: float = 160.0,
    num_lam: int = 1024,
) -> np.ndarray:
    """Kernel of the inverse gap-product operator on the grid nodes.

    The operator is (-Delta - (n-1)^2/4) prod_{i=2..k} (-Delta + c_i)
    with symbol (lam^2/4) prod (lam^2 + (2i-1)^2)/4.

    route="convolution" (odd n only): limiting Green kernel convolved
    with the closed resolvent at each remaining shift; accurate to the
    convolution quadrature.  Against the exact partial fractions on
    rho_max = 12 grids it measured 1e-3 to 5e-3 relative on [0.1, 5]
    with 480 nodes (n = 5, 7; k = 2, 3), 4e-4 with 896 nodes, about 5e-3
    on [5, 9], and up to 65 % within 3 of rho_max, where the grid
    truncates the convolution.  route="spectral": direct inversion
    integral with the reciprocal symbol; its integrand decays only
    algebraically, so accuracy is set by lam_max (defaults give ~1e-3
    relative on moderate rho for n - 2k = 1).  Keeping both routes
    independent is the point: agreement validates kernel and symbol at
    once.
    """
    _check_dimension(n)
    if k < 1:
        raise ValueError("need k >= 1")
    if n - 2 * k < 1:
        raise ValueError("need n > 2k for an integrable kernel")
    if route == "convolution":
        if n % 2 == 0:
            raise ValueError("convolution route needs odd n (closed resolvents)")
        vals = limiting_green_kernel(grid.nodes, n)
        for shift in _gap_shifts(n, k):
            vals = convolve_with_kernel(
                vals, lambda d, s=shift: _resolvent_closed_odd(s, d, n), grid, n
            )
        return vals
    if route != "spectral":
        raise ValueError("route must be 'convolution' or 'spectral'")
    sgrid = make_spectral_grid(lam_max, num_lam)
    sym = MultiplierSpec.gjms_gap(k).reciprocal()(sgrid.nodes, n)
    dens = plancherel_density(sgrid.nodes, n)
    phi = phi_matrix(sgrid.nodes, grid.nodes, n)
    return plancherel_prefactor(n) * ((sym * dens * sgrid.weights) @ phi)
