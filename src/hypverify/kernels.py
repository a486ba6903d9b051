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
from scipy.special import kv

from hypverify.exact import LaurentElement, evaluate_rows, ladder, ladder_taylor
from hypverify.radial import Grid, _gauss_jacobi, _panel_nodes, convolve_with_kernel
from hypverify.spectral import (
    MultiplierSpec,
    make_spectral_grid,
    plancherel_prefactor,
)
from hypverify.specialfn import _check_dimension, _log_sinh, phi_matrix, plancherel_density


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


def _gaussian_ladder(m: int, t: float, r: np.ndarray, lift=0.0) -> np.ndarray:
    # L^m e^(-r^2/4t) at r > 0, times e^lift
    kappa = 0.25 / t
    near = r < _GAUSS_SEAM.get(m, 1.6)
    out = np.empty_like(r)
    out[~near] = _ladder_sum(2, m, 0, kappa, r[~near])
    if np.any(near):
        series = ladder_taylor(m, _GAUSS_ORDER)
        coefs = sum(kappa**q * np.array(a, dtype=float) for q, a in enumerate(series))
        out[near] = np.polyval(coefs[::-1], r[near] ** 2)
    out *= np.exp(lift - r**2 / (4.0 * t))
    return out


def heat_kernel(t: float, rho, n: int):
    """Heat kernel e^(t Delta) at time t and distance rho on H^n.

    Odd n: exact ladder form

        (2 pi)^(-m) e^(-(n-1)^2 t/4) (4 pi t)^(-1/2) L^m e^(-rho^2/4t),
        m = (n-1)/2.

    Even n: the same expression half a step up, pushed through the Weyl
    half-integral; where its window would leave the float range (rho or
    t in the hundreds) the kernel reads 0 if it is below the normal
    range and raises ValueError otherwise.  Positive, mass 1, and matching the spectral route
    e^(-t((n-1)^2+lam^2)/4); requires rho > 0.  Near rho = 0, where the
    ladder terms cancel, the exact Taylor series of the ladder takes over,
    so small t and small rho keep full accuracy.
    """
    n = _check_dimension(n)
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
    log_sigma = 0.5 * np.sqrt(r**2 + 170.0 * t)
    # the two-sided Gaussian estimate t^(-n/2) (1+rho) (1+rho+t)^((n-3)/2)
    # e^(-gap t - (n-1) rho/2 - rho^2/4t), with room for its constant
    log_bound = n * np.log(2.0 + r + t + 1.0 / t) - (
        gap * t + 0.5 * (n - 1) * r + r**2 / (4.0 * t)
    )
    # the integrand ~ e^(-(m+1) r - r^2/4t).  Only its Gaussian factor can
    # take it out of the float range while the kernel is in it, so no row
    # is scaled by more than that factor's drop rho^2/4t at its own rho:
    # the scaled Gaussian stays <= 1 and cannot overflow
    reach = np.minimum(r, _UNSCALED / (m + 1)) + r**2 / (4.0 * t * (m + 1))
    return _weyl_rows(
        lambda x, shift: _gaussian_ladder(m + 1, t, x, (m + 1) * shift),
        r, pref, m + 1, reach, log_sigma, 1.0, log_bound,
    )


# A sigma window past e^350 would take sigma^2 out of the float range.
_LOG_SIGMA_MAX = 350.0
_LOG_TINY = math.log(np.finfo(float).tiny)
# The even-n Weyl integrands decay like e^(-rate r) and would underflow
# while the kernel is still a normal float.  A row whose integrand starts
# below e^(-300) is scaled up to it, and its value scaled back down.
_UNSCALED = 300.0


def _weyl_rows(fn, rho: np.ndarray, pref: float, rate: int, reach, log_sigma,
               scale: float, log_bound):
    """pref times ``_weyl_half_integral`` at every rho, on one window for all rows.

    The integrand of row i is about e^(-rate reach[i]) at r = rho[i].
    Past rate reach = 300 it is scaled by e^(rate shift), shift =
    reach - 300/rate, and the row's value multiplied by e^(-rate shift);
    fn(r, shift) returns the scaled integrand.  Row i asks for sigma_max
    = (e^log_sigma[i] + 10) * scale, and the window is the largest of
    these.  A row whose window would leave the float range returns 0 when
    log_bound[i], an upper bound on the log of its value, is below the
    normal range, and sizes no window; any other such row raises
    ValueError.
    """
    shape = rho.shape
    rho, reach, log_sigma, log_bound = (
        np.atleast_1d(a).ravel() for a in (rho, reach, log_sigma, log_bound)
    )
    shift = np.maximum(reach - _UNSCALED / rate, 0.0)
    far = log_sigma + math.log(scale) > _LOG_SIGMA_MAX
    if np.any(log_bound[far] > _LOG_TINY):
        raise ValueError("rho or t too large: the half-integral's window leaves the float range")
    out = np.zeros_like(rho)
    near = ~far
    if np.any(near):
        sigma_max = (math.exp(float(np.max(log_sigma[near]))) + 10.0) * scale
        out[near] = _weyl_half_integral(fn, rho[near], shift[near], sigma_max)
    out = pref * out * np.exp(-rate * shift)
    return out.reshape(shape) if shape else float(out[0])


def _weyl_half_integral(fn, rho: np.ndarray, shift: np.ndarray, sigma_max: float) -> np.ndarray:
    """2 int_0^sigma_max fn(r(sigma)) d sigma, r = arccosh(cosh rho + sigma^2).

    This is int_rho^inf fn(r) sinh(r) (cosh r - cosh rho)^(-1/2) dr with
    the square-root endpoint removed, at each entry of the 1-d rho.  fn
    is called as fn(r, shift) with one row of r, and its shift, per rho.
    Callers size sigma_max so the truncated tail is negligible relative
    to the result at the largest rho requested; the panel count grows
    with the window so the per-panel ratio stays resolvable.
    """
    delta = 2.0 * np.sinh(0.5 * rho) ** 2
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
    sig, wts = _panel_nodes(bounds, 16)
    xx = delta[:, None] + sig[None, :] ** 2
    # r = arccosh(1 + xx).  Past xx = 1e150 the root is xx to rounding, so
    # the sum is 2 xx, and the product under the root would overflow.
    if float(np.max(delta)) + sig[-1] ** 2 <= 1e150:
        r = np.log1p(xx + np.sqrt(xx * (xx + 2.0)))
    else:
        big = xx > 1e150
        r = np.log1p(2.0 * xx)
        small = xx[~big]
        r[~big] = np.log1p(small + np.sqrt(small * (small + 2.0)))
    return 2.0 * (fn(r, shift[:, None]) @ wts)


# -- limiting Green kernel ---------------------------------------------


def limiting_green_kernel(rho, n: int):
    """Kernel of (-Delta - (n-1)^2/4)^(-1), the bottom-of-spectrum Green
    function.

    Odd n = 2m+3: the exact ladder form (2 pi)^(-m) L^m [1/(4 pi sinh)],
    whose coefficients are the positive integers from the sinh
    recursion.  Even n: Weyl half-integral of the ladder of 1/(2 sinh),
    reading 0 or raising ValueError past rho ~ 650 as ``heat_kernel``
    does.  Blows up like rho^(2-n) at the origin (log for n = 2) and
    decays like e^(-(n-1) rho / 2)."""
    n = _check_dimension(n)
    r = _positive_rho(rho)
    if n % 2 == 1:
        m = (n - 3) // 2
        return _ladder_sum(1, m, -1, 0.0, r, 1.0 / (4.0 * math.pi * (2.0 * math.pi) ** m))
    m = (n - 2) // 2
    # integrand ~ sigma^(-2(m+1)) so the truncated tail ~ sigma^(-(2m+1));
    # the kernel itself is ~ e^(-(2m+1) rho / 2), so relative accuracy
    # needs sigma_max >> e^(rho/2) by the tolerance's (2m+1)-th root
    scale = 10.0 ** (13.0 / (2 * m + 1))
    # that decay, with room for its constant
    log_bound = n * np.log(2.0 + r) - 0.5 * (n - 1) * r
    pref = 1.0 / (math.sqrt(2.0) * math.pi * (2.0 * math.pi) ** m)
    return _weyl_rows(
        lambda x, shift: _green_integrand(m, x, shift),
        r, pref, m + 1, r, 0.5 * r, scale, log_bound,
    )


def _green_integrand(m: int, r, shift):
    """0.5 L^m (1/sinh) at r, which is ~ e^(-(m+1) r), times e^((m+1) shift).

    Every ladder term carries the factor 1/sinh^(m+1) = x^(m+1),
    x = 2 e^(-r) / (1 - e^(-2r)).  The rest is summed first and the
    factor applied last as (x e^shift)^(m+1), which stays in range
    where x^(m+1) alone would underflow.
    """
    up = LaurentElement({(m + 1, 0): 1})
    # at kappa = 0 only the q = 0 terms of the ladder count
    val = evaluate_rows([[(0.5, e * up) for (q, _), e in ladder(1, m, -1) if q == 0]], r)[0]
    x = np.exp(shift - r) * np.divide(-2.0, np.expm1(-2.0 * r))
    for _ in range(m + 1):
        val *= x
    return val


# -- resolvent, arbitrary shift ----------------------------------------

_RESOLVENT_LEVELS = 45
_RESOLVENT_ORDER = 16


def _resolvent_rule(theta: float):
    # Graded toward w = 0 only, where (delta + w)^mu varies on scale
    # delta: dyadic Gauss-Legendre panels on [2^-45, 1], and below them a
    # Jacobi panel, w = b (x+1)/2, that carries w^theta.  On [1, 2] the
    # rest of the integrand is analytic at distance >= 1 from its
    # singularities, and one Jacobi panel, 2 - w = (x+1)/2, carries
    # (2-w)^theta: 16 (45 + 2) = 752 nodes
    bounds = 2.0 ** -np.arange(_RESOLVENT_LEVELS, -1, -1, dtype=float)
    xj, wj = _gauss_jacobi(_RESOLVENT_ORDER, 0.0, theta)
    b = bounds[0]
    wfirst = b * 0.5 * (xj + 1.0)
    wmid, wtmid = _panel_nodes(bounds, _RESOLVENT_ORDER)
    wlast = 1.5 - 0.5 * xj
    nodes = np.concatenate([wfirst, wmid, wlast])
    weights = np.concatenate(
        [
            wj * (0.5 * b) ** (theta + 1.0) * (2.0 - wfirst) ** theta,
            wtmid * wmid**theta * (2.0 - wmid) ** theta,
            wj * 0.5 ** (theta + 1.0) * wlast**theta,
        ]
    )
    return nodes, weights


def resolvent_kernel(lam0: float, rho, n: int):
    """Kernel of (-Delta + lam0)^(-1) on H^n, lam0 above -(n-1)^2/4.

    Compact Jacobi-weighted integral; every dimension n >= 2.  At
    lam0 = -(n-1)^2/4 (theta = -1/2) this is the limiting Green kernel,
    which the tests exploit as a cross-route anchor.  The rule is graded
    toward w = 0 only; a Jacobi panel carries (2-w)^theta on [1, 2].  On
    rho in [1e-6, 60] it is within 6e-14 of the odd-n closed forms (n =
    3..9) for s = sqrt(lam0 + (n-1)^2/4) in [0.01, 2.5] and 1.6e-13 at
    s = 20; at the bottom it meets the even-n Green kernel to 1.6e-13.
    """
    n = _check_dimension(n)
    r = _positive_rho(rho)
    gap = (n - 1) ** 2 / 4.0
    if lam0 < -gap:
        raise ValueError("lam0 must be >= -(n-1)^2/4")
    theta = math.sqrt(lam0 + gap) - 0.5
    mu = 0.5 * (n - 4) - theta
    w, wt = _resolvent_rule(theta)
    pref = (2.0 * math.pi) ** (-n / 2.0) * math.gamma(n / 2.0 + theta) / (
        2.0 ** (theta + 1.0) * math.gamma(theta + 1.0))
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


# Taylor coefficients, highest first, of e^(-x)(1+x) - 1 = sum_(k>=2)
# (-1)^(k+1) (k-1) x^k/k! over x^2 and of sinh r - r = sum_(j>=0)
# r^(2j+3)/(2j+3)! over r^3: enough for 1e-17 up to x = r = 1
_EXP_LIN = [(-1) ** (k + 1) * (k - 1) / math.factorial(k) for k in range(21, 1, -1)]
_SINH_LIN = [1.0 / math.factorial(2 * j + 3) for j in range(8, -1, -1)]


def _g_minus_one(s: float, r: np.ndarray) -> np.ndarray:
    # g(s) - 1 = e^(-x)(1+x) - 1 + e^(-x) [(cosh r - 1) + s (sinh r - r)],
    # x = s r, for g(s) = e^(-s r)(cosh r + s sinh r) at s r <= 1, r <= 1
    x = s * r
    tail = 2.0 * np.sinh(0.5 * r) ** 2 + s * r**3 * np.polyval(_SINH_LIN, r**2)
    return x**2 * np.polyval(_EXP_LIN, x) + np.exp(-x) * tail


def product_resolvent_h5(a: float, b: float, rho):
    """Kernel of (-Delta + a)^(-1) (-Delta + b)^(-1) on H^5, a != b.

    Partial fractions, (R_a - R_b)/(b - a), over the closed resolvents
    R_c = g(s)/(8 pi^2 sinh^3 rho), g(s) = e^(-s rho)(cosh rho + s sinh
    rho), s = sqrt(c + 4).  Each grows like rho^-3 at 0, the difference
    like rho^-1, so below max(1, s) rho = 1 it is (g(s_a) - 1) - (g(s_b)
    - 1) by series; past that, where g - 1 nears -1, as it stands.
    Against 40-digit mpmath on [1e-7, 15]: 9e-16 at (a, b) = (-4, -3),
    (-3.5, 0.5) and (0, 5); 1e-13 at (396, 400), a 1 % difference.
    """
    if a == b:
        raise ValueError("shifts must differ (double poles not covered)")
    r = _positive_rho(rho)
    far = _resolvent_closed_odd(a, r, 5) - _resolvent_closed_odd(b, r, 5)
    sa, sb = math.sqrt(a + 4.0), math.sqrt(b + 4.0)
    seam = 1.0 / max(1.0, sa, sb)
    # the series hold below the seam; clamped, they are never taken past it
    rn = np.minimum(r, seam)
    near = (_g_minus_one(sa, rn) - _g_minus_one(sb, rn)) / (8.0 * math.pi**2 * np.sinh(rn) ** 3)
    return np.where(r < seam, near, far) / (b - a)


# -- inverse kernels of the gap-product operators ------------------------


def _gap_shifts(n: int, k: int):
    # -Delta + c_i has symbol (lam^2 + (2i-1)^2)/4 when
    # c_i = ((2i-1)^2 - (n-1)^2)/4
    return [((2 * i - 1) ** 2 - (n - 1) ** 2) / 4.0 for i in range(2, k + 1)]


def qk_inverse_kernel(
    grid: Grid,
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
    n = _check_dimension(n)
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
