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
dimension-3 seed by iterating L, which this module does symbolically
with exact rational coefficients (the same bookkeeping as the Laurent
ladder in the exact module, enlarged with Gaussian or exponential
prefactor rules).  Even dimensions sit half a step down: they are
reached by the Weyl half-integral

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

Term-by-term evaluation of the Gaussian ladder loses digits near
rho = 0 (terms grow like rho^(-j) while the sum stays finite), so the
heat expansions switch to an even-polynomial fit below a small radius,
the same device the radial Laplacian uses.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import kv, roots_jacobi, roots_legendre

from hypverify.exact import LaurentElement
from hypverify.radial import RadialGrid, convolve_with_kernel
from hypverify.spectral import (
    MultiplierSpec,
    make_spectral_grid,
    plancherel_prefactor,
)
from hypverify.specialfn import phi_matrix, plancherel_density


def _check_dimension(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError("need an integer dimension n >= 2")


def _positive_rho(rho) -> np.ndarray:
    out = np.asarray(rho, dtype=float)
    # all(> 0) rather than any(<= 0), so that NaN fails too
    if not np.all(out > 0.0):
        raise ValueError("kernels are evaluated at rho > 0")
    return out


# -- Gaussian ladder ---------------------------------------------------
#
# Terms of L^m e^(-r^2/4t) relative to the Gaussian factor: the key
# (d, u, p, eps) stands for t^(-d) r^u sinh(r)^(-p) cosh(r)^eps with a
# rational coefficient.  One ladder step maps a term to
#
#     (d+1, u+1, p+1, eps)  * c/2      (Gaussian factor)
#     (d,   u-1, p+1, eps)  * -u c     (power of r)
#     (d,   u,   p+2, eps+1)* p c      (power of sinh; cosh^2 reduces)
#     (d,   u,   p,   eps-1)* -c       (the cosh factor, when present)


def _ladder_gaussian_terms(m: int) -> dict:
    terms = {(0, 0, 0, 0): Fraction(1)}
    for _ in range(m):
        new: dict = {}

        def put(key, c):
            if c:
                new[key] = new.get(key, Fraction(0)) + c

        for (d, u, p, eps), c in terms.items():
            put((d + 1, u + 1, p + 1, eps), c / 2)
            if u:
                put((d, u - 1, p + 1, eps), -u * c)
            if p:
                if eps:
                    put((d, u, p + 2, 0), p * c)
                    put((d, u, p, 0), p * c)
                else:
                    put((d, u, p + 2, 1), p * c)
            if eps:
                put((d, u, p, 0), -c)
        terms = {k: c for k, c in new.items() if c}
    return terms


def _gaussian_ladder_evaluator(m: int, t: float):
    """Stable callable for L^m e^(-r^2/4t) on positive arrays.

    Direct term summation cancels catastrophically as r -> 0, so below
    a small radius the value comes from an even-polynomial fit to the
    stable region; the function is smooth and even, which makes the
    extrapolation accurate to ~1e-12 for t >= 0.1.
    """
    terms = _ladder_gaussian_terms(m)
    coefs = [
        (float(c) * t ** (-d), u, p, eps) for (d, u, p, eps), c in terms.items()
    ]

    def direct(r):
        s = np.sinh(r)
        ch = np.cosh(r)
        out = np.zeros_like(r)
        for c, u, p, eps in coefs:
            term = c * r**u / s**p
            if eps:
                term = term * ch
            out = out + term
        return out * np.exp(-(r**2) / (4.0 * t))

    if m == 0:
        return direct

    lo = 0.05
    xs = np.linspace(lo, 0.45, 24)
    powers = 2 * np.arange(8)
    fit = np.linalg.lstsq(xs[:, None] ** powers[None, :], direct(xs), rcond=None)[0]

    def evaluate(r):
        r = np.asarray(r, dtype=float)
        patched = (np.minimum(r, 1.0)[..., None] ** powers) @ fit
        return np.where(r < lo, patched, direct(np.maximum(r, lo)))

    return evaluate


def heat_kernel(t: float, rho, n: int):
    """Heat kernel e^(t Delta) at time t and distance rho on H^n.

    Odd n: exact ladder form

        (2 pi)^(-m) e^(-(n-1)^2 t/4) (4 pi t)^(-1/2) L^m e^(-rho^2/4t),
        m = (n-1)/2.

    Even n: the same expression half a step up, pushed through the Weyl
    half-integral.  Positive, mass 1, and matching the spectral route
    e^(-t((n-1)^2+lam^2)/4); requires rho > 0 and works well for
    t >= 0.1 (smaller times concentrate below the stable-fit radius).
    """
    _check_dimension(n)
    if t <= 0:
        raise ValueError("t must be positive")
    r = _positive_rho(rho)
    gap = (n - 1) ** 2 / 4.0
    if n % 2 == 1:
        m = (n - 1) // 2
        fn = _gaussian_ladder_evaluator(m, t)
        pref = (2.0 * math.pi) ** (-m) * math.exp(-gap * t) / math.sqrt(
            4.0 * math.pi * t
        )
        return pref * fn(r)
    m = (n - 2) // 2
    fn = _gaussian_ladder_evaluator(m + 1, t)
    pref = (
        (2.0 * math.pi) ** (-m)
        * math.exp(-gap * t)
        / (math.sqrt(2.0) * math.pi * math.sqrt(4.0 * math.pi * t))
    )
    # cut where the Gaussian has dropped by e^(-42) relative to its
    # value at the largest rho requested: r_c^2 = rho^2 + 168 t
    rho_top = float(np.max(r))
    sigma_max = math.exp(0.5 * math.sqrt(rho_top**2 + 170.0 * t)) + 10.0
    return pref * _weyl_half_integral(fn, r, sigma_max)


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
        elem = LaurentElement.inv_sinh()
        for _ in range(m):
            elem = elem.apply_inv_sinh_derivative()
        return elem.evaluate(r) / (4.0 * math.pi * (2.0 * math.pi) ** m)
    m = (n - 2) // 2
    elem = LaurentElement.inv_sinh()
    for _ in range(m):
        elem = elem.apply_inv_sinh_derivative()
    # integrand ~ sigma^(-2(m+1)) so the truncated tail ~ sigma^(-(2m+1));
    # the kernel itself is ~ e^(-(2m+1) rho / 2), so relative accuracy
    # needs sigma_max >> e^(rho/2) by the tolerance's (2m+1)-th root
    rho_top = float(np.max(r))
    sigma_max = (math.exp(0.5 * rho_top) + 10.0) * 10.0 ** (13.0 / (2 * m + 1))
    pref = 1.0 / (math.sqrt(2.0) * math.pi * (2.0 * math.pi) ** m)
    return pref * _weyl_half_integral(lambda x: 0.5 * elem.evaluate(x), r, sigma_max)


# -- resolvent, arbitrary shift ----------------------------------------

_RESOLVENT_LEVELS = 45
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
    delta = 2.0 * np.sinh(0.5 * rr) ** 2
    inner = (delta[:, None] + w[None, :]) ** mu @ wt
    out = pref * np.sinh(rr) ** (2 - n) * inner
    return out.reshape(shape) if shape else float(out[0])


# -- closed odd-dimension resolvents -------------------------------------
#
# Terms of L^m [e^(-s rho)/sinh rho]: the key (a, p, eps) stands for
# s^a sinh^(-p) cosh^eps relative to e^(-s rho).  One ladder step maps
#
#     (a+1, p+1, eps)  * c        (exponential factor)
#     (a, p+2, eps+1)  * p c      (power of sinh; cosh^2 reduces)
#     (a, p, eps-1)    * -c       (the cosh factor, when present)


def _ladder_exponential_terms(m: int) -> dict:
    terms = {(0, 1, 0): Fraction(1)}
    for _ in range(m):
        new: dict = {}

        def put(key, c):
            if c:
                new[key] = new.get(key, Fraction(0)) + c

        for (a, p, eps), c in terms.items():
            put((a + 1, p + 1, eps), c)
            if p:
                if eps:
                    put((a, p + 2, 0), p * c)
                    put((a, p, 0), p * c)
                else:
                    put((a, p + 2, 1), p * c)
            if eps:
                put((a, p, 0), -c)
        terms = {k: c for k, c in new.items() if c}
    return terms


def _resolvent_closed_odd(lam0: float, rho: np.ndarray, n: int) -> np.ndarray:
    # exact ladder form for odd n; the seed e^(-s rho)/(4 pi sinh rho)
    # is the dimension-3 resolvent with the matched shift
    m = (n - 3) // 2
    s = math.sqrt(lam0 + (n - 1) ** 2 / 4.0)
    terms = _ladder_exponential_terms(m)
    sh = np.sinh(rho)
    ch = np.cosh(rho)
    out = np.zeros_like(rho)
    for (a, p, eps), c in terms.items():
        term = float(c) * s**a / sh**p
        if eps:
            term = term * ch
        out = out + term
    return out * np.exp(-s * rho) / (4.0 * math.pi * (2.0 * math.pi) ** m)


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
    convolution quadrature (~1e-6).  route="spectral": direct inversion
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
