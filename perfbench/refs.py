"""Exact references for the benchmark tasks.

Nothing here imports hypverify: every reference is evaluated by a route
the library does not use.  ``ERRORS`` states the relative error each one
carries.  Those errors sit at least two decimal digits below the accuracy
the library reaches on the same quantity, except where the library itself
is within two digits of double precision (heat_kernel, resolvent_kernel);
there the reference is exact to rounding.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad, quad_vec

# Relative error each reference carries, as stated in BASELINE.json.
ERRORS = {
    "heat_h3": 1e-15,      # closed form in float64
    "heat_h5": 1e-15,      # closed form, cancellation-free series below x = 2
    "heat_h4": 1e-13,      # adaptive quad_vec of the Weyl half-integral
    "heat_transform": 1e-15,
    "heat_norms": 1e-15,   # mpmath quad at 30 digits, gamma functions in mpmath
    "phi3": 1e-15,         # 2 sin(lam rho/2) / (lam sinh rho), sup-norm relative
    "resolvent_odd": 1e-15,  # closed ladder forms in mpmath at 50 digits
    "qk_exact": 1e-15,       # partial fractions of the symbol, mpmath at 50 digits
    "hls_inner": 1e-10,      # nested adaptive quad with the n = 3 product formula
}


# -- heat kernel -----------------------------------------------------------


def _x_coth_x_minus_one(x: np.ndarray) -> np.ndarray:
    # x coth x - 1 = (x cosh x - sinh x) / sinh x; the numerator is the
    # series sum_k 2k x^(2k+1) / (2k+1)!, all terms positive, so no
    # cancellation for small x
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 2.0
    xs = x[small]
    term = xs**3 / 3.0  # k = 1: 2 x^3 / 3!
    num = term.copy()
    for k in range(2, 40):
        term = term * xs * xs * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
        num = num + term
    out[small] = num / np.sinh(xs)
    xb = x[~small]
    out[~small] = xb / np.tanh(xb) - 1.0
    return out


def _ladder2_gauss(t: float, r: np.ndarray) -> np.ndarray:
    # L^2 e^(-r^2/4t) = e^(-r^2/4t) [r coth r - 1 + r^2/(2t)] / (2t sinh^2 r)
    r = np.asarray(r, dtype=float)
    return (
        np.exp(-(r**2) / (4.0 * t))
        * (_x_coth_x_minus_one(r) + r**2 / (2.0 * t))
        / (2.0 * t * np.sinh(r) ** 2)
    )


def heat_h3(t: float, rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    return (
        math.exp(-t)
        * (4.0 * math.pi * t) ** -1.5
        * (rho / np.sinh(rho))
        * np.exp(-(rho**2) / (4.0 * t))
    )


def heat_h5(t: float, rho) -> np.ndarray:
    pref = math.exp(-4.0 * t) / ((2.0 * math.pi) ** 2 * math.sqrt(4.0 * math.pi * t))
    return pref * _ladder2_gauss(t, rho)


def heat_h4(t: float, rho) -> np.ndarray:
    """Weyl half-integral of the dimension-5 ladder, by adaptive quad_vec.

    K4(rho) = c 2 int_0^inf (L^2 g)(r(s)) ds with r = arccosh(cosh rho + s^2),
    c = e^(-9t/4) / (2 pi sqrt(2) pi sqrt(4 pi t)).  Each node is
    normalised by its integrand at s = 0 and mapped to [0, 1], so one
    vector quadrature controls the relative error at every node.
    """
    rho = np.asarray(rho, dtype=float)
    delta = 2.0 * np.sinh(0.5 * rho) ** 2
    scale = _ladder2_gauss(t, rho)
    # beyond r_top the Gaussian has fallen by e^(-60) from its value at rho
    r_top = np.sqrt(rho**2 + 240.0 * t)
    s_top = np.sqrt(np.cosh(r_top) - np.cosh(rho))

    def integrand(u):
        s = s_top * u
        x = delta + s * s
        r = np.log1p(x + np.sqrt(x * (x + 2.0)))
        return s_top * _ladder2_gauss(t, r) / scale

    val, _ = quad_vec(integrand, 0.0, 1.0, epsabs=1e-15, epsrel=1e-14, norm="max")
    pref = math.exp(-2.25 * t) / (
        2.0 * math.pi * math.sqrt(2.0) * math.pi * math.sqrt(4.0 * math.pi * t)
    )
    return pref * 2.0 * val * scale


def heat_profile(t: float, rho, n: int) -> np.ndarray:
    return {3: heat_h3, 4: heat_h4, 5: heat_h5}[n](t, rho)


def heat_transform(t: float, lam, n: int) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    return np.exp(-t * ((n - 1) ** 2 + lam**2) / 4.0)


def _density_mp(lam, n: int):
    # |c(lam)|^(-2) from the gamma-quotient c-function, all in mpmath
    il = mp.mpc(0, lam)
    c = (
        mp.power(2, n - 1 - il)
        * mp.gamma(mp.mpf(n) / 2)
        * mp.gamma(il)
        / (mp.gamma((n - 1 + il) / 2) * mp.gamma((1 + il) / 2))
    )
    return 1 / abs(c) ** 2


def heat_norms(t: float, n: int) -> tuple[float, float]:
    """(||K_t||_2^2, <K_t, -Delta K_t>) through the spectral integral.

    Both equal D_n int_0^inf m(lam) e^(-t((n-1)^2+lam^2)/2) |c|^(-2) dlam
    with m = 1 and m = ((n-1)^2+lam^2)/4.
    """
    with mp.workdps(30):
        area = 2 * mp.power(mp.pi, mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        dn = mp.power(2, n - 3) / (mp.pi * area)

        def gauss(lam):
            return mp.exp(-t * ((n - 1) ** 2 + lam**2) / 2) * _density_mp(lam, n)

        norm = dn * mp.quad(gauss, [0, 1, 4, 16, mp.inf])
        form = dn * mp.quad(
            lambda lam: gauss(lam) * ((n - 1) ** 2 + lam**2) / 4, [0, 1, 4, 16, mp.inf]
        )
        return float(norm), float(form)


def phi3(lam, rho) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)[:, None]
    rho = np.asarray(rho, dtype=float)[None, :]
    return 2.0 * np.sin(0.5 * lam * rho) / (lam * np.sinh(rho))


# -- resolvents and the gap-product inverse --------------------------------


def _ladder_exp_mp(s, rho, m: int):
    # L^m [e^(-s rho) / sinh rho], L = -(1/sinh) d/drho, derived by hand
    e = mp.exp(-s * rho)
    sh = mp.sinh(rho)
    ch = mp.cosh(rho)
    if m == 0:
        return e / sh
    if m == 1:
        return e * (s * sh + ch) / sh**3
    if m == 2:
        return e * ((s * s - 1) * sh**2 + 3 * s * sh * ch + 3 * ch**2) / sh**5
    raise ValueError("ladder depth above 2 is not needed")


def resolvent_odd(s: float, rho, n: int) -> np.ndarray:
    """Closed kernel of (-Delta - (n-1)^2/4 + s^2)^(-1) on H^n, n in {3, 5, 7}."""
    m = (n - 3) // 2
    with mp.workdps(50):
        sm = mp.mpf(s)
        c = 1 / (4 * mp.pi * (2 * mp.pi) ** m)
        return np.array([float(c * _ladder_exp_mp(sm, mp.mpf(r), m)) for r in rho])


def qk_exact(rho, n: int, k: int) -> np.ndarray:
    """Kernel of the inverse gap product by partial fractions.

    With x = lam^2/4 the symbol is x prod_{i=2..k} (x + a_i),
    a_i = (2i-1)^2/4; 1/P(x) = sum_j 1/(P'(r_j)(x - r_j)) over the roots
    r_j in {0, -a_2, ..., -a_k}, and 1/(x + a) is the resolvent with
    s = sqrt(a).  Summed at 50 digits, so the rho^(2-n) singularities of
    the terms cancel without loss.
    """
    m = (n - 3) // 2
    roots = [mp.mpf(0)] + [-mp.mpf((2 * i - 1) ** 2) / 4 for i in range(2, k + 1)]
    with mp.workdps(50):
        coefs = []
        for j, rj in enumerate(roots):
            d = mp.mpf(1)
            for l, rl in enumerate(roots):
                if l != j:
                    d *= rj - rl
            coefs.append((1 / d, mp.sqrt(-rj)))
        c = 1 / (4 * mp.pi * (2 * mp.pi) ** m)
        out = []
        for r in rho:
            rr = mp.mpf(r)
            out.append(float(c * sum(a * _ladder_exp_mp(s, rr, m) for a, s in coefs)))
        return np.array(out)


# -- HLS bilinear form on H^3 ----------------------------------------------


def hls_constant(n: int, lam: float) -> float:
    return (
        math.pi ** (lam / 2.0)
        * math.gamma((n - lam) / 2.0)
        / math.gamma(n - lam / 2.0)
        * (math.gamma(n / 2.0) / math.gamma(n)) ** (-1.0 + lam / n)
    )


def hls_bilinear_h3(f, g, lam: float, rho_max: float, tol: float = 1e-11) -> float:
    """8 pi^2 int int f(r) g(s) sinh r sinh s (b^(2-lam) - a^(2-lam))/(2-lam) ds dr.

    a = 2 sinh(|r-s|/2), b = 2 sinh((r+s)/2): the angular integral of
    (2 sinh(d/2))^(-lam) against sin(theta) in closed form (product
    formula on H^3).  The inner integral is split at s = r, where
    a^(2-lam) is singular for lam > 2; both halves go to adaptive quad.
    """
    log_kernel = abs(lam - 2.0) < 1e-12

    def angular(r, s):
        a = 2.0 * math.sinh(0.5 * abs(r - s))
        b = 2.0 * math.sinh(0.5 * (r + s))
        if log_kernel:
            return math.log(b / a) if a > 0 else math.inf
        if a == 0.0:
            return b ** (2.0 - lam) / (2.0 - lam) if lam < 2.0 else math.inf
        return (b ** (2.0 - lam) - a ** (2.0 - lam)) / (2.0 - lam)

    def inner(r):
        gr = lambda s: g(s) * math.sinh(s) * angular(r, s)
        lo = quad(gr, 0.0, r, epsabs=0.0, epsrel=tol, limit=200)[0] if r > 0 else 0.0
        hi = quad(gr, r, rho_max, epsabs=0.0, epsrel=tol, limit=200)[0]
        return f(r) * math.sinh(r) * (lo + hi)

    val = quad(inner, 0.0, rho_max, epsabs=0.0, epsrel=tol, limit=200)[0]
    return 8.0 * math.pi**2 * val


def lp_norm_h3(f, p: float, rho_max: float) -> float:
    val = quad(
        lambda r: abs(f(r)) ** p * math.sinh(r) ** 2,
        0.0, rho_max, epsabs=0.0, epsrel=1e-13, limit=200,
    )[0]
    return (4.0 * math.pi * val) ** (1.0 / p)
