"""Spherical functions and the Plancherel density on hyperbolic space.

Conventions: the positive Laplacian has spectrum [(n-1)^2/4, infinity)
and the spherical function phi_lambda solves

    -Delta phi = ((n-1)^2 + lambda^2)/4 * phi,   phi(0) = 1.

Two routes evaluate phi.  ``spherical_function`` (every n) and
``phi_matrix`` in even n and odd n > 9 use the integral representation

    phi_lambda(rho) = C_n (sinh rho)^(2-n)
                      int_0^rho cos(lambda s / 2) (cosh rho - cosh s)^((n-3)/2) ds

by Gauss-Jacobi quadrature in s: writing cosh rho - cosh s =
2 sinh((rho+s)/2) sinh((rho-s)/2), the endpoint factor
(rho - s)^((n-3)/2) becomes the Jacobi weight, the remaining envelope
is smooth and evaluated in log scale (no overflow for any rho), and
the phase lambda s / 2 stays exactly linear in the integration
variable, so the node count simply tracks lambda * rho.  Substitutions
that map the endpoint singularity away instead (s -> psi with
cosh s = cosh rho - 2 sinh^2(rho/2) cos^2 psi) compress the phase into
a layer of width e^(-rho/2) and lose accuracy for large rho; that is
why the quadrature is in s.

In odd n from 3 to 9, ``phi_matrix`` uses the exact closed form instead: from
phi_3 = 2 sin(lambda rho / 2)/(lambda sinh rho), the ladder
phi_(n+2) = 4n/((n-1)^2 + lambda^2) * (-(1/sinh rho) d/drho) phi_n gives
a finite sum of trigonometric terms with exact rational coefficients
(built by ``exact.ladder``), and the Gauss series of
2F1((n-1)/4 + i lambda/4, (n-1)/4 - i lambda/4; n/2; -sinh^2 rho)
covers the corner near rho = 0 where those terms cancel.  That
cancellation grows with n, so odd n > 9 keep the quadrature.  The
quadrature of ``spherical_function`` serves as the independent oracle
for the closed form.

The density |c(lambda)|^(-2) of the inversion measure comes from the
gamma-quotient form of c; a self-contained complex log-gamma keeps the
evaluation independent of library quirks, and tests pin it against
scipy and mpmath.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from hypverify.exact import evaluate_rows, ladder

# Lanczos approximation, g = 7, 9 terms: relative error < 1e-13 on the
# right half plane after reflection.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    # log(sin(pi z)) without overflow for large |Im z|: pull out the
    # dominant exponential e^(-i pi z) (Im z > 0) and conjugate for the
    # lower half plane.
    flip = z.imag < 0
    w = np.where(flip, np.conj(z), z)
    # sin(pi w) = e^(-i pi w) (1 - e^(2 i pi w)) * (i/2) for Im w >= 0
    val = (
        -1j * math.pi * w
        + np.log(1.0 - np.exp(2j * math.pi * w))
        + complex(-math.log(2.0), 0.5 * math.pi)
    )
    return np.where(flip, np.conj(val), val)


def log_gamma_complex(z):
    """log Gamma on the complex plane (Lanczos sum plus reflection).

    The imaginary part may differ from the principal branch by a
    multiple of 2 pi i in the reflected region Re z < 1/2; the real
    part log |Gamma| and exp(log_gamma_complex) are unambiguous, which
    is all the c-function arithmetic needs.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)

    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z)
    x = zz - 1.0
    s = np.full(zz.shape, _LANCZOS_COEF[0], dtype=complex)
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        s = s + c / (x + i)
    t = x + _LANCZOS_G + 0.5
    main = _HALF_LOG_TWO_PI + (x + 0.5) * np.log(t) - t + np.log(s)
    out = np.where(refl, math.log(math.pi) - _log_sin_pi(z) - main, main)
    return out[0] if scalar else out


def _log_c(lam: np.ndarray, n: int) -> np.ndarray:
    # log c(lambda) from the gamma quotient, lam a nonzero 1-d array
    il = 1j * lam
    return (
        (n - 1 - il) * math.log(2.0)
        + math.lgamma(n / 2.0)
        + log_gamma_complex(il)
        - log_gamma_complex((n - 1 + il) / 2.0)
        - log_gamma_complex((1 + il) / 2.0)
    )


def harish_chandra_c(lam, n: int):
    """The c-function of H^n in gamma-quotient form.

        c(lambda) = 2^(n-1-i lambda) Gamma(n/2) Gamma(i lambda)
                    / ( Gamma((n-1+i lambda)/2) Gamma((1+i lambda)/2) )

    For odd n this telescopes to a rational function; tests compare
    against those closed forms.  lambda = 0 is a pole and is rejected.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam == 0.0):
        raise ValueError("c(lambda) has a pole at lambda = 0")
    scalar = lam.ndim == 0
    out = np.exp(_log_c(np.atleast_1d(lam), n))
    return complex(out[0]) if scalar else out


def plancherel_density(lam, n: int):
    """|c(lambda)|^(-2), the density of the inversion measure.

    Extends continuously by 0 to lambda = 0.  Even in lambda.
    """
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.zeros(lam.shape)
    nz = lam != 0.0
    if np.any(nz):
        out[nz] = np.exp(-2.0 * _log_c(lam[nz], n).real)
    return float(out[0]) if scalar else out


def _mehler_constant(n: int) -> float:
    # C_n = 2^((n-3)/2) * (2/sqrt(pi)) * Gamma(n/2) / Gamma((n-1)/2)
    return (
        2.0 ** ((n - 3) / 2.0)
        * 2.0
        / math.sqrt(math.pi)
        * math.gamma(n / 2.0)
        / math.gamma((n - 1) / 2.0)
    )


_JACOBI_RULES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _jacobi_rule(num: int, n: int):
    # nodes/weights on [-1, 1] for the weight (1-x)^((n-3)/2)
    key = (num, n)
    rule = _JACOBI_RULES.get(key)
    if rule is None:
        alpha = 0.5 * (n - 3)
        if alpha == 0.0:
            rule = roots_legendre(num)
        else:
            rule = roots_jacobi(num, alpha, 0.0)
        _JACOBI_RULES[key] = rule
        if len(_JACOBI_RULES) > 32:
            _JACOBI_RULES.pop(next(iter(_JACOBI_RULES)))
    return rule


def _node_count(lam_max: float, rho_max: float) -> int:
    # total phase of cos(lambda s/2) is lambda rho/2 and the phase is
    # linear in s, so ~phase/2 Jacobi nodes suffice; pad by half again
    return max(48, int(0.375 * lam_max * rho_max) + 40)


def _log_sinh(z: np.ndarray) -> np.ndarray:
    # log(sinh z) for z > 0, with neither overflow nor underflow
    return z + np.log(-np.expm1(-2.0 * z)) - math.log(2.0)


def _phi_envelope(rho: np.ndarray, n: int, num: int):
    """Envelope rows E and phase nodes s with phi = sum_k E cos(lam s/2).

    rho: (M,) strictly positive.  Returns s, E of shape (M, num).
    """
    x, w = _jacobi_rule(num, n)
    alpha = 0.5 * (n - 3)
    s = 0.5 * rho[:, None] * (x[None, :] + 1.0)
    a = 0.5 * (rho[:, None] + s)
    q = 0.5 * (rho[:, None] - s)
    # sinh(q)/q, series for tiny q (interior nodes keep q > 0)
    snc = np.where(q < 1e-4, 1.0 + q * q / 6.0, np.sinh(q) / np.maximum(q, 1e-300))
    log_sinh_rho = _log_sinh(rho)[:, None]
    logw = (
        alpha * (math.log(2.0) + _log_sinh(a) + np.log(snc) + np.log(0.25 * rho)[:, None])
        + np.log(0.5 * rho)[:, None]
        - (n - 2) * log_sinh_rho
    )
    env = _mehler_constant(n) * np.exp(logw) * w[None, :]
    return s, env


def _phi_rows(lam: np.ndarray, rho: np.ndarray, n: int, num: int) -> np.ndarray:
    out = np.empty((lam.size, rho.size))
    pos = rho > 0.0
    if np.any(pos):
        s, env = _phi_envelope(rho[pos], n, num)
        for i, l in enumerate(lam):
            out[i, pos] = np.einsum("mk,mk->m", np.cos(0.5 * l * s), env)
    out[:, ~pos] = 1.0
    return out


def spherical_function(lam, rho, n: int, num_nodes: int | None = None):
    """phi_lambda(rho), broadcasting lam against rho elementwise.

    Smooth in both arguments, even in lambda, phi(0) = 1, and bounded
    by phi_0 in absolute value.  ``num_nodes`` overrides the automatic
    quadrature size (it scales with max |lambda| * rho).
    """
    lam_b, rho_b = np.broadcast_arrays(
        np.asarray(lam, dtype=float), np.asarray(rho, dtype=float)
    )
    shape = lam_b.shape
    L = np.atleast_1d(lam_b).ravel()
    R = np.atleast_1d(rho_b).ravel()
    if np.any(R < 0.0):
        raise ValueError("rho must be nonnegative")
    if num_nodes is None:
        num_nodes = _node_count(float(np.max(np.abs(L) * R, initial=0.0)), 1.0)
    vals = np.ones(R.size)
    pos = R > 0.0
    if np.any(pos):
        s, env = _phi_envelope(R[pos], n, num_nodes)
        vals[pos] = np.einsum(
            "mk,mk->m", np.cos(0.5 * L[pos][:, None] * s), env
        )
    return float(vals[0]) if shape == () else vals.reshape(shape)


def _odd_radial_rows(rho: np.ndarray, n: int):
    """Radial rows of the closed form of phi in dimension n = 2m + 1, m >= 1.

    phi = prod_{j<m} 4(2j+1)/((2j)^2 + lam^2) * L^m cos(t), t = lam rho / 2,
    climbing from phi_1 = cos(t) by phi_{n+2} = 4n/((n-1)^2 + lam^2) L phi_n.
    L^m cos(t) is the real part of L^m e^(-kappa rho) at kappa = i lam/2,
    so with ``exact.ladder(1, m)`` = sum_q kappa^q E_q it is
    sum_q (lam/2)^q (P_q cos t + Q_q sin t), P_q = (-1)^(q/2) E_q for even
    q and Q_q = (-1)^((q-1)/2) E_q for odd q.  With sin t = lam (rho/2)
    sinc t every power of lam is even and at least 2, so the j = 0 factor
    4/lam^2 cancels and lam = 0 needs no special case:

        phi = prod_{0<j<m} 4(2j+1)/((2j)^2 + lam^2)
              * sum_i lam^(2i) (A_i cos t + rho B_i sinc t),
        A_i = 4^(-i) P_(2i+2) = -(-1/4)^i E_(2i+2),  B_i = (-1/4)^i E_(2i+1).

    Returns the rows A_i(rho) and rho B_i(rho) at the rho > 0.
    """
    m = (n - 1) // 2
    terms = dict(ladder(1, m))
    half = (m + 1) // 2
    keys = [(-((-0.25) ** i), (2 * i + 2, 0)) for i in range(half)]
    keys += [((-0.25) ** i, (2 * i + 1, 0)) for i in range(half)]
    r = rho[rho > 0.0]
    rows = evaluate_rows([[(w, terms[key])] if key in terms else [] for w, key in keys], r)
    return rows[:half], [r * row for row in rows[half:]]


# phi_matrix entries with rho^2 + (lam rho / 2)^2 below this take the Gauss
# series: there the ladder terms cancel, while sinh^2 rho < 0.59 and
# (lam sinh rho)^2 < 2.4 keep the series' term ratio below 0.7
_SERIES_SEAM = 0.5

# Largest odd n that phi_matrix takes by the closed form.  Just outside the
# seam the ladder loses about eps (2l+1)!! (2l-1)!! / (rho^2 + t^2)^l,
# l = (n-3)/2, relative to phi_0: against mpmath hyp2f1 the worst seam
# probe is 3e-16, 2e-15, 5e-14, 2e-12 at n = 3, 5, 7, 9 but 3e-10, 2e-8,
# 1e-5 at n = 11, 13, 15, so larger n keep the Jacobi quadrature.
_CLOSED_FORM_MAX_N = 9


def _gauss_series(lam: np.ndarray, rho: np.ndarray, n: int) -> np.ndarray:
    # 2F1((n-1)/4 + i lam/4, (n-1)/4 - i lam/4; n/2; -sinh^2 rho); the
    # term ratio x ((a + k)^2 + lam^2/16) / ((n/2 + k)(k + 1)) is real and
    # below 1 in modulus.  Entries are sorted by |x|, so the ones still
    # converging are a prefix that shrinks as the terms fall below 1e-17
    # (phi > 0.6 in the series region for the n <= 9 that reach it, so
    # below an ulp of phi).
    order = np.argsort(-rho)
    x = -np.sinh(rho[order]) ** 2
    l2 = lam[order] ** 2 / 16.0
    a = 0.25 * (n - 1)
    term = np.ones_like(x)
    total = np.ones_like(x)
    k = 0
    end = x.size
    while True:
        big = np.flatnonzero(np.abs(term[:end]) > 1e-17)
        if big.size == 0:
            break
        end = int(big[-1]) + 1
        term[:end] *= x[:end] * ((a + k) ** 2 + l2[:end]) / ((0.5 * n + k) * (k + 1))
        total[:end] += term[:end]
        k += 1
    out = np.empty_like(total)
    out[order] = total
    return out


def _phi_rows_odd(lam: np.ndarray, rho: np.ndarray, n: int, radial_rows) -> np.ndarray:
    """Rows phi[lam_i, rho_j] for odd 3 <= n <= 9 from the closed form.

    ``radial_rows`` holds A_i(rho) and rho B_i(rho) of ``_odd_radial_rows``
    at every rho > 0 (rho = 0 gives 1, as in the Jacobi route).
    """
    A, B = radial_rows
    m = (n - 1) // 2
    pos = rho > 0.0
    r = rho[pos]
    l2 = (lam * lam)[:, None]
    t = 0.5 * lam[:, None] * r[None, :]
    sinc = np.sin(t)
    nz = t != 0.0
    sinc[nz] /= t[nz]
    sinc[~nz] = 1.0
    cos_part = np.zeros_like(t)
    sinc_part = np.zeros_like(t)
    power = np.ones_like(l2)
    for a_i, b_i in zip(A, B):
        cos_part += power * a_i
        sinc_part += power * b_i
        power = power * l2
    vals = cos_part * np.cos(t) + sinc_part * sinc
    for j in range(1, m):
        vals *= 4.0 * (2 * j + 1) / ((2 * j) ** 2 + l2)

    near = np.flatnonzero(r * r < _SERIES_SEAM)
    rows, cols = np.nonzero(r[near] ** 2 + t[:, near] ** 2 < _SERIES_SEAM)
    if rows.size:
        cols = near[cols]
        vals[rows, cols] = _gauss_series(lam[rows], r[cols], n)

    out = np.ones((lam.size, rho.size))
    out[:, pos] = vals
    return out


_PHI_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_PHI_CACHE_MAX = 8


def phi_matrix(lam, rho, n: int, chunk: int = 64) -> np.ndarray:
    """Matrix phi[lam_i, rho_j] for grid-sized argument arrays.

    Odd 3 <= n <= 9 uses the exact closed form (``_odd_radial_rows``): two
    trigonometric evaluations per entry, with the Gauss series
    2F1((n-1)/4 + i lam/4, (n-1)/4 - i lam/4; n/2; -sinh^2 rho) where
    rho^2 + (lam rho / 2)^2 < 1/2.  Other n use the Jacobi quadrature of
    ``spherical_function``, its size tracking each lambda chunk's
    largest phase.  Work is chunked over lambda, and results are cached
    on the byte content of the two arrays (transform pipelines hit the
    same grids over and over).  The returned array is read-only; copy
    before mutating.  Non-finite lam or rho, and negative rho, raise
    ValueError.
    """
    lam = np.ascontiguousarray(np.asarray(lam, dtype=float))
    rho = np.ascontiguousarray(np.asarray(rho, dtype=float))
    if lam.ndim != 1 or rho.ndim != 1:
        raise ValueError("lam and rho must be 1-d arrays")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(rho))):
        raise ValueError("lam and rho must be finite")
    if np.any(rho < 0.0):
        raise ValueError("rho must be nonnegative")
    key = (int(n), lam.tobytes(), rho.tobytes())
    hit = _PHI_CACHE.get(key)
    if hit is not None:
        _PHI_CACHE.move_to_end(key)
        return hit

    rho_max = float(np.max(rho))
    odd = n % 2 == 1 and 3 <= n <= _CLOSED_FORM_MAX_N
    if odd:
        radial_rows = _odd_radial_rows(rho, n)
    out = np.empty((lam.size, rho.size))
    for s in range(0, lam.size, chunk):
        block = lam[s : s + chunk]
        if odd:
            out[s : s + block.size] = _phi_rows_odd(block, rho, n, radial_rows)
        else:
            num = _node_count(float(np.max(np.abs(block))), rho_max)
            out[s : s + block.size] = _phi_rows(block, rho, n, num)
    out.flags.writeable = False
    _PHI_CACHE[key] = out
    if len(_PHI_CACHE) > _PHI_CACHE_MAX:
        _PHI_CACHE.popitem(last=False)
    return out


def spherical_function_sphere_average(lam, rho, n: int, levels: int = 18):
    """Boundary-average route to phi_lambda, kept as an independent oracle.

    Averages the complex power of the ball-model Poisson kernel over
    the boundary sphere:

        phi = (|S^(n-2)|/|S^(n-1)|) int_0^pi B^((n-1+i lambda)/2)
              sin(theta)^(n-2) d theta,
        B = (1 - r^2) / (1 - 2 r cos(theta) + r^2),  r = tanh(rho/2).

    The integrand develops a boundary layer of width ~ e^(-rho) at
    theta = 0, so this is trustworthy for moderate rho only (the dyadic
    panel grading below handles rho up to ~8); the production route is
    ``spherical_function``.
    """
    from hypverify.radial import sphere_area

    lam_b, rho_b = np.broadcast_arrays(
        np.asarray(lam, dtype=float), np.asarray(rho, dtype=float)
    )
    shape = lam_b.shape
    L = np.atleast_1d(lam_b).ravel()
    R = np.atleast_1d(rho_b).ravel()

    bounds = np.concatenate(
        [[0.0], math.pi * 2.0 ** (-np.arange(levels, -1, -1, dtype=float))]
    )
    x, w = roots_legendre(16)
    mid = 0.5 * (bounds[:-1] + bounds[1:])
    half = 0.5 * np.diff(bounds)
    theta = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel() * np.sin(theta) ** (n - 2)

    r = np.tanh(0.5 * R)
    # 1 - 2 r cos(theta) + r^2 = (1-r)^2 + 2 r (1 - cos(theta)), a sum
    # of nonnegative terms, so B keeps full precision near theta = 0
    denom = (1.0 - r[:, None]) ** 2 + 4.0 * r[:, None] * np.sin(0.5 * theta[None, :]) ** 2
    B = (1.0 - r[:, None] ** 2) / denom
    logB = np.log(B)
    vals = (
        np.exp(0.5 * (n - 1) * logB) * np.cos(0.5 * L[:, None] * logB)
    ) @ wt
    vals *= sphere_area(n - 1) / sphere_area(n)
    return float(vals[0]) if shape == () else vals.reshape(shape)
