"""Spherical functions and the Plancherel density on hyperbolic space.

Conventions: the positive Laplacian has spectrum [(n-1)^2/4, infinity)
and the spherical function phi_lambda solves

    -Delta phi = ((n-1)^2 + lambda^2)/4 * phi,   phi(0) = 1.

Three routes evaluate phi.  ``spherical_function`` (every n) and
``phi_matrix`` in even n > 8 and odd n > 9 use the integral representation

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
(built by ``exact.ladder``), and from n = 5 the Gauss series of
2F1((n-1)/4 + i lambda/4, (n-1)/4 - i lambda/4; n/2; -sinh^2 rho)
covers the corner rho^2 + (lambda rho/2)^2 < 1/2 where those terms
cancel.  That cancellation grows with n, so odd n > 9 keep the
quadrature; at n = 3, phi = (rho/sinh rho) sinc(lambda rho/2) has none,
so n = 3 takes no series.  The series is planned once per call: the
corner's columns are grouped into bands by the term count their worst
row needs, each band storing its columns' scaled powers of -sinh^2 rho,
and each chunk of lambda sums a band as one matrix product of its rows'
coefficients with those powers.

In even n from 2 to 8, ``phi_matrix`` uses the Harish-Chandra expansion
phi = c(lambda) Phi_lambda + c(-lambda) Phi_(-lambda) (Koornwinder 1984),
a power series in e^(-2 rho) whose cost per entry does not grow with
lambda * rho: each chunk of lambda is one real matrix product of its
coefficients with the powers of e^(-2 rho).  The Gauss series above
covers the same corner near the origin, and the quadrature the band of
small rho left between them, where the two Harish-Chandra terms grow
like rho^(2-n) and cancel.  The quadrature of ``spherical_function``
serves as the independent oracle for both the closed form and the
expansion.

The density |c(lambda)|^(-2) of the inversion measure comes from the
gamma-quotient form of c; a self-contained complex log-gamma keeps the
evaluation independent of library quirks, and tests pin it against
scipy and mpmath.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
from scipy.special import loggamma

from hypverify.exact import evaluate_rows, ladder
from hypverify.radial import _gauss_jacobi, _theta_graded, sphere_area

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


def _check_dimension(n) -> int:
    """n as a Python int; ValueError unless an integer n >= 2.

    numpy integers pass, bools (Python or numpy) do not.
    """
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("need an integer dimension n >= 2")
    return int(n)


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
    n = _check_dimension(n)
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
    n = _check_dimension(n)
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


# doubles per temporary of the cosine sums in ``_jacobi_entries``
_JACOBI_BLOCK = 1 << 15


def _node_count(phase: float) -> int:
    # total phase of cos(lambda s/2) is lambda rho/2 and the phase is
    # linear in s, so ~phase/2 Jacobi nodes suffice; pad by half again
    return max(48, int(0.375 * phase) + 40)


def _log_sinh(z: np.ndarray) -> np.ndarray:
    # log(sinh z) for z > 0, with neither overflow nor underflow
    return z + np.log(-np.expm1(-2.0 * z)) - math.log(2.0)


def _phi_envelope(rho: np.ndarray, n: int, num: int):
    """Envelope rows E and phase nodes s with phi = sum_k E cos(lam s/2).

    rho: (M,) strictly positive.  Returns s, E of shape (M, num).
    """
    alpha = 0.5 * (n - 3)
    x, w = _gauss_jacobi(num, alpha, 0.0)
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


def _jacobi_entries(lam: np.ndarray, rho: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """phi at the pairs (lam[e], rho[cols[e]]), rho > 0, by the quadrature.

    The node count follows the largest phase lam * rho among the pairs.
    The envelope is built once per distinct column, and the cosine sums
    run over slices of the pairs, so temporaries stay near
    ``_JACOBI_BLOCK`` doubles whatever the number of pairs.
    """
    out = np.empty(lam.size)
    if not lam.size:
        return out
    used, inv = np.unique(cols, return_inverse=True)
    num = _node_count(float(np.max(np.abs(lam) * rho[cols])))
    s, env = _phi_envelope(rho[used], n, num)
    step = max(1, _JACOBI_BLOCK // num)
    for i in range(0, lam.size, step):
        j = inv[i : i + step]
        out[i : i + step] = np.einsum(
            "mk,mk->m", np.cos(0.5 * lam[i : i + step, None] * s[j]), env[j]
        )
    return out


def spherical_function(lam, rho, n: int):
    """phi_lambda(rho), broadcasting lam against rho elementwise.

    Smooth in both arguments, even in lambda, phi(0) = 1, and bounded
    by phi_0 in absolute value.  The quadrature size scales with
    max |lambda| * rho.
    """
    n = _check_dimension(n)
    lam_b, rho_b = np.broadcast_arrays(
        np.asarray(lam, dtype=float), np.asarray(rho, dtype=float)
    )
    shape = lam_b.shape
    L = np.atleast_1d(lam_b).ravel()
    R = np.atleast_1d(rho_b).ravel()
    if np.any(R < 0.0):
        raise ValueError("rho must be nonnegative")
    vals = np.ones(R.size)
    pos = np.flatnonzero(R > 0.0)
    vals[pos] = _jacobi_entries(L[pos], R, pos, n)
    return float(vals[0]) if shape == () else vals.reshape(shape)


def _odd_radial_rows(rho: np.ndarray, n: int, cols: np.ndarray):
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

    Returns the rows A_i and rho B_i as arrays over rho, set at rho[cols]
    (all rho > 0) and 0 elsewhere; an A_i without ladder terms is None.
    At n = 3, A_0 = 0 and rho B_0 = rho/sinh rho, taken as
    2 rho e^(-rho)/(1 - e^(-2 rho)), which stays finite down to subnormal
    rho, where 1/sinh rho overflows.
    """
    r = rho[cols]
    if n == 3:
        row = np.zeros(rho.size)
        row[cols] = 2.0 * r / -np.expm1(-2.0 * r) * np.exp(-r)
        return [None], [row]
    m = (n - 1) // 2
    terms = dict(ladder(1, m))
    half = (m + 1) // 2
    keys = [(-((-0.25) ** i), (2 * i + 2, 0)) for i in range(half)]
    keys += [((-0.25) ** i, (2 * i + 1, 0)) for i in range(half)]
    rows = np.zeros((2 * half, rho.size))
    rows[:, cols] = evaluate_rows([[(w, terms[key])] if key in terms else [] for w, key in keys], r)
    rows[half:, cols] *= r
    A = [row if key in terms else None for row, (_, key) in zip(rows[:half], keys)]
    return A, list(rows[half:])


# phi_matrix entries with rho^2 + (lam rho / 2)^2 below this take the Gauss
# series (odd 5 <= n <= 9, even n <= 8): there the ladder terms and the
# Harish-Chandra terms cancel, while sinh^2 rho < 0.59 and
# (lam sinh rho)^2 < 2.4 keep the series' term ratio below 0.7.  The series
# is evaluated per column band (``_series_plan``), one matrix product per
# band and lambda chunk.  At n = 3 the closed form
# (rho/sinh rho) sinc(lam rho/2) has no cancellation (3.5e-16 off in this
# corner against mpmath, relative to phi_0), so n = 3 takes no series.
_SERIES_SEAM = 0.5
# The Gauss series is summed to the first band size K whose tail bound is
# below this; phi > 0.6 in the series region for the n that take it.
_SERIES_TAIL = 1e-17
# Term counts K of the Gauss-series bands.  Next to the seam at
# rho = sqrt(1/2), lam = 0, the tail bound needs K = 60 (n = 2) to 69
# (n = 9); the spectral_cold columns below rho = 0.01 need at most 6.
_SERIES_BAND_SIZES = (8, 16, 32, 64, 96)
# A band's scaled coefficients stay below e^this, and the powers of its
# columns above e^-this (no overflow, no subnormals).
_SERIES_LOG_RANGE = 400.0


def _in_series(lam, rho):
    """Entries (lam, rho) that take the Gauss series, broadcasting."""
    # |lam rho / 2| >= 1 lies outside; the cap keeps the square finite
    t = np.minimum(np.abs(0.5 * lam * rho), 1.0)
    return rho * rho + t * t < _SERIES_SEAM


def _series_plan(lam: np.ndarray, rho: np.ndarray, n: int):
    """Column bands of the Gauss series for the call phi_matrix(lam, rho, n).

    The series is F = sum_k c_k x^k, x = -sinh^2 rho, c_0 = 1 and
    c_(k+1) = c_k ((a + k)^2 + l) / ((b + k)(k + 1)), a = (n-1)/4,
    b = n/2, l = lam^2/16.  Its columns are the rho > 0 where some lam
    of the call lies in the series.  A column's worst row has the
    largest l there: l <= L = min(max lam^2 / 16, (1/2 - rho^2)/(4 rho^2)).
    For n <= 9, (a + k)^2 <= (b + k)(k + 1), so the term ratio from k = K
    on is at most s (1 + L/((b + K)(K + 1))) with s = sinh^2 rho, and the
    tail from K at most |term_K| / (1 - that), with |term_K| at most
    prod_(k<K) (s (a + k)^2 + s L)/((b + k)(k + 1)).  Each column takes
    the first size of ``_SERIES_BAND_SIZES`` whose tail bound, in log
    form, meets ``_SERIES_TAIL``.

    A band shares its term count K and a scale sigma^2, sigma the power of
    2 in [sinh rho, 2 sinh rho) at its largest rho, so that scaling rounds
    nothing: it stores the powers (-sinh^2 rho / sigma^2)^k, and each row
    takes the coefficients c_k sigma^(2k).  Its rows are those in the
    series at its smallest rho.  Columns of one size are split along rho
    where those coefficients could pass e^``_SERIES_LOG_RANGE`` or the
    powers fall below its inverse.

    Returns None when no entry lies in the series, else (cols, bands):
    cols the series columns, band by band with rho descending inside each,
    and per band (start, stop, sigma / 4, sigma^2 (a + k)^2,
    (b + k)(k + 1), powers) for k < K - 1: its columns are
    cols[start:stop], its powers of shape (K, stop - start) run from
    k = K - 1 down to 0.
    """
    if not lam.size:
        return None
    cols = np.flatnonzero((rho > 0.0) & _in_series(np.min(np.abs(lam)), rho))
    if not cols.size:
        return None
    cols = cols[np.argsort(-rho[cols], kind="stable")]
    r = rho[cols]
    a, b = 0.25 * (n - 1), 0.5 * n
    sinh = np.sinh(r)
    s = sinh * sinh
    # s L, the seam bound taken as (sinh rho / rho)^2 (1/2 - rho^2)/4
    w = np.minimum(0.25 * np.max(np.abs(lam)) * sinh, sinh / r * np.sqrt(0.125 - 0.25 * r * r)) ** 2
    sizes = np.array(_SERIES_BAND_SIZES)
    k = np.arange(sizes[-1] + 1)
    den = (b + k) * (k + 1.0)
    # log of the bound on |c_(k+1) x^(k+1) / (c_k x^k)|, k < K_max; the
    # floor only raises it (sinh^2 rho underflows below rho = 1e-154)
    log_q = np.log(np.maximum((s[:, None] * (a + k[:-1]) ** 2 + w[:, None]) / den[:-1], 1e-300))
    tail = np.cumsum(log_q, axis=1)[:, sizes - 1] - np.log1p(-(s[:, None] + w[:, None] / den[sizes]))
    # sinh^2 rho < 0.59 and s L <= 1/8 in the series region, so the largest
    # size always meets the tail
    level = np.argmax(tail < math.log(_SERIES_TAIL), axis=1)
    log_s = 2.0 * _log_sinh(r)
    bands = []
    for i in np.unique(level):
        K = int(sizes[i])
        idx = np.flatnonzero(level == i)  # descending rho
        while idx.size:
            sigma = math.ldexp(1.0, math.frexp(sinh[idx[0]])[1])
            # bound on log |c_k sigma^(2k)| for the rows in the series at rho[idx]
            scale = 2.0 * math.log(sigma) - log_s[idx, None]
            coef = np.max(np.cumsum(log_q[idx, : K - 1] + scale, axis=1), axis=1, initial=0.0)
            ok = (coef <= _SERIES_LOG_RANGE) & ((K - 1) * scale[:, 0] <= _SERIES_LOG_RANGE)
            stop = idx.size if ok.all() else max(1, int(np.argmin(ok)))
            bands.append((idx[:stop], K, sigma))
            idx = idx[stop:]
    order = np.concatenate([band for band, _, _ in bands])
    out = []
    start = 0
    for band, K, sigma in bands:
        u = -((sinh[band] / sigma) ** 2)
        powers = u[None, :] ** np.arange(K - 1, -1, -1)[:, None]
        num = sigma * sigma * (a + k[: K - 1]) ** 2
        out.append((start, start + band.size, 0.25 * sigma, num, den[: K - 1], powers))
        start += band.size
    return cols[order], out


def _series_fill(out: np.ndarray, lam: np.ndarray, rho: np.ndarray, plan) -> None:
    """Write the Gauss series into the entries of out that lie in it.

    2F1((n-1)/4 + i lam/4, (n-1)/4 - i lam/4; n/2; -sinh^2 rho) on the
    bands of ``_series_plan``: per band, the cumulative products of its
    rows' scaled coefficients and one matrix product with its powers;
    then one masked copy into out.
    """
    cols, bands = plan
    inside = _in_series(lam[:, None], rho[cols])
    vals = np.empty(inside.shape)
    for start, stop, quarter_sigma, num, den, powers in bands:
        rows = np.flatnonzero(inside[:, stop - 1])  # at the band's smallest rho
        if not rows.size:
            continue
        # sigma^2 ((a + k)^2 + lam^2/16) / ((b + k)(k + 1)), lam^2 never formed
        w = (quarter_sigma * lam[rows]) ** 2
        # c_k sigma^(2k) from k = K - 1 down to 0, as the powers are stored:
        # the product then adds the smallest terms first
        K = powers.shape[0]
        coef = np.empty((rows.size, K))
        coef[:, K - 1] = 1.0
        np.cumprod((num + w[:, None]) / den, axis=1, out=coef[:, K - 2 :: -1])
        vals[rows, start:stop] = coef @ powers
    out[:, cols] = np.where(inside, vals, out[:, cols])


def _closed_form_cols(lam: np.ndarray, rho: np.ndarray, plan) -> np.ndarray:
    # the rho > 0 where some lam lies outside the Gauss series (every
    # rho > 0 without a series, as at n = 3)
    pos = rho > 0.0
    if plan is not None:
        pos &= ~_in_series(np.max(np.abs(lam), initial=0.0), rho)
    return np.flatnonzero(pos)


# Largest odd n that phi_matrix takes by the closed form.  Just outside the
# seam the ladder loses about eps (2l+1)!! (2l-1)!! / (rho^2 + t^2)^l,
# l = (n-3)/2, relative to phi_0: against mpmath hyp2f1 the worst seam
# probe is 3e-16, 2e-15, 5e-14, 2e-12 at n = 3, 5, 7, 9 but 3e-10, 2e-8,
# 1e-5 at n = 11, 13, 15, so larger n keep the Jacobi quadrature.
_CLOSED_FORM_MAX_N = 9


def _phi_rows_odd(lam: np.ndarray, rho: np.ndarray, n: int, radial_rows, plan) -> np.ndarray:
    """Rows phi[lam_i, rho_j] for odd 3 <= n <= 9 from the closed form.

    ``radial_rows`` holds A_i(rho) and rho B_i(rho) of ``_odd_radial_rows``
    at every rho > 0 where some lam of the call lies outside the Gauss
    series.  The closed form is evaluated on the columns where some lam
    of this chunk does, and the Gauss series (``_series_fill``) on the
    entries inside it; rho = 0 gives 1, as in the Jacobi route.
    """
    A, B = radial_rows
    m = (n - 1) // 2
    out = np.empty((lam.size, rho.size))
    out[:, rho == 0.0] = 1.0
    cols = _closed_form_cols(lam, rho, plan)
    r = rho[cols]
    l2 = (lam * lam)[:, None]
    t = 0.5 * lam[:, None] * r[None, :]
    sinc = np.sin(t)
    nz = t != 0.0
    sinc[nz] /= t[nz]
    sinc[~nz] = 1.0
    cos_part = None
    sinc_part = np.zeros_like(t)
    power = np.ones_like(l2)
    for a_i, b_i in zip(A, B):
        if a_i is not None:
            term = power * a_i[cols]
            cos_part = term if cos_part is None else cos_part + term
        sinc_part += power * b_i[cols]
        power = power * l2
    vals = sinc_part * sinc
    if cos_part is not None:
        vals += cos_part * np.cos(t)
    for j in range(1, m):
        vals *= 4.0 * (2 * j + 1) / ((2 * j) ** 2 + l2)
    out[:, cols] = vals
    if plan is not None:
        _series_fill(out, lam, rho, plan)
    return out


# Even n that phi_matrix takes by the Harish-Chandra series, each with its
# rho seam: an entry outside the Gauss series takes the Harish-Chandra
# series where rho >= _HC_MIN_RHO[n] and lam rho >= _HC_MIN_PHASE, and the
# Jacobi quadrature elsewhere.  Against 40-digit mpmath hyp2f1, relative to
# phi_0, the series loses most at small rho, where each of the two terms
# c(+-lam) Phi_(+-lam) grows like rho^(2-n) while phi stays near 1.  At the
# seam the worst of 100 random probes (lam rho log-uniform in [1e-4, 63])
# is 2.9e-14, 1.1e-14, 1.5e-14, 8.3e-15 for n = 2, 4, 6, 8, where the
# quadrature reaches 3.6e-14, 1.1e-14, 1.5e-14, 1.1e-14; one rho band
# further in, the series reaches 1.1e-14 at n = 4 (rho = 0.5), 3.0e-14 at
# n = 6 (rho = 0.72) and 3.4e-14 at n = 8 (rho = 1.05).  Small lam rho loses
# nothing (see ``_hc_rows``): its seam, the smallest value probed, only
# keeps the 1/lam of c(lam) far from overflow.
_HC_MIN_RHO = {2: 0.1, 4: 0.6, 6: 1.0, 8: 1.5}
_HC_MIN_PHASE = 1e-4
# The series is summed to the first band size K whose tail bound is below
# this, relative to its leading term 1.
_HC_TAIL = 1e-17
# Band sizes K: the columns of a band share its powers z^k, k < K.  At the
# smallest seam, n = 2 at rho = 0.1, the tail bound needs K = 256.
_HC_BAND_SIZES = 8 * 2 ** np.arange(8)


def _hc_bands(rho: np.ndarray, n: int) -> list:
    """Column bands of the Harish-Chandra series: the rho >= _HC_MIN_RHO[n].

    Returns (cols, zk) pairs with zk[k, j] = z_j^k, z = e^(-2 rho), k < K,
    K the smallest band size whose tail bound meets ``_HC_TAIL``.  The
    coefficient ratio (rho0 + k)(rho0 + k - i mu)/((k + 1)(k + 1 - i mu))
    is at most r_k = (rho0 + k)/(k + 1) * max(1, (rho0 + k)/(k + 1)) in
    modulus for every mu, so |a_k| <= b_k = r_0 ... r_(k-1), and the tail
    from K is at most b_K z^K / (1 - r_K z) once r_K z < 1 (r_k falls with
    k).
    """
    r0 = 0.5 * (n - 1)
    k = np.arange(_HC_BAND_SIZES[-1] + 1, dtype=float)
    ratio = (r0 + k) / (k + 1.0)
    bound = ratio * np.maximum(1.0, ratio)
    log_b = np.concatenate([[0.0], np.cumsum(np.log(bound))])
    cols = np.flatnonzero(rho >= _HC_MIN_RHO[n])
    log_z = -2.0 * rho[cols]
    sizes = _HC_BAND_SIZES[:, None]
    rz = bound[sizes] * np.exp(log_z)
    decay = rz < 1.0
    tail = log_b[sizes] + sizes * log_z - np.log1p(-np.where(decay, rz, 0.0))
    level = np.argmax(decay & (tail < math.log(_HC_TAIL)), axis=0)
    bands = []
    for i in np.unique(level):
        band = cols[level == i]
        powers = np.arange(_HC_BAND_SIZES[i])[:, None]
        bands.append((band, np.exp(-2.0 * powers * rho[band][None, :])))
    return bands


def _hc_rows(lam: np.ndarray, rho: np.ndarray, n: int, bands: list) -> np.ndarray:
    """phi[lam_i, rho_j] by the Harish-Chandra series, lam != 0, on the band columns.

    phi = 2 Re[c(lam) Phi_lam(rho)] with
    Phi_lam = e^((i mu - rho0) rho) 2F1(rho0, rho0 - i mu; 1 - i mu; z),
    mu = lam/2, rho0 = (n-1)/2, z = e^(-2 rho), and the coefficients
    a_0 = 1, a_k = a_(k-1) (rho0+k-1)(rho0+k-1-i mu)/(k (k-i mu)).  By
    Legendre's duplication formula the gamma quotient of
    ``harish_chandra_c`` is c = 2^(n-2) Gamma(n/2) Gamma(i mu)
    / (sqrt(pi) Gamma(rho0 + i mu)) = -i (M/mu) e^(i delta) with
    M e^(i delta) = 2^(n-2) Gamma(n/2) Gamma(1 + i mu)/(sqrt(pi) Gamma(rho0 + i mu)),
    taken from ``scipy.special.loggamma`` (not ``_log_c``, whose error
    would cancel against the Plancherel density).  Then

        phi = (2M/mu) e^(-rho0 rho) (sin(theta) Re S + cos(theta) Im S),
        theta = mu rho + delta,  S = sum_k a_k z^k.

    As mu -> 0, delta, sin(theta) and Im a_k are O(mu) (every factor of
    a_k has an imaginary part of the sign of rho0 - 1, so Im a_k is a sum
    of like signs), and the pole 1/mu of c is divided out of a bracket
    that is itself O(mu), not cancelled between c(lam) Phi_lam and
    c(-lam) Phi_(-lam).  Columns not in a band are left unset.
    """
    r0 = 0.5 * (n - 1)
    mu = 0.5 * np.abs(lam)[:, None]
    g = loggamma(1.0 + 1j * mu) - loggamma(r0 + 1j * mu)
    # log(2M/mu)
    log_scale = (
        (n - 1) * math.log(2.0) + math.lgamma(0.5 * n) - 0.5 * math.log(math.pi)
        + g.real - np.log(mu)
    )
    size = max(zk.shape[0] for _, zk in bands)
    k = np.arange(1, size)
    x = r0 + k - 1.0
    den = k * k + mu * mu
    ratio = (x / k) * ((x * k + mu * mu) + 1j * ((r0 - 1.0) * mu)) / den
    a = np.ones((mu.size, size), dtype=complex)
    a[:, 1:] = np.cumprod(ratio, axis=1)
    coef = np.concatenate([a.real, a.imag])
    out = np.empty((mu.size, rho.size))
    for cols, zk in bands:
        S = coef[:, : zk.shape[0]] @ zk
        r = rho[cols]
        theta = mu * r + g.imag
        scale = np.exp(log_scale - r0 * r)
        out[:, cols] = scale * (np.sin(theta) * S[: mu.size] + np.cos(theta) * S[mu.size :])
    return out


def _phi_rows_even(lam: np.ndarray, rho: np.ndarray, n: int, bands: list, plan) -> np.ndarray:
    """Rows phi[lam_i, rho_j] for the even n of ``_HC_MIN_RHO``.

    Three routes split the entries: the Gauss series (``_series_fill``)
    where rho^2 + (lam rho/2)^2 < 1/2 (rho = 0 gives 1), the
    Harish-Chandra series where rho and lam rho reach their seams, and
    the Jacobi quadrature on the rest, its node count set by the largest
    phase among those entries.
    """
    phase = np.abs(lam)[:, None] * rho[None, :]
    series = _in_series(lam[:, None], rho[None, :])
    hc = ~series & (phase >= _HC_MIN_PHASE) & (rho >= _HC_MIN_RHO[n])
    out = np.empty((lam.size, rho.size))
    rows = np.flatnonzero(hc.any(axis=1))
    if rows.size:
        out[rows] = _hc_rows(lam[rows], rho, n, bands)
    out[:, rho == 0.0] = 1.0
    if plan is not None:
        _series_fill(out, lam, rho, plan)
    rows, cols = np.nonzero(~series & ~hc)
    out[rows, cols] = _jacobi_entries(lam[rows], rho, cols, n)
    return out


_PHI_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_PHI_CACHE_MAX = 8
_PHI_CHUNK = 64


def phi_matrix(lam, rho, n: int) -> np.ndarray:
    """Matrix phi[lam_i, rho_j] for grid-sized argument arrays.

    Odd 3 <= n <= 9 uses the exact closed form (``_odd_radial_rows``): two
    trigonometric evaluations per entry (one at n = 3), and from n = 5 the
    Gauss series 2F1((n-1)/4 + i lam/4, (n-1)/4 - i lam/4; n/2; -sinh^2 rho)
    where rho^2 + (lam rho / 2)^2 < 1/2, in column bands planned once per
    call (``_series_plan``) and summed as one matrix product per band and
    lambda chunk; the closed form skips the columns that a chunk has
    wholly in the series.  Even 2 <= n <= 8 uses the same Gauss
    series there, the Harish-Chandra series (``_hc_rows``) where rho and
    lam rho reach the seams of ``_HC_MIN_RHO`` and ``_HC_MIN_PHASE``, and
    the Jacobi quadrature of ``spherical_function`` on the entries left,
    with a node count from their own largest phase.  Other n use that
    quadrature throughout, its size tracking each lambda chunk's largest
    phase.  Work is chunked over lambda, and results are cached
    on the byte content of the two arrays (transform pipelines hit the
    same grids over and over).  The returned array is read-only; copy
    before mutating.  Non-finite lam or rho, negative rho, and n other
    than an integer >= 2 raise ValueError.
    """
    n = _check_dimension(n)
    lam = np.ascontiguousarray(np.asarray(lam, dtype=float))
    rho = np.ascontiguousarray(np.asarray(rho, dtype=float))
    if lam.ndim != 1 or rho.ndim != 1:
        raise ValueError("lam and rho must be 1-d arrays")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(rho))):
        raise ValueError("lam and rho must be finite")
    if np.any(rho < 0.0):
        raise ValueError("rho must be nonnegative")
    key = (n, lam.tobytes(), rho.tobytes())
    hit = _PHI_CACHE.get(key)
    if hit is not None:
        _PHI_CACHE.move_to_end(key)
        return hit

    odd = n % 2 == 1 and 3 <= n <= _CLOSED_FORM_MAX_N
    plan = None
    if n != 3 and (odd or n in _HC_MIN_RHO):
        plan = _series_plan(lam, rho, n)
    if odd:
        radial_rows = _odd_radial_rows(rho, n, _closed_form_cols(lam, rho, plan))
    elif n in _HC_MIN_RHO:
        bands = _hc_bands(rho, n)
    out = np.empty((lam.size, rho.size))
    for s in range(0, lam.size, _PHI_CHUNK):
        block = lam[s : s + _PHI_CHUNK]
        if odd:
            out[s : s + block.size] = _phi_rows_odd(block, rho, n, radial_rows, plan)
        elif n in _HC_MIN_RHO:
            out[s : s + block.size] = _phi_rows_even(block, rho, n, bands, plan)
        else:
            rows = out[s : s + block.size]
            rows[:, rho == 0.0] = 1.0
            i, j = np.nonzero(np.broadcast_to(rho > 0.0, rows.shape))
            rows[i, j] = _jacobi_entries(block[i], rho, j, n)
    out.flags.writeable = False
    _PHI_CACHE[key] = out
    if len(_PHI_CACHE) > _PHI_CACHE_MAX:
        _PHI_CACHE.popitem(last=False)
    return out


_SPHERE_AVERAGE_RHO_MAX = 12.0


def spherical_function_sphere_average(lam, rho, n: int):
    """Boundary-average route to phi_lambda, kept as an independent oracle.

    Averages the complex power of the ball-model Poisson kernel over
    the boundary sphere:

        phi = (|S^(n-2)|/|S^(n-1)|) int_0^pi B^((n-1+i lambda)/2)
              sin(theta)^(n-2) d theta,
        B = (1 - r^2) / (1 - 2 r cos(theta) + r^2),  r = tanh(rho/2).

    The integrand develops a boundary layer of width ~ e^(-rho) at
    theta = 0, which 18 dyadic levels of 16-node panels resolve for
    moderate rho only.  Against ``spherical_function``, relative to
    phi_0, over n in {2, 3, 4, 5, 7} and lambda <= 40, the error is
    1.7e-10 at rho = 12, 3e-7 at rho = 12.5, 3e-3 at rho = 13 and up to
    89 % at rho = 16, so rho above 12 raises ValueError.  The production
    route is ``spherical_function``.
    """
    n = _check_dimension(n)
    lam_b, rho_b = np.broadcast_arrays(
        np.asarray(lam, dtype=float), np.asarray(rho, dtype=float)
    )
    shape = lam_b.shape
    L = np.atleast_1d(lam_b).ravel()
    R = np.atleast_1d(rho_b).ravel()
    if np.any(R > _SPHERE_AVERAGE_RHO_MAX):
        raise ValueError(
            f"the sphere average is accurate for rho <= {_SPHERE_AVERAGE_RHO_MAX:g} only"
        )
    theta, wt = _theta_graded(n, 18, 16)

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
