"""Exact rational arithmetic for the operator identities.

Four pieces live here:

* ``LaurentElement``: the ring of finite sums c * sinh(rho)^p * cosh(rho)^eps
  with Fraction coefficients, integer (possibly negative) powers p and
  eps in {0, 1}.  cosh^2 is always rewritten as 1 + sinh^2, so the
  representation is canonical and equality of elements is decidable.
  Closed under d/drho and under the ladder operator -(1/sinh) d/drho.

* the dimension ladder: L = -(1/sinh rho) d/drho takes kernels and
  spherical functions from dimension n to n + 2.  ``ladder`` applies it
  m times to a seed e^(-kappa rho) or e^(-kappa rho^2) as exact terms
  kappa^q rho^u E(rho), E a ``LaurentElement``; ``evaluate_rows`` is the
  one float evaluator of such terms, and ``ladder_taylor`` the exact
  Taylor series where they cancel.

* ``Poly``: multivariate polynomials over the rationals, just enough
  structure (derivatives, Laplacian, Euler operator, products) to apply
  the ball-model hyperbolic Laplacian and the product family of
  higher-order operators to polynomial inputs exactly.

* the conjugation checks: identities that reduce to polynomial
  statements in the dimension and auxiliary exponents are evaluated on
  both sides with ``fractions.Fraction``, so agreement is exact, not
  approximate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        # floats are accepted only when they are exactly representable
        # small rationals; anything else is almost surely a mistake
        f = Fraction(x).limit_denominator(10**6)
        if float(f) != x:
            raise TypeError(f"{x!r} is not an exact small rational; pass a Fraction")
        return f
    return Fraction(x)


class LaurentElement:
    """Finite sum of terms c * sinh(rho)^p * cosh(rho)^eps, eps in {0, 1}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (p, eps), c in terms.items():
                self._accumulate(int(p), int(eps), _as_fraction(c))

    def _accumulate(self, p: int, eps: int, c: Fraction) -> None:
        if c == 0:
            return
        while eps >= 2:  # cosh^2 = 1 + sinh^2
            self._accumulate(p, eps - 2, c)
            p, eps = p + 2, eps - 2
        key = (p, eps)
        new = self.terms.get(key, Fraction(0)) + c
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    # -- constructors ------------------------------------------------

    @classmethod
    def inv_sinh(cls) -> "LaurentElement":
        return cls({(-1, 0): 1})

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        out = LaurentElement()
        for (p, e), c in self.terms.items():
            out._accumulate(p, e, c)
        for (p, e), c in other.terms.items():
            out._accumulate(p, e, c)
        return out

    def __neg__(self) -> "LaurentElement":
        return LaurentElement({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __mul__(self, other):
        out = LaurentElement()
        if isinstance(other, LaurentElement):
            for (p1, e1), c1 in self.terms.items():
                for (p2, e2), c2 in other.terms.items():
                    out._accumulate(p1 + p2, e1 + e2, c1 * c2)
        else:
            c0 = _as_fraction(other)
            for (p, e), c in self.terms.items():
                out._accumulate(p, e, c * c0)
        return out

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "LaurentElement":
        """d/drho, term by term.

        (sinh^p)' = p sinh^(p-1) cosh; (sinh^p cosh)' reduces via
        cosh^2 = 1 + sinh^2 to p sinh^(p-1) + (p+1) sinh^(p+1).
        """
        out = LaurentElement()
        for (p, e), c in self.terms.items():
            if e == 0:
                if p != 0:
                    out._accumulate(p - 1, 1, c * p)
            else:
                out._accumulate(p - 1, 0, c * p)
                out._accumulate(p + 1, 0, c * (p + 1))
        return out

    def apply_inv_sinh_derivative(self) -> "LaurentElement":
        """The ladder operator -(1/sinh(rho)) d/drho."""
        d = self.derivative()
        out = LaurentElement()
        for (p, e), c in d.terms.items():
            out._accumulate(p - 1, e, -c)
        return out

    def evaluate(self, rho) -> np.ndarray:
        """Float values at rho > 0 (see ``evaluate_rows``)."""
        return evaluate_rows([[(1.0, self)]], rho)[0]

    def coefficient(self, p: int, eps: int) -> Fraction:
        return self.terms.get((int(p), int(eps)), Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentElement(0)"
        bits = []
        for (p, e), c in sorted(self.terms.items()):
            t = f"{c}"
            if p:
                t += f"*sinh^{p}"
            if e:
                t += "*cosh"
            bits.append(t)
        return "LaurentElement(" + " + ".join(bits) + ")"


# -- the dimension ladder ------------------------------------------------


@lru_cache(maxsize=None)
def ladder(a: int, m: int, start: int = 0) -> tuple:
    """L^m [sinh(rho)^start e^(-kappa rho^a)] in exact terms, L = -(1/sinh) d/drho.

    The sum of kappa^q rho^u E(rho) e^(-kappa rho^a) over the returned
    pairs ((q, u), E), sorted by key.  a = 1 seeds the resolvents, the
    Green kernel (kappa = 0) and, as the real part at kappa = i lam/2,
    the spherical functions; a = 2 seeds the heat kernel.  One step is
    the product rule:

        L(rho^u E e^(-kappa rho^a)) = (rho^u L E - u rho^(u-1) E/sinh
                          + a kappa rho^(u+a-1) E/sinh) e^(-kappa rho^a).
    """
    inv = LaurentElement.inv_sinh()
    terms = {(0, 0): LaurentElement({(start, 0): 1})}
    for _ in range(m):
        nxt: dict = {}
        for (q, u), elem in terms.items():
            over = elem * inv
            for key, part in (
                ((q, u), elem.apply_inv_sinh_derivative()),
                ((q, u - 1), over * -u),
                ((q + 1, u + a - 1), over * a),
            ):
                nxt[key] = nxt.get(key, LaurentElement()) + part
        terms = {key: elem for key, elem in nxt.items() if elem.terms}
    return tuple(sorted(terms.items()))


def _horner(coefs: dict, k0: int, z):
    # sum_k coefs[k] z^(k - k0) for k >= k0: a new array, or a float when
    # there is no power of z
    top = max(coefs, default=k0)
    if top == k0:
        return coefs.get(k0, 0.0)
    acc = coefs[top] * z
    for k in range(top - 1, k0, -1):
        if coefs.get(k):
            acc += coefs[k]
        acc *= z
    if coefs.get(k0):
        acc += coefs[k0]
    return acc


def evaluate_rows(rows, rho) -> list:
    """Float values at rho > 0 of weighted sums of ``LaurentElement``s.

    Each row, a sequence of (weight, element) pairs, gives the array
    sum weight * element(rho).  A term c sinh^p cosh^eps is taken as
    c coth^eps x^k, x = 1/sinh = 2e^(-rho)/(1 - e^(-2 rho)), k = -(p + eps),
    so nothing overflows at large rho (x underflows to 0, coth tends to
    1).  x and coth are computed once per call; each row is Horner in x.
    """
    rho = np.asarray(rho, dtype=float)
    coth = np.divide(-2.0, np.expm1(-2.0 * rho))  # 2/(1 - e^(-2 rho)) = coth + 1
    x = np.exp(-rho) * coth
    coth -= 1.0
    out = []
    for row in rows:
        polys: tuple = ({}, {})  # {k: coefficient of x^k}, without and with coth
        for weight, elem in row:
            for (p, e), c in elem.terms.items():
                polys[e][-p - e] = polys[e].get(-p - e, 0.0) + weight * float(c)
        k0 = min((k for poly in polys for k in poly), default=0)
        val = _horner(polys[0], k0, x)
        if polys[1]:
            odd = _horner(polys[1], k0, x) * coth
            odd += val
            val = odd
        if isinstance(val, float):
            val = np.full(rho.shape, val)
        if k0 < 0:
            val /= x**-k0  # positive powers of sinh overflow with the true value
        for _ in range(k0):
            val *= x
        out.append(val[()])  # a scalar for scalar rho
    return out


@lru_cache(maxsize=None)
def ladder_taylor(m: int, order: int) -> tuple:
    """Taylor series at rho = 0 of the Gaussian ladder, Gaussian factored out.

    e^(kappa rho^2) L^m e^(-kappa rho^2) = sum_q kappa^q F_q(rho), with
    F_q = sum_u rho^u E_(q,u) over ``ladder(2, m)``.  Returns, per q,
    the first ``order`` coefficients a_j of F_q = sum_j a_j rho^(2j) as
    Fractions.  With sinh = rho S(rho^2), cosh = C(rho^2), a term
    c rho^u sinh^p cosh^eps (p <= 0 here) is c rho^(u+p) S^p C^eps; the
    negative powers of rho must cancel, and that is checked.
    """
    terms = ladder(2, m)
    low = min((u + p) // 2 for (_, u), e in terms for p, _ in e.terms)
    size = order - min(low, 0)

    def mul(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(size)]

    S = [Fraction(1, math.factorial(2 * j + 1)) for j in range(size)]
    C = [Fraction(1, math.factorial(2 * j)) for j in range(size)]
    powers = [[Fraction(int(j == 0)) for j in range(size)]]  # S^0, S^-1, ...
    inv = [Fraction(1)]
    for k in range(1, size):
        inv.append(-sum(S[i] * inv[k - i] for i in range(1, k + 1)))
    out: dict = {}
    for (q, u), elem in terms:
        acc = out.setdefault(q, {})
        for (p, e), c in elem.terms.items():
            while len(powers) <= -p:
                powers.append(mul(powers[-1], inv))
            series = mul(powers[-p], C) if e else powers[-p]
            for j, a in enumerate(series, start=(u + p) // 2):
                acc[j] = acc.get(j, Fraction(0)) + c * a
    if any(a for acc in out.values() for j, a in acc.items() if j < 0):
        raise ArithmeticError("the ladder terms left a pole at rho = 0")
    return tuple(
        tuple(out.get(q, {}).get(j, Fraction(0)) for j in range(order))
        for q in range(max(out) + 1)
    )


def sinh_expansion_coefficients(k: int) -> tuple[int, ...]:
    """Integer coefficients of the 2k-fold ladder applied to 1/sinh.

    (-(1/sinh) d/drho)^(2k) (1/sinh) = sum_{i=0}^{k} a_i sinh^(-(2k+1+2i))
    with all a_i positive integers.  Built by the two-term recursion

        a'_0     = (2l+2)!
        a'_i     = (2i+2l+1)(2i+2l+2) a_i + (2i+2l-1)(2i+2l+1) a_{i-1}
        a'_{l+1} = (4l+1)(4l+3) a_l

    taking the row for 2l ladder steps to the row for 2l+2.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a = [1]
    for l in range(k):
        nxt = [0] * (l + 2)
        nxt[0] = math.factorial(2 * l + 2)
        for i in range(1, l + 1):
            nxt[i] = (2 * i + 2 * l + 1) * (2 * i + 2 * l + 2) * a[i] + (
                2 * i + 2 * l - 1
            ) * (2 * i + 2 * l + 1) * a[i - 1]
        nxt[l + 1] = (4 * l + 1) * (4 * l + 3) * a[l]
        a = nxt
    return tuple(a)


def verify_sinh_derivative_recursion(k_max: int = 8) -> bool:
    """Check the closed-form coefficients of the iterated ladder operator.

    Takes the even iterates L^(2k)(1/sinh) from ``ladder`` (its kappa^0
    terms) and compares them with the integer recursion of
    ``sinh_expansion_coefficients``.  Positivity of the coefficients is
    what makes the even iterates cancellation-free, so this check
    underwrites the kernel evaluations elsewhere.
    """
    for k in range(1, k_max + 1):
        coeffs = sinh_expansion_coefficients(k)
        want = LaurentElement({(-(2 * k + 1 + 2 * i), 0): a for i, a in enumerate(coeffs)})
        if dict(ladder(1, 2 * k, -1))[0, 0] != want or any(a <= 0 for a in coeffs):
            return False
    return True


def halfspace_conjugation_monomial_check(n: int, k: int, m: int):
    """Both factorizations of the conjugated k-fold operator on x1^m.

    Conjugating the k-th power operator by the weight x1^(k - n/2) and
    applying it to the monomial x1^m multiplies the monomial by a
    rational number.  The two closed forms for that number are

        lhs = prod_{j=0}^{k-1} (s - 2j)(s - 2j - 1),   s = k - n/2 + m
        rhs = prod_{i=1}^{k} ( m(m-n+1) + (n-2i)(n+2i-2)/4 )

    Returned as exact Fractions so the caller can assert equality.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = Fraction(2 * (k + m) - n, 2)
    lhs = Fraction(1)
    for j in range(k):
        lhs *= (s - 2 * j) * (s - 2 * j - 1)
    rhs = Fraction(1)
    base = Fraction(m * (m - n + 1))
    for i in range(1, k + 1):
        rhs *= base + Fraction((n - 2 * i) * (n + 2 * i - 2), 4)
    return lhs, rhs


class Poly:
    """Multivariate polynomial with Fraction coefficients.

    Terms are stored as {exponent tuple: coefficient}.  Only the
    operations needed by the conjugation checks are implemented.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = int(n)
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                self._add(tuple(int(e) for e in exps), _as_fraction(c))

    def _add(self, exps: tuple[int, ...], c: Fraction) -> None:
        if len(exps) != self.n:
            raise ValueError("exponent tuple has wrong length")
        if c == 0:
            return
        new = self.terms.get(exps, Fraction(0)) + c
        if new == 0:
            self.terms.pop(exps, None)
        else:
            self.terms[exps] = new

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        exps = [0] * n
        exps[i] = 1
        return cls(n, {tuple(exps): 1})

    @classmethod
    def radius_squared(cls, n: int) -> "Poly":
        out = cls(n)
        for i in range(n):
            exps = [0] * n
            exps[i] = 2
            out._add(tuple(exps), Fraction(1))
        return out

    def __add__(self, other: "Poly") -> "Poly":
        out = Poly(self.n, self.terms)
        for exps, c in other.terms.items():
            out._add(exps, c)
        return out

    def __neg__(self) -> "Poly":
        return Poly(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = Poly(self.n)
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    out._add(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            return out
        c0 = _as_fraction(other)
        return Poly(self.n, {k: c * c0 for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def diff(self, i: int) -> "Poly":
        out = Poly(self.n)
        for exps, c in self.terms.items():
            if exps[i] > 0:
                new = list(exps)
                new[i] -= 1
                out._add(tuple(new), c * exps[i])
        return out

    def laplacian(self) -> "Poly":
        out = Poly(self.n)
        for i in range(self.n):
            out = out + self.diff(i).diff(i)
        return out

    def euler(self) -> "Poly":
        """The Euler operator x . grad, exact on each monomial."""
        out = Poly(self.n)
        for exps, c in self.terms.items():
            deg = sum(exps)
            if deg:
                out._add(exps, c * deg)
        return out

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for exps, c in self.terms.items():
            term = np.full(x.shape[:-1], float(c))
            for i, e in enumerate(exps):
                if e:
                    term = term * x[..., i] ** e
            out = out + term
        return out

    def __repr__(self) -> str:
        return f"Poly(n={self.n}, terms={self.terms!r})"


def ball_laplace_beltrami(p: Poly) -> Poly:
    """Hyperbolic Laplacian of the ball model applied to a polynomial.

    ((1-R^2)^2/4) Delta + ((n-2)(1-R^2)/2) x.grad with R^2 = |x|^2.
    Maps polynomials to polynomials, so the result is exact.
    """
    n = p.n
    w = Poly.constant(n, 1) - Poly.radius_squared(n)
    return (w * w * p.laplacian()) * Fraction(1, 4) + (w * p.euler()) * Fraction(
        n - 2, 2
    )


def gjms_operator(p: Poly, k: int) -> Poly:
    """Product form of the k-th operator of the family on the ball.

    prod_{i=1}^{k} ( -Delta_H - n(n-2)/4 + i(i-1) ) applied to p with
    rational coefficients throughout.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = p.n
    out = p
    for i in range(1, k + 1):
        shift = Fraction(i * (i - 1)) - Fraction(n * (n - 2), 4)
        out = -ball_laplace_beltrami(out) + shift * out
    return out


_STENCIL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFSETS = (-2, -1, 0, 1, 2)


def _fd_laplacian(func, x: np.ndarray, h: float) -> float:
    total = 0.0
    for i in range(x.size):
        vals = np.empty(5)
        for j, off in enumerate(_OFFSETS):
            y = x.copy()
            y[i] += off * h
            vals[j] = func(y)
        total += float(_STENCIL @ vals) / (h * h)
    return total


def _nested_neg_laplacian(func, k: int, h: float):
    out = func
    for _ in range(k):
        inner = out
        out = lambda x, _f=inner: -_fd_laplacian(_f, x, h)
    return out


_PROBE_POINTS = 20
_PROBE_STEP = 0.01
_PROBE_SEED = 0
_PROBE_MAX_RADIUS = 0.55


def ball_conjugation_numeric_check(n: int, k: int, f: Poly | None = None) -> float:
    """Conjugation of the k-fold flat Laplacian against the ball family.

    With w = (1 - |x|^2)/2 the identity under test is

        w^(k + n/2) (-Delta)^k [ w^(k - n/2) f ]  =  (k-th operator) f

    for smooth f.  The left side is evaluated by nested 4th-order
    central differences of step 0.01 at 20 seeded random points of
    radius 0.1 to 0.55, the right side by exact rational operator
    arithmetic on the polynomial f.  Returns max |lhs - rhs| /
    max(sup |rhs|, 1), a scale-aware relative error: ~1e-7 for k=1 and
    ~1e-5 for k=2.
    """
    if f is None:
        f = Poly.constant(n, 1) + Poly.variable(n, 0)
    if f.n != n:
        raise ValueError("polynomial dimension mismatch")

    rhs_poly = gjms_operator(f, k)

    rng = np.random.default_rng(_PROBE_SEED)
    dirs = rng.normal(size=(_PROBE_POINTS, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.1, _PROBE_MAX_RADIUS, size=_PROBE_POINTS)
    pts = dirs * radii[:, None]

    expo = k - n / 2.0

    def g(x):
        w = (1.0 - float(x @ x)) / 2.0
        return w**expo * f.evaluate(x)

    op = _nested_neg_laplacian(g, k, _PROBE_STEP)

    lhs = np.empty(_PROBE_POINTS)
    for i, x in enumerate(pts):
        w = (1.0 - float(x @ x)) / 2.0
        lhs[i] = w ** (k + n / 2.0) * op(x)
    rhs = rhs_poly.evaluate(pts)

    scale = max(float(np.max(np.abs(rhs))), 1.0)
    return float(np.max(np.abs(lhs - rhs))) / scale
