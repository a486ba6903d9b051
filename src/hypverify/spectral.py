"""Radial Fourier analysis: transforms, Plancherel pairing, multipliers.

The transform pair used throughout (f radial, phi the spherical
function from specialfn):

    fhat(lam) = |S^(n-1)| int_0^inf f(rho) phi_lam(rho) sinh(rho)^(n-1) d rho
    f(rho)    = D_n int_0^inf fhat(lam) phi_lam(rho) |c(lam)|^(-2) d lam

with prefactor D_n = 2^(n-3) / (pi |S^(n-1)|).  The normalization is
pinned two independent ways in the tests: the inverse transform of the
Gaussian heat multiplier reproduces the closed-form heat kernel in
dimension 3, and an exponential profile with a rational transform
round-trips to machine precision where its transform is resolved.

Operators diagonal in the transform act by multiplication.  The
positive Laplacian has symbol ((n-1)^2 + lam^2)/4, and the order-2k
products prod_{i=1..k} (-Delta + i(i-1) - n(n-2)/4) have symbol
prod_{i=1..k} (lam^2 + (2i-1)^2)/4, independent of the dimension
because (n-1)^2 - n(n-2) = 1.

Truncation honesty: inversion, Plancherel sums, and quadratic forms
check that the last tenth of the lambda window carries a negligible
share of the integrand and raise InsufficientDecayError otherwise, so
a too-small window fails loudly instead of returning a smooth-looking
wrong answer.  Pass tail_tol=None to measure anyway; the exponential
profile test documents the honest truncation error that results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hypverify.radial import (
    Grid,
    _GRID_ORDER,
    _graded_bounds,
    _panel_nodes,
    integrate_radial,
    sphere_area,
)
from hypverify.specialfn import phi_matrix, plancherel_density


class InsufficientDecayError(RuntimeError):
    """The lambda window is too small for the requested quantity."""


_SPECTRAL_INNER = 1e-3


def make_spectral_grid(lam_max: float = 40.0, num_nodes: int = 1024) -> Grid:
    """Composite Gauss-Legendre grid on [0, lam_max].

    Same grading as the radial grid: one panel [0, 1e-3], geometric
    panels to 1 (the density vanishes like a power of lambda there),
    uniform panels beyond.  Node placement must resolve the phase
    lam * rho_max / 2 of the slowest integrand, so pick num_nodes of
    order lam_max * rho_max.
    """
    if lam_max <= 0:
        raise ValueError("lam_max must be positive")
    bounds = _graded_bounds(lam_max, num_nodes, _SPECTRAL_INNER, _GRID_ORDER)
    nodes, weights = _panel_nodes(bounds, _GRID_ORDER)
    return Grid(nodes, weights, lam_max)


def plancherel_prefactor(n: int) -> float:
    """D_n = 2^(n-3) / (pi |S^(n-1)|) in the inversion formula."""
    return 2.0 ** (n - 3) / (math.pi * sphere_area(n))


def _check_tail(grid: Grid, contrib: np.ndarray, tol, label: str) -> None:
    # share of the (absolute) integrand carried by lam >= 0.9 lam_max
    if tol is None:
        return
    mass = grid.weights * np.abs(contrib)
    total = float(np.sum(mass))
    if total == 0.0:
        return
    frac = float(np.sum(mass[grid.nodes >= 0.9 * grid.top])) / total
    if frac > tol:
        raise InsufficientDecayError(
            f"{label}: last tenth of [0, {grid.top:g}] carries "
            f"{frac:.2e} of the integrand (tol {tol:.1e}); "
            "enlarge lam_max or pass tail_tol=None to measure anyway"
        )


def forward_transform(values, grid: Grid, n: int, lam):
    """fhat at the requested lambdas for a profile sampled on the grid."""
    lam_arr = np.asarray(lam, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError("values must be sampled on the grid nodes")
    phi = phi_matrix(np.atleast_1d(lam_arr), grid.nodes, n)
    w = grid.weights * np.sinh(grid.nodes) ** (n - 1)
    out = sphere_area(n) * (phi @ (values * w))
    return float(out[0]) if lam_arr.ndim == 0 else out


def inverse_transform(fhat, grid: Grid, n: int, rho, tail_tol=1e-5):
    """Profile values at rho from transform samples on the spectral grid."""
    rho_arr = np.asarray(rho, dtype=float)
    fhat = np.asarray(fhat, dtype=float)
    if fhat.shape != grid.nodes.shape:
        raise ValueError("fhat must be sampled on the spectral grid nodes")
    dens = plancherel_density(grid.nodes, n)
    _check_tail(grid, fhat * dens, tail_tol, "inverse transform")
    phi = phi_matrix(grid.nodes, np.atleast_1d(rho_arr), n)
    out = plancherel_prefactor(n) * ((fhat * dens * grid.weights) @ phi)
    return float(out[0]) if rho_arr.ndim == 0 else out


def plancherel_check(values, grid: Grid, n: int, sgrid: Grid, tail_tol=1e-5):
    """(space side, frequency side) of int f^2 dV = D_n int fhat^2 |c|^-2."""
    values = np.asarray(values, dtype=float)
    space = integrate_radial(values**2, grid, n)
    fhat = forward_transform(values, grid, n, sgrid.nodes)
    dens = plancherel_density(sgrid.nodes, n)
    _check_tail(sgrid, fhat**2 * dens, tail_tol, "plancherel sum")
    freq = plancherel_prefactor(n) * float(np.sum(sgrid.weights * fhat**2 * dens))
    return space, freq


@dataclass(frozen=True)
class MultiplierSpec:
    """A spectral multiplier m(lambda; n) with a printable name."""

    name: str
    symbol_fn: Callable

    def __call__(self, lam, n: int):
        return self.symbol_fn(np.asarray(lam, dtype=float), n)

    def reciprocal(self) -> "MultiplierSpec":
        fn = self.symbol_fn
        return MultiplierSpec(f"1/({self.name})", lambda lam, n: 1.0 / fn(lam, n))

    def minus(self, const: float) -> "MultiplierSpec":
        fn = self.symbol_fn
        return MultiplierSpec(
            f"{self.name} - {const:g}", lambda lam, n: fn(lam, n) - const
        )

    @staticmethod
    def laplacian() -> "MultiplierSpec":
        return MultiplierSpec(
            "-laplacian", lambda lam, n: ((n - 1) ** 2 + lam**2) / 4.0
        )

    @staticmethod
    def gjms(k: int) -> "MultiplierSpec":
        # prod_{i=1..k} (-Delta + i(i-1) - n(n-2)/4); the n-dependence
        # cancels in the symbol
        if k < 1:
            raise ValueError("need k >= 1")

        def fn(lam, n):
            out = np.ones_like(lam)
            for i in range(1, k + 1):
                out = out * (lam**2 + (2 * i - 1) ** 2) / 4.0
            return out

        return MultiplierSpec(f"P{k}", fn)

    @staticmethod
    def gjms_gap(k: int) -> "MultiplierSpec":
        # first factor replaced by -Delta - (n-1)^2/4, the distance to
        # the bottom of the spectrum
        if k < 1:
            raise ValueError("need k >= 1")

        def fn(lam, n):
            out = lam**2 / 4.0
            for i in range(2, k + 1):
                out = out * (lam**2 + (2 * i - 1) ** 2) / 4.0
            return out

        return MultiplierSpec(f"Q{k}", fn)


def quadratic_form(
    values,
    grid: Grid,
    n: int,
    spec: MultiplierSpec,
    sgrid: Grid,
    tail_tol=1e-5,
) -> float:
    """int f (Op f) dV evaluated on the frequency side (forward only).

    No inverse transform is involved, so the result is meaningful even
    for operators whose kernel route would be delicate; the tail check
    still guards the lambda truncation.
    """
    fhat = forward_transform(values, grid, n, sgrid.nodes)
    dens = plancherel_density(sgrid.nodes, n)
    contrib = spec(sgrid.nodes, n) * fhat**2 * dens
    _check_tail(sgrid, contrib, tail_tol, f"quadratic form {spec.name}")
    return plancherel_prefactor(n) * float(np.sum(sgrid.weights * contrib))
