"""Harmonic-oscillator eigenfunctions and Gauss-Hermite quadrature.

The eigenfunctions in the physicists' convention,

    chi_n(x) = [sqrt(pi) 2^n n!]^(-1/2) H_n(x) exp(-x^2/2),

are evaluated with a three-term recurrence carried out on the normalized
functions themselves, so intermediate values stay O(1) and no factorial
overflow occurs for any n up to ``N_MAX``.  The "bare" variants drop the
exp(-x^2/2) factor; they are what Gauss-Hermite quadrature wants, since
the e^{-x^2} weight is folded into the quadrature weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, DomainError, NumericsError

N_MAX = 256
DEFAULT_QUAD_ORDER = 64


def _check_index(n: int, name: str = "n") -> int:
    if n != int(n) or n < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {n!r}")
    if n > N_MAX:
        raise CutoffError(f"{name}={n} exceeds basis cutoff N_MAX={N_MAX}")
    return int(n)


def hermite(n: int, x):
    """Hermite polynomial H_n(x), physicists' convention.

    Uses the recurrence H_{n+1} = 2 x H_n - 2 n H_{n-1}.  Accepts scalars
    or arrays.
    """
    n = _check_index(n)
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def _chi_rows(nmax: int, x, gaussian: bool) -> np.ndarray:
    """The recurrence's rows 0..nmax at x, seeded with pi^-1/4 exp(-x^2/2) or, bare, pi^-1/4."""
    nmax = _check_index(nmax, "nmax")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x) if gaussian else np.pi ** -0.25
    if nmax >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, nmax):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def chi_batch(nmax: int, x) -> np.ndarray:
    """All chi_0..chi_nmax at x, stacked along the leading axis."""
    return _chi_rows(nmax, x, gaussian=True)


def chi_batch_bare(nmax: int, x) -> np.ndarray:
    """All chi_n / exp(-x^2/2) for n = 0..nmax (Gaussian factor removed)."""
    return _chi_rows(nmax, x, gaussian=False)


def chi(n: int, x):
    """Normalized oscillator eigenfunction chi_n(x)."""
    n = _check_index(n)
    scalar = np.ndim(x) == 0
    value = chi_batch(n, x)[n]
    return float(value[0]) if scalar else value


def chi_bare(n: int, x):
    """chi_n(x) with the exp(-x^2/2) factor removed."""
    n = _check_index(n)
    scalar = np.ndim(x) == 0
    value = chi_batch_bare(n, x)[n]
    return float(value[0]) if scalar else value


def generating_function(r: float, z: float) -> float:
    """exp(-r^2 + 2 r z), whose Taylor coefficients in r are H_m(z)/m!."""
    return float(np.exp(-r * r + 2.0 * r * z))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights for the weight e^{-x^2}."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def integrate_bare(self, values: np.ndarray) -> float:
        """Sum weights * values; `values` must already exclude e^{-x^2}."""
        return float(self.weights @ values)


def quadrature(order: int = DEFAULT_QUAD_ORDER) -> QuadratureRule:
    """Gauss-Hermite rule, exact for polynomial * e^{-x^2} up to degree 2*order - 1."""
    if order != int(order) or order < 2:
        raise DomainError(f"quadrature order must be an integer >= 2, got {order!r}")
    try:
        nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    except Exception as exc:  # pragma: no cover - numpy solver failure
        raise NumericsError(f"Gauss-Hermite node solver failed for order {order}") from exc
    if not (np.all(np.diff(nodes) > 0) and np.all(weights > 0)):
        raise NumericsError(f"invalid Gauss-Hermite rule at order {order}")
    return QuadratureRule(nodes=nodes, weights=weights, order=int(order))
