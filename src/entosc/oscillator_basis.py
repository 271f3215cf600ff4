"""Harmonic-oscillator eigenfunctions and Gauss-Hermite quadrature.

The eigenfunctions in the physicists' convention,

    chi_n(x) = [sqrt(pi) 2^n n!]^(-1/2) H_n(x) exp(-x^2/2),

are evaluated with one three-term recurrence carried out on the normalized
functions themselves, so intermediate values stay O(1) and no factorial
overflow occurs for any n up to ``N_MAX``.  The recurrence keeps two rows
live: `chi` and `chi_bare` hold two arrays the size of x whatever n is, and
`chi_batch` stores every row.  The "bare" variant drops the exp(-x^2/2)
factor; it is what Gauss-Hermite quadrature wants, since the e^{-x^2}
weight is folded into the quadrature weights.  `light_cone_grid` is the one
scaled two-dimensional Gauss-Hermite grid that the Schmidt-coefficient
oracle and the covariant overlaps integrate on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, NumericsError, integer

N_MAX = 256
DEFAULT_QUAD_ORDER = 64
# hermgauss's smallest weights underflow past this order and the rule fails its own check
QUAD_ORDER_MAX = 370


def _check_index(n: int, name: str = "n") -> int:
    n = integer(name, n)
    if n > N_MAX:
        raise CutoffError(f"{name}={n} exceeds basis cutoff N_MAX={N_MAX}")
    return n


def _chi_rows(nmax: int, x, gaussian: bool):
    """Yield the recurrence's rows 0..nmax at x, seeded with pi^-1/4 exp(-x^2/2) or, bare, pi^-1/4.

    Only the two rows the update reads are live at a time.
    """
    nmax = _check_index(nmax, "nmax")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if gaussian and x.size and max(-x.min(), x.max()) > 1e150:
        # the seed is 0 past |x| ~ 38.6, so clipping changes no row and keeps x * x and the update finite
        x = np.clip(x, -40.0, 40.0)
    cur = np.pi ** -0.25 * np.exp(-0.5 * x * x) if gaussian else np.full(x.shape, np.pi ** -0.25)
    prev = np.zeros_like(cur)
    yield cur
    for k in range(nmax):
        cur, prev = np.sqrt(2.0 / (k + 1)) * x * cur - np.sqrt(k / (k + 1.0)) * prev, cur
        yield cur


def chi_batch(nmax: int, x) -> np.ndarray:
    """All chi_0..chi_nmax at x, stacked along the leading axis."""
    rows = _chi_rows(nmax, x, gaussian=True)
    first = next(rows)
    out = np.empty((int(nmax) + 1,) + first.shape)
    out[0] = first
    for k, row in enumerate(rows, 1):
        out[k] = row
    return out


def _last_row(n: int, x, gaussian: bool):
    scalar = np.ndim(x) == 0
    for value in _chi_rows(n, x, gaussian):
        pass
    return float(value[0]) if scalar else value


def chi(n: int, x):
    """Normalized oscillator eigenfunction chi_n(x)."""
    return _last_row(n, x, gaussian=True)


def chi_bare(n: int, x):
    """chi_n(x) with the exp(-x^2/2) factor removed."""
    return _last_row(n, x, gaussian=False)


def generating_function(r: float, z: float) -> float:
    """exp(-r^2 + 2 r z), whose Taylor coefficients in r are H_m(z)/m!."""
    return float(np.exp(-r * r + 2.0 * r * z))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights for the weight e^{-x^2}."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def quadrature(order: int = DEFAULT_QUAD_ORDER) -> QuadratureRule:
    """Gauss-Hermite rule, exact for polynomial * e^{-x^2} up to degree 2*order - 1."""
    order = integer("quadrature order", order, low=2, high=QUAD_ORDER_MAX)
    try:
        nodes, weights = np.polynomial.hermite.hermgauss(order)
    except Exception as exc:  # pragma: no cover - numpy solver failure
        raise NumericsError(f"Gauss-Hermite node solver failed for order {order}") from exc
    if not (np.all(np.diff(nodes) > 0) and np.all(weights > 0)):
        raise NumericsError(f"invalid Gauss-Hermite rule at order {order}")
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def light_cone_grid(a: float, b: float, order: int):
    """Gauss-Hermite grid for exp(-a u^2 - b v^2) in x, y = (u +- v)/sqrt(2).

    Returns x, y of shape (order, order) and the weight products w2, so that
    sum(w2 * f(x, y)) / sqrt(a b) integrates f exp(-a u^2 - b v^2) over the
    plane, exactly for polynomial f up to the rule's degree.  This is the
    light-cone normal frame in which a boost, or the combined Gaussian of a
    squeezed overlap, is diagonal.
    """
    rule = quadrature(order)
    u = rule.nodes[:, None] / math.sqrt(a)
    v = rule.nodes[None, :] / math.sqrt(b)
    x = (u + v) / math.sqrt(2.0)
    y = (u - v) / math.sqrt(2.0)
    return x, y, rule.weights[:, None] * rule.weights[None, :]
