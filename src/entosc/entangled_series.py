"""Two-mode squeezing of oscillator states as Schmidt series.

Squeezing chi_n(x) chi_0(y) through the symmetric coordinate squeeze, the
Lorentz boost that only rescales the light-cone variables s, d = (x +- y)/2,

    x', y' = e^-eta s +- e^eta d = cosh(eta) x - sinh(eta) y, cosh(eta) y - sinh(eta) x

entangles the modes into

    chi_n(x') chi_0(y') = sum_k A_k(n) chi_{n+k}(x) chi_k(y),
    A_k(n) = cosh(eta)^-(n+1) sqrt((n+k)!/(n! k!)) tanh(eta)^k.

This module owns the amplitudes A_k(n), their cutoff and the series.  The
squeezed states (`squeezed_wavefunction`, its body `_squeezed`) live in
`oscillator_basis` and the law p_k = A_k(n)^2 (`_log_binom`, the tail bound
`_tail`, the one cutoff search `_cutoff`, the table `_log_table` and its float
form `_log_prob`) in `reduced_state`.  The coefficients come in closed form
and, independently, as the overlap of two squeezed states on one light-cone
Gauss-Hermite grid (`oscillator_basis._overlap`), and the series is summed so
partial sums can be compared pointwise against the squeezed Gaussian itself.
`_series_cutoff` asks `_cutoff` for K alone and raises CutoffError past the
basis bound; `schmidt_series` then builds one numpy table, up to K.
`identity_check` finds K once, then works on floats up to LIST_WORK_MAX units
of work, each A_k from `_log_prob`, so it loads no numpy there, and on arrays
from the numpy table above; its `IdentityRun` keeps K and the route.
`_log_binom` and `_squeezed` serve both routes with the log1p or recurrence
seed their caller passes, so each route keeps its bits.  numpy loads only
inside the array functions.  Arguments go through the package's one contract in
`errors` (`integer`, `positive`, `finite`, `rapidity` with |eta| <= ETA_MAX,
`budget`) before any work.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple

from . import oscillator_basis as basis
from .errors import CutoffError, DomainError, budget, finite, integer, positive, rapidity
from .oscillator_basis import squeezed_wavefunction
from .reduced_state import _cutoff, _log_binom, _log_cosh, _log_prob, _log_table, _log_tanh, _tail

# sup_x |chi_j(x)| <= pi^(-1/4), so any product of two factors is below this.
_CHI_PAIR_SUP = 1.0 / math.sqrt(math.pi)

_LOG1P_TERMS = 10**4  # the longest log1p sum `coefficient` takes for log binom(n + k, k), ~1.4 ms


class SchmidtSeries(NamedTuple):
    """Truncated Schmidt coefficients A_0..A_K with a probability tail bound."""

    n: int
    eta: float
    coeffs: np.ndarray
    cutoff: int
    tail_bound: float


def coefficient(n: int, k: int, eta) -> float:
    """Closed-form Schmidt coefficient A_k(n).

    Exact binomials below 20!.  Above, log binom(n + k, k) is `_log_binom`'s
    log1p sum over the smaller index (lgamma's difference past _LOG1P_TERMS
    terms, to bound the cost), and tanh(eta)^k one pow of its mantissa, with
    exp of the whole log only where a factor would leave the double range.  A
    negative rapidity enters through A_k(n, -eta) = (-1)^k A_k(n, eta).
    """
    n, k, eta = integer("n", n), integer("k", k), rapidity(eta)
    sign = (-1.0) ** k if eta < 0 else 1.0
    eta = abs(eta)
    if eta == 0.0:
        return 1.0 if k == 0 else 0.0
    if n + k < 20:
        return sign * math.sqrt(math.comb(n + k, k)) * math.tanh(eta) ** k / math.cosh(eta) ** (n + 1)
    if min(n, k) <= _LOG1P_TERMS:
        log_binom = _log_binom(min(n, k), max(n, k))  # prod_{i <= min} (1 + max / i)
    else:
        log_binom = math.lgamma(n + k + 1) - math.lgamma(n + 1) - math.lgamma(k + 1)
    log_scale = 0.5 * log_binom - (n + 1) * _log_cosh(eta)  # ln(A_k / t^k)
    # t^k = m^k 2^(e k): pow rounds m^k once, where exp(k ln t) carries the rounding of ln t k times
    m, e = math.frexp(math.tanh(eta))
    m_k = m**k
    if m_k >= sys.float_info.min and log_scale < 700.0:
        return sign * math.ldexp(math.exp(log_scale) * m_k, e * k)
    return sign * math.exp(log_scale + k * _log_tanh(eta))


def coefficient_by_quadrature(n: int, k: int, eta, order: int = basis.DEFAULT_QUAD_ORDER) -> float:
    """A_k(n) as the overlap of chi_{n+k} chi_k at rest with the squeezed state chi_n(x') chi_0(y')."""
    n, k, eta = integer("n", n), integer("k", k), rapidity(eta)
    integer("n + k", n + k, high=40)  # the quadrature degree budget
    return basis._overlap((n + k, k, 0.0), (n, 0, eta), order)


def _coefficients(n: int, eta: float, K: int):
    """A_0(n)..A_K(n) as an array, (-1)^k [eta < 0] exp(log A_k^2 / 2), from the numpy table up to K."""
    import numpy as np

    log_p = _log_table(n, abs(eta), K)[1] if eta else np.zeros(1)
    return math.copysign(1.0, eta) ** np.arange(K + 1.0) * np.exp(0.5 * log_p)


def _series_cutoff(n: int, eta: float, tol: float) -> int:
    """The series cutoff K alone, from the float bisection's few probes: no term up to K is listed.

    K is `_cutoff`'s first k in [K0, N_MAX - n] with A_k sup|chi chi| r / (1 - r) <= tol, the amplitude
    `_tail`, r = t sqrt((n+k+1)/(k+1)), t = tanh|eta|; K = 0 at eta = 0.  The seed
    K0 = max(8, ceil((log tol - 2 log cosh eta) / (2 log t))) is the geometric estimate, in logs accurate
    where t rounds to one; it undershoots the pointwise tolerance once t is close to one.  Where no k with
    n + k <= N_MAX fits, CutoffError names the least K needed, with no term but k = N_MAX - n formed.
    """
    a, last = abs(eta), basis.N_MAX - n  # the largest k whose chi_{n+k} the basis holds
    k0 = max(math.ceil((math.log(tol) - 2.0 * _log_cosh(a)) / (2.0 * _log_tanh(a))), 8) if a else 0
    K = _cutoff(n, a, tol / _CHI_PAIR_SUP, k0, last, 0.5) if a else (0 if last >= 0 else None)  # A_0 = 1 alone
    if K is None:
        raise CutoffError(
            f"series cutoff for n={n}, eta={eta}, tol={tol} needs K >= {max(k0, last + 1):.4g}, "
            f"so n + K exceeds the basis bound {basis.N_MAX}"
        )
    return K


def schmidt_series(n: int, eta, tol: float = 1e-12) -> SchmidtSeries:
    """Coefficients A_0..A_K with K chosen so the amplitude tail stays below tol (`_series_cutoff`), as an array."""
    tol, n, eta = positive("tol", tol), integer("n", n), rapidity(eta)
    K = _series_cutoff(n, eta, tol)
    coeffs, t = _coefficients(n, eta, K), math.tanh(abs(eta))
    return SchmidtSeries(n=n, eta=eta, coeffs=coeffs, cutoff=K, tail_bound=float(_tail(n, t * t, K, coeffs[K] ** 2)))


def series_sum(n: int, eta, x, y, tol: float = 1e-10):
    """Partial sum sum_k A_k(n) chi_{n+k}(x) chi_k(y), accurate to tol pointwise (`_series_sum`)."""
    return _series_sum(n, schmidt_series(n, eta, tol).coeffs, x, y)


def _series_sum(n: int, coeffs, x, y):
    """sum_k coeffs[k] chi_{n+k}(x) chi_k(y) for an array of coefficients.

    x and y are broadcast against each other like numpy operands, and each chi
    table is built on its own argument: an open mesh (x of shape (N, 1), y of
    shape (1, M)) costs O(K (N + M)) for the tables, and only the sum over k
    touches all N M points.
    """
    import numpy as np

    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    budget(8.0 * np.broadcast(x, y).size, "the series sum's result")
    K = coeffs.size - 1
    cx = basis.chi_batch(n + K, x)
    cy = basis.chi_batch(K, y)
    total = np.einsum("k,k...,k...->...", coeffs, cx[n:], cy)
    return float(total.ravel()[0]) if scalar else total


# The float route's cost per grid point, in series products (about 41 ns each in-process on 2 shared CPUs,
# Python 3.11.7): K + 1 for the series, 2.5 per recurrence step of chi_n(x') and 48 for the squeeze, the
# two seeds and the bookkeeping.  Grids of at most this many run on floats and load no numpy; larger ones
# run on arrays, which first pay about 0.1 s for numpy.  Medians of 15 alternating console-entry runs,
# floats against arrays: -44 ms at 1.3e6 (n = 3, eta 1, 91^2 points), -34 ms at 1.6e6 (101^2),
# -12 ms at 2.0e6 (111^2), -2 ms at 2.0e6 (n = 0, eta 0.5, 161^2) and +94 ms at 4.1e6 (n = 3, 161^2).
LIST_WORK_MAX = 2_000_000


class IdentityRun(NamedTuple):
    """The identity check on a points^2 grid: its largest deviation, the series cutoff K and the route taken."""

    deviation: float
    points: int
    cutoff: int
    route: str  # "floats" up to LIST_WORK_MAX units of work, "arrays" above


def _arange(start: float, stop: float, step: float) -> list[float]:
    """np.arange(start, stop, step) bit for bit, for finite floats, as a list of floats."""
    length = max(math.ceil((stop - start) / step), 0)
    delta = (start + step) - start  # numpy fills from the first two entries, start and start + step
    return [start, start + step, *(start + i * delta for i in range(2, length))][:length]


def identity_check(n: int, eta, xmin: float, xmax: float, spacing: float, series_tol: float) -> IdentityRun:
    """max |series_sum - squeezed_wavefunction| on axis^2, axis = np.arange(xmin, xmax + spacing / 2, spacing).

    The series is accurate to series_tol, and the budget charges its sides 7 doubles a point before any work.  K comes
    from one `_series_cutoff`.  Up to LIST_WORK_MAX units of work both sides are built on floats, so no numpy loads;
    above it, on arrays over the open mesh of the axis.  Either way a nan anywhere makes the deviation nan.
    """
    tol, n, xmin, xmax = positive("series_tol", series_tol), integer("n", n), finite("xmin", xmin), finite("xmax", xmax)
    if xmax <= xmin:
        raise DomainError("grid requires xmax > xmin")
    side = (xmax - xmin) / positive("spacing", spacing) + 1.0
    budget(8.0 * 7 * side * side, f"a grid of {side:.6g}^2 points")
    axis = _arange(xmin, finite("xmax + spacing / 2", xmax + 0.5 * spacing), spacing)
    eta = rapidity(eta)
    K = _series_cutoff(n, eta, tol)
    if (K + 49 + 2.5 * n) * len(axis) ** 2 <= LIST_WORK_MAX:
        sign, squeeze = math.copysign(1.0, eta), basis._light_cone(eta)
        log_p = map(_log_prob(n, abs(eta)), range(K + 1)) if eta else [0.0]
        coeffs = [sign**k * math.exp(0.5 * value) for k, value in enumerate(log_p)]
        gauss = ([basis._squeezed(n, 0, squeeze, x, y, basis._float_seed) for y in axis] for x in axis)
        rows = zip(_series_rows(n, coeffs, axis), gauss)
        deviation = _peak(_peak(map(abs, map(operator.sub, series, row))) for series, row in rows)
        return IdentityRun(deviation, len(axis), K, "floats")
    import numpy as np

    X, Y = np.meshgrid(np.array(axis), np.array(axis), indexing="ij", sparse=True)
    gap = _series_sum(n, _coefficients(n, eta, K), X, Y) - squeezed_wavefunction(n, eta, X, Y)
    return IdentityRun(float(np.abs(gap).max()), len(axis), K, "arrays")


def _series_rows(n: int, coeffs: list[float], axis: list[float]):
    """The rows x = axis[i] of sum_k A_k chi_{n+k}(x) chi_k(y) over y in axis, as lists of floats.

    chi_0..chi_{n+K} is tabulated once per axis point on the one recurrence,
    and each row scales its chi_{n+k}(x) by A_k once.
    """
    K = len(coeffs) - 1
    tables = [list(basis._chi_rows(n + K, *basis._float_seed(x))) for x in axis]
    columns = [table[: K + 1] for table in tables]
    for table in tables:
        terms = list(map(operator.mul, coeffs, table[n:]))
        yield [sum(map(operator.mul, terms, column)) for column in columns]


def _peak(values) -> float:
    """The largest of some floats >= 0, or nan if one is nan, as np.max has it (Python's max keeps only a first nan)."""
    values = list(values)
    return math.nan if math.isnan(sum(values)) else max(values)


class EigenvalueResidual(NamedTuple):
    """Finite-difference residual of the squeeze-invariant eigenvalue relation."""

    value: float
    eigenvalue: int
    spacing: float
    warning: str | None = None


def eigenvalue_residual(
    n: int,
    eta,
    m: int = 0,
    half_width: float = 5.0,
    spacing: float = 0.01,
) -> EigenvalueResidual:
    """max |D psi - (n - m) psi| for D = ((x^2 - dxx) - (y^2 - dyy)) / 2.

    psi = chi_n(x') chi_m(y') with squeezed coordinates of rapidity eta;
    the eigenvalue n - m is squeeze-invariant, so the residual measures
    only the finite-difference error, O(spacing^4).
    """
    import numpy as np

    n, m, eta = basis._check_index(n), basis._check_index(m, "m"), rapidity(eta)
    steps = 2.0 * positive("half_width", half_width) / positive("spacing", spacing)
    budget(6.0 * 8 * (steps + 1.0) * (steps + 1.0), f"a residual grid of {steps + 1.0:.6g}^2 points")  # peak: 6 planes
    npts = integer("points per axis", round(steps) + 1, low=9)  # a core of 5 points inside the stencil's reach
    axis = -half_width + spacing * np.arange(npts)
    X, Y = axis[:, None], axis[None, :]
    psi = basis._squeezed(n, m, basis._light_cone(eta), X, Y, basis._seeded)

    # central second-difference weights of 4th-order accuracy and the denominator they share with h^2
    weights, denom = (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0
    r = len(weights) // 2
    core = slice(r, npts - r)
    shifts = [slice(j, npts - 2 * r + j) for j in range(2 * r + 1)]
    dxx, dyy = weights[0] * psi[shifts[0], core], weights[0] * psi[core, shifts[0]]
    for w, shift in zip(weights[1:], shifts[1:]):
        dxx += w * psi[shift, core]
        dyy += w * psi[core, shift]
    h2 = denom * (spacing * spacing)
    inner, Xi, Yi = psi[core, core], X[core], Y[:, core]
    applied = 0.5 * ((Xi * Xi * inner - dxx / h2) - (Yi * Yi * inner - dyy / h2))
    residual = float(np.abs(applied - (n - m) * inner).max())
    warn = None
    scale = math.exp(abs(eta))
    if spacing * scale > 0.05:
        warn = f"spacing {spacing} may be too coarse for squeeze scale e^|eta| = {scale:.3f}"
    return EigenvalueResidual(value=residual, eigenvalue=n - m, spacing=spacing, warning=warn)
