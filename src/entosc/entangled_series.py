"""Two-mode squeezing of oscillator states as Schmidt series.

Squeezing chi_n(x) chi_0(y) through the symmetric coordinate squeeze

    x' = cosh(eta) x - sinh(eta) y,   y' = cosh(eta) y - sinh(eta) x

entangles the modes into

    chi_n(x') chi_0(y') = sum_k A_k(n) chi_{n+k}(x) chi_k(y),
    A_k(n) = cosh(eta)^-(n+1) sqrt((n+k)!/(n! k!)) tanh(eta)^k.

The module computes the coefficients in closed form and, independently,
by two-dimensional Gauss-Hermite quadrature, and sums the series with a
certified tail bound so partial sums can be compared pointwise against
the squeezed Gaussian itself.  Sums over the probabilities A_k(n)^2, here and
in `reduced_state`, fix their term count first and raise CutoffError past
TERM_CAP.  Arguments go through the package's one contract in `errors`
(`integer`, `positive`, `rapidity` with |eta| <= ETA_MAX, `budget`) before
any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oscillator_basis as basis
from .errors import CutoffError, DomainError, budget, integer, positive, rapidity

# sup_x |chi_j(x)| <= pi^(-1/4), so any product of two factors is below this.
_CHI_PAIR_SUP = 1.0 / math.sqrt(math.pi)

TERM_CAP = 2**23  # (n + 1)(K + 1) terms, ~30 B each at the peak; n = 0 at tanh^2 eta = 0.99999 fits


def _log_cosh(eta: float) -> float:
    """ln cosh(eta), accurate for small eta too (cosh - 1 = 2 sinh^2(eta/2))."""
    return math.log1p(2.0 * math.sinh(0.5 * eta) ** 2)


def _log_tanh(eta: float) -> float:
    """ln tanh(eta) for eta > 0, accurate where tanh(eta) rounds to one.

    For eta >= 0.5, ln tanh = log1p(-e^{-2 eta}) - log1p(e^{-2 eta}) keeps the
    relative precision of a value near -2 e^{-2 eta}; below, e^{-2 eta} is too
    close to one and ln(tanh) itself is the accurate form.
    """
    if eta < 0.5:
        return math.log(math.tanh(eta))
    x = math.exp(-2.0 * eta)
    return math.log1p(-x) - math.log1p(x)


@dataclass(frozen=True)
class SchmidtSeries:
    """Truncated Schmidt coefficients A_0..A_K with a probability tail bound."""

    n: int
    eta: float
    coeffs: np.ndarray
    cutoff: int
    tail_bound: float


def squeezed_wavefunction(n: int, eta, x, y):
    """chi_n(x') chi_0(y') for the squeezed coordinates of rapidity eta."""
    eta = rapidity(eta)
    c, s = math.cosh(eta), math.sinh(eta)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xp = c * x - s * y
    yp = c * y - s * x
    value = basis.chi(n, xp) * basis.chi(0, yp)
    return float(value) if np.ndim(value) == 0 else value


def coefficient(n: int, k: int, eta) -> float:
    """Closed-form Schmidt coefficient A_k(n).

    Log-domain for large indices, exact binomials below 20!; a negative
    rapidity enters through A_k(n, -eta) = (-1)^k A_k(n, eta).
    """
    n, k, eta = integer("n", n), integer("k", k), rapidity(eta)
    sign = (-1.0) ** k if eta < 0 else 1.0
    eta = abs(eta)
    if eta == 0.0:
        return 1.0 if k == 0 else 0.0
    t, c = math.tanh(eta), math.cosh(eta)
    if n + k < 20:
        return sign * math.sqrt(math.comb(n + k, k)) * t**k / c ** (n + 1)
    log_binom = 0.5 * (math.lgamma(n + k + 1) - math.lgamma(n + 1) - math.lgamma(k + 1))
    return sign * math.exp(log_binom + k * math.log(t) - (n + 1) * math.log(c))


def coefficient_by_quadrature(n: int, k: int, eta, order: int = basis.DEFAULT_QUAD_ORDER) -> float:
    """A_k(n) as the overlap integral of the squeezed state with chi_{n+k} chi_k.

    The integrand is polynomial times a correlated Gaussian; rotating to
    normal coordinates u = (x+y)/sqrt2, v = (x-y)/sqrt2 makes the Gaussian
    diagonal with scales cosh(eta) e^{-+eta}, so the scaled Gauss-Hermite
    grid `oscillator_basis.light_cone_grid` integrates it exactly up to the
    rule's degree; the scales' square-root product is cosh(eta).
    """
    n, k, eta = integer("n", n), integer("k", k), rapidity(eta)
    integer("n + k", n + k, high=40)  # the quadrature degree budget
    c, s = math.cosh(eta), math.sinh(eta)
    # With u~ = u sqrt(cosh e^-eta), v~ = v sqrt(cosh e^eta) the combined
    # Gaussian (x^2 + y^2 + x'^2 + y'^2)/2 equals u~^2 + v~^2 exactly, so
    # only the bare polynomials remain under the quadrature weights.
    x, y, w2 = basis.light_cone_grid(c * math.exp(-eta), c * math.exp(eta), order)
    xp = c * x - s * y
    poly = basis.chi_bare(n + k, x) * basis.chi_bare(k, y) * basis.chi_bare(n, xp) * (np.pi**-0.25)
    return float(np.sum(w2 * poly) / c)


def schmidt_series(n: int, eta, tol: float = 1e-12, kmax: int | None = None) -> SchmidtSeries:
    """Coefficients A_0..A_K with K chosen so the amplitude tail stays below tol.

    The cutoff starts from the geometric estimate
    K0 = ceil(log(tol (1 - t^2)) / (2 log t)), t = tanh|eta|, and is then
    extended until A_K sup|chi chi| r / (1 - r) <= tol with the ratio bound
    r = t sqrt((n+K+1)/(K+1)); the plain geometric seed undershoots the
    pointwise tolerance once t is close to one.  CutoffError is raised
    before any coefficient is built when n + K0 already passes the basis
    bound, tanh|eta| rounding to one included.
    """
    tol, n, eta = positive("tol", tol), integer("n", n), rapidity(eta)
    bound = basis.N_MAX if kmax is None else min(integer("kmax", kmax), basis.N_MAX)
    t = math.tanh(abs(eta))
    if t == 0.0:
        return SchmidtSeries(n=n, eta=eta, coeffs=np.array([1.0]), cutoff=0, tail_bound=0.0)
    if t == 1.0:  # |eta| >~ 19: estimate K0 from logs that do not round
        k0 = (math.log(tol) - 2.0 * _log_cosh(eta)) / (2.0 * _log_tanh(abs(eta)))
    else:
        k0 = max(math.ceil(math.log(tol * (1.0 - t * t)) / (2.0 * math.log(t))), 8)
    if k0 + n > bound:
        raise CutoffError(
            f"series cutoff for n={n}, eta={eta}, tol={tol} needs K >= {k0:.4g}, "
            f"so n + K exceeds the basis bound {bound}"
        )
    coeffs = [coefficient(n, k, eta) for k in range(k0 + 1)]
    k = k0
    while True:
        r = t * math.sqrt((n + k + 1.0) / (k + 1.0))
        if r < 1.0 and abs(coeffs[k]) * _CHI_PAIR_SUP * r / (1.0 - r) <= tol:
            break
        k += 1
        if k + n > bound:
            raise CutoffError(
                f"series cutoff for n={n}, eta={eta}, tol={tol} exceeds the basis bound {bound}"
            )
        coeffs.append(coefficient(n, k, eta))
    amps = np.array(coeffs)
    probs = amps * amps
    rho = t * t * (n + k + 2.0) / (k + 2.0)
    tail = float(probs[-1] * rho / (1.0 - rho)) if rho < 1.0 else float("inf")
    return SchmidtSeries(n=n, eta=eta, coeffs=amps, cutoff=k, tail_bound=tail)


def series_sum(n: int, eta, x, y, tol: float = 1e-10, kmax: int | None = None):
    """Partial sum sum_k A_k(n) chi_{n+k}(x) chi_k(y), accurate to tol pointwise.

    x and y are broadcast against each other like numpy operands, and each chi
    table is built on its own argument: an open mesh (x of shape (N, 1), y of
    shape (1, M)) costs O(K (N + M)) for the tables, and only the sum over k
    touches all N M points.
    """
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    ser = schmidt_series(n, eta, tol, kmax)
    cx = basis.chi_batch(ser.n + ser.cutoff, x)
    cy = basis.chi_batch(ser.cutoff, y)
    total = np.einsum("k,k...,k...->...", ser.coeffs, cx[ser.n :], cy)
    return float(total.ravel()[0]) if scalar else total


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    """log binom(n + k, k) elementwise as sum_{i=1..n} log1p(k / i): n passes, a few ulp each."""
    out = np.zeros(np.shape(k))
    for i in range(1, n + 1):
        out += np.log1p(k / i)
    return out


def _prob_cutoff(n: int, eta: float, tol: float) -> int:
    """K with a certified tail of the probabilities A_k(n)^2 below tol (eta > 0); CutoffError past TERM_CAP."""
    q = math.tanh(eta) ** 2
    log_q, log_1mq = 2.0 * _log_tanh(eta), -2.0 * _log_cosh(eta)
    k = max(32, math.ceil((math.log(tol) + (n + 1) * log_1mq) / log_q))
    while (n + 1) * (k + 1) <= TERM_CAP:
        rho = q * (n + k + 1.0) / (k + 1.0)
        log_binom = math.lgamma(n + k + 1) - math.lgamma(n + 1) - math.lgamma(k + 1)
        if rho < 1.0 and math.exp((n + 1) * log_1mq + log_binom + k * log_q) * rho / (1.0 - rho) <= tol:
            return k
        k = int(1.5 * k) + 8
    raise CutoffError(
        f"Schmidt probability series for n={n}, eta={eta} needs K >= {k:.3g} terms, "
        f"past the cap (n + 1)(K + 1) <= {TERM_CAP}"
    )


def _log_terms(n, eta: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(log binom(n + k, k), log A_k(n)^2) for k = 0..K, K from _prob_cutoff (0 at eta = 0)."""
    n = integer("n", n)
    if eta == 0.0:
        return np.zeros(1), np.zeros(1)
    log_p = np.arange(_prob_cutoff(n, eta, tol) + 1, dtype=float)  # k, made log p_k in place
    log_binom = _log_binom(n, log_p)
    log_p *= 2.0 * _log_tanh(eta)
    log_p += log_binom
    log_p -= 2.0 * (n + 1) * _log_cosh(eta)
    return log_binom, log_p


def normalization_check(n: int, eta) -> float:
    """sum_k A_k(n)^2 up to a tail below 1e-18 (contract: equals 1); CutoffError past TERM_CAP."""
    return float(np.sum(np.exp(_log_terms(n, abs(rapidity(eta)), 1e-18)[1])))


def unnormalized_series_ratio(eta) -> float:
    """Norm of sum_k tanh^k chi_k chi_k relative to the normalized series.

    The bare exponential of the two-mode raising bilinear produces the
    series without its 1/cosh prefactor; its norm sqrt(sum t^{2k}) is
    cosh(eta), computed here by direct summation of the terms up to a
    relative tail below 1e-18.  The terms are the n = 0 probabilities over
    1 - t^2, so their count K ~ 41 / (1 - t^2) comes from the same cutoff,
    which raises CutoffError before summing once K passes TERM_CAP
    (|eta| >~ 6.7, tanh|eta| rounding to one included).
    """
    eta = abs(rapidity(eta))
    if eta == 0.0:
        return 1.0
    q = math.tanh(eta) ** 2
    return math.sqrt(float(np.sum(q ** np.arange(_prob_cutoff(0, eta, 1e-18) + 1, dtype=float))))


@dataclass(frozen=True)
class EigenvalueResidual:
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
    stencil_order: int = 4,
) -> EigenvalueResidual:
    """max |D psi - (n - m) psi| for D = ((x^2 - dxx) - (y^2 - dyy)) / 2.

    psi = chi_n(x') chi_m(y') with squeezed coordinates of rapidity eta;
    the eigenvalue n - m is squeeze-invariant, so the residual measures
    only the finite-difference error, O(spacing^stencil_order).
    """
    if stencil_order not in (2, 4):
        raise DomainError("stencil_order must be 2 or 4")
    n, m, eta = integer("n", n), integer("m", m), rapidity(eta)
    steps = 2.0 * positive("half_width", half_width) / positive("spacing", spacing)
    budget(8.0 * 8 * (steps + 1.0) * (steps + 1.0), f"a residual grid of {steps + 1.0:.6g}^2 points")  # peak: 8 planes
    npts = integer("points per axis", round(steps) + 1, low=2 * stencil_order + 1)
    axis = -half_width + spacing * np.arange(npts)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    c, s = math.cosh(eta), math.sinh(eta)
    psi = basis.chi(n, c * X - s * Y) * basis.chi(m, c * Y - s * X)

    h2 = spacing * spacing
    if stencil_order == 2:
        lo, hi = 1, npts - 1
        dxx = (psi[:-2, lo:hi] - 2.0 * psi[1:-1, lo:hi] + psi[2:, lo:hi]) / h2
        dyy = (psi[lo:hi, :-2] - 2.0 * psi[lo:hi, 1:-1] + psi[lo:hi, 2:]) / h2
        inner = psi[1:-1, 1:-1]
        Xi, Yi = X[1:-1, 1:-1], Y[1:-1, 1:-1]
    else:
        lo, hi = 2, npts - 2
        dxx = (
            -psi[:-4, lo:hi]
            + 16.0 * psi[1:-3, lo:hi]
            - 30.0 * psi[2:-2, lo:hi]
            + 16.0 * psi[3:-1, lo:hi]
            - psi[4:, lo:hi]
        ) / (12.0 * h2)
        dyy = (
            -psi[lo:hi, :-4]
            + 16.0 * psi[lo:hi, 1:-3]
            - 30.0 * psi[lo:hi, 2:-2]
            + 16.0 * psi[lo:hi, 3:-1]
            - psi[lo:hi, 4:]
        ) / (12.0 * h2)
        inner = psi[2:-2, 2:-2]
        Xi, Yi = X[2:-2, 2:-2], Y[2:-2, 2:-2]

    applied = 0.5 * ((Xi * Xi * inner - dxx) - (Yi * Yi * inner - dyy))
    residual = float(np.abs(applied - (n - m) * inner).max())
    warn = None
    scale = math.exp(abs(eta))
    if spacing * scale > 0.05:
        warn = f"spacing {spacing} may be too coarse for squeeze scale e^|eta| = {scale:.3f}"
    return EigenvalueResidual(value=residual, eigenvalue=n - m, spacing=spacing, warning=warn)
