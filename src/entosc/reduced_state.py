"""Reduced state of one squeezed mode when the other is never measured.

Tracing the unobserved mode out of the pure two-mode state leaves a
mixed state that is diagonal in the number basis with probabilities

    p_k = cosh(eta)^-2(n+1) binom(n+k, k) tanh(eta)^2k.

For n = 0 this is exactly a thermal oscillator distribution, which is
what lets the squeeze rapidity double as a temperature: matching
(1 - q) q^k against (1 - e^{-1/T}) e^{-k/T} gives tanh(eta)^2 = e^{-1/T}.
The von Neumann entropy comes from the probabilities (`entropy`) and from the
closed form (`entropy_closed_form`, O(1) at n = 0, used by `thermo_curve`),
which the tests require to agree.  The probabilities come from
`entangled_series`, whose sums over the K ~ 46 / (1 - tanh^2 eta) terms raise
`CutoffError`, naming K, before allocating when (n + 1)(K + 1) passes
`entangled_series.TERM_CAP` or tanh^2 eta rounds to one (|eta| >~ 18.7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .entangled_series import _log_cosh, _log_tanh, _log_terms
from .errors import DomainError, finite, positive, rapidity


@dataclass(frozen=True)
class ReducedDensity:
    """Schmidt probabilities of the reduced state, with a tail bound."""

    n: int
    eta: float
    probs: np.ndarray
    cutoff: int
    tail_bound: float


@dataclass(frozen=True)
class ThermoPoint:
    beta_sq: float
    entropy: float
    temperature: float


def reduced_density(n: int, eta, tol: float = 1e-14) -> ReducedDensity:
    """Probabilities p_k with sum within tol of one."""
    eta = abs(rapidity(eta))
    probs = np.exp(_log_terms(n, eta, positive("tol", tol))[1])
    n, kmax = int(n), probs.size - 1
    rho = math.tanh(eta) ** 2 * (n + kmax + 1.0) / (kmax + 1.0)
    return ReducedDensity(n=n, eta=eta, probs=probs, cutoff=kmax, tail_bound=float(probs[-1] * rho / (1.0 - rho)))


def purity(n: int, eta) -> float:
    """Tr rho^2 = sum p_k^2; equals 1/cosh(2 eta) when n = 0."""
    return float(np.sum(reduced_density(n, eta, tol=1e-18).probs ** 2))


def entropy(n: int, eta) -> float:
    """Von Neumann entropy -sum p_k ln p_k in nats (0 ln 0 = 0), from the probabilities."""
    eta = abs(rapidity(eta))
    if eta == 0.0:
        return 0.0
    log_p = _log_terms(n, eta, 1e-20)[1]
    return float(-np.sum(np.exp(log_p) * log_p))


def entropy_closed_form(n: int, eta) -> float:
    """The two-term closed form: squeeze part minus the binomial-weight sum.

    S = 2(n+1) [ln cosh - sinh^2 ln tanh] - sum_k p_k ln binom(n+k, k); the
    lead term is 2(n+1) [cosh^2 ln cosh - sinh^2 ln sinh] without its
    cancellation, and the sum vanishes for n = 0, so that case costs O(1).
    """
    eta = abs(rapidity(eta))
    if eta == 0.0:
        return 0.0
    lead = 2.0 * (n + 1) * (_log_cosh(eta) - math.sinh(eta) ** 2 * _log_tanh(eta))
    if n == 0:
        return lead
    log_binom, log_p = _log_terms(n, eta, 1e-20)
    return lead - float(np.sum(np.exp(log_p) * log_binom))


def position_density(eta, x, r):
    """Reduced coordinate-space density matrix rho(x, r) for n = 0."""
    eta = rapidity(eta)
    c2 = math.cosh(2.0 * eta)
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    value = (1.0 / math.sqrt(math.pi * c2)) * np.exp(
        -0.25 * ((x + r) ** 2 / c2 + (x - r) ** 2 * c2)
    )
    return float(value) if np.ndim(value) == 0 else value


def width(eta) -> float:
    """Spread sqrt(cosh 2 eta) of the diagonal density rho(x, x)."""
    return math.sqrt(math.cosh(2.0 * rapidity(eta)))


def temperature(eta) -> float:
    """Entanglement temperature T = -1 / ln(tanh^2 eta), extended by 0 at eta = 0."""
    eta = abs(rapidity(eta))
    if eta == 0.0:
        return 0.0
    return -1.0 / math.log(math.tanh(eta) ** 2)


def eta_for_temperature(T: float) -> float:
    """Inverse of temperature: eta = atanh(e^{-1/(2T)})."""
    if finite("temperature", T) < 0:
        raise DomainError("temperature must be non-negative")
    if T == 0.0:
        return 0.0
    return math.atanh(math.exp(-1.0 / (2.0 * T)))


def thermo_curve(beta_sq_grid: Iterable[float]) -> list[ThermoPoint]:
    """Entropy (closed form, O(1) a point) and temperature along a grid of beta^2 = tanh(eta)^2 values."""
    points = []
    for q in beta_sq_grid:
        q = float(q)
        if not 0.0 <= q < 1.0:
            raise DomainError(f"beta_sq must lie in [0, 1), got {q}")
        eta = math.atanh(math.sqrt(q))
        points.append(ThermoPoint(beta_sq=q, entropy=entropy_closed_form(0, eta), temperature=temperature(eta)))
    return points


def write_thermo_csv(points: Sequence[ThermoPoint], stream: TextIO) -> None:
    """Fixed-format CSV: header beta_sq,entropy_nats,temperature, 12 significant digits."""
    stream.write("beta_sq,entropy_nats,temperature\n")
    for p in points:
        stream.write(f"{p.beta_sq:.12g},{p.entropy:.12g},{p.temperature:.12g}\n")
