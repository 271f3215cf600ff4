"""Reduced state of one squeezed mode when the other is never measured.

Tracing the unobserved mode out of the pure two-mode state leaves a
mixed state that is diagonal in the number basis with probabilities

    p_k = cosh(eta)^-2(n+1) binom(n+k, k) tanh(eta)^2k.

For n = 0 this is exactly a thermal oscillator distribution, which is
what lets the squeeze rapidity double as a temperature: matching
(1 - q) q^k against (1 - e^{-1/T}) e^{-k/T} gives tanh(eta)^2 = e^{-1/T}.
The von Neumann entropy comes from the probabilities (`entropy`) and from the
closed form (`entropy_closed_form`, O(1) at n = 0), which the tests require to
agree; `thermo_point` takes the n = 0 closed forms from beta^2 itself.  The
probabilities come from `entangled_series`, whose sums run to the least K past
a geometric seed with a certified tail (K ~ (46 + ln 1/(1 - beta^2)) /
(1 - beta^2) at n = 0 and tol 1e-20: 5.8e6 terms, 92 MB at beta^2 = tanh^2 eta
= 0.99999) and raise `CutoffError`, naming K, before allocating when
(n + 1)(K + 1) passes `entangled_series.TERM_CAP` or tanh^2 eta rounds to one
(|eta| >~ 18.7).

The closed forms, the temperature and the thermal curve need only `math`:
the series routes import numpy and `entangled_series` when they run, so
`thermo-curve` loads neither.  The cancellation-free ln cosh and ln tanh
that both modules use live here; through ln tanh the temperature and its
inverse are accurate to rounding over the whole rapidity domain |eta| <= 25.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, TextIO

from .errors import DomainError, finite, positive, rapidity


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


class ReducedDensity(NamedTuple):
    """Schmidt probabilities of the reduced state, with a tail bound."""

    n: int
    eta: float
    probs: np.ndarray
    cutoff: int
    tail_bound: float


class ThermoPoint(NamedTuple):
    beta_sq: float
    entropy: float
    temperature: float


def _beta_sq(q: float) -> float:
    """q as a float if it lies in [0, 1), the range of beta^2 = tanh(eta)^2, else DomainError."""
    q = float(q)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"beta_sq must lie in [0, 1), got {q}")
    return q


def reduced_density(n: int, eta, tol: float = 1e-14) -> ReducedDensity:
    """Probabilities p_k with sum within tol of one."""
    import numpy as np
    from .entangled_series import _log_terms, _tail
    eta = abs(rapidity(eta))
    probs = np.exp(_log_terms(n, eta, positive("tol", tol))[1])
    n, cutoff = int(n), probs.size - 1
    tail = float(_tail(n, math.tanh(eta) ** 2, cutoff, probs[-1]))
    return ReducedDensity(n=n, eta=eta, probs=probs, cutoff=cutoff, tail_bound=tail)


def purity(n: int, eta) -> float:
    """Tr rho^2 = sum p_k^2; equals 1/cosh(2 eta) when n = 0."""
    import numpy as np
    return float(np.sum(reduced_density(n, eta, tol=1e-18).probs ** 2))


def entropy(n: int, eta) -> float:
    """Von Neumann entropy -sum p_k ln p_k in nats (0 ln 0 = 0), from the probabilities."""
    import numpy as np
    from .entangled_series import _log_terms
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
    import numpy as np
    from .entangled_series import _log_terms
    log_binom, log_p = _log_terms(n, eta, 1e-20)
    return lead - float(np.sum(np.exp(log_p) * log_binom))


def position_density(eta, x, r):
    """Reduced coordinate-space density matrix rho(x, r) for n = 0."""
    import numpy as np
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
    """Entanglement temperature T = -1 / ln(tanh^2 eta) as -1 / (2 ln tanh eta), finite for |eta| <= 25, 0 at eta = 0."""
    eta = abs(rapidity(eta))
    if eta == 0.0:
        return 0.0
    return -0.5 / _log_tanh(eta)


def eta_for_temperature(T: float) -> float:
    """Inverse of temperature, atanh(e^{-1/(2T)}), as -ln tanh(1/(4T)) / 2, finite where e^{-1/(2T)} rounds to 1."""
    if finite("temperature", T) < 0:
        raise DomainError("temperature must be non-negative")
    if T == 0.0:
        return 0.0
    return rapidity(-_log_tanh(0.25 / T) / 2.0)


def thermo_point(beta_sq: float) -> ThermoPoint:
    """Entropy -ln(1 - q) - q ln q / (1 - q) and temperature -1 / ln q at beta^2 = q, n = 0; 0, 0 at q = 0.

    Taken from q, not through eta = atanh(sqrt q), they keep the digits of 1 - q.
    """
    q = _beta_sq(beta_sq)
    if q == 0.0:
        return ThermoPoint(beta_sq=q, entropy=0.0, temperature=0.0)
    log_q = math.log(q)
    return ThermoPoint(beta_sq=q, entropy=-math.log1p(-q) - q * log_q / (1.0 - q), temperature=-1.0 / log_q)


def thermo_curve(beta_sq_grid: Iterable[float]) -> list[ThermoPoint]:
    """`thermo_point` along a grid of beta^2 values."""
    return [thermo_point(q) for q in beta_sq_grid]


def write_thermo_csv(points: Iterable[ThermoPoint], stream: TextIO) -> None:
    """Fixed-format CSV: header beta_sq,entropy_nats,temperature, 12 significant digits."""
    stream.write("beta_sq,entropy_nats,temperature\n")
    for p in points:
        stream.write(f"{p.beta_sq:.12g},{p.entropy:.12g},{p.temperature:.12g}\n")
