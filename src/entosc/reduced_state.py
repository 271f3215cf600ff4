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
law p_k lives here: `_log_binom`, the tail bound `_tail`, and the package's
one cutoff search `_cutoff`, which bisects on floats for the least K past a
geometric seed with a certified tail.  `_log_terms` builds one numpy table to
K (K ~ (46 + ln 1/(1 - beta^2)) / (1 - beta^2) at n = 0 and tol 1e-20: 5.8e6
terms, 92 MB at beta^2 = tanh^2 eta = 0.99999) and raises `CutoffError`,
naming K, before any table when (n + 1)(K + 1) passes TERM_CAP or tanh^2 eta
rounds to one (|eta| >~ 18.7).  `entangled_series` takes its series cutoff
from the same search and its amplitudes A_k(n) = sqrt(p_k) from the same law.

This module imports no entosc module but `errors`.  The closed forms, the
temperature and the thermal curve need only `math`: the probability tables
load numpy when they run, so `thermo-curve` loads none.  The cancellation-free
ln cosh and ln tanh live here too; through ln tanh the temperature and its
inverse are accurate to rounding over the whole rapidity domain |eta| <= 25.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, TextIO

from .errors import ETA_MAX, CutoffError, DomainError, budget, finite, integer, positive, rapidity

TERM_CAP = 2**23  # (n + 1)(K + 1) terms, 16 B each at the peak (tracemalloc); n = 0 at tanh^2 eta = 0.99999 fits
# points of beta_sq_grid, 32 B each; `thermo-curve` at the cap takes about 4.5 s and 53 MB end to end (2 CPUs, Python 3.11)
THERMO_CURVE_MAX_STEPS = 10**6


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


def _log_binom(n: int, k, log1p=math.log1p):
    """log binom(n + k, k) as sum_{i=1..n} log1p(k / i), n passes of a few ulp: k a number, or an array with np.log1p."""
    total = 0.0 * k
    for i in range(1, n + 1):
        total += log1p(k / i)
    return total


def _tail(n: int, q: float, k: int, term: float, power: float = 1.0) -> float:
    """Certified bound on sum_{j>k} A_j(n)^(2 power) at tanh^2 eta = q from term = A_k(n)^(2 power).

    The ratio p_{j+1}/p_j = q (n+j+1)/(j+1) of the probabilities p_j = A_j^2
    falls with j, so the tail is below the geometric series term r/(1 - r)
    with r = (q (n+k+1)/(k+1))^power; inf where r >= 1.  Power 1 bounds the
    probabilities, power 1/2 the amplitudes.
    """
    r = (q * (n + k + 1.0) / (k + 1.0)) ** power
    return term * r / (1.0 - r) if r < 1.0 else math.inf


def _log_table(n: int, eta: float, hi: int):
    """(log binom(n + k, k), log A_k(n)^2) for k = 0..hi at eta > 0, as arrays."""
    import numpy as np

    log_p = np.arange(hi + 1.0)  # k, made log p_k in place
    log_binom = _log_binom(n, log_p, np.log1p)
    log_p *= 2.0 * _log_tanh(eta)
    log_p += log_binom
    log_p -= 2.0 * (n + 1) * _log_cosh(eta)
    return log_binom, log_p


def _log_prob(n: int, eta: float):
    """k -> log A_k(n)^2 at eta > 0 for an int k, on floats in `_log_table`'s order of operations."""
    scale, shift = 2.0 * _log_tanh(eta), 2.0 * (n + 1) * _log_cosh(eta)
    return lambda k: k * scale + _log_binom(n, k) - shift


def _cutoff(n: int, eta: float, tol: float, k0: int, kmax: int, power: float = 1.0) -> int | None:
    """The first k in [k0, kmax] whose `_tail` of A_k(n)^(2 power) at eta > 0 is <= tol, or None, on floats.

    The bound is inf while p_{k+1}/p_k >= 1 and falls after, so one check at kmax decides a refusal and
    bisection finds the first k: about 1 + log2(kmax - k0) terms of O(n) each, whatever K is.
    """
    q, log_p = math.tanh(eta) ** 2, _log_prob(n, eta)

    def fits(k: int) -> bool:
        return _tail(n, q, k, math.exp(power * log_p(k)), power) <= tol

    if k0 > kmax or not fits(kmax):
        return None
    while k0 < kmax:
        mid = (k0 + kmax) // 2
        k0, kmax = (k0, mid) if fits(mid) else (mid + 1, kmax)
    return k0


def _log_terms(n, eta: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(log binom(n + k, k), log A_k(n)^2) for k = 0..K at eta >= 0, the probability tail past K below tol.

    K is `_cutoff`'s first k in [K0, TERM_CAP / (n + 1) - 1] from the geometric seed K0 (K = 0 at eta = 0),
    and the one table is built to K; where no k fits, CutoffError comes before any table.
    """
    import numpy as np

    n = integer("n", n)
    if not eta:
        return np.zeros(1), np.zeros(1)
    k0 = max(32, math.ceil((math.log(tol) - 2.0 * (n + 1) * _log_cosh(eta)) / (2.0 * _log_tanh(eta))))
    K = _cutoff(n, eta, tol, k0, TERM_CAP // (n + 1) - 1)
    if K is None:
        raise CutoffError(
            f"Schmidt probability series for n={n}, eta={eta} needs K >= {max(k0, TERM_CAP // (n + 1)):.3g} terms, "
            f"past the cap (n + 1)(K + 1) <= {TERM_CAP}"
        )
    return _log_table(n, eta, K)


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


def _beta_sq(name: str, q) -> float:
    """q as a float if it lies in [0, 1), the range of beta^2 = tanh(eta)^2, else DomainError naming it."""
    q = finite(name, q)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"{name} must lie in [0, 1), got {q}")
    return q


def reduced_density(n: int, eta, tol: float = 1e-14) -> ReducedDensity:
    """Probabilities p_k with sum within tol of one."""
    import numpy as np
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
    n, eta = integer("n", n), abs(rapidity(eta))
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
    n, eta = integer("n", n), abs(rapidity(eta))
    if eta == 0.0:
        return 0.0
    lead = 2.0 * (n + 1) * (_log_cosh(eta) - math.sinh(eta) ** 2 * _log_tanh(eta))
    if n == 0:
        return lead
    import numpy as np
    log_binom, log_p = _log_terms(n, eta, 1e-20)
    return lead - float(np.sum(np.exp(log_p) * log_binom))


def position_density(eta, x, r):
    """Reduced coordinate-space density matrix rho(x, r) for n = 0: 0 where |x| or |r| is infinite, nan at nan."""
    import numpy as np
    eta = rapidity(eta)
    c2 = math.cosh(2.0 * eta)
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    budget(8.0 * 3 * np.broadcast(x, r).size, "a density matrix")  # its peak, 3 planes (tracemalloc)
    with np.errstate(over="ignore", invalid="ignore"):  # only far past underflow: inf - inf gives the nan set to 0
        value = (1.0 / math.sqrt(math.pi * c2)) * np.exp(-0.25 * ((x + r) ** 2 / c2 + (x - r) ** 2 * c2))
    value = np.where(np.isnan(value) & ~(np.isnan(x) | np.isnan(r)), 0.0, value)
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
    T = finite("temperature", T)
    if T < 0:
        raise DomainError("temperature must be non-negative")
    if T == 0.0:
        return 0.0
    eta = -_log_tanh(0.25 / T) / 2.0
    if not eta <= ETA_MAX:  # T past temperature(ETA_MAX)
        raise DomainError(f"temperature must be at most {temperature(ETA_MAX):.6g} (|eta| <= {ETA_MAX}), got {T!r}")
    return eta


def thermo_point(beta_sq: float) -> ThermoPoint:
    """Entropy -ln(1 - q) - q ln q / (1 - q) and temperature -1 / ln q at beta^2 = q, n = 0; 0, 0 at q = 0.

    Taken from q, not through eta = atanh(sqrt q), they keep the digits of 1 - q.
    """
    q = _beta_sq("beta_sq", beta_sq)
    if q == 0.0:
        return ThermoPoint(beta_sq=q, entropy=0.0, temperature=0.0)
    log_q = math.log(q)
    return ThermoPoint(beta_sq=q, entropy=-math.log1p(-q) - q * log_q / (1.0 - q), temperature=-1.0 / log_q)


def beta_sq_grid(beta_sq_min: float, beta_sq_max: float, steps: int) -> list[float]:
    """np.linspace(beta_sq_min, beta_sq_max, steps) bit for bit as a list; ends in [0, 1) keep every point there."""
    steps = integer("steps", steps, low=2, high=THERMO_CURVE_MAX_STEPS)
    lo, hi = _beta_sq("beta_sq_min", beta_sq_min), _beta_sq("beta_sq_max", beta_sq_max)
    div, delta = steps - 1, hi - lo
    step = delta / div
    if step == 0:  # numpy's order for a span so small that delta / div underflows
        grid = [i / div * delta + lo for i in range(steps)]
    else:
        grid = [i * step + lo for i in range(steps)]
    grid[-1] = hi
    return grid


def thermo_curve(grid: Iterable[float]) -> list[ThermoPoint]:
    """`thermo_point` along a grid of beta^2 values."""
    return [thermo_point(q) for q in grid]


def write_thermo_csv(points: Iterable[ThermoPoint], stream: TextIO) -> None:
    """Fixed-format CSV: header beta_sq,entropy_nats,temperature, 12 significant digits."""
    stream.write("beta_sq,entropy_nats,temperature\n")
    for p in points:
        stream.write(f"{p.beta_sq:.12g},{p.entropy:.12g},{p.temperature:.12g}\n")
