"""Lorentz-covariant oscillator states and frame-to-frame inner products.

The boosted bound-state wave function chi_n(z') chi_0(t') is the same
object as the squeezed two-mode state with (x, y) read as the space and
time separations (z, t); excitations along t are forbidden, so the t
mode stays in its ground state.  Boosting preserves the normalization
(dz dt is invariant), while the overlap of states whose frames differ
by rapidity d collapses each of the n + 1 probability humps by the
Lorentz contraction factor:

    <n, eta1 | m, eta2> = cosh(eta1 - eta2)^-(n+1) delta_nm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oscillator_basis as basis
from .entangled_series import squeezed_wavefunction
from .errors import DomainError, integer, rapidity

_INDEX_BUDGET = 12  # quadrature degree budget for the overlap integrals


@dataclass(frozen=True)
class CovariantState:
    """Longitudinal excitation n boosted to rapidity eta; t mode unexcited."""

    n: int
    eta: float

    def __post_init__(self):
        integer("excitation number", self.n)


def boosted_wavefunction(state: CovariantState, z, t):
    """psi_eta^n(z, t) = chi_n(z') chi_0(t'), same numerics as the (x, y) squeeze."""
    return squeezed_wavefunction(state.n, state.eta, z, t)


@dataclass(frozen=True)
class InnerProduct:
    """Quadrature value and closed form of a frame-to-frame overlap."""

    quadrature: float
    closed_form: float

    @property
    def deviation(self) -> float:
        return abs(self.quadrature - self.closed_form)


def inner_product(n: int, eta1, m: int, eta2, order: int = basis.DEFAULT_QUAD_ORDER) -> InnerProduct:
    """Overlap of chi_n(z1')chi_0(t1') with chi_m(z2')chi_0(t2') over (z, t).

    Integrated on `oscillator_basis.light_cone_grid`, the Gauss-Hermite grid
    in the light-cone-adapted normal coordinates u = (z+t)/sqrt2,
    v = (z-t)/sqrt2, where the combined Gaussian of the two frames is
    diagonal with scales a = (e^{-2 eta1} + e^{-2 eta2})/2 and
    b = (e^{2 eta1} + e^{2 eta2})/2.
    The closed form is cosh(eta1 - eta2)^-(n+1) delta_nm.
    """
    n, m = integer("n", n, high=_INDEX_BUDGET), integer("m", m, high=_INDEX_BUDGET)
    eta1, eta2 = rapidity(eta1), rapidity(eta2)

    a = 0.5 * (math.exp(-2.0 * eta1) + math.exp(-2.0 * eta2))
    b = 0.5 * (math.exp(2.0 * eta1) + math.exp(2.0 * eta2))
    z, t, w2 = basis.light_cone_grid(a, b, order)

    def bare(nn: int, eta: float):
        # chi_nn(z') chi_0(t') with both Gaussians stripped: they are
        # accounted for exactly by the a u^2 + b v^2 quadrature weight.
        zp = math.cosh(eta) * z - math.sinh(eta) * t
        return basis.chi_bare(nn, zp) * (np.pi**-0.25)

    poly = bare(n, eta1) * bare(m, eta2)
    value = float(np.sum(w2 * poly) / math.sqrt(a * b))
    closed = (1.0 / abs(math.cosh(eta1 - eta2))) ** (n + 1) if n == m else 0.0
    return InnerProduct(quadrature=value, closed_form=closed)


def contraction_factor(n: int, beta: float) -> float:
    """Net overlap decay (sqrt(1 - beta^2))^(n+1) between rest and moving frames."""
    n = integer("n", n)
    if not -1.0 < beta < 1.0:
        raise DomainError(f"|beta| must be below 1, got {beta}")
    return math.sqrt(1.0 - beta * beta) ** (n + 1)
