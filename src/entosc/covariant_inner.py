"""Lorentz-covariant oscillator states and frame-to-frame inner products.

The boosted bound-state wave function chi_n(z') chi_0(t') is
`oscillator_basis.squeezed_wavefunction(n, eta, z, t)`: the squeezed
two-mode state with (x, y) read as the space and time separations (z, t).
Excitations along t are forbidden, so the t mode stays in its ground
state.  Boosting preserves the normalization (dz dt is invariant), while
the overlap of states whose frames differ by rapidity d collapses each of
the n + 1 probability humps by the Lorentz contraction factor:

    <n, eta1 | m, eta2> = cosh(eta1 - eta2)^-(n+1) delta_nm.

The overlap is integrated by `oscillator_basis._overlap` in plain Python,
so this module loads no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import oscillator_basis as basis
from .errors import DomainError, finite, integer, rapidity

_INDEX_BUDGET = 12  # quadrature degree budget for the overlap integrals


class InnerProduct(NamedTuple):
    """Quadrature value and closed form of a frame-to-frame overlap."""

    quadrature: float
    closed_form: float

    @property
    def deviation(self) -> float:
        return abs(self.quadrature - self.closed_form)


def inner_product(n: int, eta1, m: int, eta2, order: int = basis.DEFAULT_QUAD_ORDER) -> InnerProduct:
    """Overlap of chi_n(z1')chi_0(t1') with chi_m(z2')chi_0(t2') over (z, t).

    Integrated by `oscillator_basis._overlap` on the Gauss-Hermite grid in the
    light-cone coordinates (z +- t)/sqrt2, where both frames' Gaussians are
    diagonal; the work grows as order^2 (n = m = 12: about 13 ms at order 64,
    0.6 s at 370).  The closed form is cosh(eta1 - eta2)^-(n+1) delta_nm.
    """
    n, m = integer("n", n, high=_INDEX_BUDGET), integer("m", m, high=_INDEX_BUDGET)
    eta1, eta2 = rapidity(eta1), rapidity(eta2)
    value = basis._overlap((n, 0, eta1), (m, 0, eta2), order)
    closed = (1.0 / abs(math.cosh(eta1 - eta2))) ** (n + 1) if n == m else 0.0
    return InnerProduct(quadrature=value, closed_form=closed)


def contraction_factor(n: int, beta: float) -> float:
    """Net overlap decay (sqrt(1 - beta^2))^(n+1) between rest and moving frames."""
    n, beta = integer("n", n), finite("beta", beta)
    if not -1.0 < beta < 1.0:
        raise DomainError(f"|beta| must be below 1, got {beta}")
    return math.sqrt(1.0 - beta * beta) ** (n + 1)
