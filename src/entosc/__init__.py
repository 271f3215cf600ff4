"""Numerics for entangled two-mode oscillators.

Squeezed Gaussian states and their Schmidt series, Dirac's ten-generator
sp(4)/o(3,2) algebra in Fock, matrix, and phase-space form, reduced-state
entropy and entanglement temperature, Lorentz-covariant oscillator inner
products, and a numerical Wigner transform with flow-covariance checks.
"""

from . import (
    covariant_inner,
    dirac_algebra,
    entangled_series,
    oscillator_basis,
    phase_space,
    planar_transforms,
    reduced_state,
)
from .errors import CutoffError, DomainError, NumericsError

__version__ = "0.1.0"


def __getattr__(name):
    # `cli` loads on first access, so `python -m entosc.cli` runs a module
    # that the package import has not already executed.
    if name == "cli":
        import importlib

        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CutoffError",
    "DomainError",
    "NumericsError",
    "cli",
    "covariant_inner",
    "dirac_algebra",
    "entangled_series",
    "oscillator_basis",
    "phase_space",
    "planar_transforms",
    "reduced_state",
]
