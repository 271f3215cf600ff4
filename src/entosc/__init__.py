"""Numerics for entangled two-mode oscillators.

Squeezed Gaussian states and their Schmidt series, Dirac's ten-generator
sp(4)/o(3,2) algebra in Fock, matrix, and phase-space form, reduced-state
entropy and entanglement temperature, Lorentz-covariant oscillator inner
products, and a numerical Wigner transform with flow-covariance checks.
"""

from .errors import CutoffError, DomainError, NumericsError

__version__ = "0.1.0"

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


def __getattr__(name):
    # Submodules load on first access (PEP 562): `import entosc` loads no numpy,
    # and `python -m entosc.cli` runs a module the package import has not executed.
    if name in __all__:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
