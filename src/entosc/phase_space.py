"""Numerical Wigner transform of two-mode wave functions and flow covariance.

The Wigner function used here is

    W(x, y; p, q) = (1/pi)^2 int exp(-2i(p x' + q y'))
                    conj(psi)(x + x', y + y') psi(x - x', y - y') dx' dy',

evaluated by trapezoidal summation on the sampling lattice of psi, with
the oscillatory factor evaluated exactly at the nodes.  For the Gaussian
states of this package the integrand decays below 1e-15 inside the
default half-width of 6, so the lattice sum is accurate to far better
than the contracted tolerances.

flow_covariance_check is the two-path test of the sp(4) flows: transform
the wave function, Wigner-transform it numerically, and compare against
the closed-form ground-state Wigner function evaluated at points moved
by the inverse flow matrix exp(eta A)^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from . import dirac_algebra, oscillator_basis as basis
from .entangled_series import as_rapidity, squeezed_wavefunction
from .errors import DomainError, NumericsError

DEFAULT_HALF_WIDTH = 6.0
DEFAULT_SPACING = 0.05
MIN_COVERAGE = 4.0  # required reach of the correlation integral past the base point

FLOW_LABELS = ("Q3", "K3", "Q3-L2")


@dataclass(frozen=True)
class PhasePoint:
    x: float
    y: float
    p: float
    q: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.p, self.q])


@dataclass(frozen=True)
class GridFunction2D:
    """Function sampled on a uniform rectangular grid.

    values[i, j] is the sample at (origin[0] + i*spacing[0],
    origin[1] + j*spacing[1]).
    """

    origin: tuple[float, float]
    spacing: tuple[float, float]
    values: np.ndarray
    labels: tuple[str, str] = ("x", "y")

    def __post_init__(self):
        if self.spacing[0] <= 0 or self.spacing[1] <= 0:
            raise DomainError("grid spacing must be positive")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid values must be finite")

    @classmethod
    def from_function(
        cls,
        f: Callable[[np.ndarray, np.ndarray], np.ndarray],
        half_width: float = DEFAULT_HALF_WIDTH,
        spacing: float = DEFAULT_SPACING,
        center: tuple[float, float] = (0.0, 0.0),
        labels: tuple[str, str] = ("x", "y"),
    ) -> "GridFunction2D":
        n = int(round(half_width / spacing))
        ax0 = center[0] + spacing * np.arange(-n, n + 1)
        ax1 = center[1] + spacing * np.arange(-n, n + 1)
        X, Y = np.meshgrid(ax0, ax1, indexing="ij")
        return cls(origin=(ax0[0], ax1[0]), spacing=(spacing, spacing), values=f(X, Y), labels=labels)

    def axis(self, which: int) -> np.ndarray:
        n = self.values.shape[which]
        return self.origin[which] + self.spacing[which] * np.arange(n)

    def index_of(self, x: float, y: float) -> tuple[int, int]:
        """Indices of an on-lattice point; raises if (x, y) is off the lattice."""
        out = []
        for which, coord in ((0, x), (1, y)):
            pos = (coord - self.origin[which]) / self.spacing[which]
            idx = int(round(pos))
            if abs(pos - idx) > 1e-9 or not 0 <= idx < self.values.shape[which]:
                raise DomainError(f"point {(x, y)} is not on the sampling lattice")
            out.append(idx)
        return out[0], out[1]

    def write_csv(self, stream: TextIO) -> None:
        """Triples <axis0>,<axis1>,value with 12 significant digits."""
        stream.write(f"{self.labels[0]},{self.labels[1]},value\n")
        ax0, ax1 = self.axis(0), self.axis(1)
        for i, a in enumerate(ax0):
            for j, b in enumerate(ax1):
                v = self.values[i, j]
                v = v.real if np.iscomplexobj(self.values) else v
                stream.write(f"{a:.12g},{b:.12g},{v:.12g}\n")


def wigner_ground_closed(at) -> float:
    """Ground-state Wigner function (1/pi^2) exp(-(x^2 + y^2 + p^2 + q^2))."""
    v = at.as_array() if isinstance(at, PhasePoint) else np.asarray(at, dtype=float)
    return float(np.exp(-np.sum(v * v)) / np.pi**2)


def _correlation(psi: GridFunction2D, at: PhasePoint) -> tuple[np.ndarray, int, int]:
    """F[j, k] = conj(psi)(x + jh, y + kh) psi(x - jh, y - kh) and the offsets."""
    if abs(psi.spacing[0] - psi.spacing[1]) > 1e-12:
        raise DomainError("Wigner transform requires equal spacing on both axes")
    ix, iy = psi.index_of(at.x, at.y)
    nx, ny = psi.values.shape
    mx = min(ix, nx - 1 - ix)
    my = min(iy, ny - 1 - iy)
    h = psi.spacing[0]
    if mx * h < MIN_COVERAGE or my * h < MIN_COVERAGE:
        raise DomainError(
            f"grid covers only {mx * h:.2f} x {my * h:.2f} around {(at.x, at.y)}; "
            f"need at least {MIN_COVERAGE} in each direction"
        )
    plus = psi.values[ix - mx : ix + mx + 1, iy - my : iy + my + 1]
    minus = plus[::-1, ::-1]
    return np.conj(plus) * minus, mx, my


def wigner_transform(psi: GridFunction2D, at: PhasePoint, imag_tol: float = 1e-9) -> float:
    """W at one phase-space point from the sampled wave function.

    The result of the lattice sum is real up to rounding for any psi
    (the correlation product is Hermitian under x' -> -x'); a residual
    imaginary part above imag_tol raises instead of being discarded.
    """
    F, mx, my = _correlation(psi, at)
    h = psi.spacing[0]
    ex = np.exp(-2.0j * at.p * h * np.arange(-mx, mx + 1))
    ey = np.exp(-2.0j * at.q * h * np.arange(-my, my + 1))
    w = (h * h / np.pi**2) * (ex @ F @ ey)
    if abs(w.imag) > imag_tol:
        raise NumericsError(f"Wigner value has imaginary residual {w.imag:.3e} above {imag_tol}")
    return float(w.real)


def wigner_section(psi: GridFunction2D, x: float, y: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """W(x, y; p_i, q_j) over momentum grids, reusing one correlation table."""
    F, mx, my = _correlation(psi, PhasePoint(x, y, 0.0, 0.0))
    h = psi.spacing[0]
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ep = np.exp(-2.0j * np.outer(p, h * np.arange(-mx, mx + 1)))
    eq = np.exp(-2.0j * np.outer(h * np.arange(-my, my + 1), q))
    w = (h * h / np.pi**2) * (ep @ F @ eq)
    return np.real(w)


def wigner_section_fn(
    psi_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: float,
    y: float,
    p: np.ndarray,
    q: np.ndarray,
    half_width: float = DEFAULT_HALF_WIDTH,
    spacing: float = DEFAULT_SPACING,
) -> np.ndarray:
    """Like wigner_section, but sampling psi_fn on a fresh lattice at (x, y).

    Frees the base point from any global sampling lattice, which matters
    when the outer integration grid is quadrature-chosen.
    """
    m = int(round(half_width / spacing))
    offs = spacing * np.arange(-m, m + 1)
    ox = offs[:, None]
    oy = offs[None, :]
    F = np.conj(psi_fn(x + ox, y + oy)) * psi_fn(x - ox, y - oy)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ep = np.exp(-2.0j * np.outer(p, offs))
    eq = np.exp(-2.0j * np.outer(offs, q))
    return np.real((spacing * spacing / np.pi**2) * (ep @ F @ eq))


# ---------------------------------------------------------------------------
# reference states
# ---------------------------------------------------------------------------


def ground_state_grid(half_width: float = DEFAULT_HALF_WIDTH, spacing: float = DEFAULT_SPACING) -> GridFunction2D:
    return GridFunction2D.from_function(
        lambda X, Y: np.exp(-0.5 * (X * X + Y * Y)) / math.sqrt(math.pi), half_width, spacing
    )


def squeezed_state_grid(
    eta, half_width: float = DEFAULT_HALF_WIDTH, spacing: float = DEFAULT_SPACING, n: int = 0
) -> GridFunction2D:
    eta = as_rapidity(eta)
    return GridFunction2D.from_function(
        lambda X, Y: squeezed_wavefunction(n, eta, X, Y), half_width, spacing
    )


def sheared_state_grid(
    alpha: float, half_width: float = DEFAULT_HALF_WIDTH, spacing: float = DEFAULT_SPACING
) -> GridFunction2D:
    """Ground state pushed through the shear x -> x + 2 alpha y."""
    return GridFunction2D.from_function(
        lambda X, Y: np.exp(-0.5 * ((X - 2.0 * alpha * Y) ** 2 + Y * Y)) / math.sqrt(math.pi),
        half_width,
        spacing,
    )


def cross_squeezed_state_grid(
    eta, half_width: float = DEFAULT_HALF_WIDTH, spacing: float = DEFAULT_SPACING
) -> GridFunction2D:
    """State whose Wigner flow squeezes the (x, q) and (y, p) planes.

    This is the two-mode squeeze generated with a 90-degree phase: its
    Schmidt coefficients carry (-i)^k, so the wave function is complex
    even though every closed-form state elsewhere in the package is real.
    No real wave function produces the position-momentum cross terms this
    flow creates.
    """
    s = 0.5 * as_rapidity(eta)
    t = math.tanh(s)
    kmax = 8
    while abs(t) > 0 and abs(t) ** kmax > 1e-16:
        kmax += 8
    # the +i phase orients the (x, q)/(y, p) cross terms the same way as
    # exp(eta A_K3); with -i the covariance comparison fails at O(eta)
    coeffs = (1.0j * t) ** np.arange(kmax + 1) / math.cosh(s)

    def f(X, Y):
        cx = basis.chi_batch(kmax, X[:, 0])
        cy = basis.chi_batch(kmax, Y[0, :])
        return np.einsum("k,ki,kj->ij", coeffs, cx, cy)

    return GridFunction2D.from_function(f, half_width, spacing)


# ---------------------------------------------------------------------------
# flow covariance
# ---------------------------------------------------------------------------

DEFAULT_SAMPLE_POINTS: tuple[PhasePoint, ...] = tuple(
    PhasePoint(x, y, p, q)
    for x, y, p, q in [
        (0.0, 0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
        (0.5, 0.5, 0.0, 0.0),
        (0.5, -0.5, 0.5, 0.0),
        (-1.0, 0.5, 0.0, -0.5),
        (0.75, 0.25, -0.5, 0.5),
        (-0.5, -0.75, 0.25, 0.25),
        (1.5, 0.0, 0.5, -0.25),
        (0.0, -1.5, -0.25, 0.5),
        (2.0, 1.0, 0.0, 0.0),
        (-1.25, 0.75, 0.75, -0.75),
        (0.25, 0.25, 1.5, 1.5),
        (-2.0, -1.0, -1.0, 0.5),
    ]
)


def flow_matrix(label: str) -> np.ndarray:
    """The sp(4) flow matrix for Q3, K3, or the shear combination Q3-L2."""
    gens = dirac_algebra.sp4_generators()
    if label == "Q3-L2":
        return gens["Q3"] - gens["L2"]
    if label in ("Q3", "K3"):
        return gens[label]
    raise DomainError(f"unsupported flow label {label!r}; expected one of {FLOW_LABELS}")


def flow_exponential(label: str, t: float) -> np.ndarray:
    """exp(t A) for A = flow_matrix(label): A^2 is I/4 for Q3 and K3, and 0 for Q3-L2."""
    A = flow_matrix(label)
    if label == "Q3-L2":
        return np.eye(4) + t * A
    return math.cosh(t / 2.0) * np.eye(4) + 2.0 * math.sinh(t / 2.0) * A


def transformed_state_grid(label: str, eta: float, half_width: float, spacing: float) -> GridFunction2D:
    """The wave function whose Wigner function is W0(exp(eta A_label)^-1 v).

    exp(eta A) acts on positions through its (x, y) block; for Q3 that
    block is the symmetric squeeze of rapidity eta/2 and for Q3-L2 the
    shear with alpha = eta/2, so the matching wave functions transform
    their arguments by the inverse block.  K3 has no invariant position
    block and needs the complex cross-squeezed state instead.
    """
    if label == "Q3":
        return squeezed_state_grid(eta / 2.0, half_width, spacing)
    if label == "Q3-L2":
        return sheared_state_grid(eta / 2.0, half_width, spacing)
    if label == "K3":
        return cross_squeezed_state_grid(eta, half_width, spacing)
    raise DomainError(f"unsupported flow label {label!r}; expected one of {FLOW_LABELS}")


def flow_covariance_check(
    label: str,
    eta: float,
    sample_points: Sequence[PhasePoint] = DEFAULT_SAMPLE_POINTS,
    half_width: float = 8.0,
    spacing: float = DEFAULT_SPACING,
) -> float:
    """max |W_transformed(v) - W_ground(exp(eta A)^-1 v)| over the samples.

    Path one transforms the wave function first and Wigner-transforms it
    numerically; path two moves the closed-form ground-state Wigner
    function along the flow.  Agreement is the covariance statement.
    """
    minv = flow_exponential(label, -float(eta))
    psi = transformed_state_grid(label, float(eta), half_width, spacing)
    worst = 0.0
    for pt in sample_points:
        w_num = wigner_transform(psi, pt)
        w_ref = wigner_ground_closed(minv @ pt.as_array())
        worst = max(worst, abs(w_num - w_ref))
    return worst
