"""Numerical Wigner transform of two-mode wave functions and flow covariance.

The Wigner function used here is

    W(x, y; p, q) = (1/pi)^2 int exp(-2i(p x' + q y'))
                    conj(psi)(x + x', y + y') psi(x - x', y - y') dx' dy',

evaluated by trapezoidal summation on the sampling lattice of psi, with
the oscillatory factor evaluated exactly at the nodes.  The sum at a
lattice point runs over the largest window symmetric about it, and a point
counts as covered only when that window reaches MIN_COVERAGE along both
axes.  For the Gaussian states of this package the integrand decays below
1e-15 inside the default half-width of 6, so the lattice sum is accurate to
far better than the contracted tolerances.

Two point functions and two plane kernels evaluate the same sum:

* wigner_transform (one phase-space point) and wigner_section (one (x, y)
  over a momentum grid) sum the window directly; they serve scattered
  points such as the flow-covariance samples.
* wigner_xy (every covered (x, y) at p = q = 0, real psi) is one FFT
  convolution of psi with itself, sampled at even indices; wigner_xp
  (every covered x at fixed y and q = 0, over a momentum grid) contracts
  the y sum once for all x and then gathers anti-diagonals.  Their
  rounding floor is absolute, about 1e-16 of the peak value: far Gaussian
  tails that the direct sums resolve down to ~1e-39 come out as rounding
  noise, tiny negatives of a few 1e-18 included.

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
from .entangled_series import squeezed_wavefunction
from .errors import DomainError, NumericsError, budget, positive, rapidity

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
        for h in self.spacing:
            positive("grid spacing", h)
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
        steps = positive("half_width", half_width) / positive("spacing", spacing)
        # the package's states peak at 8 planes of the grid (tracemalloc), the mesh included
        budget(8.0 * 8 * (2 * steps + 1) * (2 * steps + 1), f"a grid of {2 * steps + 1:.6g}^2 points")
        n = round(steps)
        ax0 = center[0] + spacing * np.arange(-n, n + 1)
        ax1 = center[1] + spacing * np.arange(-n, n + 1)
        X, Y = np.meshgrid(ax0, ax1, indexing="ij")
        return cls(origin=(ax0[0], ax1[0]), spacing=(spacing, spacing), values=f(X, Y), labels=labels)

    def axis(self, which: int) -> np.ndarray:
        n = self.values.shape[which]
        return self.origin[which] + self.spacing[which] * np.arange(n)

    def indices(self, which: int, coords) -> np.ndarray:
        """Indices along one axis of on-lattice coordinates; raises if any is off the lattice."""
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        pos = (coords - self.origin[which]) / self.spacing[which]
        idx = np.rint(pos)
        off = ~(np.abs(pos - idx) <= 1e-9) | (idx < 0) | (idx >= self.values.shape[which])
        if off.any():
            ends = self.axis(which)[[0, -1]]
            raise DomainError(
                f"{self.labels[which]} = {coords[off][0]:.12g} is not a lattice point of "
                f"[{ends[0]:.12g}, {ends[1]:.12g}] at spacing {self.spacing[which]:.12g}"
            )
        return idx.astype(int)

    def index_of(self, x: float, y: float) -> tuple[int, int]:
        """Indices of an on-lattice point; raises if (x, y) is off the lattice."""
        return int(self.indices(0, x)[0]), int(self.indices(1, y)[0])

    def write_csv(self, stream: TextIO) -> None:
        """Triples <axis0>,<axis1>,value with 12 significant digits."""
        stream.write(f"{self.labels[0]},{self.labels[1]},value\n")
        tails = [f",{b:.12g}," for b in self.axis(1).tolist()]
        for a, row in zip(self.axis(0).tolist(), np.real(self.values)):
            head = f"{a:.12g}"
            stream.write("".join(f"{head}{b}{v:.12g}\n" for b, v in zip(tails, row.tolist())))


def wigner_ground_closed(at) -> float:
    """Ground-state Wigner function (1/pi^2) exp(-(x^2 + y^2 + p^2 + q^2))."""
    v = at.as_array() if isinstance(at, PhasePoint) else np.asarray(at, dtype=float)
    return float(np.exp(-np.sum(v * v)) / np.pi**2)


def _lattice_step(psi: GridFunction2D) -> float:
    if abs(psi.spacing[0] - psi.spacing[1]) > 1e-12:
        raise DomainError("Wigner transform requires equal spacing on both axes")
    return psi.spacing[0]


def _covered(n: int, h: float, label: str) -> slice:
    """Indices of an n-point axis whose symmetric window reaches MIN_COVERAGE."""
    i = np.arange(n)
    ok = np.flatnonzero(np.minimum(i, n - 1 - i) * h >= MIN_COVERAGE)
    if ok.size == 0:
        raise DomainError(
            f"grid covers at most {(n - 1) // 2 * h:.2f} along {label}; need at least {MIN_COVERAGE}"
        )
    return slice(int(ok[0]), int(ok[-1]) + 1)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: FFTs of other lengths, primes above all, are several times slower."""
    while True:
        k = n
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        if k == 1:
            return n
        n += 1


def _real_part(w: np.ndarray, imag_tol: float) -> np.ndarray:
    resid = float(np.abs(w.imag).max(initial=0.0))
    if resid > imag_tol:
        raise NumericsError(f"Wigner value has imaginary residual {resid:.3e} above {imag_tol}")
    return w.real


def _correlation(psi: GridFunction2D, at: PhasePoint) -> tuple[np.ndarray, int, int]:
    """F[j, k] = conj(psi)(x + jh, y + kh) psi(x - jh, y - kh) and the offsets."""
    h = _lattice_step(psi)
    ix, iy = psi.index_of(at.x, at.y)
    nx, ny = psi.values.shape
    mx = min(ix, nx - 1 - ix)
    my = min(iy, ny - 1 - iy)
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
    return float(_real_part(np.asarray(w), imag_tol))


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


def wigner_xy(psi: GridFunction2D) -> GridFunction2D:
    """W(x, y; 0, 0) of a real psi at every covered lattice point (x, y), from one FFT convolution.

    With V = psi.values, the window sum of wigner_transform at lattice
    point (i, j) and zero momenta is the full convolution (V * V)[2i, 2j]:
    the convolution's terms at an even index are exactly that symmetric
    window.  Even indices take only even-with-even and odd-with-odd
    sub-lattice products, so the plane is four real convolutions of
    quarter-size arrays (polyphase), not one of twice the size:

        C[2i, 2j] = sum_{s, t in {0, 1}} (V[s::2, t::2] * V[s::2, t::2])[i - s, j - t].

    Values carry an absolute rounding floor of about 1e-16 of the peak.
    """
    from numpy import fft  # `import numpy` does not load numpy.fft; keep `import entosc` lean

    h = _lattice_step(psi)
    V = psi.values
    if np.iscomplexobj(V):
        raise DomainError("wigner_xy takes a real wave function; use wigner_transform for complex psi")
    rows, cols = _covered(V.shape[0], h, psi.labels[0]), _covered(V.shape[1], h, psi.labels[1])
    # a full linear convolution of two sub-lattices has at most V.shape points per axis
    shape = (_fft_length(V.shape[0]), _fft_length(V.shape[1]))
    C = 0.0
    for s in (0, 1):
        for t in (0, 1):
            f = fft.rfft2(V[s::2, t::2], shape)
            f *= f
            conv = fft.irfft2(f, shape)
            C = C + conv[rows.start - s : rows.stop - s, cols.start - t : cols.stop - t]
    x, y = psi.axis(0), psi.axis(1)
    return GridFunction2D(
        origin=(float(x[rows.start]), float(y[cols.start])),
        spacing=psi.spacing,
        values=(h * h / np.pi**2) * C,
        labels=psi.labels,
    )


def wigner_xp(psi: GridFunction2D, y: float, p) -> GridFunction2D:
    """W(x, y; p_m, 0) at every covered lattice x, over the evenly spaced momentum grid p.

    The y sum is contracted once for all x,

        G[a, c] = sum_{|k| <= my} conj V[a, iy + k] V[c, iy - k],

    and then W[i, m] = h^2/pi^2 sum_{|j| <= mx(i)} exp(-2i p_m h j) G[i + j, i - j]
    is an anti-diagonal gather and one matrix product.  The momentum axis
    takes the spacing of p (the lattice step for a single momentum).  As in
    wigner_transform, an imaginary residual above 1e-9 raises.
    """
    h = _lattice_step(psi)
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("p must be a non-empty 1-d momentum grid")
    dp = (p[-1] - p[0]) / (p.size - 1) if p.size > 1 else h
    if not dp > 0 or np.abs(np.diff(p) - dp).max(initial=0.0) > 1e-9 * dp:
        raise DomainError("p must be increasing and evenly spaced")
    V = psi.values
    nx, ny = V.shape
    rows = _covered(nx, h, psi.labels[0])
    iy = int(psi.indices(1, y)[0])
    my = min(iy, ny - 1 - iy)
    if my * h < MIN_COVERAGE:
        raise DomainError(f"grid covers only {my * h:.2f} around {psi.labels[1]} = {y}; need at least {MIN_COVERAGE}")
    band = V[:, iy - my : iy + my + 1]
    G = band.conj() @ band[:, ::-1].T  # conj() returns the array itself when psi is real
    # row i sums j over |j| <= min(i, nx - 1 - i), where both i + j and i - j are on the lattice;
    # G[i + j, i - j] is entry i (nx + 1) + j (nx - 1) of the flattened G
    i = np.arange(rows.start, rows.stop)[:, None]
    j = np.arange(-((nx - 1) // 2), (nx - 1) // 2 + 1)
    inside = np.abs(j) <= np.minimum(i, nx - 1 - i)
    D = G.ravel()[np.where(inside, i * (nx + 1) + j * (nx - 1), 0)]
    D[~inside] = 0.0
    ep = np.exp(-2.0j * np.outer(h * j, p))
    w = _real_part((h * h / np.pi**2) * (D @ ep), 1e-9)
    x = psi.axis(0)
    return GridFunction2D(
        origin=(float(x[rows.start]), float(p[0])), spacing=(h, float(dp)), values=w, labels=(psi.labels[0], "p")
    )


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
    eta = rapidity(eta)
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
    s = 0.5 * rapidity(eta)
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
