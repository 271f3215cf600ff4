"""Numerical Wigner transform of two-mode wave functions and flow covariance.

The Wigner function used here is

    W(x, y; p, q) = (1/pi)^2 int exp(-2i(p x' + q y'))
                    conj(psi)(x + x', y + y') psi(x - x', y - y') dx' dy',

evaluated by trapezoidal summation on the sampling lattice of psi, with
the oscillatory factor evaluated exactly at the nodes.  The sum at a
lattice point runs over the largest window symmetric about it, and a point
counts as covered only when that window reaches MIN_COVERAGE along both
axes.  For the ground state and squeezed states with |eta| <= 0.3 the
integrand decays below 1e-15 inside the default half-width of 6, so the
lattice sum is accurate to its rounding floor (below); past that the lattice
cuts off the long axis and the error grows, to about 6e-7 at |eta| = 1 and
1e-2 at 2 (README, `wigner-grid --help`).

One direct sum and two plane kernels evaluate it:

* wigner_section (one (x, y) over momentum grids) sums the window
  directly; wigner_transform is that sum at a single momentum pair and
  serves scattered points such as the flow-covariance samples.
* wigner_xy (every covered (x, y) at p = q = 0, real psi) is one FFT
  convolution of psi with itself, sampled at even indices; wigner_xp
  (every covered x at fixed y and q = 0, over a momentum grid) contracts
  the y sum once for all x and then gathers anti-diagonals.  Their
  rounding floor is absolute, about 1e-16 of the peak value: far Gaussian
  tails that the direct sum resolves down to ~1e-39 come out as rounding
  noise, tiny negatives of a few 1e-18 included.

All of them raise NumericsError, instead of numpy's floating-point warnings,
when the imaginary residual of the sum passes IMAG_TOL or the sum
overflows, and DomainError on non-finite momenta before summing.
`wigner_plane`, the `wigner-grid` kernel, sizes the lattice for an output
plane, samples the squeezed state on it and cuts the plane to the output axis.

`squeezed_state_grid` samples `oscillator_basis.squeezed_wavefunction`, and
at eta = 0 it is `ground_state_grid`.  The flow states are closed forms: a
linear canonical map S of (x, y, p, q) sends the ground state to a Gaussian
whose exponent is a Moebius image of the old one (Littlejohn, Phys. Rep. 138
(1986) 193): with P S P = [[A, B], [C, D]] in 2x2 blocks and P = diag(1, 1, -1, -1),

    psi(v) = det(A + iB)^(-1/2) pi^(-1/2) exp(i v^T Gamma v / 2),  Gamma = (C + iD)(A + iB)^-1,

has the Wigner function W0(S^-1 (x, y, p, q)).  P is there because the
kernel above pairs conj psi(x + x') psi(x - x') with exp(-2i p x'), the
usual convention with p reversed.  psi is real exactly when B = C = 0,
and the principal branch of the root will do: a constant phase drops out
of W.  For K3 this is Mehler's sum of the Schmidt series
sum_k (i tanh(eta/2))^k chi_k(x) chi_k(y) / cosh(eta/2), the cross-squeezed

    psi(x, y) = exp(-(x^2 + y^2) / (2 cosh eta) + i tanh(eta) x y) / sqrt(pi cosh eta).

flow_covariance_check is the two-path test of the sp(4) flows: transform
the wave function, Wigner-transform it numerically, and compare against
the closed-form ground-state Wigner function evaluated at points moved
by the inverse flow matrix exp(eta A)^-1.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .errors import DomainError, NumericsError, budget, positive, rapidity
from .oscillator_basis import squeezed_wavefunction

DEFAULT_HALF_WIDTH = 6.0
DEFAULT_SPACING = 0.05
MIN_COVERAGE = 4.0  # required reach of the correlation integral past the base point
IMAG_TOL = 1e-9  # largest imaginary residual a Wigner value may carry before it raises

FLOW_LABELS = ("Q3", "K3", "Q3-L2")  # the flows the paper discusses; flow_matrix takes all of sp(4)


class PhasePoint(NamedTuple):
    x: float
    y: float
    p: float
    q: float


class GridFunction2D:
    """Function sampled on a uniform rectangular grid.

    values[i, j] is the sample at (origin[0] + i*spacing[0],
    origin[1] + j*spacing[1]).
    """

    __slots__ = ("origin", "spacing", "values", "labels")

    def __init__(
        self,
        origin: tuple[float, float],
        spacing: tuple[float, float],
        values: np.ndarray,
        labels: tuple[str, str] = ("x", "y"),
    ):
        for h in spacing:
            positive("grid spacing", h)
        if not np.all(np.isfinite(values)):
            raise DomainError("grid values must be finite")
        self.origin, self.spacing, self.values, self.labels = origin, spacing, values, labels

    @classmethod
    def from_function(
        cls,
        f: Callable[[np.ndarray, np.ndarray], np.ndarray],
        half_width: float = DEFAULT_HALF_WIDTH,
        spacing: float = DEFAULT_SPACING,
    ) -> "GridFunction2D":
        steps = positive("half_width", half_width) / positive("spacing", spacing)
        # 8 planes of the grid; the package's states peak below 6 on the open mesh (tracemalloc)
        budget(8.0 * 8 * (2 * steps + 1) * (2 * steps + 1), f"a grid of {2 * steps + 1:.6g}^2 points")
        n = round(steps)
        ax = spacing * np.arange(-n, n + 1)
        # f sees an open mesh, (N, 1) and (1, N); a result that spans one axis only is broadcast to the lattice
        values = f(ax[:, None], ax[None, :])
        if np.shape(values) != (ax.size, ax.size):
            values = np.broadcast_to(values, (ax.size, ax.size)).copy()
        return cls(origin=(ax[0], ax[0]), spacing=(spacing, spacing), values=values)

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

    def write_csv(self, stream: TextIO) -> None:
        """Triples <axis0>,<axis1>,value with 12 significant digits."""
        stream.write(f"{self.labels[0]},{self.labels[1]},value\n")
        tails = [f",{b:.12g}," for b in self.axis(1).tolist()]
        for a, row in zip(self.axis(0).tolist(), np.real(self.values)):
            head = f"{a:.12g}"
            stream.write("".join(f"{head}{b}{v:.12g}\n" for b, v in zip(tails, row.tolist())))


def wigner_ground_closed(at) -> float:
    """Ground-state Wigner function (1/pi^2) exp(-(x^2 + y^2 + p^2 + q^2))."""
    v = np.asarray(at, dtype=float)
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


def _real_part(w: np.ndarray) -> np.ndarray:
    """w.real once every value is finite and the imaginary residual is at most IMAG_TOL."""
    if not np.isfinite(w).all():
        raise NumericsError("Wigner value is not finite: the window sum overflowed")
    resid = float(np.abs(w.imag).max(initial=0.0))
    if resid > IMAG_TOL:
        raise NumericsError(f"Wigner value has imaginary residual {resid:.3e} above {IMAG_TOL}")
    return w.real


def _window(psi: GridFunction2D, which: int, coord: float) -> tuple[int, int]:
    """Index of an on-lattice coordinate and the half-width, in steps, of its symmetric window."""
    i = int(psi.indices(which, coord)[0])
    n, h = psi.values.shape[which], psi.spacing[which]
    m = min(i, n - 1 - i)
    if not m * h >= MIN_COVERAGE:  # `_covered`'s test at this one index
        raise DomainError(
            f"grid covers only {m * h:.2f} around {psi.labels[which]} = {coord}; need at least {MIN_COVERAGE}"
        )
    return i, m


def _momenta(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise DomainError(f"momenta must be finite, got {float(p[~np.isfinite(p)].flat[0])!r}")
    return p


@np.errstate(over="ignore", invalid="ignore")  # _real_part checks the sum
def wigner_section(psi: GridFunction2D, x: float, y: float, p, q) -> np.ndarray:
    """W(x, y; p_i, q_j) over the momentum grids p and q, summing the window directly.

    The sum is real up to rounding for any psi, as the correlation product
    is Hermitian under x' -> -x'.
    """
    h = _lattice_step(psi)
    p, q = _momenta(p), _momenta(q)
    ix, mx = _window(psi, 0, x)
    iy, my = _window(psi, 1, y)
    wx, wy = 2 * mx + 1, 2 * my + 1
    # the peak (tracemalloc) stays below 4 doubles an entry of F, ep, ep @ F or eq, and 3 a value
    budget(8.0 * (4 * (wx * wy + p.size * (wx + wy) + wy * q.size) + 3 * p.size * q.size), f"a {p.size} x {q.size} section")
    plus = psi.values[ix - mx : ix + mx + 1, iy - my : iy + my + 1]
    F = np.conj(plus) * plus[::-1, ::-1]  # conj(psi)(x + jh, y + kh) psi(x - jh, y - kh)
    ep = np.exp(-2.0j * np.outer(p, h * np.arange(-mx, mx + 1)))
    eq = np.exp(-2.0j * np.outer(h * np.arange(-my, my + 1), q))
    return _real_part((h * h / np.pi**2) * (ep @ F @ eq))


def wigner_transform(psi: GridFunction2D, at: PhasePoint) -> float:
    """W at one phase-space point from the sampled wave function: wigner_section at one momentum pair."""
    return float(wigner_section(psi, at.x, at.y, [at.p], [at.q])[0, 0])


@np.errstate(over="ignore", invalid="ignore")  # _real_part checks the sum
def wigner_xy(psi: GridFunction2D) -> GridFunction2D:
    """W(x, y; 0, 0) of a real psi at every covered lattice point (x, y), from one FFT convolution.

    With V = psi.values, the window sum of wigner_section at lattice
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
        values=_real_part((h * h / np.pi**2) * C),
        labels=psi.labels,
    )


@np.errstate(over="ignore", invalid="ignore")  # _real_part checks the sum
def wigner_xp(psi: GridFunction2D, y: float, p) -> GridFunction2D:
    """W(x, y; p_m, 0) at every covered lattice x, over the evenly spaced momentum grid p.

    The y sum is contracted once for all x,

        G[a, c] = sum_{|k| <= my} conj V[a, iy + k] V[c, iy - k],

    and then W[i, m] = h^2/pi^2 sum_{|j| <= mx(i)} exp(-2i p_m h j) G[i + j, i - j]
    is an anti-diagonal gather and one matrix product.  The momentum axis
    takes the spacing of p (the lattice step for a single momentum).
    """
    h = _lattice_step(psi)
    p = _momenta(p)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("p must be a non-empty 1-d momentum grid")
    dp = (p[-1] - p[0]) / (p.size - 1) if p.size > 1 else h
    if not dp > 0 or np.abs(np.diff(p) - dp).max(initial=0.0) > 1e-9 * dp:
        raise DomainError("p must be increasing and evenly spaced")
    V = psi.values
    nx = V.shape[0]
    rows = _covered(nx, h, psi.labels[0])
    iy, my = _window(psi, 1, y)
    nr, nj = rows.stop - rows.start, 2 * ((nx - 1) // 2) + 1
    # the peak (tracemalloc) stays below 2 doubles an entry of G and of the band, 4 of the gather and of ep, and 3 a value
    budget(8.0 * (2 * nx * (nx + 2 * my + 1) + 4 * (nr + p.size) * nj + 3 * nr * p.size), f"a {nr} x {p.size} plane")
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
    w = _real_part((h * h / np.pi**2) * (D @ ep))
    x = psi.axis(0)
    return GridFunction2D(
        origin=(float(x[rows.start]), float(p[0])), spacing=(h, float(dp)), values=w, labels=(psi.labels[0], "p")
    )


# ---------------------------------------------------------------------------
# reference states
# ---------------------------------------------------------------------------


def _gaussian_state(S: np.ndarray, half_width: float, spacing: float) -> GridFunction2D:
    """The ground state carried by the linear canonical map S: the module docstring's formula."""
    A, B, C, D = S[:2, :2], -S[:2, 2:], -S[2:, :2], S[2:, 2:]  # the blocks of P S P
    Z = A + 1j * B
    G = (C + 1j * D) @ np.linalg.inv(Z)
    g0, g1, g2 = G[0, 0], G[0, 1] + G[1, 0], G[1, 1]
    norm = np.sqrt(np.pi * np.linalg.det(Z))

    def psi(X, Y):
        v = np.exp(0.5j * (g0 * X * X + g1 * X * Y + g2 * Y * Y)) / norm
        return v if B.any() or C.any() else v.real

    return GridFunction2D.from_function(psi, half_width, spacing)


def ground_state_grid(half_width: float = DEFAULT_HALF_WIDTH, spacing: float = DEFAULT_SPACING) -> GridFunction2D:
    return squeezed_state_grid(0.0, half_width, spacing)


def squeezed_state_grid(
    eta, half_width: float = DEFAULT_HALF_WIDTH, spacing: float = DEFAULT_SPACING
) -> GridFunction2D:
    eta = rapidity(eta)
    return GridFunction2D.from_function(lambda X, Y: squeezed_wavefunction(0, eta, X, Y), half_width, spacing)


# Points per axis of the lattice wigner_plane samples; at the cap the lattice
# is 34 MB and the xy plane's FFT work arrays take a few times that.
WIGNER_GRID_MAX_SIDE = 2049


def wigner_plane(eta, plane: str, half_width: float, step: float) -> GridFunction2D:
    """W of the squeezed state on the plane "xy" (p = q = 0) or "xp" (y = q = 0), each axis step * (-m..m).

    m = round(half_width / step), and step is a whole multiple of DEFAULT_SPACING.  The state is sampled at that
    spacing out to half_width + DEFAULT_HALF_WIDTH, within WIGNER_GRID_MAX_SIDE points per axis (DomainError first).
    """
    if plane not in ("xy", "xp"):
        raise DomainError(f"plane must be 'xy' or 'xp', got {plane!r}")
    step, half_width = positive("step", step), positive("half_width", half_width)
    ratio = step / DEFAULT_SPACING
    if not (math.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9):
        raise DomainError(f"step must be a positive multiple of the sampling spacing {DEFAULT_SPACING}")
    side = 2 * (half_width + DEFAULT_HALF_WIDTH) / DEFAULT_SPACING + 1
    if side > WIGNER_GRID_MAX_SIDE:
        raise DomainError(f"half_width {half_width} samples {side:.0f} points per axis; the cap is {WIGNER_GRID_MAX_SIDE}")
    psi = squeezed_state_grid(eta, half_width=half_width + DEFAULT_HALF_WIDTH)
    n = int(round(half_width / step))
    axis = step * np.arange(-n, n + 1)
    if plane == "xy":
        full = wigner_xy(psi)
        values = full.values[np.ix_(full.indices(0, axis), full.indices(1, axis))]
    else:
        full = wigner_xp(psi, 0.0, axis)
        values = full.values[full.indices(0, axis)]
    origin = (float(axis[0]), float(axis[0]))
    return GridFunction2D(origin=origin, spacing=(step, step), values=values, labels=full.labels)


# ---------------------------------------------------------------------------
# flow covariance
# ---------------------------------------------------------------------------

FLOW_HALF_WIDTH = 8.0  # lattice half-width of flow_covariance_check's transformed states
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
    """The sp(4) flow matrix of a generator in dirac_algebra.LABELS, or of the shear Q3-L2."""
    from . import dirac_algebra
    gens = dirac_algebra.sp4_generators()
    gens["Q3-L2"] = gens["Q3"] - gens["L2"]
    if label not in gens:
        raise DomainError(f"unknown flow label {label!r}; expected one of {dirac_algebra.LABELS} or 'Q3-L2'")
    return gens[label]


def flow_exponential(label: str, t: float) -> np.ndarray:
    """exp(t A) for A = flow_matrix(label): A^2 is I/4 (boosts), -I/4 (L1-L3, S3) or 0 (Q3-L2); t is a rapidity."""
    t, A = rapidity(t), flow_matrix(label)
    square = (A @ A)[0, 0]  # exact, as the entries are 0 and +/- 1/2
    if square == 0:
        return np.eye(4) + t * A
    c, s = (math.cosh, math.sinh) if square > 0 else (math.cos, math.sin)
    return c(t / 2.0) * np.eye(4) + 2.0 * s(t / 2.0) * A


def transformed_state_grid(label: str, eta: float, half_width: float, spacing: float) -> GridFunction2D:
    """The wave function whose Wigner function is W0(exp(eta A_label)^-1 v)."""
    return _gaussian_state(flow_exponential(label, eta), half_width, spacing)


def flow_covariance_check(label: str, eta: float) -> float:
    """max |W_transformed(v) - W_ground(exp(eta A)^-1 v)| over DEFAULT_SAMPLE_POINTS.

    Path one transforms the wave function first and Wigner-transforms it
    numerically; path two moves the closed-form ground-state Wigner
    function along the flow.  Agreement is the covariance statement.
    The state is sampled at DEFAULT_SPACING out to FLOW_HALF_WIDTH and
    must die out before the lattice cuts it: DomainError, before anything
    is sampled, unless the lattice reaches 6 sigma of the state's widest
    position spread past every sample position, and its momentum period
    pi / spacing reaches 7 sigma of the widest momentum spread past every
    sample momentum (a narrower state aliases).
    """
    eta = rapidity(eta)
    S = flow_exponential(label, eta)
    cov = S @ S.T / 2.0  # the Wigner covariance of the moved ground state
    far = np.abs(DEFAULT_SAMPLE_POINTS).max(axis=0)
    for what, block, reach, sigmas in (
        ("position", slice(0, 2), FLOW_HALF_WIDTH - far[:2].max(), 6.0),
        ("momentum", slice(2, 4), math.pi / DEFAULT_SPACING - far[2:].max(), 7.0),
    ):
        sigma = math.sqrt(float(np.linalg.eigvalsh(cov[block, block])[-1]))
        if not reach >= sigmas * sigma:
            raise DomainError(
                f"flow {label} at eta = {eta}: the lattice reaches {reach:.6g} in {what} past the samples, "
                f"short of {sigmas:g} sigma = {sigmas * sigma:.6g} of the transformed state"
            )
    minv = flow_exponential(label, -eta)
    psi = transformed_state_grid(label, eta, FLOW_HALF_WIDTH, DEFAULT_SPACING)
    deviations = (
        abs(wigner_transform(psi, pt) - wigner_ground_closed(minv @ np.asarray(pt))) for pt in DEFAULT_SAMPLE_POINTS
    )
    return max(deviations)
