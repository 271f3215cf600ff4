"""Dirac's ten two-oscillator generators in three representations.

The labels L1, L2, L3, S3, K1, K2, K3, Q1, Q2, Q3 close under commutation
on the o(3,2) = sp(4,R) Lie algebra:

    [Li, Lj] = i eps_ijk Lk      [Li, Kj] = i eps_ijk Kk
    [Li, Qj] = i eps_ijk Qk      [Ki, Kj] = [Qi, Qj] = -i eps_ijk Lk
    [Li, S3] = 0                 [Ki, Qj] = -i delta_ij S3
    [Ki, S3] = -i Qi             [Qi, S3] = +i Ki

One 45-entry structure-constant table is checked against three
realizations:

``fock``
    Hermitian bilinears in two-mode ladder operators on the truncated
    number basis |n, m>, n, m <= cutoff, ordered row-major with the
    a-mode index outer.
``matrix5``
    5x5 matrices acting on (x, y, z, t, s) with metric (+, +, +, -, -):
    L's rotate the space block, K's boost against t, Q's boost against s,
    S3 rotates the (t, s) plane.
``sp4``
    4x4 flow matrices on phase space (x, y, p, q).  A generator G is the
    vector field -i (A v).grad, under which an operator bracket
    [G, G'] = i c G'' becomes the matrix bracket [A, A'] = c A''.

matrix5 and sp4 are stored as integer tables and checked exactly with
plain-Python integer products, so they load no numpy; only the fock check
uses floating point.  The Fock generators are defined once, by band
(G[j - k, j] = v[j] at flat basis column j), and the check forms each
bracket band by band on the safe-sector columns alone; the dense matrices of
fock_generators are materialised from the same bands.  Up to LIST_STATES_MAX
basis states the band vectors are plain lists of floats, so the check loads
no numpy; above it they are numpy arrays.  numpy loads on first use, in the
array-backed check, fock_generators, safe_sector_mask and sp4_generators.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from . import errors
from .errors import CutoffError, DomainError, integer

LABELS = ("L1", "L2", "L3", "S3", "K1", "K2", "K3", "Q1", "Q2", "Q3")


# ---------------------------------------------------------------------------
# structure constants: [left, right] = i * lam * target, or zero
# ---------------------------------------------------------------------------

_EPS = {(1, 2): (3, 1), (2, 3): (1, 1), (1, 3): (2, -1)}


def _build_table() -> dict[tuple[str, str], tuple[int, str] | None]:
    table: dict[tuple[str, str], tuple[int, str] | None] = {}
    for (i, j), (k, sign) in _EPS.items():
        table[(f"L{i}", f"L{j}")] = (sign, f"L{k}")
        table[(f"L{i}", f"K{j}")] = (sign, f"K{k}")
        table[(f"L{i}", f"Q{j}")] = (sign, f"Q{k}")
        # swapped rotation index: eps_jik = -eps_ijk
        table[(f"L{j}", f"K{i}")] = (-sign, f"K{k}")
        table[(f"L{j}", f"Q{i}")] = (-sign, f"Q{k}")
        table[(f"K{i}", f"K{j}")] = (-sign, f"L{k}")
        table[(f"Q{i}", f"Q{j}")] = (-sign, f"L{k}")
    for i in (1, 2, 3):
        table[(f"L{i}", f"K{i}")] = None
        table[(f"L{i}", f"Q{i}")] = None
        table[(f"L{i}", "S3")] = None
        table[(f"K{i}", f"Q{i}")] = (-1, "S3")
        table[(f"K{i}", "S3")] = (-1, f"Q{i}")
        table[(f"Q{i}", "S3")] = (1, f"K{i}")
        for j in (1, 2, 3):
            if i != j:
                table[(f"K{i}", f"Q{j}")] = None
                table[(f"Q{j}", f"K{i}")] = None
    return table


_TABLE = _build_table()


def structure_constant(left: str, right: str) -> tuple[int, str] | None:
    """(lam, target) with [left, right] = i * lam * target, or None if zero."""
    if left not in LABELS or right not in LABELS:
        raise DomainError(f"unknown generator label in ({left!r}, {right!r})")
    if (left, right) in _TABLE:
        return _TABLE[(left, right)]
    entry = _TABLE.get((right, left))
    if entry is None:
        return None
    lam, target = entry
    return -lam, target


def canonical_pairs() -> list[tuple[str, str]]:
    """The 45 unordered generator pairs in canonical label order."""
    return [(LABELS[i], LABELS[j]) for i in range(len(LABELS)) for j in range(i + 1, len(LABELS))]


# ---------------------------------------------------------------------------
# integer tables for the exact representations
# ---------------------------------------------------------------------------

# sp4: twice the flow matrix (entries are half-integers), rows/cols (x, y, p, q).
_SP4_TWICE = {
    "L1": [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
    "L2": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    "L3": [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
    "S3": [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
    "K1": [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
    "K2": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    "K3": [[0, 0, 0, -1], [0, 0, -1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
    "Q1": [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    "Q2": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    "Q3": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
}

# matrix5: imaginary parts (the matrices are i times these), rows/cols (x, y, z, t, s).
_X, _Y, _Z, _T, _S = range(5)
_M5_PLANES = {
    "L1": (_Z, _Y, -1),  # rotation about x: i(E_zy - E_yz)
    "L2": (_X, _Z, -1),
    "L3": (_Y, _X, -1),
    "S3": (_S, _T, -1),
    "K1": (_X, _T, +1),  # boosts pair symmetrically: i(E_ab + E_ba)
    "K2": (_Y, _T, +1),
    "K3": (_Z, _T, +1),
    "Q1": (_X, _S, +1),
    "Q2": (_Y, _S, +1),
    "Q3": (_Z, _S, +1),
}


def _matrix5_im(label: str) -> list[list[int]]:
    a, b, sign = _M5_PLANES[label]
    mat = [[0] * 5 for _ in range(5)]
    mat[a][b] = 1
    mat[b][a] = sign
    return mat


def sp4_generators() -> dict[str, np.ndarray]:
    """The ten phase-space flow matrices (entries 0, +/- 1/2)."""
    import numpy as np
    return {lab: np.array(_SP4_TWICE[lab], dtype=float) / 2.0 for lab in LABELS}


# ---------------------------------------------------------------------------
# truncated Fock representation, stored by band
# ---------------------------------------------------------------------------

# Bases of at most this many states (cutoff 40) hold their bands in _Floats, so the check loads no
# numpy; larger ones use numpy arrays, as plain lists would run for minutes at the cap.  Measured on
# 2 shared CPUs (Python 3.11.7, numpy 2.4.6), medians of 15 alternating console-entry runs, lists
# against arrays: -39 ms at cutoff 30, -13 ms at 36, -4 ms at 40, +5 ms at 42 and +32 ms at 44.
LIST_STATES_MAX = 41**2
# tracemalloc peak of the whole check per basis state: 1.6-2.1 kB in _Floats, whose every entry is
# a float or complex object, and 0.72 kB in arrays, charged at 1 kB as the caps have always been
_LIST_BYTES, _ARRAY_BYTES = 2500, 1000


class _Floats(list):
    """A band vector as a list of floats or complex, with the elementwise numpy operations _Banded uses."""

    __slots__ = ()

    def __add__(self, other):
        return _Floats(map(operator.add, self, other))

    def __sub__(self, other):
        return _Floats(map(operator.sub, self, other))

    def __mul__(self, other):
        if isinstance(other, list):
            return _Floats(map(operator.mul, self, other))
        return _Floats([other * x for x in self])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return _Floats([x / scalar for x in self])

    def __abs__(self):
        return _Floats(map(abs, self))

    def conj(self):
        return _Floats([x.conjugate() for x in self])

    def take(self, index):
        return _Floats(map(self.__getitem__, index))

    def max(self):
        return max(self)


def _shift(v, s: int):
    """u[j] = v[j - s], zero where j - s falls outside v; v itself for s = 0."""
    if not s:
        return v
    u = v * 0.0
    if s > 0:
        u[s:] = v[: max(len(v) - s, 0)]
    else:
        u[: max(len(v) + s, 0)] = v[-s:]
    return u


class _Banded:
    """Square operator stored by flat offset, one vector per band: G[j - k, j] = bands[k][j].

    A band is zero wherever its row j - k falls outside the basis.  A product
    (A B)[j - k, j] sums A[j - k, j - k2] B[j - k2, j] over k1 + k2 = k, that is band
    k1 of A at column j - k2 times band k2 of B at column j, so it can be formed on any
    set of columns: read(v, s) is band vector v at each of them less s (_shift reads
    every column).  The generators are products on every column; a bracket is formed
    on the safe sector alone.
    Ladder bilinears move (n, m) by at most 2 and keep at most 5 bands.
    """

    __slots__ = ("bands",)

    def __init__(self, bands: dict):
        self.bands = bands

    def product(self, other: "_Banded", read) -> "_Banded":
        """self @ other on the columns read picks, given other's bands already read there."""
        out: dict = {}
        for k1, a in self.bands.items():
            for k2, b in other.bands.items():
                prod = read(a, k2) * b
                k = k1 + k2
                out[k] = out[k] + prod if k in out else prod
        return _Banded(out)

    def __matmul__(self, other: "_Banded") -> "_Banded":
        return self.product(other, _shift)

    def at(self, read) -> "_Banded":
        """Each band at the columns read picks."""
        return _Banded({k: read(v, 0) for k, v in self.bands.items()})

    def __add__(self, other: "_Banded") -> "_Banded":
        out = dict(self.bands)
        for k, v in other.bands.items():
            out[k] = out[k] + v if k in out else v
        return _Banded(out)

    def __sub__(self, other: "_Banded") -> "_Banded":
        # x - y rounds as x + (-1) * y does, to the bit of its magnitude, and in one pass
        out = dict(self.bands)
        for k, v in other.bands.items():
            out[k] = out[k] - v if k in out else -1 * v
        return _Banded(out)

    def __mul__(self, scalar) -> "_Banded":
        return _Banded({k: scalar * v for k, v in self.bands.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "_Banded":
        return _Banded({k: v / scalar for k, v in self.bands.items()})

    @property
    def H(self) -> "_Banded":
        """Conjugate transpose: band -k holds conj(v[j + k]) at column j."""
        return _Banded({-k: _shift(v, -k).conj() for k, v in self.bands.items()})

    def dense(self) -> np.ndarray:
        import numpy as np
        bands = {k: np.asarray(v) for k, v in self.bands.items()}
        d = next(iter(bands.values())).size
        out = np.zeros((d, d), dtype=np.result_type(*bands.values()))
        cols = np.arange(d)
        for k, v in bands.items():
            keep = (cols - k >= 0) & (cols - k < d)
            out[cols[keep] - k, cols[keep]] = v[keep]
        return out


def _check_cutoff(cutoff, dense: bool = False) -> int:
    """cutoff, if the arrays it needs fit the package's byte budget (errors.BYTE_BUDGET), else CutoffError.

    The banded check is charged 1 kB per basis state in numpy arrays, of which there
    are (cutoff + 1)^2 (measured peak RSS 57 MB at cutoff 200, 143 MB at 400, 283 MB at
    600, taking 2.5 s), and 2.5 kB per state in _Floats, which run only where that
    fits too (_vector); one dense matrix takes 16 (cutoff + 1)^4 bytes, and
    fock_generators returns ten.  At the default 4 GiB the caps are 2071 and 127.
    """
    cutoff = integer("fock cutoff", cutoff, low=2)
    nbytes = errors.BYTE_BUDGET
    cap = math.isqrt(math.isqrt(nbytes // 16)) - 1 if dense else math.isqrt(nbytes // _ARRAY_BYTES) - 1
    if cutoff > cap:
        raise CutoffError(f"fock cutoff {cutoff} is above the cap of {cap} (a {nbytes / 2**30:.3g} GiB budget)")
    return cutoff


def _vector(cutoff: int):
    """The band vectors' type: _Floats up to LIST_STATES_MAX basis states if they fit the budget, else arrays."""
    states = (cutoff + 1) ** 2
    if states <= LIST_STATES_MAX and _LIST_BYTES * states <= errors.BYTE_BUDGET:
        return _Floats
    import numpy as np
    return np.array


def _ladder_bands(cutoff: int) -> tuple[_Banded, _Banded]:
    cutoff = _check_cutoff(cutoff)
    vector, dim = _vector(cutoff), cutoff + 1
    root = [math.sqrt(k) for k in range(dim)]
    # a|n, m> = sqrt(n)|n - 1, m> sits at column (n, m), one a-mode block (dim columns) right of the diagonal
    return (
        _Banded({dim: vector([r for r in root for _ in range(dim)])}),
        _Banded({1: vector(root * dim)}),
    )


def _safe_columns(cutoff: int) -> list[int]:
    """Flat indices of the basis states with total excitation n + m <= cutoff - 2.

    Creation bilinears leak one excitation per factor, so commutators on a
    cutoff-truncated space are only exact on columns drawn from this sector.
    """
    dim = cutoff + 1
    return [j for n in range(cutoff - 1) for j in range(n * dim, n * dim + cutoff - 1 - n)]


def safe_sector_mask(cutoff: int) -> np.ndarray:
    """Boolean mask of the basis states in the truncation-safe sector (see _safe_columns)."""
    import numpy as np
    cutoff = _check_cutoff(cutoff)
    mask = np.zeros((cutoff + 1) ** 2, dtype=bool)
    mask[_safe_columns(cutoff)] = True
    return mask


def _safe_reader(cutoff: int):
    """read(v, s): band vector v at each safe column j less s, for brackets formed on the safe sector.

    j - s never passes the basis' end and, below its start, indexes from the end as
    Python and numpy do; the entry read there is a finite stand-in, since the other
    factor of its product is a band entry whose row falls outside the basis, which is zero.
    """
    vector, safe = _vector(cutoff), _safe_columns(cutoff)
    index: dict = {}

    def read(v, s):
        if s not in index:
            index[s] = vector([j - s for j in safe])
        return v.take(index[s])

    return read


def _fock_bands(cutoff: int) -> dict[str, _Banded]:
    a, b = _ladder_bands(cutoff)
    ad, bd = a.H, b.H
    eye = _Banded({0: _vector(cutoff)([1.0] * (cutoff + 1) ** 2)})
    return {
        "L1": (ad @ b + bd @ a) / 2.0,
        "L2": (ad @ b - bd @ a) / 2j,
        "L3": (ad @ a - bd @ b) / 2.0,
        # bb^dag ordering kept (vacuum carries S3 eigenvalue 1/2), but
        # written as b^dag b + 1 so the truncated matrix has the operator's
        # true elements; the literal product b @ bd zeroes the top diagonal
        # entry and corrupts commutators even on safe-sector columns.
        "S3": (ad @ a + bd @ b + eye) / 2.0,
        "K1": (ad @ ad + a @ a - bd @ bd - b @ b) / -4.0,
        "K2": 1j * (ad @ ad - a @ a + bd @ bd - b @ b) / 4.0,
        "K3": (ad @ bd + a @ b) / 2.0,
        # The sign of the s-boosts is pinned by the commutator table: with
        # the opposite sign the nine brackets coupling Q to K and S3 flip.
        "Q1": 1j * (ad @ ad - a @ a - bd @ bd + b @ b) / 4.0,
        "Q2": (ad @ ad + a @ a + bd @ bd + b @ b) / 4.0,
        "Q3": -1j * (ad @ bd - a @ b) / 2.0,
    }


def fock_generators(cutoff: int) -> dict[str, np.ndarray]:
    """The ten Hermitian bilinears on the truncated two-mode basis, as dense matrices.

    Each takes 16 (cutoff + 1)^4 bytes, so the byte budget caps cutoff (at 127 by default).
    """
    gens = _fock_bands(_check_cutoff(cutoff, dense=True))
    return {lab: gens[lab].dense().astype(complex) for lab in LABELS}


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


class PairCheck(NamedTuple):
    left: str
    right: str
    expected: str
    deviation: float


class AlgebraReport(NamedTuple):
    rep: str
    pairs: tuple[PairCheck, ...]
    max_deviation: float


def _expected_string(entry: tuple[int, str] | None) -> str:
    if entry is None:
        return "0"
    lam, target = entry
    return f"i*{target}" if lam == 1 else f"-i*{target}"


def check_algebra(rep: str, cutoff: int | None = None) -> AlgebraReport:
    """Verify all 45 commutators of one representation against the table.

    fock requires a cutoff (at most 2071 at the default byte budget) and is compared in
    floating point, band by band, on columns from the truncation-safe sector.
    matrix5 and sp4 are compared exactly on their integer tables (a deviation
    of exactly 0.0 is expected):
    with G = i M the bracket [G, G'] = i*lam*G'' reads [M, M'] = lam * M'';
    sp4 flow matrices A = T / 2 obey [A, A'] = lam * A'', so [T, T'] =
    2 * lam * T''.  Deviations are in the units of the generators themselves.
    """
    if rep == "fock":
        if cutoff is None:
            raise DomainError("rep='fock' requires a cutoff")
        cutoff = _check_cutoff(cutoff)
        gens, read = _fock_bands(cutoff), _safe_reader(cutoff)
        safe = {lab: g.at(read) for lab, g in gens.items()}

        def deviation(left: str, right: str, entry: tuple[int, str] | None) -> float:
            diff = gens[left].product(safe[right], read) - gens[right].product(safe[left], read)
            if entry is not None:
                lam, target = entry
                diff = diff - 1j * lam * safe[target]
            return max(float(abs(v).max()) for v in diff.bands.values())

    elif rep in ("matrix5", "sp4"):
        if cutoff is not None:
            raise DomainError(f"cutoff applies only to rep='fock', not {rep!r}")
        table = {lab: _matrix5_im(lab) for lab in LABELS} if rep == "matrix5" else _SP4_TWICE
        scale = 1 if rep == "matrix5" else 2

        def deviation(left: str, right: str, entry: tuple[int, str] | None) -> float:
            a, b = table[left], table[right]
            lam, target = entry if entry is not None else (0, left)  # a zero bracket subtracts nothing
            c, dim = table[target], range(len(a))
            worst = max(
                abs(sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in dim) - scale * lam * c[i][j])
                for i in dim
                for j in dim
            )
            return worst / scale**2

    else:
        raise DomainError(f"unknown representation {rep!r}; expected fock, matrix5, or sp4")
    checks = []
    for left, right in canonical_pairs():
        entry = structure_constant(left, right)
        checks.append(PairCheck(left, right, _expected_string(entry), deviation(left, right, entry)))
    return AlgebraReport(rep=rep, pairs=tuple(checks), max_deviation=max(c.deviation for c in checks))
