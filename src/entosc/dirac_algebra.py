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
integer matrix products; only the fock check uses floating point.  The Fock
generators are defined once, by band (G[i, i + k] = v[i] on the flat
basis index), and the check composes bands directly; the dense matrices of
fock_generators and two_mode_ladders are materialised from the same bands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BYTE_BUDGET, CutoffError, DomainError, integer

LABELS = ("L1", "L2", "L3", "S3", "K1", "K2", "K3", "Q1", "Q2", "Q3")

O32_METRIC = np.diag([1.0, 1.0, 1.0, -1.0, -1.0])

# Symplectic form on (x, y, p, q) with conjugate pairs (x, p) and (y, q).
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


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


def matrix5_generators() -> dict[str, np.ndarray]:
    """The ten 5x5 generators as complex arrays (entries 0, +/- i)."""
    return {lab: 1j * np.array(_matrix5_im(lab), dtype=float) for lab in LABELS}


def sp4_generators() -> dict[str, np.ndarray]:
    """The ten phase-space flow matrices (entries 0, +/- 1/2)."""
    return {lab: np.array(_SP4_TWICE[lab], dtype=float) / 2.0 for lab in LABELS}


# ---------------------------------------------------------------------------
# truncated Fock representation, stored by band
# ---------------------------------------------------------------------------


def _shift(v: np.ndarray, s: int) -> np.ndarray:
    """u[i] = v[i + s], zero where i + s falls outside v."""
    u = np.zeros_like(v)
    if s >= 0:
        u[: max(v.size - s, 0)] = v[s:]
    else:
        u[-s:] = v[: max(v.size + s, 0)]
    return u


class _Banded:
    """Square operator stored by flat offset: G[i, i + k] = bands[k][i].

    A band is zero wherever i + k falls outside the basis, so a product is
    exact index arithmetic: (A B) at offset k1 + k2 is a[i] * b[i + k1].
    Ladder bilinears move (n, m) by at most 2 and keep at most 5 bands.
    """

    __slots__ = ("bands",)

    def __init__(self, bands: dict[int, np.ndarray]):
        self.bands = bands

    def __matmul__(self, other: "_Banded") -> "_Banded":
        out: dict[int, np.ndarray] = {}
        for k1, a in self.bands.items():
            for k2, b in other.bands.items():
                prod = a * _shift(b, k1)
                k = k1 + k2
                out[k] = out[k] + prod if k in out else prod
        return _Banded(out)

    def __add__(self, other: "_Banded") -> "_Banded":
        out = dict(self.bands)
        for k, v in other.bands.items():
            out[k] = out[k] + v if k in out else v
        return _Banded(out)

    def __sub__(self, other: "_Banded") -> "_Banded":
        return self + other * -1

    def __mul__(self, scalar) -> "_Banded":
        return _Banded({k: scalar * v for k, v in self.bands.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "_Banded":
        return _Banded({k: v / scalar for k, v in self.bands.items()})

    @property
    def H(self) -> "_Banded":
        """Conjugate transpose: band -k holds conj(v[i - k])."""
        return _Banded({-k: np.conj(_shift(v, -k)) for k, v in self.bands.items()})

    def dense(self) -> np.ndarray:
        d = next(iter(self.bands.values())).size
        out = np.zeros((d, d), dtype=np.result_type(*self.bands.values()))
        rows = np.arange(d)
        for k, v in self.bands.items():
            keep = (rows + k >= 0) & (rows + k < d)
            out[rows[keep], rows[keep] + k] = v[keep]
        return out


# A Fock cutoff whose arrays would pass the package's byte budget
# (errors.BYTE_BUDGET) fails fast with CutoffError instead of exhausting memory.
# The banded check peaks at about 1 kB per basis state, of which there are
# (cutoff + 1)^2 (measured peak RSS 71 MB at cutoff 200, 190 MB at 400, 392 MB
# at 600, taking 3.8 s); one dense matrix takes 16 (cutoff + 1)^4 bytes, and
# fock_generators returns ten.
FOCK_CUTOFF_MAX = math.isqrt(BYTE_BUDGET // 1000) - 1  # 2071
DENSE_FOCK_CUTOFF_MAX = math.isqrt(math.isqrt(BYTE_BUDGET // 16)) - 1  # 127


def _check_cutoff(cutoff, cap: int) -> int:
    cutoff = integer("fock cutoff", cutoff, low=2)
    if cutoff > cap:
        raise CutoffError(f"fock cutoff {cutoff} is above the cap of {cap} (a {BYTE_BUDGET // 2**30} GiB budget)")
    return cutoff


def _ladder_bands(cutoff: int) -> tuple[_Banded, _Banded]:
    cutoff = _check_cutoff(cutoff, FOCK_CUTOFF_MAX)
    dim = cutoff + 1
    n, m = np.divmod(np.arange(dim * dim), dim)
    # a|n+1, m> = sqrt(n+1)|n, m> sits one a-mode block (dim columns) right of the diagonal
    return (
        _Banded({dim: np.sqrt(n + 1.0) * (n < cutoff)}),
        _Banded({1: np.sqrt(m + 1.0) * (m < cutoff)}),
    )


def two_mode_ladders(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation matrices (a, b) on |n, m>, n, m <= cutoff <= DENSE_FOCK_CUTOFF_MAX, a-mode outer."""
    a, b = _ladder_bands(_check_cutoff(cutoff, DENSE_FOCK_CUTOFF_MAX))
    return a.dense(), b.dense()


def safe_sector_mask(cutoff: int) -> np.ndarray:
    """Boolean mask of basis states with total excitation n + m <= cutoff - 2.

    Creation bilinears leak one excitation per factor, so commutators on a
    cutoff-truncated space are only exact on columns drawn from this sector.
    """
    cutoff = _check_cutoff(cutoff, FOCK_CUTOFF_MAX)
    dim = cutoff + 1
    n, m = np.divmod(np.arange(dim * dim), dim)
    return (n + m) <= (cutoff - 2)


def _fock_bands(cutoff: int) -> dict[str, _Banded]:
    a, b = _ladder_bands(cutoff)
    ad, bd = a.H, b.H
    eye = _Banded({0: np.ones((int(cutoff) + 1) ** 2)})
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

    Each takes 16 (cutoff + 1)^4 bytes, so cutoff is capped at DENSE_FOCK_CUTOFF_MAX.
    """
    gens = _fock_bands(_check_cutoff(cutoff, DENSE_FOCK_CUTOFF_MAX))
    return {lab: gens[lab].dense().astype(complex) for lab in LABELS}


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairCheck:
    left: str
    right: str
    expected: str
    deviation: float


@dataclass(frozen=True)
class AlgebraReport:
    rep: str
    pairs: tuple[PairCheck, ...]
    max_deviation: float

    def as_dict(self) -> dict:
        return {
            "rep": self.rep,
            "pairs": [
                {
                    "pair": f"[{p.left},{p.right}]",
                    "expected": p.expected,
                    "deviation": p.deviation,
                }
                for p in self.pairs
            ],
            "max_deviation": self.max_deviation,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def _expected_string(entry: tuple[int, str] | None) -> str:
    if entry is None:
        return "0"
    lam, target = entry
    return f"i*{target}" if lam == 1 else f"-i*{target}" if lam == -1 else f"{lam}i*{target}"


def check_algebra(rep: str, cutoff: int | None = None) -> AlgebraReport:
    """Verify all 45 commutators of one representation against the table.

    fock requires a cutoff (at most FOCK_CUTOFF_MAX) and is compared in
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
        gens, scale = _fock_bands(cutoff), 1j
        mask = safe_sector_mask(cutoff)

        def deviation(diff: _Banded) -> float:
            # band k reaches column i + k from row i
            cols = (v[_shift(mask, k)] for k, v in diff.bands.items())
            return max((float(np.abs(c).max(initial=0.0)) for c in cols), default=0.0)

    elif rep in ("matrix5", "sp4"):
        if cutoff is not None:
            raise DomainError(f"cutoff applies only to rep='fock', not {rep!r}")
        table = {lab: _matrix5_im(lab) for lab in LABELS} if rep == "matrix5" else _SP4_TWICE
        gens = {lab: np.array(table[lab], dtype=np.int64) for lab in LABELS}
        scale = 1 if rep == "matrix5" else 2

        def deviation(diff: np.ndarray) -> float:
            return float(np.abs(diff).max()) / scale**2

    else:
        raise DomainError(f"unknown representation {rep!r}; expected fock, matrix5, or sp4")
    checks = []
    for left, right in canonical_pairs():
        entry = structure_constant(left, right)
        diff = gens[left] @ gens[right] - gens[right] @ gens[left]
        if entry is not None:
            lam, target = entry
            diff = diff - scale * lam * gens[target]
        checks.append(PairCheck(left, right, _expected_string(entry), deviation(diff)))
    return AlgebraReport(rep=rep, pairs=tuple(checks), max_deviation=max(c.deviation for c in checks))


# ---------------------------------------------------------------------------
# structural validators used by the tests and the CLI
# ---------------------------------------------------------------------------


def metric_defect(G: np.ndarray) -> float:
    """max |B g + g B^T| with B = -iG: zero iff B generates O(3,2) flows."""
    B = np.real(-1j * np.asarray(G, dtype=complex))
    return float(np.abs(B @ O32_METRIC + O32_METRIC @ B.T).max())


def symplectic_defect(A: np.ndarray) -> float:
    """max |A^T J + J A|: zero iff the flow of A is canonical."""
    A = np.asarray(A, dtype=float)
    J = SYMPLECTIC_FORM
    return float(np.abs(A.T @ J + J @ A).max())


def hermiticity_defect(G: np.ndarray) -> float:
    G = np.asarray(G, dtype=complex)
    return float(np.abs(G - G.conj().T).max())
