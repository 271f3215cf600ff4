"""Dirac's ten two-oscillator generators in three representations.

The labels L1, L2, L3, S3, K1, K2, K3, Q1, Q2, Q3 close under commutation
on the o(3,2) = sp(4,R) Lie algebra:

    [Li, Lj] = i eps_ijk Lk      [Li, Kj] = i eps_ijk Kk
    [Li, Qj] = i eps_ijk Qk      [Ki, Kj] = [Qi, Qj] = -i eps_ijk Lk
    [Li, S3] = 0                 [Ki, Qj] = -i delta_ij S3
    [Ki, S3] = -i Qi             [Qi, S3] = +i Ki

One structure-constant table, its 30 nonzero brackets (any other pair
commutes), is checked on all 45 pairs against three realizations:

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
uses floating point, and only in real arithmetic: each Fock generator is one
exact scale (1/2, -i/2, 1/4, ...) times a real banded operator (G[j - k, j] =
v[j] at flat basis column j) whose bands are +/- ten shared ladder products,
each one band stored as a plain (offset k, vector v) pair.
The check forms each bracket on the real bands and the safe-sector columns
alone, each product of two bands once for all pairs, and scales its deviation
after; fock_generators builds its dense matrices from the same bands.  Up to
LIST_STATES_MAX basis states the band vectors are plain lists of floats, so the
check loads no numpy; above it they are numpy arrays.  numpy loads on first use,
in the array-backed check, fock_generators, safe_sector_mask and sp4_generators.
"""

from __future__ import annotations

import collections
import functools
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


def _build_table() -> dict[tuple[str, str], tuple[int, str]]:
    """The nonzero brackets, each in one order; a pair found in neither order commutes."""
    table: dict[tuple[str, str], tuple[int, str]] = {}
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
        table[(f"K{i}", f"Q{i}")] = (-1, "S3")
        table[(f"K{i}", "S3")] = (-1, f"Q{i}")
        table[(f"Q{i}", "S3")] = (1, f"K{i}")
    return table


_TABLE = _build_table()


def structure_constant(left: str, right: str) -> tuple[int, str] | None:
    """(lam, target) with [left, right] = i * lam * target, or None if zero."""
    if left not in LABELS or right not in LABELS:
        raise DomainError(f"unknown generator label in ({left!r}, {right!r})")
    if (right, left) in _TABLE:
        lam, target = _TABLE[right, left]
        return -lam, target
    return _TABLE.get((left, right))


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

# Bases of at most this many states (cutoff 54) hold their bands in _Floats, so the check loads no numpy;
# larger ones use numpy arrays, as plain lists would run for minutes at the cap.  Measured on 2 shared
# CPUs (Python 3.11.7, numpy 2.4.6), medians of 15-21 alternating console-entry runs, lists against arrays:
# -35 ms at cutoff 50, -10 to -14 ms at 52, -23 to -26 ms at 54, -1 to -12 ms at 56, +19 ms at 59, +15 at 60.
LIST_STATES_MAX = 55**2
# tracemalloc peak of the whole check per basis state, every band real: 1.3-1.4 kB in _Floats (a
# float object per entry) and 0.39 kB in arrays, charged at 2.5 and 1 kB as the caps have always been
_LIST_BYTES, _ARRAY_BYTES = 2500, 1000


class _Floats(list):
    """A band vector as a list of floats, with the elementwise numpy operations the band products use."""

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

    def take(self, index):
        return _Floats(map(self.__getitem__, index))

    def max(self):
        return max(self)

    def min(self):
        return min(self)


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


def _add(out: dict, k: int, v, sign: int = 1) -> None:
    """out[k] += sign * v for sign +1 or -1; x - y rounds as x + (-1) * y does, to the bit of its magnitude."""
    if k in out:
        out[k] = out[k] + v if sign > 0 else out[k] - v
    else:
        out[k] = v if sign > 0 else -1.0 * v


def _sub(x: dict, y: dict) -> dict:
    """The band dict x - y, y's bands subtracted in their order."""
    out = dict(x)
    for k, v in y.items():
        _add(out, k, v, -1)
    return out


def _dense(bands: dict) -> np.ndarray:
    """The square matrix G[j - k, j] = bands[k][j], zero where row j - k falls outside the basis."""
    import numpy as np
    d = len(next(iter(bands.values())))
    out = np.zeros((d, d))
    for k, v in bands.items():
        j = np.arange(max(k, 0), d + min(k, 0))  # the columns whose row j - k is in the basis
        out[j - k, j] = np.asarray(v)[j]
    return out


def _check_cutoff(cutoff, dense: bool = False) -> int:
    """cutoff, if the arrays it needs fit the package's byte budget (errors.BYTE_BUDGET), else CutoffError.

    The banded check is charged 1 kB per basis state in numpy arrays, of which there are (cutoff + 1)^2
    (measured peak RSS 44 MB at cutoff 200, 90 MB at 400, 165 MB at 600, taking 1.2 s), and 2.5 kB per
    state in _Floats, which run only where that fits too (_vector); fock_generators returns ten dense matrices of
    16 (cutoff + 1)^4 bytes, peaks at 11.1-11.4 (cutoffs 12-30) and is charged 12: caps 2071 and 67 at 4 GiB.
    """
    cutoff = integer("fock cutoff", cutoff, low=2)
    nbytes = errors.BYTE_BUDGET
    cap = math.isqrt(math.isqrt(nbytes // (12 * 16))) - 1 if dense else math.isqrt(nbytes // _ARRAY_BYTES) - 1
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

    j - s never passes the basis' end and, below its start, indexes from the end as Python and numpy
    do; the entry read there is a finite stand-in, since the other factor of its product is a band
    entry whose row falls outside the basis, which is zero.
    """
    vector, safe = _vector(cutoff), _safe_columns(cutoff)
    index = functools.cache(lambda s: vector([j - s for j in safe]))
    return lambda v, s: v.take(index(s))


# Each generator is one exact scale times a real banded operator whose bands are +1 or -1 times one
# of the ten products _fock_bands names, in this band order: G = scale * sum(sign * product).
_FOCK = {
    "L1": (1 / 2, {"ad b": 1, "bd a": 1}),
    "L2": (-1j / 2, {"ad b": 1, "bd a": -1}),
    "L3": (1 / 2, {"L3": 1}),
    "S3": (1 / 2, {"S3": 1}),
    "K1": (-1 / 4, {"ad ad": 1, "a a": 1, "bd bd": -1, "b b": -1}),
    "K2": (1j / 4, {"ad ad": 1, "a a": -1, "bd bd": 1, "b b": -1}),
    "K3": (1 / 2, {"ad bd": 1, "a b": 1}),
    # The sign of the s-boosts is pinned by the commutator table: with
    # the opposite sign the nine brackets coupling Q to K and S3 flip.
    "Q1": (1j / 4, {"ad ad": 1, "a a": -1, "bd bd": -1, "b b": 1}),
    "Q2": (1 / 4, {"ad ad": 1, "a a": 1, "bd bd": 1, "b b": 1}),
    "Q3": (-1j / 2, {"ad bd": 1, "a b": -1}),
}


def _fock_bands(cutoff: int) -> dict:
    """The ten real products _FOCK names, each one band (k, v): P[j - k, j] = v[j], zero off the basis.

    Band (k1, v1) times band (k2, v2) is band k1 + k2 with entries v1[j - k2] v2[j], so a product can be
    formed on any set of columns: here on every column, in the check on the safe sector.
    """
    vector, dim = _vector(cutoff), cutoff + 1
    root = [math.sqrt(k) for k in range(dim)]
    # a|n, m> = sqrt(n)|n - 1, m> sits at column (n, m), one a-mode block (dim columns) right of the diagonal
    a, b = (dim, vector([r for r in root for _ in range(dim)])), (1, vector(root * dim))
    ad, bd = ((-k, _shift(v, -k)) for k, v in (a, b))  # the transposes

    def mul(x, y):
        return x[0] + y[0], _shift(x[1], y[0]) * y[1]

    ad_a, bd_b = mul(ad, a)[1], mul(bd, b)[1]
    return {
        "ad ad": mul(ad, ad), "a a": mul(a, a), "bd bd": mul(bd, bd), "b b": mul(b, b),
        "ad b": mul(ad, b), "bd a": mul(bd, a), "ad bd": mul(ad, bd), "a b": mul(a, b),
        "L3": (0, ad_a - bd_b),
        # bb^dag ordering kept (vacuum carries S3 eigenvalue 1/2), but written as b^dag b + 1 so the truncated
        # matrix has the operator's true elements; the literal product b bd zeroes the top diagonal entry
        # and corrupts commutators even on safe-sector columns.
        "S3": (0, ad_a + bd_b + vector([1.0] * dim**2)),
    }


def fock_generators(cutoff: int) -> dict[str, np.ndarray]:
    """The ten Hermitian bilinears on the truncated two-mode basis, as dense matrices.

    Each takes 16 (cutoff + 1)^4 bytes and the call peaks near twelve, so the byte budget caps cutoff at 67 by default.
    """
    bands = _fock_bands(_check_cutoff(cutoff, dense=True))
    real = {lab: {bands[n][0]: sign * bands[n][1] for n, sign in signs.items()} for lab, (_, signs) in _FOCK.items()}
    return {lab: (_FOCK[lab][0] * _dense(b)).astype(complex) for lab, b in real.items()}


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
        bands, read = _fock_bands(cutoff), _safe_reader(cutoff)
        safe = {n: read(v, 0) for n, (_, v) in bands.items()}
        terms = {(x, y): [(n1, n2, s1 * s2) for n1, s1 in _FOCK[x][1].items() for n2, s2 in _FOCK[y][1].items()]
                 for x in LABELS for y in LABELS}
        # each product of two of the ten is formed once per check and kept until its last pair has read it
        uses = collections.Counter(key[:2] for x, y in canonical_pairs() for key in terms[x, y] + terms[y, x])
        products: dict = {}

        def half(left: str, right: str) -> dict:
            """R @ R' on the safe columns for G = sL R and G' = sR R', its terms sign * (n1 @ n2) added in order."""
            out: dict = {}
            for n1, n2, sign in terms[left, right]:
                if (n1, n2) not in products:
                    products[n1, n2] = read(bands[n1][1], bands[n2][0]) * safe[n2]
                uses[n1, n2] -= 1
                p = products[n1, n2] if uses[n1, n2] else products.pop((n1, n2))
                _add(out, bands[n1][0] + bands[n2][0], p, sign)
            return out

        def deviation(left: str, right: str, entry: tuple[int, str] | None) -> float:
            # [G, G'] - i lam G'' = sL sR ([R, R'] - r R'') for G'' = sT R'', with r = i lam sT / (sL sR) real: the
            # complex bracket's float operations on its one nonzero component, to the bit; max |v| from max and min
            scale = _FOCK[left][0] * _FOCK[right][0]
            diff = _sub(half(left, right), half(right, left))
            if entry is not None:
                lam, target = entry
                ratio = (1j * lam * _FOCK[target][0] / scale).real
                diff = _sub(diff, {bands[n][0]: (sign * ratio) * safe[n] for n, sign in _FOCK[target][1].items()})
            return abs(scale) * max(abs(max(float(v.max()), -float(v.min()))) for v in diff.values())

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
