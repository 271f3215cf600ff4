"""Harmonic-oscillator eigenfunctions, squeezed states, Gauss-Hermite quadrature and the overlap kernel.

The eigenfunctions in the physicists' convention,

    chi_n(x) = [sqrt(pi) 2^n n!]^(-1/2) H_n(x) exp(-x^2/2),

are evaluated with one three-term recurrence carried out on the normalized
functions themselves, so intermediate values stay O(1) and no factorial
overflow occurs for any n up to ``N_MAX``.  The recurrence, `_chi_rows`, runs
on a float or on an array from the row 0 its caller passes, and keeps two
rows live: `chi` holds two arrays the size of x whatever n is, and
`chi_batch` stores every row; both take arrays and load numpy when called.
From the bare row 0, pi^-1/4, the recurrence gives the orthonormal Hermite
polynomials without exp(-x^2/2), which is what Gauss-Hermite quadrature wants,
since the e^{-x^2} weight is folded into the quadrature weights; the
quadrature rule and the overlap kernel run them on floats.  The
squeezed states chi_n(x') chi_m(y') of `entangled_series` and `phase_space`
live here (`_squeezed`, `squeezed_wavefunction`), formed through the one squeeze
map `_light_cone` on floats (`_float_seed`) or arrays (`_seeded`), both from one
Gaussian seed rule, `_gaussian_seed`, so a process that only integrates overlaps
or checks the Schmidt identity on a small grid loads no numpy.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import CutoffError, NumericsError, budget, integer, rapidity

N_MAX = 256
DEFAULT_QUAD_ORDER = 64
# The last order whose smallest weight, about e^{-x^2} at the outermost node x ~ 26.6, is a normal double;
# past it the weights go subnormal, and from order ~380 1/p_{order-1}^2 overflows
QUAD_ORDER_MAX = 370

_BARE_SEED = math.pi**-0.25  # row 0 of the bare recurrence, the orthonormal Hermite polynomial of degree 0
# the recurrence's factors (sqrt(2 / (k + 1)), sqrt(k / (k + 1))) for every row the basis or a rule needs
_STEPS = [(math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1.0))) for k in range(max(N_MAX, QUAD_ORDER_MAX))]


def _check_index(n: int, name: str = "n") -> int:
    n = integer(name, n)
    if n > N_MAX:
        raise CutoffError(f"{name}={n} exceeds basis cutoff N_MAX={N_MAX}")
    return n


def _chi_rows(nmax: int, x, cur):
    """Yield the recurrence's rows 0..nmax at x, a float or an array, starting from the caller's row 0, `cur`.

    Row 0 is pi^-1/4 exp(-x^2/2) for chi and pi^-1/4 for the bare polynomials.
    Only the two rows the update reads are live at a time.
    """
    if nmax > len(_STEPS):
        raise CutoffError(f"row {nmax} is past the recurrence table's {len(_STEPS)} steps")
    prev = 0.0 * cur  # zeros shaped like row 0, which is finite and >= 0
    yield cur
    for rise, fall in _STEPS[:nmax]:
        cur, prev = rise * x * cur - fall * prev, cur
        yield cur


def _gaussian_seed(x, largest: float, exp, clip):
    """x and row 0 of chi there, pi^-1/4 exp(-x^2/2): x a float (`math.exp`, `_clip`) or an array (numpy's).

    `largest` is max |x|.  The seed is 0 past |x| ~ 38.6, so once some |x| passes 1e150, clipping x to
    [-40, 40] changes no row and keeps x * x and the update finite.  A nan makes `largest` nan and clips too.
    """
    if not largest <= 1e150:
        x = clip(x, -40.0, 40.0)
    return x, _BARE_SEED * exp(-0.5 * x * x)


def _clip(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def _float_seed(x: float) -> tuple[float, float]:
    """`_gaussian_seed` at a float x."""
    return _gaussian_seed(x, abs(x), math.exp, _clip)


def _seeded(x):
    """x as a 1-d float array, and row 0 there, pi^-1/4 exp(-x^2/2)."""
    import numpy as np

    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _gaussian_seed(x, max(-x.min(), x.max()) if x.size else 0.0, np.exp, np.clip)


def chi_batch(nmax: int, x):
    """All chi_0..chi_nmax at x, stacked along the leading axis; DomainError first if the table passes the budget."""
    import numpy as np

    nmax = _check_index(nmax, "nmax")
    budget(8.0 * (nmax + 1) * np.size(x), f"a table of chi_0..chi_{nmax} at {np.size(x)} points")
    rows = _chi_rows(nmax, *_seeded(x))
    first = next(rows)
    out = np.empty((nmax + 1,) + first.shape)
    out[0] = first
    for k, row in enumerate(rows, 1):
        out[k] = row
    return out


def _last_row(rows):
    for value in rows:
        pass
    return value


def chi(n: int, x):
    """Normalized oscillator eigenfunction chi_n(x)."""
    import numpy as np

    n = _check_index(n, "nmax")
    value = _last_row(_chi_rows(n, *_seeded(x)))
    return float(value[0]) if np.ndim(x) == 0 else value


class QuadratureRule(NamedTuple):
    """Gauss-Hermite nodes and weights for the weight e^{-x^2}, as tuples of floats."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    order: int


def _top_rows(order: int, x: float) -> tuple[float, float]:
    """(p_{order-1}(x), p_order(x)) of the bare recurrence at a float x."""
    below = top = 0.0
    for row in _chi_rows(order, x, _BARE_SEED):
        below, top = top, row
    return below, top


def _polish(order: int, lo: float, hi: float, p_lo: float, p_hi: float) -> float:
    """The root of p_order bracketed by [lo, hi]: Newton from the secant point, p_order' = sqrt(2 order) p_{order-1}."""
    x, slope = lo - p_lo * (hi - lo) / (p_hi - p_lo), math.sqrt(2.0 * order)
    for _ in range(50):
        below, top = _top_rows(order, x)
        dx = top / (slope * below)
        x -= dx
        if abs(dx) <= 1e-13 * x:
            break
    if not lo <= x <= hi:
        raise NumericsError(f"Gauss-Hermite node solver failed for order {order}")
    return x


def quadrature(order: int = DEFAULT_QUAD_ORDER) -> QuadratureRule:
    """Gauss-Hermite rule, exact for polynomial * e^{-x^2} up to degree 2*order - 1.

    The nodes are the roots of the bare p_order.  By Sturm comparison of
    chi_order'' + (2 order + 1 - x^2) chi_order = 0 with y'' + (2 order + 1) y = 0,
    its roots lie at least pi / sqrt(2 order + 1) apart, so sign changes on a
    grid of 0.4 times that step bracket each positive root alone, the least one
    included; Newton polishes it.  The weights 1/p_{order-1}^2 at the nodes are
    scaled to sum to sqrt(pi), as numpy's hermgauss scales them.  Each order's
    rule is built once per process; its tuples are immutable.
    """
    return _rule(integer("quadrature order", order, low=2, high=QUAD_ORDER_MAX))


@functools.lru_cache(maxsize=None)  # at most QUAD_ORDER_MAX - 1 rules, about 4 MB if every order is asked for
def _rule(order: int) -> QuadratureRule:
    step = 0.4 * math.pi / math.sqrt(2 * order + 1)
    roots, lo, p_lo = [], step, _top_rows(order, step)[1]
    while len(roots) < order // 2 and lo < math.sqrt(2 * order + 1):  # every root lies inside the turning point
        hi = lo + step
        p_hi = _top_rows(order, hi)[1]
        if (p_hi < 0.0) != (p_lo < 0.0):
            roots.append(_polish(order, lo, hi, p_lo, p_hi))
        lo, p_lo = hi, p_hi
    if len(roots) < order // 2:
        raise NumericsError(f"Gauss-Hermite node solver failed for order {order}")
    half = [0.0] * (order % 2) + roots
    weights = [1.0 / _top_rows(order, x)[0] ** 2 for x in half]
    weights = weights[::-1][: len(roots)] + weights  # the negative nodes' weights mirror the positive ones
    scale = math.sqrt(math.pi) / math.fsum(weights)
    nodes = tuple([-x for x in reversed(roots)] + half)
    weights = tuple(w * scale for w in weights)
    if not (all(a < b for a, b in zip(nodes, nodes[1:])) and all(w > 0.0 for w in weights)):
        raise NumericsError(f"invalid Gauss-Hermite rule at order {order}")
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def _light_cone(eta: float):
    """The package's one squeeze map: (s, d) -> x', y' = e^-eta s +- e^eta d, from light-cone s, d = (x +- y)/2.

    The two exponentials are taken once, here, for every point the map is applied to.
    """
    shrink, stretch = math.exp(-eta), math.exp(eta)

    def squeeze(s, d):
        es, ed = shrink * s, stretch * d
        return es + ed, es - ed

    return squeeze


def _squeezed(n: int, m: int, squeeze, x, y, seed):
    """chi_n(x') chi_m(y') at x', y' = squeeze((x + y)/2, (x - y)/2), n and m checked by the caller.

    `seed` is `_float_seed` on floats or the Gaussian `_seeded` on arrays (1-d at least).
    """
    xp, yp = squeeze(0.5 * (x + y), 0.5 * (x - y))
    return _last_row(_chi_rows(n, *seed(xp))) * _last_row(_chi_rows(m, *seed(yp)))


def squeezed_wavefunction(n: int, eta, x, y):
    """chi_n(x') chi_0(y') for the squeezed coordinates of rapidity eta: 0 where |x| or |y| is infinite, nan at nan."""
    import numpy as np

    n, eta = _check_index(n), rapidity(eta)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    budget(8.0 * 6 * np.broadcast(x, y).size, "a squeezed state")  # its peak, 6 planes (tracemalloc)
    with np.errstate(over="ignore", invalid="ignore"):  # only far past underflow: inf - inf gives the nan set to 0
        value = _squeezed(n, 0, _light_cone(eta), x, y, _seeded)
    value[np.isnan(value) & ~(np.isnan(x) | np.isnan(y))] = 0.0
    return float(value[0]) if np.ndim(x) == 0 and np.ndim(y) == 0 else value


def _overlap(bra, ket, order: int) -> float:
    """Overlap over the (x, y) plane of the squeezed states (n, m, eta) = chi_n(x') chi_m(y').

    In light-cone coordinates u, v = (x +- y)/sqrt2 the two Gaussians combine
    to exp(-a u^2 - b v^2), a = (e^-2eta + e^-2eta')/2, b = (e^2eta + e^2eta')/2,
    so Gauss-Hermite nodes scaled by 1/sqrt(a), 1/sqrt(b) integrate the bare
    polynomials exactly up to the rule's degree; `_light_cone` forms x', y'
    from u/sqrt2, v/sqrt2.  The order^2 products are summed by `math.fsum`, and
    each index-0 factor, the constant seed pi^-1/4, multiplies the sum once.
    """
    (_, _, e1), (_, _, e2) = bra, ket
    a = 0.5 * (math.exp(-2.0 * e1) + math.exp(-2.0 * e2))
    b = 0.5 * (math.exp(2.0 * e1) + math.exp(2.0 * e2))
    rule = quadrature(order)
    su, sv = math.sqrt(2.0 * a), math.sqrt(2.0 * b)
    us = [x / su for x in rule.nodes]  # u/sqrt2 and v/sqrt2 at the nodes
    vs = [x / sv for x in rule.nodes]
    seeds = 1.0
    for index in (*bra[:2], *ket[:2]):
        if not index:
            seeds *= _BARE_SEED
    states = [(n, m, _light_cone(eta)) for n, m, eta in (bra, ket) if n or m]
    terms = []
    for wu, u in zip(rule.weights, us):
        for wv, v in zip(rule.weights, vs):
            term = wu * wv
            for n, m, squeeze in states:
                xp, yp = squeeze(u, v)
                if n:
                    term *= _last_row(_chi_rows(n, xp, _BARE_SEED))
                if m:
                    term *= _last_row(_chi_rows(m, yp, _BARE_SEED))
            terms.append(term)
    return math.fsum(terms) * seeds / math.sqrt(a * b)
