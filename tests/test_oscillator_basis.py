"""Oscillator eigenfunctions, the Hermite oracle, and quadrature."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from hypothesis import example, given, settings, strategies as st

from entosc import CutoffError, DomainError
from entosc.oscillator_basis import (
    N_MAX,
    QUAD_ORDER_MAX,
    _STEPS,
    _check_index,
    _chi_rows,
    chi,
    chi_batch,
    quadrature,
    squeezed_wavefunction,
)


def hermite(n, x):
    """Independent oracle: H_n(x), physicists' convention, by H_{n+1} = 2 x H_n - 2 n H_{n-1}.

    It takes the library's index contract (CutoffError past N_MAX, DomainError
    below 0).  Its unnormalised values overflow at large n and |x| (H_256(10)
    is nan), which is why the library recurs on chi_n itself.
    """
    n = _check_index(n)
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def hermite_explicit(n, x):
    """Independent oracle: explicit low-degree Hermite polynomials."""
    return {
        0: 1.0,
        1: 2.0 * x,
        2: 4.0 * x**2 - 2.0,
        3: 8.0 * x**3 - 12.0 * x,
        4: 16.0 * x**4 - 48.0 * x**2 + 12.0,
    }[n]


class TestHermite:
    def test_degree_zero_is_one(self):
        assert hermite(0, 1.7) == 1.0

    def test_degree_one(self):
        assert hermite(1, 0.5) == 1.0

    def test_degree_four_against_explicit_polynomial(self):
        # 16 x^4 - 48 x^2 + 12 at x = 1 gives -20
        assert hermite_explicit(4, 1.0) == -20.0
        assert hermite(4, 1.0) == pytest.approx(-20.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_low_degrees_pointwise(self, n):
        xs = np.linspace(-3, 3, 13)
        assert np.allclose(hermite(n, xs), hermite_explicit(n, xs), rtol=1e-13, atol=1e-12)

    def test_recurrence_consistency(self):
        xs = np.linspace(-5, 5, 41)
        for n in range(1, 51):
            lhs = hermite(n + 1, xs) - 2 * xs * hermite(n, xs) + 2 * n * hermite(n - 1, xs)
            scale = np.maximum(np.abs(hermite(n + 1, xs)), 1.0)
            assert np.all(np.abs(lhs) / scale < 1e-9)

    def test_cutoff(self):
        with pytest.raises(CutoffError):
            hermite(N_MAX + 1, 0.0)
        with pytest.raises(DomainError):
            hermite(-1, 0.0)


class TestChi:
    def test_ground_state_at_origin(self):
        assert chi(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_odd_parity_vanishes_at_origin(self):
        assert chi(1, 0.0) == 0.0

    def test_explicit_normalized_formula(self):
        # chi_3(0.8) from the definition with exact factorials
        n, x = 3, 0.8
        expected = (1.0 / math.sqrt(math.sqrt(math.pi) * 2**n * math.factorial(n))) * hermite_explicit(
            n, x
        ) * math.exp(-x * x / 2.0)
        assert chi(n, x) == pytest.approx(expected, abs=1e-14)

    @given(st.integers(0, 30), st.floats(-6.0, 6.0, allow_nan=False))
    def test_parity(self, n, x):
        # the recurrence is sign-symmetric operation by operation
        assert chi(n, -x) == (-1.0) ** n * chi(n, x)

    def test_no_overflow_at_large_n(self):
        assert np.isfinite(chi(200, 1.3))
        assert abs(chi(200, 1.3)) < 1.0

    def test_matches_hermite_oracle(self):
        xs = np.linspace(-5.0, 5.0, 101)
        for n in range(61):
            norm = math.sqrt(math.sqrt(math.pi) * 2**n * math.factorial(n))
            expected = hermite(n, xs) * np.exp(-xs * xs / 2.0) / norm
            assert np.abs(chi(n, xs) - expected).max() < 1e-14

    def test_memory_does_not_grow_with_n(self):
        # the recurrence keeps two rows live, not a table of n + 1 planes
        axis = np.linspace(-4.0, 4.0, 401)
        plane = np.add.outer(axis, axis)
        peaks = []
        for n in (1, 40):
            tracemalloc.start()
            chi(n, plane)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]
        assert peaks[1] < 6 * plane.nbytes

    def test_far_tails_are_zero_without_overflow(self):
        # x * x overflows past |x| ~ 1.3e154 and sqrt(2) x past 1.27e308; the seed exp(-x^2/2) is 0 there,
        # and a nan next to them stays nan without switching the clip off
        rows = chi_batch(5, np.array([-1e300, -1e154, 1.0, 1e200, 1.7e308, np.nan, np.inf]))
        assert np.array_equal(rows[:, 2], chi_batch(5, 1.0)[:, 0])
        assert not rows[:, [0, 1, 3, 4, 6]].any() and np.isnan(rows[:, 5]).all()
        assert chi(0, 1e300) == 0.0

    @pytest.mark.parametrize("n", [0, 3])
    def test_squeezed_state_at_far_and_infinite_coordinates_is_zero(self, n):
        # inf - inf in the light-cone squeeze, or its overflow, used to warn; the Gaussian's limit is 0, and nan stays nan
        inf = math.inf
        for x, y in [(inf, 0.0), (0.0, -inf), (inf, inf), (-inf, inf), (1e300, -1e300), (1.7e308, 0.0)]:
            for eta in (0.5, -25.0, 25.0):
                assert squeezed_wavefunction(n, eta, x, y) == 0.0
        value = squeezed_wavefunction(n, 0.5, np.array([inf, 1.0, np.nan, -inf]), np.array([0.0, 0.0, inf, np.nan]))
        assert value[0] == 0.0 and np.isnan(value[2:]).all()
        assert value[1] == squeezed_wavefunction(n, 0.5, 1.0, 0.0) != 0.0

    def test_bare_matches_weighted(self, bare_row):
        xs = np.linspace(-4, 4, 9)
        assert np.allclose(bare_row(5, xs) * np.exp(-xs * xs / 2), chi(5, xs), atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(11, N_MAX), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @example(N_MAX, [0.0, 0.5, 1.0])
    def test_matches_mpmath_up_to_the_basis_bound(self, n, fractions):
        # 0 to 6 past the turning point sqrt(2n + 1), where chi_n falls below 1e-16 (n = 11) to 1e-30 (n = 256)
        xs = np.array(fractions) * (math.sqrt(2 * n + 1) + 6.0)
        with mpmath.workdps(40):
            norm = mpmath.sqrt(mpmath.sqrt(mpmath.pi) * 2**n * mpmath.factorial(n))
            exact = [float(mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm) for x in map(mpmath.mpf, xs)]
        assert np.abs(chi(n, xs) - exact).max() <= 1e-14

    def test_table_is_charged_before_the_first_row(self):
        # 101 rows of 1e8 points would be 75 GiB; the guard must refuse before the seed row exists
        x = np.broadcast_to(0.0, (10**8,))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"chi_100 at 100000000 points needs up to 75\.3 GiB"):
                chi_batch(100, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_orthonormal_up_to_cutoff(self):
        # chi_256 turns at sqrt(513) ~ 22.6 and is below 1e-100 by |x| = 32; products
        # chi_m chi_n have spectra inside |k| < 46, below the lattice's Nyquist pi / 0.05,
        # so the lattice sum is the integral to rounding
        h = 0.05
        x = np.arange(-32.0, 32.0 + h / 2, h)
        table = chi_batch(N_MAX, x)
        gram = h * table @ table.T
        assert np.abs(gram - np.eye(N_MAX + 1)).max() < 1e-12


def generating_function(r, z):
    """exp(-r^2 + 2 r z), whose Taylor coefficients in r are H_m(z)/m!."""
    return math.exp(-r * r + 2.0 * r * z)


class TestGeneratingFunction:
    def test_zero_r(self):
        assert generating_function(0.0, 2.3) == 1.0

    def test_zero_z(self):
        assert generating_function(0.3, 0.0) == pytest.approx(math.exp(-0.09), rel=1e-15)

    def test_partial_sums_converge(self):
        r, z = 0.4, 1.1
        total = sum(r**m * hermite(m, z) / math.factorial(m) for m in range(41))
        assert abs(total - generating_function(r, z)) < 1e-12


class TestQuadrature:
    def test_second_moment(self):
        rule = quadrature(10)
        value = rule.weights @ (np.array(rule.nodes) ** 2)
        assert value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-13)

    def test_weight_sum_is_sqrt_pi(self):
        for order in (20, 40, 64):
            rule = quadrature(order)
            assert np.sum(rule.weights) == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_chi2_normalization(self, bare_row):
        rule = quadrature(64)
        bare = chi_batch(4, rule.nodes)
        bare = bare_row(2, rule.nodes)
        assert rule.weights @ (bare * bare) == pytest.approx(1.0, abs=1e-12)

    def test_chi2_chi4_orthogonal(self, bare_row):
        rule = quadrature(64)
        assert rule.weights @ (bare_row(2, rule.nodes) * bare_row(4, rule.nodes)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_orthonormality_matrix(self):
        rule = quadrature(40)
        table = chi_batch(12, rule.nodes) * np.exp(np.array(rule.nodes) ** 2 / 2.0)
        gram = (table * rule.weights) @ table.T
        assert np.abs(gram - np.eye(13)).max() < 1e-10

    def test_bad_order(self):
        with pytest.raises(DomainError):
            quadrature(1)

    def test_rule_is_built_once_per_order(self):
        assert quadrature(64) is quadrature(64) is quadrature(64.0)
        # the argument is checked before the cache is asked, so a value merely equal to 64 is still refused
        with pytest.raises(DomainError):
            quadrature(64 + 0j)

    def test_recurrence_refuses_rows_past_its_table(self):
        assert len(_STEPS) == max(N_MAX, QUAD_ORDER_MAX)
        assert len(list(_chi_rows(len(_STEPS), 0.5, 1.0))) == len(_STEPS) + 1
        with pytest.raises(CutoffError, match=f"row {len(_STEPS) + 1} is past"):
            next(_chi_rows(len(_STEPS) + 1, 0.5, 1.0))

    def test_matches_hermgauss_at_every_order(self):
        # numpy's companion-matrix rule is the reference: nodes to 1e-14 absolute, weights to 1e-12 relative
        for order in range(2, QUAD_ORDER_MAX + 1):
            rule = quadrature(order)
            nodes, weights = hermgauss(order)
            assert isinstance(rule.nodes, tuple) and isinstance(rule.weights, tuple)
            assert np.abs(np.array(rule.nodes) - nodes).max() <= 1e-14, order
            assert (np.abs(np.array(rule.weights) - weights) / weights).max() <= 1e-12, order

    @pytest.mark.parametrize("order", [2, 3, 10, 64, 201, QUAD_ORDER_MAX])
    def test_even_moments_are_gamma(self, order):
        # sum w x^2k = Gamma(k + 1/2), exact for 2k <= 2 order - 1; odd moments vanish by symmetry
        rule = quadrature(order)
        for k in range(min(order, 12)):
            moment = math.fsum(w * x ** (2 * k) for x, w in zip(rule.nodes, rule.weights))
            assert moment == pytest.approx(math.gamma(k + 0.5), rel=1e-14), k
            assert math.fsum(w * x ** (2 * k + 1) for x, w in zip(rule.nodes, rule.weights)) == 0.0

    def test_order_cap(self):
        # QUAD_ORDER_MAX is the last order whose smallest weight is a normal double
        rule = quadrature(QUAD_ORDER_MAX)
        assert rule.order == QUAD_ORDER_MAX
        assert min(rule.weights) >= np.finfo(float).tiny
        for order in (QUAD_ORDER_MAX + 1, 1000, math.inf, math.nan):
            with pytest.raises(DomainError, match=f"in \\[2, {QUAD_ORDER_MAX}\\]"):
                quadrature(order)
