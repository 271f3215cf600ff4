"""Oscillator eigenfunctions, the Hermite oracle, and quadrature."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entosc import CutoffError, DomainError
from entosc.oscillator_basis import (
    N_MAX,
    QUAD_ORDER_MAX,
    _check_index,
    chi,
    chi_bare,
    chi_batch,
    generating_function,
    quadrature,
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
        # x * x overflows past |x| ~ 1.3e154 and sqrt(2) x past 1.27e308; the seed exp(-x^2/2) is 0 there
        rows = chi_batch(5, np.array([-1e300, -1e154, 1.0, 1e200, 1.7e308]))
        assert np.array_equal(rows[:, 2], chi_batch(5, 1.0)[:, 0])
        assert not rows[:, [0, 1, 3, 4]].any()
        assert chi(0, 1e300) == 0.0

    def test_bare_matches_weighted(self):
        xs = np.linspace(-4, 4, 9)
        assert np.allclose(chi_bare(5, xs) * np.exp(-xs * xs / 2), chi(5, xs), atol=1e-14)

    def test_orthonormal_up_to_cutoff(self):
        # chi_256 turns at sqrt(513) ~ 22.6 and is below 1e-100 by |x| = 32; products
        # chi_m chi_n have spectra inside |k| < 46, below the lattice's Nyquist pi / 0.05,
        # so the lattice sum is the integral to rounding
        h = 0.05
        x = np.arange(-32.0, 32.0 + h / 2, h)
        table = chi_batch(N_MAX, x)
        gram = h * table @ table.T
        assert np.abs(gram - np.eye(N_MAX + 1)).max() < 1e-12


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
        value = rule.weights @ (rule.nodes**2)
        assert value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-13)

    def test_weight_sum_is_sqrt_pi(self):
        for order in (20, 40, 64):
            rule = quadrature(order)
            assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_chi2_normalization(self):
        rule = quadrature(64)
        bare = chi_batch(4, rule.nodes)
        bare = chi_bare(2, rule.nodes)
        assert rule.weights @ (bare * bare) == pytest.approx(1.0, abs=1e-12)

    def test_chi2_chi4_orthogonal(self):
        rule = quadrature(64)
        assert rule.weights @ (chi_bare(2, rule.nodes) * chi_bare(4, rule.nodes)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_orthonormality_matrix(self):
        rule = quadrature(40)
        table = chi_batch(12, rule.nodes) * np.exp(rule.nodes**2 / 2.0)
        gram = (table * rule.weights) @ table.T
        assert np.abs(gram - np.eye(13)).max() < 1e-10

    def test_bad_order(self):
        with pytest.raises(DomainError):
            quadrature(1)

    def test_order_cap(self):
        # QUAD_ORDER_MAX is the last order whose rule passes its own check
        assert quadrature(QUAD_ORDER_MAX).order == QUAD_ORDER_MAX
        for order in (QUAD_ORDER_MAX + 1, 1000, math.inf, math.nan):
            with pytest.raises(DomainError, match=f"in \\[2, {QUAD_ORDER_MAX}\\]"):
                quadrature(order)
