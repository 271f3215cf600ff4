"""Schmidt coefficients, the series-vs-Gaussian identity, and residuals."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entosc import CutoffError, DomainError, entangled_series
from entosc.entangled_series import (
    TERM_CAP,
    EigenvalueResidual,
    coefficient,
    coefficient_by_quadrature,
    eigenvalue_residual,
    normalization_check,
    schmidt_series,
    series_sum,
    squeezed_wavefunction,
    unnormalized_series_ratio,
)
from entosc.oscillator_basis import chi_bare, quadrature

LN2 = math.log(2.0)


def gaussian_oracle(eta, x, y):
    """Direct evaluation of the squeezed ground-state Gaussian."""
    return (1.0 / math.sqrt(math.pi)) * np.exp(
        -0.25 * (np.exp(-2 * eta) * (x + y) ** 2 + np.exp(2 * eta) * (x - y) ** 2)
    )


class TestSqueezedWavefunction:
    def test_no_squeeze_factorizes(self):
        x, y = 0.7, -1.2
        expected = (1.0 / math.sqrt(math.pi)) * math.exp(-0.5 * (x * x + y * y))
        assert squeezed_wavefunction(0, 0.0, x, y) == pytest.approx(expected, rel=1e-14)

    def test_origin_is_fixed_point(self):
        for eta in (0.0, 0.8, 2.0):
            assert squeezed_wavefunction(0, eta, 0.0, 0.0) == pytest.approx(
                1.0 / math.sqrt(math.pi), rel=1e-14
            )

    def test_against_direct_gaussian(self):
        assert squeezed_wavefunction(0, 0.5, 1.0, 0.3) == pytest.approx(
            float(gaussian_oracle(0.5, 1.0, 0.3)), rel=1e-13
        )


class TestCoefficient:
    def test_unsqueezed_ground_state(self):
        assert coefficient(0, 0, 0.0) == 1.0
        assert coefficient(0, 3, 0.0) == 0.0

    def test_exact_rationals_at_log_two(self):
        # tanh(ln 2) = 3/5, cosh(ln 2) = 5/4
        assert coefficient(0, 0, LN2) == pytest.approx(0.8, abs=1e-15)
        assert coefficient(0, 1, LN2) == pytest.approx(0.48, abs=1e-15)
        assert coefficient(0, 2, LN2) == pytest.approx(0.288, abs=1e-15)

    def test_negative_rapidity_alternates(self):
        for k in range(5):
            assert coefficient(1, k, -0.7) == pytest.approx(
                (-1.0) ** k * coefficient(1, k, 0.7), rel=1e-14
            )

    def test_log_domain_matches_direct(self):
        # n + k = 30 straddles the exact-binomial threshold
        direct = math.sqrt(math.comb(30, 12)) * math.tanh(0.9) ** 12 / math.cosh(0.9) ** 19
        assert coefficient(18, 12, 0.9) == pytest.approx(direct, rel=1e-12)

    @given(
        st.integers(0, 6),
        st.integers(0, 20),
        st.floats(0.05, 2.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_ratio_law(self, n, k, eta):
        ratio = coefficient(n, k + 1, eta) / coefficient(n, k, eta)
        expected = math.tanh(eta) * math.sqrt((n + k + 1) / (k + 1))
        assert ratio == pytest.approx(expected, rel=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            coefficient(-1, 0, 0.5)
        with pytest.raises(DomainError):
            coefficient(0, 0, 30.0)


class TestCoefficientQuadrature:
    def test_orthonormality_at_zero(self):
        assert coefficient_by_quadrature(0, 0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_k0_closed_form(self):
        assert coefficient_by_quadrature(1, 0, 0.8) == pytest.approx(
            1.0 / math.cosh(0.8) ** 2, abs=1e-9
        )

    def test_k2_closed_form(self):
        assert coefficient_by_quadrature(0, 2, 0.5) == pytest.approx(
            math.tanh(0.5) ** 2 / math.cosh(0.5), abs=1e-9
        )

    def test_matches_closed_form(self):
        assert coefficient_by_quadrature(2, 3, 0.9) == pytest.approx(
            coefficient(2, 3, 0.9), abs=1e-8
        )
        # the shared light-cone grid is the hand-built one, bit for bit
        c, s, rule = math.cosh(0.9), math.sinh(0.9), quadrature(64)
        u = rule.nodes[:, None] / math.sqrt(c * math.exp(-0.9))
        v = rule.nodes[None, :] / math.sqrt(c * math.exp(0.9))
        x, y = (u + v) / math.sqrt(2.0), (u - v) / math.sqrt(2.0)
        poly = chi_bare(5, x) * chi_bare(3, y) * chi_bare(2, c * x - s * y) * np.pi**-0.25
        w2 = rule.weights[:, None] * rule.weights[None, :]
        assert coefficient_by_quadrature(2, 3, 0.9) == float(np.sum(w2 * poly) / c)

    def test_budget(self):
        with pytest.raises(DomainError):
            coefficient_by_quadrature(30, 30, 0.5)


class TestSeriesSum:
    def test_single_term_at_zero(self):
        x, y = 0.3, -0.4
        assert series_sum(0, 0.0, x, y) == squeezed_wavefunction(0, 0.0, x, y)

    def test_matches_squeezed_gaussian(self):
        val = series_sum(0, 0.6, 0.5, -0.2, tol=1e-10)
        assert val == pytest.approx(squeezed_wavefunction(0, 0.6, 0.5, -0.2), abs=1e-8)

    def test_excited_state(self):
        val = series_sum(3, 0.4, 1.0, 1.0, tol=1e-10)
        assert val == pytest.approx(squeezed_wavefunction(3, 0.4, 1.0, 1.0), abs=1e-8)

    def test_parity(self):
        for n in (0, 1, 2, 3):
            plus = series_sum(n, 0.5, 0.7, 0.2)
            minus = series_sum(n, 0.5, -0.7, -0.2)
            assert minus == pytest.approx((-1.0) ** n * plus, rel=1e-10, abs=1e-12)

    def test_cutoff_error_near_rapidity_bound(self):
        with pytest.raises(CutoffError):
            series_sum(0, 5.0, 0.0, 0.0, tol=1e-14)

    def test_cutoff_error_before_any_coefficient(self, monkeypatch):
        def never(*args):
            raise AssertionError("built a coefficient")

        monkeypatch.setattr(entangled_series, "coefficient", never)
        with pytest.raises(CutoffError, match=r"needs K >= 2\.249e\+05"):
            series_sum(0, 5.0, 0.0, 0.0, tol=1e-14)

    @given(
        st.integers(0, 5),
        st.floats(-1.3, 1.3, allow_nan=False),
        st.lists(st.floats(-7.0, 7.0, allow_nan=False), min_size=1, max_size=12),
        st.lists(st.floats(-7.0, 7.0, allow_nan=False), min_size=1, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_open_mesh_equals_dense_mesh(self, n, eta, xs, ys):
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        Xo, Yo = np.meshgrid(xs, ys, indexing="ij", sparse=True)
        dense = series_sum(n, eta, X, Y)
        open_mesh = series_sum(n, eta, Xo, Yo)
        assert open_mesh.shape == dense.shape
        assert np.array_equal(open_mesh, dense)

    @given(
        st.integers(0, 5),
        st.floats(-1.3, 1.3, allow_nan=False),
        st.floats(-6.0, 0.0, allow_nan=False),
        st.floats(0.5, 6.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_squeezed_gaussian_on_planes(self, n, eta, lo, width):
        axis = np.linspace(lo, lo + width, 33)
        X, Y = np.meshgrid(axis, axis, indexing="ij", sparse=True)
        dev = np.abs(series_sum(n, eta, X, Y, tol=1e-10) - squeezed_wavefunction(n, eta, X, Y)).max()
        assert dev <= 1e-10

    def test_open_mesh_tables_stay_on_the_axes(self):
        # 161 x 161 at K = 103: dense tables would hold 210 * 161^2 doubles (~42 MiB)
        axis = np.linspace(-4.0, 4.0, 161)
        X, Y = np.meshgrid(axis, axis, indexing="ij", sparse=True)
        tracemalloc.start()
        try:
            series_sum(3, 1.0, X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("eta", [20.0, -20.0, 25.0])
    def test_rounded_tanh_raises_cutoff_error(self, eta):
        # tanh|eta| rounds to 1.0, which used to end in log(0)
        with pytest.raises(CutoffError, match=r"needs K >= [0-9.]+e\+(18|2[0-9])"):
            series_sum(0, eta, 0.0, 0.0)


class TestSchmidtSeries:
    def test_probability_budget(self):
        for n, eta in [(0, 0.5), (2, 1.0), (4, 0.3)]:
            ser = schmidt_series(n, eta, tol=1e-12)
            total = float(np.sum(ser.coeffs**2))
            assert total <= 1.0 + 1e-12
            assert total + ser.tail_bound >= 1.0 - 1e-12

    def test_positive_and_decaying_for_ground_state(self):
        ser = schmidt_series(0, 0.9, tol=1e-12)
        assert np.all(ser.coeffs > 0)
        assert np.all(np.diff(ser.coeffs) < 0)


class TestNormalization:
    def test_no_squeeze(self):
        assert normalization_check(0, 0.0) == 1.0

    def test_geometric(self):
        assert normalization_check(0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_negative_binomial(self):
        assert normalization_check(5, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_long_tail_is_summed(self):
        # about 2.4e5 terms at tanh^2 = 0.99982
        assert normalization_check(0, 5.0) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("eta", [10.0, -20.0])
    def test_term_count_past_cap_raises(self, eta):
        # eta = 10 used to return 0.00165 after 200000 terms
        with pytest.raises(CutoffError, match=r"needs K >= [0-9.]+e\+(09|1[0-9]) terms"):
            normalization_check(0, eta)


class TestUnnormalizedRatio:
    def test_zero(self):
        assert unnormalized_series_ratio(0.0) == 1.0

    def test_log_two(self):
        assert unnormalized_series_ratio(LN2) == pytest.approx(1.25, abs=1e-12)

    @given(st.floats(-6.0, 6.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_matches_cosh_below_cap(self, eta):
        # 1 / (1 - tanh^2) amplifies the rounding of tanh^2 by about cosh^2
        rel = 4e-16 * math.cosh(eta) ** 2 + 1e-15
        assert unnormalized_series_ratio(eta) == pytest.approx(math.cosh(eta), rel=rel)

    def test_rounded_tanh_raises_fast(self):
        # tanh(20) rounds to 1.0: the old loop never ended
        started = time.perf_counter()
        with pytest.raises(CutoffError, match=rf"needs K >= [0-9.]+e\+18 terms, past the cap .* <= {TERM_CAP}"):
            unnormalized_series_ratio(20.0)
        assert time.perf_counter() - started < 0.05

    def test_quadrature_norm_oracle(self):
        # || sum_k t^k chi_k chi_k || by two-dimensional quadrature
        eta, kmax = 0.5, 40
        t = math.tanh(eta)
        rule = quadrature(64)
        bx = np.array([chi_bare(k, rule.nodes) for k in range(kmax + 1)])
        weights_t = t ** np.arange(kmax + 1)
        g_bare = np.einsum("k,ki,kj->ij", weights_t, bx, bx)
        norm_sq = float(rule.weights @ (g_bare * g_bare) @ rule.weights)
        assert unnormalized_series_ratio(eta) == pytest.approx(math.sqrt(norm_sq), abs=1e-8)


class TestEigenvalueResidual:
    def test_ground_state(self):
        res = eigenvalue_residual(0, 0.0, half_width=3.0, spacing=0.02)
        assert isinstance(res, EigenvalueResidual)
        assert res.eigenvalue == 0
        assert res.value < 1e-6

    def test_excited_state(self):
        res = eigenvalue_residual(2, 0.0)
        assert res.eigenvalue == 2
        assert res.value <= 1e-4

    def test_boost_invariance(self):
        res = eigenvalue_residual(2, 0.7)
        assert res.eigenvalue == 2
        assert res.value <= 1e-4

    def test_nonzero_m(self):
        res = eigenvalue_residual(1, 0.3, m=1, half_width=4.0, spacing=0.02)
        assert res.eigenvalue == 0
        assert res.value < 1e-5

    def test_second_order_stencil(self):
        res = eigenvalue_residual(1, 0.0, half_width=4.0, spacing=0.005, stencil_order=2)
        assert res.value < 1e-3

    def test_coarse_grid_warning(self):
        res = eigenvalue_residual(0, 2.0, half_width=4.0, spacing=0.1)
        assert res.warning is not None

    def test_stencil_validation(self):
        with pytest.raises(DomainError):
            eigenvalue_residual(0, 0.0, stencil_order=3)
