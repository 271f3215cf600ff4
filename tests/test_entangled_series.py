"""Schmidt coefficients, the series-vs-Gaussian identity, and residuals."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from hypothesis import assume, example, given, settings, strategies as st

from entosc import CutoffError, DomainError, entangled_series, oscillator_basis, reduced_state
from entosc.entangled_series import (
    EigenvalueResidual,
    coefficient,
    coefficient_by_quadrature,
    eigenvalue_residual,
    identity_check,
    schmidt_series,
    series_sum,
    squeezed_wavefunction,
    _CHI_PAIR_SUP,
    _log_cosh,
    _log_tanh,
)
from entosc.oscillator_basis import N_MAX, quadrature
from entosc.reduced_state import TERM_CAP, entropy, reduced_density

LN2 = math.log(2.0)


def gaussian_oracle(eta, x, y):
    """Direct evaluation of the squeezed ground-state Gaussian."""
    return (1.0 / math.sqrt(math.pi)) * np.exp(
        -0.25 * (np.exp(-2 * eta) * (x + y) ** 2 + np.exp(2 * eta) * (x - y) ** 2)
    )


def chi_mp(n, x):
    """chi_n(x) in mpmath arithmetic at the working precision."""
    norm = mpmath.sqrt(mpmath.sqrt(mpmath.pi) * 2**n * mpmath.factorial(n))
    return mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm


def walk_cutoff(n, eta, tol):
    """Reference K for schmidt_series: one closed-form `coefficient` per k from the seed K0, None past N_MAX."""
    t = math.tanh(abs(eta))
    k = max(math.ceil((math.log(tol) - 2.0 * _log_cosh(eta)) / (2.0 * _log_tanh(abs(eta)))), 8)
    while n + k <= N_MAX:
        r = t * math.sqrt((n + k + 1.0) / (k + 1.0))
        if r < 1.0 and abs(coefficient(n, k, eta)) * _CHI_PAIR_SUP * r / (1.0 - r) <= tol:
            return k
        k += 1
    return None


def coefficients_mp(n, eta, kmax):
    """A_0(n)..A_kmax(n) at eta in 50-digit arithmetic, by the exact ratio A_{k+1}/A_k = t sqrt((n+k+1)/(k+1))."""
    with mpmath.workdps(50):
        t, a, out = mpmath.tanh(eta), mpmath.cosh(eta) ** -(n + 1), []
        for k in range(kmax + 1):
            out.append(a)
            a *= t * mpmath.sqrt(mpmath.mpf(n + k + 1) / (k + 1))
    return out


def probability_tail(n, eta, k):
    """sum_{j>k} A_j(n)^2 as a long lgamma sum, stopped once a term falls below 1e-30 of the first."""
    log_q, log_c = 2.0 * math.log(math.tanh(eta)), -2.0 * (n + 1) * math.log(math.cosh(eta))
    terms, j = [], k + 1
    while not terms or terms[-1] >= 1e-30 * terms[0]:
        terms.append(math.exp(math.lgamma(n + j + 1) - math.lgamma(n + 1) - math.lgamma(j + 1) + j * log_q + log_c))
        j += 1
    return math.fsum(terms)


def normalization(n, eta):
    """sum_k A_k(n)^2 over the library's probability table with a tail below 1e-18 (contract: equals 1)."""
    return float(np.sum(reduced_density(n, eta, 1e-18).probs))


def unnormalized_series_ratio(eta):
    """Norm sqrt(sum_k t^2k) of the bare series sum_k tanh^k chi_k chi_k, which is cosh(eta).

    The bare exponential of the two-mode raising bilinear produces the series
    without its 1/cosh prefactor.  Its terms t^2k are the n = 0 probabilities
    over 1 - t^2, so summing them to the K of the library's table at tol 1e-18
    leaves a relative tail below 1e-18.
    """
    q = math.tanh(eta) ** 2
    return math.sqrt(float(np.sum(q ** np.arange(reduced_density(0, eta, 1e-18).cutoff + 1.0))))


def probability_seed(n, eta, tol):
    """The probability sums' seed K0 = max(32, ceil((log tol - 2 (n + 1) log cosh eta) / log tanh^2 eta))."""
    return max(32, math.ceil((math.log(tol) - 2.0 * (n + 1) * _log_cosh(eta)) / (2.0 * _log_tanh(eta))))


@pytest.fixture
def log_binoms(monkeypatch):
    """The ks of the log binomials the package forms during the test: (array tables, float terms).

    The one `_log_binom` takes an array k from the numpy tables and an int k
    from the float cutoff search and the float identity route, so the type of k tells the two apart.
    """
    built, walked, log_binom = [], [], entangled_series._log_binom

    def spy(n, k, *log1p):
        if isinstance(k, np.ndarray):
            built.append(np.max(k))
        else:
            walked.append(k)
        return log_binom(n, k, *log1p)

    monkeypatch.setattr(reduced_state, "_log_binom", spy)  # `_log_table`, and `_log_prob` (`_cutoff`, float route)
    monkeypatch.setattr(entangled_series, "_log_binom", spy)  # `coefficient`
    return built, walked


@pytest.fixture
def built(log_binoms):
    """The largest k of each log-term array table the package builds during the test."""
    return log_binoms[0]


@pytest.fixture
def walked(log_binoms):
    """Each k whose log binom(n + k, k) the float cutoff search and the float identity route form during the test."""
    return log_binoms[1]


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 10),
        st.floats(-25.0, 25.0),
        st.booleans(),
        st.floats(-4.0, 4.0),
        st.floats(-4.0, 4.0),
    )
    def test_matches_mpmath_across_the_domain(self, n, eta, long_axis, a, b):
        # on the long axis (x + y)/2 = a e^eta and (x - y)/2 = b e^-eta, so x' = a + b and y' = a - b stay O(1)
        # while cosh(eta) x and sinh(eta) y are of size e^{2|eta|}; past |eta| ~ 18 only x == y stays on it in floats
        x, y = (a * math.exp(eta) + b * math.exp(-eta), a * math.exp(eta) - b * math.exp(-eta)) if long_axis else (a, b)
        with mpmath.workdps(60):
            c, s, X, Y = mpmath.cosh(eta), mpmath.sinh(eta), mpmath.mpf(x), mpmath.mpf(y)
            exact = chi_mp(n, c * X - s * Y) * chi_mp(0, c * Y - s * X)
            assert abs(squeezed_wavefunction(n, eta, x, y) - exact) <= 1e-15


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 60 - n))),
        # log-uniform magnitudes reach the small rapidities, where k ln tanh(eta) is large
        st.one_of(st.floats(-1.5, 1.5), st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-12.0, 0.17)).map(
            lambda sx: sx[0] * 10.0 ** sx[1]
        )),
    )
    def test_matches_mpmath(self, nk, eta):
        # log binom(n + k, k) as a log1p sum, not lgamma's difference, which lost up to 2e-13 here
        n, k = nk
        with mpmath.workdps(50):
            e = mpmath.mpf(abs(eta))
            exact = mpmath.sqrt(mpmath.binomial(n + k, k)) * mpmath.tanh(e) ** k / mpmath.cosh(e) ** (n + 1)
        exact = float(exact) * (-1.0 if eta < 0 and k % 2 else 1.0)
        # relative wherever the coefficient is a normal double
        assert coefficient(n, k, eta) == pytest.approx(exact, rel=5e-14, abs=sys.float_info.min)

    def test_loads_no_numpy(self):
        # log binom(n + k, k) is `_log_binom`'s log1p sum in math, also where n + k >= 20 and past _LOG1P_TERMS
        probe = (
            "import sys\nfrom entosc.entangled_series import coefficient\n"
            "print(coefficient(10, 15, 0.5) > 0.0, coefficient(5000, 20000, 0.7) >= 0.0, 'numpy' in sys.modules)\n"
        )
        src = str(Path(entangled_series.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True True False\n"

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

    def test_matches_closed_form(self, bare_row):
        assert coefficient_by_quadrature(2, 3, 0.9) == pytest.approx(
            coefficient(2, 3, 0.9), abs=1e-8
        )
        value = coefficient_by_quadrature(2, 3, 0.9)
        a, b = 0.5 * (1.0 + math.exp(-1.8)), 0.5 * (1.0 + math.exp(1.8))
        # the light-cone overlap kernel as numpy computed it, on hermgauss's rule and summed by np.sum
        nodes, weights = hermgauss(64)
        u = nodes[:, None] / math.sqrt(2.0 * a)
        v = nodes[None, :] / math.sqrt(2.0 * b)
        eu, ev = math.exp(-0.9) * u, math.exp(0.9) * v
        w2 = weights[:, None] * weights[None, :]
        poly = w2 * bare_row(5, u + v) * bare_row(3, u - v) * bare_row(2, eu + ev) * np.pi**-0.25
        assert abs(value - float(np.sum(poly) / math.sqrt(a * b))) <= 1e-15
        # the plain-Python kernel written out, bit for bit: the library's rule, the order^2 products
        # summed exactly by fsum, and the one index-0 seed pi^-1/4 applied to the sum
        rule = quadrature(64)
        u = np.array(rule.nodes)[:, None] / math.sqrt(2.0 * a)
        v = np.array(rule.nodes)[None, :] / math.sqrt(2.0 * b)
        eu, ev = math.exp(-0.9) * u, math.exp(0.9) * v
        w2 = np.array(rule.weights)[:, None] * np.array(rule.weights)[None, :]
        terms = w2 * bare_row(5, u + v) * bare_row(3, u - v) * bare_row(2, eu + ev)
        assert value == math.fsum(terms.ravel()) * math.pi**-0.25 / math.sqrt(a * b)

    @given(st.integers(0, 40), st.integers(0, 40), st.floats(-25.0, 25.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_closed_form_over_the_whole_domain(self, n, k, eta):
        assume(n + k <= 40)
        assert abs(coefficient(n, k, eta) - coefficient_by_quadrature(n, k, eta)) <= 1e-13

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

    def test_result_plane_is_charged_before_the_tables(self):
        # 1e5 points per axis: the tables fit (K = 29), the 1e10-point result would need 74.5 GiB
        x, y = np.broadcast_to(0.0, (10**5, 1)), np.broadcast_to(0.0, (1, 10**5))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"the series sum's result needs up to 74\.5 GiB"):
                series_sum(0, 0.5, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("eta", [20.0, -20.0, 25.0])
    def test_rounded_tanh_raises_cutoff_error(self, eta):
        # tanh|eta| rounds to 1.0, which used to end in log(0)
        with pytest.raises(CutoffError, match=r"needs K >= [0-9.]+e\+(18|2[0-9])"):
            series_sum(0, eta, 0.0, 0.0)


class TestBasisBound:
    def test_squeezed_states_hold_chi_256(self):
        assert math.isfinite(squeezed_wavefunction(N_MAX, 0.3, 0.5, -0.2))
        res = eigenvalue_residual(N_MAX, 0.3, N_MAX, half_width=2.0, spacing=0.1)
        assert res.eigenvalue == 0 and math.isfinite(res.value)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: squeezed_wavefunction(N_MAX + 1, 0.3, 0.5, -0.2), "n"),
            (lambda: squeezed_wavefunction(N_MAX + 1, 0.0, np.zeros(3), 0.0), "n"),
            (lambda: eigenvalue_residual(N_MAX + 1, 0.3, 0, half_width=2.0, spacing=0.1), "n"),
            (lambda: eigenvalue_residual(0, 0.3, N_MAX + 1, half_width=2.0, spacing=0.1), "m"),
        ],
    )
    def test_refuses_chi_257_before_any_work(self, call, name, monkeypatch):
        # `_squeezed` runs the bare recurrence, which holds rows past N_MAX, so each caller checks n and m first
        def never(*args):
            raise AssertionError("formed a squeezed state")

        monkeypatch.setattr(oscillator_basis, "_squeezed", never)
        with pytest.raises(CutoffError, match=rf"^{name}=257 exceeds basis cutoff N_MAX=256$"):
            call()


class TestSchmidtSeries:
    def test_probability_budget(self):
        for n, eta in [(0, 0.5), (2, 1.0), (4, 0.3)]:
            ser = schmidt_series(n, eta, tol=1e-12)
            total = float(np.sum(ser.coeffs**2))
            assert total <= 1.0 + 1e-12
            assert total + ser.tail_bound >= 1.0 - 1e-12

    def test_tail_bound_covers_the_tail(self):
        # the ratio must be p_{K+1}/p_K: p_{K+2}/p_{K+1} gives 0.9917 of the true tail at n = 7, eta = 0.3
        for n in range(8):
            for eta in (0.3, 0.6, 1.0, 1.3):
                ser, rho = schmidt_series(n, eta, tol=1e-10), reduced_density(n, eta)
                for cutoff, bound in ((ser.cutoff, ser.tail_bound), (rho.cutoff, rho.tail_bound)):
                    # at n = 0 the bound is the exact geometric tail, so allow the reference's rounding
                    assert bound >= (1.0 - 1e-9) * probability_tail(n, eta, cutoff), (n, eta, cutoff)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10), st.floats(-1.5, 1.5).filter(bool), st.floats(-14.0, -4.0))
    def test_vector_pass_matches_the_walk_and_mpmath(self, n, eta, log_tol):
        # past the reach (|eta| >~ 1.4 at the small tolerances) both must refuse
        tol = 10.0**log_tol
        cutoff = walk_cutoff(n, eta, tol)
        if cutoff is None:
            with pytest.raises(CutoffError):
                schmidt_series(n, eta, tol)
            return
        ser = schmidt_series(n, eta, tol)
        assert ser.cutoff == cutoff
        for got, exact in zip(ser.coeffs, coefficients_mp(n, eta, cutoff), strict=True):
            assert got == pytest.approx(float(exact), rel=3e-14, abs=1e-15)

    def test_cutoff_error_names_the_least_k_past_the_seed(self):
        # K0 = 153 fits the basis at eta = 1.6, but the amplitude bound holds only past k = 256
        assert walk_cutoff(0, 1.6, 1e-10) is None
        with pytest.raises(CutoffError, match=r"needs K >= 257, so n \+ K exceeds the basis bound 256"):
            schmidt_series(0, 1.6, 1e-10)

    @pytest.mark.parametrize(
        "n, eta, tol",
        [(0, 0.3, 1e-12), (3, 1.0, 1e-10), (0, 1.0, 1e-14), (7, 0.6, 1e-10), (2, -1.3, 1e-10), (10, 0.2, 1e-6)],
    )
    def test_table_stops_at_the_cutoff(self, n, eta, tol, built):
        # the table used to run to k = N_MAX - n whatever K was; the float search finds K, so the array table stops there
        ser = schmidt_series(n, eta, tol)
        assert built and max(built) == ser.cutoff
        # and so do the probability sums, which grew theirs by half a round, to as far as 1.5 K + 8
        built.clear()
        rho = reduced_density(n, eta, tol)
        assert built and max(built) == rho.cutoff

    def test_probability_sums_build_one_table(self, monkeypatch):
        # K = 65: the rounds k0, 1.5 k0 + 8, ... used to build a table to 63 and then another to 102
        tables, log_table = [], reduced_state._log_table

        def spy(n, eta, hi):
            tables.append(hi)
            return log_table(n, eta, hi)

        monkeypatch.setattr(reduced_state, "_log_table", spy)
        assert reduced_density(1, 1.0, 1e-14).cutoff == 65
        assert tables == [65]

    @pytest.mark.parametrize(
        "call, last",
        [
            # the seed fits, no k within the basis does: the float search checks the bound alone
            (lambda: schmidt_series(0, 1.6, 1e-10), N_MAX),
            (lambda: schmidt_series(3, 3.0, 1e-10), None),  # the seed alone passes the basis bound: no term is formed
            # the seed 117 fits the cap at n = 50000, the mean k ~ 505 does not; tables to 117 and 166 were built
            (lambda: reduced_density(50000, math.atanh(0.1)), TERM_CAP // 50001 - 1),
            (lambda: entropy(0, 10.0), None),
        ],
    )
    def test_refusals_build_nothing_past_the_bound(self, call, last, built, walked):
        # the series and the probability sums both refuse from the float search, before any array table
        with pytest.raises(CutoffError):
            call()
        assert built == []
        assert (max(walked) == last) if last is not None else (walked == [])

    def test_cutoff_forms_only_the_search_probes(self, walked):
        # K = 103: the series and the array identity route used to form 112 float terms, the probes and then A_0..A_K
        probes, K = 2 + math.ceil(math.log2(N_MAX)), 103
        assert schmidt_series(3, 1.0, 1e-10).cutoff == K and 0 < len(walked) <= probes
        walked.clear()
        assert identity_check(3, 1.0, -4, 4, 0.05, 1e-10)[2:] == (K, "arrays") and 0 < len(walked) <= probes
        walked.clear()
        # the float route forms A_0..A_K itself, after the search's probes
        assert identity_check(3, 1.0, -4, 4, 0.25, 1e-10)[2:] == (K, "floats")
        assert walked[-(K + 1) :] == list(range(K + 1)) and len(walked) <= probes + K + 1

    def test_basis_bound_holds_at_zero_rapidity(self, built, walked):
        # A_0 = 1 alone, but chi_n itself must fit the basis: n = 257 used to return a one-term series
        assert schmidt_series(N_MAX, 0.0).cutoff == 0
        with pytest.raises(CutoffError, match=r"n=257, eta=0.0, .* needs K >= 0, so n \+ K exceeds the basis bound 256"):
            schmidt_series(N_MAX + 1, 0.0)
        assert walked == []

    def test_positive_and_decaying_for_ground_state(self):
        ser = schmidt_series(0, 0.9, tol=1e-12)
        assert np.all(ser.coeffs > 0)
        assert np.all(np.diff(ser.coeffs) < 0)


class TestNormalization:
    def test_no_squeeze(self):
        assert normalization(0, 0.0) == 1.0

    def test_geometric(self):
        assert normalization(0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_negative_binomial(self):
        assert normalization(5, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_long_tail_is_summed(self):
        # about 2.4e5 terms at tanh^2 = 0.99982
        assert normalization(0, 5.0) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("eta", [10.0, -20.0])
    def test_term_count_past_cap_raises(self, eta):
        # eta = 10 used to return 0.00165 after 200000 terms
        for fn in (lambda: reduced_density(0, eta, 1e-18), lambda: entropy(0, eta)):
            with pytest.raises(CutoffError, match=r"needs K >= [0-9.]+e\+(09|1[0-9]) terms"):
                fn()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 8), st.floats(0.05, 2.0), st.floats(-20.0, -6.0))
    @example(1, 1.0, -14.0)  # K = 65, where the table rounds k0, 1.5 k0 + 8, ... once stopped at 102
    def test_cutoff_is_certified_and_least(self, n, eta, log_tol):
        # K is the first k past the seed whose geometric tail bound is below tol, not a later point of a walk
        tol = 10.0**log_tol
        rho = reduced_density(n, eta, tol)
        K, q, seed = rho.cutoff, math.tanh(eta) ** 2, probability_seed(n, eta, tol)
        assert probability_tail(n, eta, K) <= tol * (1.0 + 1e-9)
        assert K >= seed
        if K > seed:
            r = q * (n + K) / K  # p_K / p_{K-1}
            assert r >= 1.0 or rho.probs[K - 1] * r / (1.0 - r) > tol


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
        for fn in (lambda: reduced_density(0, 20.0, 1e-18), lambda: entropy(0, 20.0)):
            started = time.perf_counter()
            with pytest.raises(CutoffError, match=rf"needs K >= [0-9.]+e\+18 terms, past the cap .* <= {TERM_CAP}"):
                fn()
            assert time.perf_counter() - started < 0.05

    def test_quadrature_norm_oracle(self, bare_row):
        # || sum_k t^k chi_k chi_k || by two-dimensional quadrature
        eta, kmax = 0.5, 40
        t = math.tanh(eta)
        rule = quadrature(64)
        bx = np.array([bare_row(k, rule.nodes) for k in range(kmax + 1)])
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

    def test_coarse_grid_warning(self):
        res = eigenvalue_residual(0, 2.0, half_width=4.0, spacing=0.1)
        assert res.warning is not None

    def test_peak_memory_is_six_planes(self):
        # the budget charges 6 planes of the default 1001^2 grid; dense coordinate meshes would add two
        eigenvalue_residual(2, 0.5, spacing=0.1)  # load the lazy imports outside the trace
        tracemalloc.start()
        try:
            eigenvalue_residual(2, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 8 * 1001**2
