"""Reduced density, purity, entropy, and the entanglement temperature map."""

import io
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entosc import CutoffError, DomainError
from entosc.oscillator_basis import chi_batch, quadrature
from entosc.phase_space import squeezed_state_grid
from entosc.reduced_state import (
    TERM_CAP,
    THERMO_CURVE_MAX_STEPS,
    ThermoPoint,
    beta_sq_grid,
    entropy,
    entropy_closed_form,
    eta_for_temperature,
    position_density,
    purity,
    reduced_density,
    temperature,
    thermo_curve,
    width,
    write_thermo_csv,
    _cutoff,
    _log_binom,
    _log_prob,
    _tail,
)

LN2 = math.log(2.0)


def decimal_entropy(eta: float) -> float:
    """2[cosh^2 ln cosh - sinh^2 ln sinh] (n = 0) evaluated with 50 significant digits.

    Below eta = 1 two more digits per decade keep cosh(eta) - 1 ~ eta^2 / 2 resolved.
    """
    if eta == 0.0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 50 + 2 * max(0, -math.floor(math.log10(abs(eta))))
        e = Decimal(abs(eta))
        c = (e.exp() + (-e).exp()) / 2
        s = (e.exp() - (-e).exp()) / 2
        return float(2 * (c * c * c.ln() - s * s * s.ln()))


def eta_of(beta_sq: float) -> float:
    return math.atanh(math.sqrt(beta_sq))


class TestReducedDensity:
    def test_pure_at_zero(self):
        rho = reduced_density(0, 0.0)
        assert rho.probs.tolist() == [1.0]
        assert rho.tail_bound == 0.0

    def test_exact_rationals_at_log_two(self):
        probs = reduced_density(0, LN2).probs
        assert probs[0] == pytest.approx(0.64, abs=1e-14)
        assert probs[1] == pytest.approx(0.2304, abs=1e-14)
        assert probs[2] == pytest.approx(0.082944, abs=1e-14)

    def test_sums_to_one(self):
        rho = reduced_density(2, 1.0, tol=1e-13)
        assert float(rho.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_thermal_form_for_ground_state(self):
        eta = 0.85
        q = math.tanh(eta) ** 2
        rho = reduced_density(0, eta)
        ks = np.arange(rho.cutoff + 1)
        assert np.allclose(rho.probs, (1 - q) * q**ks, rtol=1e-12)

    def test_monotone_decay_for_ground_state(self):
        rho = reduced_density(0, 1.3)
        assert np.all(np.diff(rho.probs) < 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            reduced_density(0, 0.5, tol=0.0)


class TestPurity:
    def test_pure_state(self):
        assert purity(0, 0.0) == 1.0

    def test_closed_form_at_log_two(self):
        # cosh(2 ln 2) = 17/8
        assert purity(0, LN2) == pytest.approx(8.0 / 17.0, abs=1e-12)

    def test_closed_form_across_rapidities(self):
        for eta in np.linspace(0.0, 2.0, 20):
            assert abs(purity(0, eta) - 1.0 / math.cosh(2 * eta)) <= 1e-10

    def test_excited_state_is_more_mixed(self):
        assert purity(1, 0.5) < purity(0, 0.5)
        assert 0.0 < purity(1, 0.5) < 1.0


class TestEntropy:
    def test_zero_at_rest(self):
        assert entropy(0, 0.0) == 0.0
        assert entropy_closed_form(3, 0.0) == 0.0

    def test_unit_sinh_value(self):
        assert entropy(0, math.asinh(1.0)) == pytest.approx(2 * LN2, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("eta", [0.2, 0.6, 1.0, 1.5])
    def test_two_paths_agree(self, n, eta):
        assert abs(entropy(n, eta) - entropy_closed_form(n, eta)) <= 1e-8

    @given(st.integers(0, 4), st.floats(0.0, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_two_paths_agree_across_beta_sq(self, n, beta_sq):
        eta = eta_of(beta_sq)
        assert entropy(n, eta) == pytest.approx(entropy_closed_form(n, eta), rel=1e-12, abs=1e-300)

    @given(st.floats(-25.0, 25.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_against_decimal_reference(self, eta):
        assert entropy_closed_form(0, eta) == pytest.approx(decimal_entropy(eta), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("eta", [20.0, 25.0, 7.6, 1e-8, 0.5])
    def test_closed_form_at_landmarks(self, eta):
        # at eta = 20 the cosh^2 ln cosh - sinh^2 ln sinh form cancels to 0.0
        assert entropy_closed_form(0, eta) == pytest.approx(decimal_entropy(eta), rel=1e-13)

    def test_two_paths_agree_near_the_term_cap(self):
        eta = eta_of(0.99999)  # K ~ 5.8e6 terms, below TERM_CAP
        assert entropy(0, eta) == pytest.approx(entropy_closed_form(0, eta), rel=1e-12)

    def test_index_validation(self):
        for fn in (entropy, entropy_closed_form, reduced_density):
            with pytest.raises(DomainError):
                fn(-1, 0.5)
            with pytest.raises(DomainError):
                fn(1.5, 0.5)

    @pytest.mark.parametrize("n", [-3, 2.5, "x", None])
    def test_index_validation_at_rest(self, n):
        # the eta = 0 shortcut answers only for a valid n
        for fn in (entropy, entropy_closed_form, reduced_density, purity):
            with pytest.raises(DomainError):
                fn(n, 0.0)

    def test_strictly_increasing_in_rapidity(self):
        etas = np.linspace(0.0, 2.0, 15)
        values = [entropy(0, e) for e in etas]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestPositionDensity:
    def test_origin_at_rest(self):
        assert position_density(0.0, 0.0, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_far_and_infinite_coordinates_give_zero(self):
        # (x + r)^2 used to overflow past 1.3e154, and x - r to be inf - inf at x = r = inf, each with a warning
        for x, r in [(1e300, 0.0), (math.inf, math.inf), (-math.inf, math.inf), (1e160, -1e160)]:
            for eta in (0.5, 25.0):
                assert position_density(eta, x, r) == 0.0
        value = position_density(0.5, np.array([math.inf, 0.0, math.nan]), np.array([math.inf, 0.0, 0.0]))
        assert value[0] == 0.0 and value[1] == position_density(0.5, 0.0, 0.0) and np.isnan(value[2])

    def test_diagonal_normalized(self):
        eta = 0.7
        scale = math.sqrt(math.cosh(2 * eta))
        rule = quadrature(64)
        nodes = np.array(rule.nodes)
        # substitute x = scale * u so the Gaussian matches the e^{-u^2} weight
        values = position_density(eta, scale * nodes, scale * nodes)
        integral = scale * float(rule.weights @ (values * np.exp(nodes**2)))
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_mehler_series_oracle(self):
        x, r, eta = 0.4, -0.3, 0.6
        rho = reduced_density(0, eta, tol=1e-16)
        cx = chi_batch(rho.cutoff, np.array([x]))[:, 0]
        cr = chi_batch(rho.cutoff, np.array([r]))[:, 0]
        series_value = float(np.sum(rho.probs * cx * cr))
        assert position_density(eta, x, r) == pytest.approx(series_value, abs=1e-7)

    def test_second_moment_matches_width(self):
        eta = 0.9
        c2 = math.cosh(2 * eta)
        scale = math.sqrt(c2)
        rule = quadrature(64)
        nodes = np.array(rule.nodes)
        values = position_density(eta, scale * nodes, scale * nodes)
        moment = scale * float(
            rule.weights @ ((scale * nodes) ** 2 * values * np.exp(nodes**2))
        )
        assert moment == pytest.approx(c2 / 2.0, rel=1e-10)
        assert width(eta) ** 2 == pytest.approx(c2, rel=1e-15)

    @pytest.mark.parametrize("eta", [0.0, 0.3, -0.5, 0.8])
    def test_is_the_partial_trace_of_the_squeezed_state(self, eta):
        # rho(x, r) = int psi(x, y) psi(r, y) dy over the sampled two-mode state; the trapezoidal sum of a
        # Gaussian that has died out at the lattice's edge is exact to rounding, so every route agrees to ~1e-15
        psi = squeezed_state_grid(eta, half_width=10.0)
        h, x = psi.spacing[0], psi.axis(0)
        trace = h * psi.values @ psi.values.T
        assert np.abs(trace - position_density(eta, x[:, None], x[None, :])).max() <= 1e-14
        # the diagonal's second moment, from the trace and from the closed form, is width^2 / 2
        for diagonal in (np.diag(trace), position_density(eta, x, x)):
            assert h * float(np.sum(x * x * diagonal)) == pytest.approx(width(eta) ** 2 / 2.0, rel=1e-14)


class TestWidth:
    def test_rest_width(self):
        assert width(0.0) == 1.0

    def test_log_two(self):
        assert width(LN2) == pytest.approx(math.sqrt(17.0 / 8.0), rel=1e-14)


class TestTemperature:
    def test_unit_temperature(self):
        eta = math.atanh(math.sqrt(math.exp(-1.0)))
        assert temperature(eta) == pytest.approx(1.0, rel=1e-12)

    def test_fast_hadron(self):
        eta = math.atanh(math.sqrt(0.8))
        assert temperature(eta) == pytest.approx(-1.0 / math.log(0.8), rel=1e-12)

    def test_round_trip(self):
        assert eta_for_temperature(temperature(1.1)) == pytest.approx(1.1, abs=1e-12)

    def test_zero_by_continuity(self):
        assert temperature(0.0) == 0.0
        assert eta_for_temperature(0.0) == 0.0

    @given(st.floats(math.log10(0.05), 21.0))
    @example(math.log10(4.5e15))
    @example(16.0)
    @settings(max_examples=60, deadline=None)
    def test_inverse_matches_decimal_reference(self, log_t):
        # atanh(u) = ln((1 + u) / (1 - u)) / 2 at u = e^{-1/(2T)}, in 60 digits
        T = 10.0**log_t
        with localcontext() as ctx:
            ctx.prec = 60
            u = (-1 / (2 * Decimal(T))).exp()
            ref = float(((1 + u) / (1 - u)).ln() / 2)
        assert eta_for_temperature(T) == pytest.approx(ref, rel=4e-15)

    @given(st.floats(0.0, 25.0, exclude_min=True))
    @example(18.0)  # tanh^2 eta = 1 - 9e-16: -1 / ln(tanh^2 eta) was off by 4.5 %
    @example(19.5)  # tanh^2 eta rounds to one: it divided by zero
    @settings(max_examples=300, deadline=None)
    def test_matches_mpmath_over_the_rapidity_domain(self, eta):
        with mpmath.workdps(40):
            ref = -1 / mpmath.log(mpmath.tanh(mpmath.mpf(eta)) ** 2)
        assert temperature(eta) == pytest.approx(float(ref), rel=1e-15)

    def test_monotone_in_rapidity(self):
        etas = np.linspace(0.1, 2.5, 12)
        values = [temperature(e) for e in etas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_temperature_rejected(self):
        with pytest.raises(DomainError):
            eta_for_temperature(-1.0)


class TestThermoCurve:
    def test_near_one_is_finite_and_monotone(self):
        entropies = [p.entropy for p in thermo_curve([0.999999, 1.0 - 1e-12, 1.0 - 2.0**-53])]
        assert all(math.isfinite(s) for s in entropies)
        assert entropies[0] < entropies[1] < entropies[2]

    def test_rest_point(self):
        point = thermo_curve([0.0])[0]
        assert point == ThermoPoint(beta_sq=0.0, entropy=0.0, temperature=0.0)

    def test_half_beta_sq(self):
        point = thermo_curve([0.5])[0]
        assert point.entropy == pytest.approx(2 * LN2, abs=1e-10)
        assert point.temperature == pytest.approx(1.0 / LN2, rel=1e-12)

    def test_divergence_toward_light_speed(self):
        s = {q: thermo_curve([q])[0].entropy for q in (0.9, 0.99, 0.999)}
        assert s[0.999] > s[0.99] > s[0.9]

    def test_monotone_over_200_points(self):
        points = thermo_curve(np.linspace(0.0, 0.99, 200))
        entropies = [p.entropy for p in points]
        temperatures = [p.temperature for p in points]
        assert all(b > a for a, b in zip(entropies, entropies[1:]))
        assert all(b > a for a, b in zip(temperatures, temperatures[1:]))

    def test_matches_mpmath_up_to_the_largest_q_below_one(self):
        # beta^2 = 1 - 2^-k: a route through eta = atanh(sqrt q) loses the digits of 1 - q (T off by 50 % at k = 53)
        for k in range(1, 54):
            q = 1.0 - 2.0**-k
            point = thermo_curve([q])[0]
            with mpmath.workdps(50):
                exact = mpmath.mpf(q)
                entropy_ref = -mpmath.log1p(-exact) - exact * mpmath.log(exact) / (1 - exact)
                temperature_ref = -1 / mpmath.log(exact)
            assert point.entropy == pytest.approx(float(entropy_ref), rel=3e-16), k
            assert point.temperature == pytest.approx(float(temperature_ref), rel=3e-16), k

    def test_domain(self):
        with pytest.raises(DomainError):
            thermo_curve([1.0])

    def test_grid_refuses_steps_past_the_cap_before_any_point(self):
        # the grid is 32 B a point, so a cap-sized refusal that built it first would peak near 32 MB
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"^steps must be an integer in \[2, {THERMO_CURVE_MAX_STEPS}\]"):
                beta_sq_grid(0.0, 0.5, THERMO_CURVE_MAX_STEPS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert len(beta_sq_grid(0.0, 0.5, THERMO_CURVE_MAX_STEPS)) == THERMO_CURVE_MAX_STEPS

    @pytest.mark.parametrize(
        "lo, hi, name, value",
        [(0.0, 1.5, "beta_sq_max", 1.5), (-0.5, 0.5, "beta_sq_min", -0.5), (0.0, 1.0, "beta_sq_max", 1.0)],
    )
    def test_grid_names_the_end_out_of_range(self, lo, hi, name, value):
        with pytest.raises(DomainError, match=rf"^{name} must lie in \[0, 1\), got {value}$"):
            beta_sq_grid(lo, hi, 3)

    def test_csv_format(self):
        buf = io.StringIO()
        write_thermo_csv(thermo_curve([0.0, 0.5]), buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "beta_sq,entropy_nats,temperature"
        assert lines[1] == "0,0,0"
        assert lines[2].startswith("0.5,1.38629436112,")


def log_binoms(n, ks, log1p):
    """`_log_binom` at each k: one int at a time with math.log1p, one float array with np.log1p."""
    if log1p is math.log1p:
        return [_log_binom(n, k, log1p) for k in ks]
    return _log_binom(n, np.array(ks, dtype=float), log1p).tolist()


class TestLogBinomial:
    @given(
        st.integers(0, 40),
        st.lists(st.integers(0, 10**7), min_size=1, max_size=20),
        st.sampled_from([math.log1p, np.log1p]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_lgamma(self, n, ks, log1p):
        got = log_binoms(n, ks, log1p)
        for value, k in zip(got, ks):
            ref = math.lgamma(n + k + 1) - math.lgamma(n + 1) - math.lgamma(k + 1)
            # the reference rounds at the scale of lgamma(n + k + 1)
            assert abs(value - ref) <= 8 * sys.float_info.epsilon * (math.lgamma(n + k + 1) + 1.0)

    def test_exact_values(self):
        ref = [math.log(math.comb(3 + k, k)) for k in range(6)]
        for log1p in (math.log1p, np.log1p):
            assert np.allclose(log_binoms(3, range(6), log1p), ref, rtol=4 * sys.float_info.epsilon, atol=0.0)
            assert log_binoms(0, range(4), log1p) == [0.0] * 4


def first_fit(n, eta, tol, k0, kmax, power):
    """The first k in [k0, kmax] whose `_tail` of A_k(n)^(2 power) is <= tol, by a linear scan; None if none fits."""
    q, log_p = math.tanh(eta) ** 2, _log_prob(n, eta)
    for k in range(k0, kmax + 1):
        if _tail(n, q, k, math.exp(power * log_p(k)), power) <= tol:
            return k
    return None


class TestCutoffSearch:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 12),
        st.floats(1e-3, 2.5),
        st.floats(-20.0, -4.0),
        st.integers(0, 200),
        st.integers(0, 10**4),
        st.sampled_from((0.5, 1.0)),
    )
    @example(1, 1.0, -14.0, 65, 10**4, 1.0)  # the first fit is k0 itself
    @example(0, 1.0, -10.0, 0, 10**4, 0.5)  # the bound is inf before the peak only at n > 0; here it falls from k = 0
    @example(12, 0.05, -20.0, 0, 5, 1.0)  # refused: the bound at kmax is still above tol
    def test_bisection_finds_the_first_fit(self, n, eta, log_tol, k0, kmax, power):
        # bisection is exact only while the bound is inf up to the peak of p_k and falls after it, K <= 10^4 here
        tol = 10.0**log_tol
        assert _cutoff(n, eta, tol, k0, kmax, power) == first_fit(n, eta, tol, k0, kmax, power)


class TestWorkCap:
    @pytest.mark.parametrize("fn", [entropy, purity, reduced_density])
    def test_rounded_tanh_raises(self, fn):
        # tanh(20)^2 rounds to 1.0, which used to end in log1p(-1)
        with pytest.raises(CutoffError, match=r"needs K >= [0-9.]+e\+18 terms"):
            fn(0, 20.0)

    def test_closed_form_weight_sum_is_capped_too(self):
        with pytest.raises(CutoffError, match="needs K >="):
            entropy_closed_form(2, 20.0)

    def test_term_count_above_cap(self):
        # beta^2 = 0.999999 needs about 6e7 terms
        expected = rf"needs K >= 5\.99e\+07 terms, past the cap \(n \+ 1\)\(K \+ 1\) <= {TERM_CAP}"
        with pytest.raises(CutoffError, match=expected):
            entropy(0, eta_of(0.999999))

    def test_excited_states_count_every_pass(self):
        # n + 1 passes over K + 1 terms: n = 400 at beta^2 = 0.99 passes the cap
        with pytest.raises(CutoffError):
            reduced_density(400, eta_of(0.99))
        assert reduced_density(4, eta_of(0.99)).cutoff > 0
