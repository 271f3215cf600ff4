"""Boosted oscillator states and the frame-to-frame overlap."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from hypothesis import example, given, settings, strategies as st

from entosc import DomainError
from entosc.covariant_inner import contraction_factor, inner_product
from entosc.entangled_series import squeezed_wavefunction
from entosc.oscillator_basis import chi, quadrature

LN2 = math.log(2.0)


class TestBoostedWavefunction:
    # the boosted state chi_n(z') chi_0(t') is the squeezed state with (x, y) read as (z, t)
    def test_rest_frame_factorizes(self):
        z, t = 0.8, -0.4
        assert squeezed_wavefunction(2, 0.0, z, t) == pytest.approx(chi(2, z) * chi(0, t), rel=1e-14)

    def test_ground_state_boost_matches_gaussian(self):
        z = t = 0.5
        expected = (1.0 / math.sqrt(math.pi)) * math.exp(
            -0.25 * (math.exp(-2.0) * (z + t) ** 2 + math.exp(2.0) * (z - t) ** 2)
        )
        assert squeezed_wavefunction(0, 1.0, z, t) == pytest.approx(expected, rel=1e-13)

    def test_lorentz_invariant_normalization(self):
        # dz dt = dz' dt', so the same-frame overlap is one at any rapidity
        result = inner_product(2, 0.8, 2, 0.8)
        assert result.quadrature == pytest.approx(1.0, abs=1e-8)


class TestInnerProduct:
    def test_same_frame_orthonormal(self):
        assert inner_product(0, 0.3, 0, 0.3).quadrature == pytest.approx(1.0, abs=1e-10)
        assert inner_product(2, 0.3, 3, 0.3).quadrature == pytest.approx(0.0, abs=1e-10)

    def test_log_two_gap(self, bare_row):
        result = inner_product(0, LN2, 0, 0.0)
        assert result.closed_form == pytest.approx(0.8, abs=1e-15)
        assert result.quadrature == pytest.approx(0.8, abs=1e-6)
        value = inner_product(2, LN2, 2, 0.0).quadrature
        a, b = 0.5 * (math.exp(-2.0 * LN2) + 1.0), 0.5 * (math.exp(2.0 * LN2) + 1.0)
        # the light-cone overlap kernel as numpy computed it, on hermgauss's rule and summed by np.sum
        nodes, weights = hermgauss(64)
        u = nodes[:, None] / math.sqrt(2.0 * a)
        v = nodes[None, :] / math.sqrt(2.0 * b)
        eu, ev = math.exp(-LN2) * u, math.exp(LN2) * v
        w2 = weights[:, None] * weights[None, :]
        poly = w2 * bare_row(2, eu + ev) * np.pi**-0.25 * bare_row(2, u + v) * np.pi**-0.25
        assert abs(value - float(np.sum(poly) / math.sqrt(a * b))) <= 1e-15
        # the plain-Python kernel written out, bit for bit: the library's rule, the order^2 products
        # summed exactly by fsum, and the two index-0 seeds pi^-1/4 applied to the sum
        rule = quadrature(64)
        u = np.array(rule.nodes)[:, None] / math.sqrt(2.0 * a)
        v = np.array(rule.nodes)[None, :] / math.sqrt(2.0 * b)
        eu, ev = math.exp(-LN2) * u, math.exp(LN2) * v
        w2 = np.array(rule.weights)[:, None] * np.array(rule.weights)[None, :]
        terms = w2 * bare_row(2, eu + ev) * bare_row(2, u + v)
        assert value == math.fsum(terms.ravel()) * (math.pi**-0.25 * math.pi**-0.25) / math.sqrt(a * b)

    def test_orthogonality_across_excitations(self):
        for n in range(5):
            for m in range(5):
                if n == m:
                    continue
                for gap in (0.4, 1.5):
                    assert abs(inner_product(n, gap, m, 0.0).quadrature) < 1e-8

    def test_depends_only_on_rapidity_difference(self):
        values = [inner_product(2, 0.9 + s, 2, s).quadrature for s in (0.0, 0.4, -0.7)]
        assert max(values) - min(values) < 1e-8

    def test_closed_form_agreement(self):
        worst = max(
            inner_product(n, gap, n, 0.0).deviation for n in range(5) for gap in (0.3, 0.9, 1.5)
        )
        assert worst <= 1e-6

    @given(st.integers(0, 12), st.integers(0, 12), st.floats(-25.0, 25.0), st.floats(-25.0, 25.0))
    @example(3, 3, 20.0, 19.0)
    @example(12, 0, -19.0, -25.0)
    @settings(max_examples=150, deadline=None)
    def test_closed_form_over_the_whole_domain(self, n, m, eta1, eta2):
        # a grid forming cosh(eta) z - sinh(eta) t cancels: off by 0.09 and 3.9e4 at the two examples
        assert inner_product(n, eta1, m, eta2).deviation <= 1e-13

    def test_budget(self):
        with pytest.raises(DomainError):
            inner_product(13, 0.1, 0, 0.0)

    def test_negative_excitation_rejected(self):
        with pytest.raises(DomainError):
            squeezed_wavefunction(-1, 0.0, 0.0, 0.0)


class TestContractionFactor:
    def test_rest(self):
        assert contraction_factor(0, 0.0) == 1.0

    def test_rigid_rod(self):
        assert contraction_factor(0, 0.6) == pytest.approx(0.8, abs=1e-15)

    def test_excited_hump_product(self):
        assert contraction_factor(1, 0.6) == pytest.approx(0.64, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("beta", [0.2, 0.6, 0.9])
    def test_consistent_with_inner_product(self, n, beta):
        overlap = inner_product(n, math.atanh(beta), n, 0.0).quadrature
        assert abs(overlap - contraction_factor(n, beta)) <= 1e-6

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("eta1, eta2", [(0.4, -0.3), (1.2, 0.5), (-0.9, 0.6), (2.0, 0.1)])
    def test_is_the_overlap_of_two_moving_frames(self, n, eta1, eta2):
        # beta = tanh(eta1 - eta2) is the relative velocity; both routes of inner_product agree with it
        result = inner_product(n, eta1, n, eta2)
        factor = contraction_factor(n, math.tanh(eta1 - eta2))
        assert factor == pytest.approx(result.closed_form, rel=1e-14)
        assert factor == pytest.approx(result.quadrature, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            contraction_factor(0, 1.0)
