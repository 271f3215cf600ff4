"""Boosted oscillator states and the frame-to-frame overlap."""

import math

import numpy as np
import pytest

from entosc import DomainError
from entosc.covariant_inner import (
    CovariantState,
    boosted_wavefunction,
    contraction_factor,
    inner_product,
)
from entosc.entangled_series import squeezed_wavefunction
from entosc.oscillator_basis import chi, chi_bare, quadrature

LN2 = math.log(2.0)


class TestBoostedWavefunction:
    def test_rest_frame_factorizes(self):
        state = CovariantState(n=2, eta=0.0)
        z, t = 0.8, -0.4
        assert boosted_wavefunction(state, z, t) == pytest.approx(chi(2, z) * chi(0, t), rel=1e-14)

    def test_ground_state_boost_matches_gaussian(self):
        state = CovariantState(n=0, eta=1.0)
        z = t = 0.5
        expected = (1.0 / math.sqrt(math.pi)) * math.exp(
            -0.25 * (math.exp(-2.0) * (z + t) ** 2 + math.exp(2.0) * (z - t) ** 2)
        )
        assert boosted_wavefunction(state, z, t) == pytest.approx(expected, rel=1e-13)

    def test_same_numerics_as_two_mode_squeeze(self):
        state = CovariantState(n=3, eta=0.6)
        assert boosted_wavefunction(state, 0.9, 0.1) == squeezed_wavefunction(3, 0.6, 0.9, 0.1)

    def test_lorentz_invariant_normalization(self):
        # dz dt = dz' dt', so the same-frame overlap is one at any rapidity
        result = inner_product(2, 0.8, 2, 0.8)
        assert result.quadrature == pytest.approx(1.0, abs=1e-8)


class TestInnerProduct:
    def test_same_frame_orthonormal(self):
        assert inner_product(0, 0.3, 0, 0.3).quadrature == pytest.approx(1.0, abs=1e-10)
        assert inner_product(2, 0.3, 3, 0.3).quadrature == pytest.approx(0.0, abs=1e-10)

    def test_log_two_gap(self):
        result = inner_product(0, LN2, 0, 0.0)
        assert result.closed_form == pytest.approx(0.8, abs=1e-15)
        assert result.quadrature == pytest.approx(0.8, abs=1e-6)
        # the shared light-cone grid is the hand-built one, bit for bit
        a, b, rule = 0.5 * (0.25 + 1.0), 0.5 * (4.0 + 1.0), quadrature(64)
        u = rule.nodes[:, None] / math.sqrt(a)
        v = rule.nodes[None, :] / math.sqrt(b)
        z, t = (u + v) / math.sqrt(2.0), (u - v) / math.sqrt(2.0)
        zp = math.cosh(LN2) * z - math.sinh(LN2) * t
        poly = chi_bare(2, zp) * np.pi**-0.25 * chi_bare(2, z) * np.pi**-0.25
        w2 = rule.weights[:, None] * rule.weights[None, :]
        assert inner_product(2, LN2, 2, 0.0).quadrature == float(np.sum(w2 * poly) / math.sqrt(a * b))

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

    def test_budget(self):
        with pytest.raises(DomainError):
            inner_product(13, 0.1, 0, 0.0)

    def test_negative_excitation_rejected(self):
        with pytest.raises(DomainError):
            CovariantState(n=-1, eta=0.0)


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

    def test_domain(self):
        with pytest.raises(DomainError):
            contraction_factor(0, 1.0)
