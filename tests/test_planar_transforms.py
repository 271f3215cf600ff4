"""Plane transforms, their group laws, and the shear factorizations."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from entosc import DomainError
from entosc.planar_transforms import (
    bargmann_decompose,
    bargmann_reconstruct,
    boost,
    rotated_squeeze_form,
    rotation,
    shear,
    shear_as_rotated_squeeze,
    sheared_gaussian_form,
    wigner_decompose,
)

# 2x2 generators: exp(-i eta K) is the symmetric squeeze, exp(-i theta J)
# the rotation, and S = K - J is nilpotent (S @ S = 0), so exp(-i alpha S)
# truncates to the triangular shear matrix.
ROTATION_GEN = np.array([[0.0, -1.0j], [1.0j, 0.0]])
BOOST_GEN = np.array([[0.0, 1.0j], [1.0j, 0.0]])
SHEAR_GEN = BOOST_GEN - ROTATION_GEN


def squeeze_axis(eta):
    """diag(e^eta, e^-eta): squeeze along the coordinate axes."""
    return np.diag([np.exp(eta), np.exp(-eta)])


def transform_quadratic_form(Q, M):
    """Push the Gaussian exponent -(1/2) v^T Q v forward through v -> M v: Q' = M^-T Q M^-1.

    The transformed state psi'(v) = psi(M^-1 v) has that exponent form.
    """
    M = np.array(M)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det) < 1e-12:
        raise DomainError("transformation matrix is singular")
    Minv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
    return Minv.T @ Q @ Minv

ANGLES = st.floats(-3.0, 3.0, allow_nan=False)
RAPIDITIES = st.floats(-2.0, 2.0, allow_nan=False)


class TestGroupElements:
    def test_rotation_identity(self):
        assert np.array_equal(rotation(0.0), np.eye(2))

    def test_quarter_turn(self):
        assert np.allclose(rotation(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)

    def test_rotation_group_law(self):
        a, b = 0.3, 0.5
        assert np.abs(np.array(rotation(a)) @ rotation(b) - rotation(a + b)).max() < 1e-14

    @given(ANGLES, ANGLES)
    def test_rotation_group_law_random(self, a, b):
        assert np.abs(np.array(rotation(a)) @ rotation(b) - rotation(a + b)).max() < 1e-12

    def test_squeeze_axis(self):
        assert np.array_equal(squeeze_axis(0.0), np.eye(2))
        assert np.allclose(squeeze_axis(math.log(2)), np.diag([2.0, 0.5]), rtol=1e-15)
        assert abs(np.linalg.det(squeeze_axis(1.3)) - 1.0) < 1e-15

    def test_boost_identity_and_additivity(self):
        assert np.array_equal(boost(0.0), np.eye(2))
        assert np.abs(np.array(boost(0.2)) @ boost(0.9) - boost(1.1)).max() < 1e-13

    def test_boost_diagonal_in_normal_coordinates(self):
        # in u = (x+y)/sqrt2, v = (x-y)/sqrt2 the boost is diag(e^-eta, e^eta):
        # conjugating toward that basis means rotating the (1, 1) direction
        # onto the first axis, which is rotation(-pi/4) on the left
        eta = 0.7
        rotated = np.array(rotation(-np.pi / 4)) @ boost(eta) @ rotation(np.pi / 4)
        assert np.abs(rotated - np.diag([np.exp(-eta), np.exp(eta)])).max() < 1e-13

    def test_shear_triangular_group_law(self):
        assert np.array_equal(shear(0.0), np.eye(2))
        assert np.array_equal(np.array(shear(0.4)) @ shear(0.1), shear(0.5))

    def test_shear_nilpotent_square(self):
        s = shear(0.6) - np.eye(2)
        assert np.array_equal(s @ s, np.zeros((2, 2)))

    def test_generator_nilpotency_and_exponentials(self):
        assert np.array_equal(SHEAR_GEN @ SHEAR_GEN, np.zeros((2, 2)))
        alpha, eta, theta = 0.8, 0.6, 0.4
        assert np.abs(expm(-1j * alpha * SHEAR_GEN).real - shear(alpha)).max() < 1e-14
        k = expm(-1j * eta * BOOST_GEN).real
        assert np.abs(k - [[np.cosh(eta), np.sinh(eta)], [np.sinh(eta), np.cosh(eta)]]).max() < 1e-14
        assert np.abs(expm(-1j * theta * ROTATION_GEN).real - rotation(theta)).max() < 1e-14

    @given(st.one_of(ANGLES, RAPIDITIES))
    def test_unimodularity(self, p):
        for M in (rotation(p), squeeze_axis(p), boost(p), shear(p)):
            assert abs(np.linalg.det(M) - 1.0) < 1e-12


class TestBargmann:
    def test_identity_shear(self):
        theta_prime, eta = bargmann_decompose(0.0)
        assert eta == 0.0
        assert theta_prime == pytest.approx(0.0, abs=1e-15)

    def test_unit_shear_parameters(self):
        theta_prime, eta = bargmann_decompose(1.0)
        assert eta == pytest.approx(math.asinh(1.0), abs=1e-15)
        assert theta_prime + math.pi / 4 == pytest.approx(math.pi / 8, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_reconstruction(self, alpha):
        theta_prime, eta = bargmann_decompose(alpha)
        assert np.abs(np.array(bargmann_reconstruct(theta_prime, eta)) - shear(alpha)).max() < 1e-11

    def test_lower_left_vanishes(self):
        theta_prime, eta = bargmann_decompose(2.5)
        assert abs(np.array(bargmann_reconstruct(theta_prime, eta))[1, 0]) < 1e-13

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            bargmann_decompose(-0.5)

    @given(st.floats(-12.0, 150.0))
    def test_parameters_across_the_domain(self, log10_alpha):
        # the whole accepted domain: decompose-shear refuses alpha past ~6.7e153
        alpha = 10.0**log10_alpha
        theta_prime, eta = bargmann_decompose(alpha)
        with mpmath.workdps(40):
            assert abs(eta - mpmath.asinh(alpha)) <= 1e-15 * eta
            assert abs(theta_prime + mpmath.atan(alpha) / 2) <= 1e-15 * abs(theta_prime)
        # the shear's largest entry sets the scale of the reconstruction's rounding
        residual = np.abs(np.array(bargmann_reconstruct(theta_prime, eta)) - shear(alpha)).max()
        assert residual <= 1e-13 * max(1.0, 2.0 * alpha)
        theta, eta_rs = shear_as_rotated_squeeze(alpha)
        assert eta_rs == eta
        assert theta == pytest.approx(math.atan2(1.0, alpha) / 2, rel=1e-15)


class TestWignerDecomposition:
    def test_zero_alpha_is_identity(self):
        for lam in (0.0, 1.0, 7.0):
            assert np.allclose(wigner_decompose(0.0, lam), np.eye(2), atol=1e-15)

    def test_unimodular(self):
        M = wigner_decompose(0.5, 2.0)
        assert abs(np.linalg.det(M) - 1.0) < 1e-13

    def test_approach_to_shear(self):
        alpha, lam = 0.5, 6.0
        M = np.array(wigner_decompose(alpha, lam))
        assert M[1, 0] == pytest.approx(-2 * alpha * math.exp(-2 * lam), rel=1e-12)
        assert np.abs(M - shear(alpha)).max() < 1e-5

    @pytest.mark.parametrize("alpha", [0.2, 1.0])
    @pytest.mark.parametrize("lam", [2.0, 4.0, 8.0])
    def test_singular_limit_bound(self, alpha, lam):
        omega = math.asin(2 * alpha * math.exp(-lam))
        bound = 2 * alpha * math.exp(-2 * lam) + (1 - math.cos(omega))
        assert np.abs(np.array(wigner_decompose(alpha, lam)) - shear(alpha)).max() <= bound + 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            wigner_decompose(2.0, 0.1)


class TestShearAsRotatedSqueeze:
    def test_small_alpha_limit(self):
        theta, eta = shear_as_rotated_squeeze(1e-9)
        assert theta == pytest.approx(math.pi / 4, abs=1e-8)
        assert eta == pytest.approx(0.0, abs=1e-8)

    def test_unit_alpha_closed_form(self):
        _, eta = shear_as_rotated_squeeze(1.0)
        assert math.exp(2 * eta) == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-14)

    def test_expressions_multiply_to_one(self):
        alpha = 0.8
        plus = 1 + 2 * alpha**2 + 2 * alpha * math.sqrt(alpha**2 + 1)
        minus = 1 + 2 * alpha**2 - 2 * alpha * math.sqrt(alpha**2 + 1)
        assert plus * minus == pytest.approx(1.0, abs=1e-13)
        _, eta = shear_as_rotated_squeeze(alpha)
        assert math.exp(2 * eta) * minus == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_quadratic_form_match(self, alpha):
        theta, eta = shear_as_rotated_squeeze(alpha)
        dev = np.abs(np.array(rotated_squeeze_form(theta, eta)) - sheared_gaussian_form(alpha)).max()
        assert dev < 1e-12

    def test_form_eigenvalues(self):
        alpha = 0.7
        _, eta = shear_as_rotated_squeeze(alpha)
        eig = np.sort(np.linalg.eigvalsh(transform_quadratic_form(np.eye(2), shear(alpha))))
        assert np.abs(eig - np.sort([math.exp(-2 * eta), math.exp(2 * eta)])).max() < 1e-11

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(DomainError):
            shear_as_rotated_squeeze(0.0)


class TestQuadraticFormTransport:
    def test_identity(self):
        assert np.array_equal(transform_quadratic_form(np.eye(2), np.eye(2)), np.eye(2))

    def test_shear_gives_sheared_gaussian_form(self):
        alpha = 0.9
        assert np.abs(
            transform_quadratic_form(np.eye(2), shear(alpha)) - sheared_gaussian_form(alpha)
        ).max() < 1e-13

    def test_boost_gives_squeezed_gaussian_form(self):
        # expanding (1/4)[e^{-2 eta}(x+y)^2 + e^{2 eta}(x-y)^2] as (1/2) v^T Q v
        # gives Q = [[cosh 2eta, -sinh 2eta], [-sinh 2eta, cosh 2eta]]; the
        # state squeezed by rapidity eta transforms its arguments by
        # boost(eta), i.e. is the pushforward along boost(-eta).
        eta = 0.45
        expanded = np.array(
            [[np.cosh(2 * eta), -np.sinh(2 * eta)], [-np.sinh(2 * eta), np.cosh(2 * eta)]]
        )
        assert np.abs(transform_quadratic_form(np.eye(2), boost(-eta)) - expanded).max() < 1e-13

    def test_singular_matrix_rejected(self):
        with pytest.raises(DomainError):
            transform_quadratic_form(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
