"""Area-preserving linear maps of the plane and their shear factorizations.

All group elements are unimodular 2x2 arrays: rotations, axis squeezes,
the 45-degree squeeze in its symmetric (boost) form, and the shear.  The
shear is triangular and cannot be diagonalized, but it admits two
factorizations through rotations and squeezes:

  * bargmann_decompose: rotation * boost * rotation with equal angles,
  * wigner_decompose:   axis squeeze * rotation * inverse squeeze, which
    only reaches the shear in the singular large-parameter limit.

shear_as_rotated_squeeze solves for the rotated squeezed Gaussian whose
exponent reproduces the sheared Gaussian exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, finite, positive

# 2x2 generators: exp(-i eta K) is the symmetric squeeze, exp(-i theta J)
# the rotation, and S = K - J is nilpotent (S @ S = 0), so exp(-i alpha S)
# truncates to the triangular shear matrix.
ROTATION_GEN = np.array([[0.0, -1.0j], [1.0j, 0.0]])
BOOST_GEN = np.array([[0.0, 1.0j], [1.0j, 0.0]])
SHEAR_GEN = BOOST_GEN - ROTATION_GEN

_EXP_ARG_MAX = float(np.log(np.finfo(float).max))  # np.exp overflows past this argument


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def squeeze_axis(eta: float) -> np.ndarray:
    """diag(e^eta, e^-eta): squeeze along the coordinate axes."""
    return np.diag([np.exp(eta), np.exp(-eta)])


def boost(eta: float) -> np.ndarray:
    """Symmetric squeeze [[cosh, -sinh], [-sinh, cosh]].

    Diagonal in the normal coordinates (x+y)/sqrt2, (x-y)/sqrt2; with
    (x, y) read as (z, t) it is the Lorentz boost of rapidity eta.
    """
    c, s = np.cosh(eta), np.sinh(eta)
    return np.array([[c, -s], [-s, c]])


def shear(alpha: float) -> np.ndarray:
    """[[1, 2 alpha], [0, 1]]: translates x proportionally to y."""
    return np.array([[1.0, 2.0 * alpha], [0.0, 1.0]])


def bargmann_decompose(alpha: float) -> tuple[float, float]:
    """Angles (theta_prime, eta) of the rotation-boost-rotation form of shear(alpha).

    eta = asinh(alpha) and cos(2 theta) = tanh(eta) with theta in (0, pi/4];
    theta_prime = theta - pi/4 is the angle of the two equal outer rotations:

        rotation(theta_prime) @ [[cosh eta, sinh eta], [sinh eta, cosh eta]]
            @ rotation(theta_prime) == shear(alpha).
    """
    if finite("alpha", alpha) < 0:
        raise DomainError("bargmann_decompose expects alpha >= 0; conjugate by rotation(pi/2) for alpha < 0")
    eta = float(np.arcsinh(alpha))
    theta = 0.5 * float(np.arccos(np.tanh(eta)))
    return theta - np.pi / 4.0, eta


def bargmann_reconstruct(theta_prime: float, eta: float) -> np.ndarray:
    """Multiply the three Bargmann factors back together."""
    c, s = np.cosh(eta), np.sinh(eta)
    middle = np.array([[c, s], [s, c]])
    outer = rotation(theta_prime)
    return outer @ middle @ outer


def wigner_decompose(alpha: float, lam: float) -> np.ndarray:
    """Squeezed rotation [[cos w, 2 alpha], [-2 alpha e^{-2 lam}, cos w]].

    w = asin(2 alpha e^{-lam}) must exist; as lam -> inf the matrix tends
    to shear(alpha) through a singular limit, the lower-left entry dying
    like e^{-2 lam}.  The domain, ln|2 alpha| <= lam and a finite e^{-2 lam},
    is decided on logs, so no exponential is formed outside it.
    """
    alpha, lam = finite("alpha", alpha), finite("lam", lam)
    if (alpha and np.log(2.0 * abs(alpha)) > lam) or -2.0 * lam > _EXP_ARG_MAX:
        raise DomainError(f"alpha = {alpha!r}, lam = {lam!r}: need ln|2 alpha| <= lam, lam >= {-_EXP_ARG_MAX / 2:.6g}")
    s = 2.0 * alpha * np.exp(-lam)
    omega = np.arcsin(np.clip(s, -1.0, 1.0))  # on the edge lam = ln|2 alpha| s can round a few ulp past 1
    return np.array([[np.cos(omega), 2.0 * alpha], [-2.0 * alpha * np.exp(-2.0 * lam), np.cos(omega)]])


def shear_as_rotated_squeeze(alpha: float) -> tuple[float, float]:
    """Parameters (theta, eta) of the rotated squeezed Gaussian equal to the sheared one.

    tan(2 theta) = 1/alpha and e^{2 eta} = 1 + 2 alpha^2 + 2 alpha sqrt(alpha^2 + 1);
    then rotated_squeeze_form(theta, eta) == sheared_gaussian_form(alpha).
    """
    alpha = positive("alpha", alpha)
    # the sheared form's largest entry; e^{2 eta} overflows with it
    finite(f"1 + 4 alpha^2 at alpha = {alpha!r}", 1.0 + 4.0 * alpha * alpha)
    theta = 0.5 * float(np.arctan2(1.0, alpha))
    eta = 0.5 * float(np.log(1.0 + 2.0 * alpha * alpha + 2.0 * alpha * np.sqrt(alpha * alpha + 1.0)))
    return theta, eta


def sheared_gaussian_form(alpha: float) -> np.ndarray:
    """Quadratic form of the sheared Gaussian exponent (x - 2 alpha y)^2 + y^2."""
    return np.array([[1.0, -2.0 * alpha], [-2.0 * alpha, 1.0 + 4.0 * alpha * alpha]])


def rotated_squeeze_form(theta: float, eta: float) -> np.ndarray:
    """Quadratic form e^{-2 eta} u1 u1^T + e^{2 eta} u2 u2^T.

    u1 = (cos theta, sin theta), u2 = (sin theta, -cos theta): the exponent
    of a Gaussian squeezed by eta along an axis rotated by theta.
    """
    u1 = np.array([np.cos(theta), np.sin(theta)])
    u2 = np.array([np.sin(theta), -np.cos(theta)])
    return np.exp(-2.0 * eta) * np.outer(u1, u1) + np.exp(2.0 * eta) * np.outer(u2, u2)


def transform_quadratic_form(Q: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Push the Gaussian exponent -(1/2) v^T Q v forward through v -> M v.

    The transformed state psi'(v) = psi(M^-1 v) has exponent form
    Q' = M^-T Q M^-1.
    """
    Q = np.asarray(Q, dtype=float)
    M = np.asarray(M, dtype=float)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det) < 1e-12:
        raise DomainError("transformation matrix is singular")
    Minv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
    return Minv.T @ Q @ Minv
