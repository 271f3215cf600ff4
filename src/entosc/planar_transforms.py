"""Area-preserving linear maps of the plane and their shear factorizations.

All group elements are unimodular 2x2 matrices, nested tuples of floats
((a, b), (c, d)) built with `math`: rotations, the 45-degree squeeze in its
symmetric (boost) form, and the shear.  The shear is triangular and cannot be
diagonalized, but it admits two factorizations through rotations and
squeezes:

  * bargmann_decompose: rotation * boost * rotation with equal angles,
  * wigner_decompose:   axis squeeze * rotation * inverse squeeze, which
    only reaches the shear in the singular large-parameter limit.

shear_as_rotated_squeeze solves for the rotated squeezed Gaussian whose
exponent reproduces the sheared Gaussian exactly.  `_product` multiplies the
matrices and `_residual` compares them.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, finite, positive

_EXP_ARG_MAX = math.log(sys.float_info.max)  # math.exp overflows past this argument

_Matrix = tuple[tuple[float, float], tuple[float, float]]


def _product(*factors: _Matrix) -> _Matrix:
    """The product of 2x2 matrices, taken left to right."""
    (a, b), (c, d) = factors[0]
    for (e, f), (g, h) in factors[1:]:
        (a, b), (c, d) = (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)
    return (a, b), (c, d)


def _residual(m: _Matrix, n: _Matrix) -> float:
    """The largest entry of |m - n| for two 2x2 matrices."""
    return max(abs(x - y) for row_m, row_n in zip(m, n) for x, y in zip(row_m, row_n))


def rotation(theta: float) -> _Matrix:
    theta = finite("theta", theta)
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s), (s, c)


def boost(eta: float) -> _Matrix:
    """Symmetric squeeze [[cosh, -sinh], [-sinh, cosh]].

    Diagonal in the normal coordinates (x+y)/sqrt2, (x-y)/sqrt2; with
    (x, y) read as (z, t) it is the Lorentz boost of rapidity eta.
    """
    eta = finite("eta", eta)
    if abs(eta) > _EXP_ARG_MAX + math.log(2.0):  # cosh and sinh overflow past ln(2 DBL_MAX)
        raise DomainError(f"the entries of boost({eta!r}) overflow")
    c, s = math.cosh(eta), math.sinh(eta)
    return (c, -s), (-s, c)


def shear(alpha: float) -> _Matrix:
    """((1, 2 alpha), (0, 1)): translates x proportionally to y."""
    alpha = finite("alpha", alpha)
    return (1.0, finite(f"2 alpha at alpha = {alpha!r}", 2.0 * alpha)), (0.0, 1.0)


def _shear_angles(alpha: float) -> tuple[float, float]:
    """(theta_prime, eta) = (-atan(alpha) / 2, asinh(alpha)), shared by both factorizations of shear(alpha).

    Neither formula cancels, so both keep full relative accuracy for every alpha >= 0
    (0.5 arccos(tanh eta) - pi/4 gives theta_prime = -pi/4 once tanh eta rounds to one).
    """
    return -0.5 * math.atan(alpha), math.asinh(alpha)


def bargmann_decompose(alpha: float) -> tuple[float, float]:
    """Angles (theta_prime, eta) of the rotation-boost-rotation form of shear(alpha).

    eta = asinh(alpha) and cos(2 theta) = tanh(eta) with theta in (0, pi/4];
    theta_prime = theta - pi/4 = -atan(alpha) / 2 is the angle of the two equal outer rotations:

        rotation(theta_prime) @ boost(-eta) @ rotation(theta_prime) == shear(alpha).
    """
    if finite("alpha", alpha) < 0:
        raise DomainError("bargmann_decompose expects alpha >= 0; conjugate by rotation(pi/2) for alpha < 0")
    return _shear_angles(alpha)


def bargmann_reconstruct(theta_prime: float, eta: float) -> _Matrix:
    """Multiply the three Bargmann factors back together; the middle one is boost(-eta)."""
    outer = rotation(finite("theta_prime", theta_prime))
    product = _product(outer, boost(-finite("eta", eta)), outer)
    if not all(map(math.isfinite, product[0] + product[1])):  # up to 2 cosh(eta) past |eta| ~ 709.8
        raise DomainError(f"the entries of the Bargmann product overflow at eta = {eta!r}")
    return product


def _omega(alpha: float, lam: float) -> float:
    """w = asin(2 alpha e^{-lam}), the angle of the squeezed rotation, for arguments `wigner_decompose` accepts."""
    # on the edge lam = ln|2 alpha| the sine can round a few ulp past 1
    return math.asin(max(-1.0, min(2.0 * alpha * math.exp(-lam), 1.0)))


def wigner_decompose(alpha: float, lam: float) -> _Matrix:
    """Squeezed rotation ((cos w, 2 alpha), (-2 alpha e^{-2 lam}, cos w)) with w = `_omega`(alpha, lam).

    w = asin(2 alpha e^{-lam}) must exist; as lam -> inf the matrix tends
    to shear(alpha) through a singular limit, the lower-left entry dying
    like e^{-2 lam}.  The domain, ln|2 alpha| <= lam and a finite e^{-2 lam},
    is decided on logs, so no exponential is formed outside it.
    """
    alpha, lam = finite("alpha", alpha), finite("lam", lam)
    if (alpha and math.log(2.0 * abs(alpha)) > lam) or -2.0 * lam > _EXP_ARG_MAX:
        raise DomainError(f"alpha = {alpha!r}, lam = {lam!r}: need ln|2 alpha| <= lam, lam >= {-_EXP_ARG_MAX / 2:.6g}")
    c = math.cos(_omega(alpha, lam))
    return (c, 2.0 * alpha), (-2.0 * alpha * math.exp(-2.0 * lam), c)


def shear_as_rotated_squeeze(alpha: float) -> tuple[float, float]:
    """Parameters (theta, eta) of the rotated squeezed Gaussian equal to the sheared one.

    tan(2 theta) = 1/alpha and e^{2 eta} = 1 + 2 alpha^2 + 2 alpha sqrt(alpha^2 + 1), so eta = asinh(alpha)
    and theta = theta_prime + pi/4 are the Bargmann parameters;
    then rotated_squeeze_form(theta, eta) == sheared_gaussian_form(alpha).
    """
    alpha = positive("alpha", alpha)
    sheared_gaussian_form(alpha)  # refuses where its largest entry overflows, and e^{2 eta} with it
    _, eta = _shear_angles(alpha)
    # atan2(1, alpha) / 2 is theta_prime + pi/4 without that sum's cancellation at large alpha
    return 0.5 * math.atan2(1.0, alpha), eta


def sheared_gaussian_form(alpha: float) -> _Matrix:
    """Quadratic form of the sheared Gaussian exponent (x - 2 alpha y)^2 + y^2."""
    alpha = finite("alpha", alpha)
    return (1.0, -2.0 * alpha), (-2.0 * alpha, finite(f"1 + 4 alpha^2 at alpha = {alpha!r}", 1.0 + 4.0 * alpha * alpha))


def rotated_squeeze_form(theta: float, eta: float) -> _Matrix:
    """Quadratic form e^{-2 eta} u1 u1^T + e^{2 eta} u2 u2^T.

    u1 = (cos theta, sin theta), u2 = (sin theta, -cos theta): the exponent
    of a Gaussian squeezed by eta along an axis rotated by theta.
    """
    theta, eta = finite("theta", theta), finite("eta", eta)
    if 2.0 * abs(eta) > _EXP_ARG_MAX:
        raise DomainError(f"the entries of rotated_squeeze_form(theta, {eta!r}) overflow")
    c, s = math.cos(theta), math.sin(theta)
    em, ep = math.exp(-2.0 * eta), math.exp(2.0 * eta)
    cc, ss, cs = c * c, s * s, c * s
    return (em * cc + ep * ss, em * cs - ep * cs), (em * cs - ep * cs, em * ss + ep * cc)


def decompose_shear(alpha: float, lam: float) -> dict:
    """The three factorizations of shear(alpha) with their absolute residuals and the scales to judge them by.

    The factorizations that check their domains go first, so a refused input computes nothing.
    """
    alpha, lam = positive("alpha", alpha), finite("lam", lam)
    theta_rs, eta_rs = shear_as_rotated_squeeze(alpha)
    sr = wigner_decompose(alpha, lam)
    theta_prime, eta_b = bargmann_decompose(alpha)
    omega = _omega(alpha, lam)  # the angle whose cosine sits on the matrix's diagonal
    return {
        "alpha": alpha,
        "shear_max_entry": max(1.0, 2.0 * alpha),
        "bargmann": {
            # theta_prime + pi/4 is the rotated squeeze's angle, which keeps its digits at large alpha
            "theta": theta_rs,
            "theta_prime": theta_prime,
            "eta": eta_b,
            "reconstruction_residual": _residual(bargmann_reconstruct(theta_prime, eta_b), shear(alpha)),
        },
        "rotated_squeeze": {
            "theta": theta_rs,
            "eta": eta_rs,
            "exp_2eta": math.exp(2.0 * eta_rs),
            "form_residual": _residual(rotated_squeeze_form(theta_rs, eta_rs), sheared_gaussian_form(alpha)),
            "form_max_entry": 1.0 + 4.0 * alpha * alpha,
        },
        "squeezed_rotation": {
            "lambda": lam,
            "omega": omega,
            "matrix": sr,
            "residual_vs_shear": _residual(sr, shear(alpha)),
            "residual_bound": 2.0 * alpha * math.exp(-2.0 * lam) + (1.0 - math.cos(omega)),
        },
    }
