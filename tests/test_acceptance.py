"""Acceptance suite: the contracted end-to-end checks at their pinned tolerances.

Each test prints one PASS/FAIL line (run pytest -s to see them inline).
The checks are numbered and self-contained; tolerances are fixed here,
not read from any configuration.
"""

import io
import math
import time

import numpy as np
import pytest

from entosc import covariant_inner, dirac_algebra, phase_space, planar_transforms, reduced_state
from entosc.entangled_series import (
    coefficient,
    coefficient_by_quadrature,
    eigenvalue_residual,
    series_sum,
    squeezed_wavefunction,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_01_central_identity():
    """Series expansion equals the squeezed Gaussian on a grid, eta up to 1.2."""
    started = time.perf_counter()
    axis = np.arange(-4.0, 4.0 + 0.125, 0.25)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    worst = 0.0
    for eta in (0.25, 0.5, 0.9, 1.2):
        dev = float(
            np.abs(series_sum(0, eta, X, Y, tol=1e-10) - squeezed_wavefunction(0, eta, X, Y)).max()
        )
        worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-8 and elapsed < 5.0,
        f"max |series - Gaussian| = {worst:.3e} (tol 1e-08), {elapsed:.2f}s (budget 5s)",
    )


def test_02_coefficient_oracle():
    """Closed-form Schmidt coefficients against 2-D quadrature."""
    started = time.perf_counter()
    worst = 0.0
    for eta in (0.3, 0.8):
        for n in range(5):
            for k in range(9):
                dev = abs(coefficient(n, k, eta) - coefficient_by_quadrature(n, k, eta))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    report(
        2,
        worst <= 1e-8 and elapsed < 10.0,
        f"max coefficient deviation = {worst:.3e} (tol 1e-08), {elapsed:.2f}s (budget 10s)",
    )


def test_03_algebra_table():
    """All 45 commutators: exact for matrix5/sp4, 1e-10 for truncated Fock."""
    started = time.perf_counter()
    exact5 = dirac_algebra.check_algebra("matrix5").max_deviation
    exact4 = dirac_algebra.check_algebra("sp4").max_deviation
    fock = dirac_algebra.check_algebra("fock", cutoff=10).max_deviation
    elapsed = time.perf_counter() - started
    report(
        3,
        exact5 == 0.0 and exact4 == 0.0 and fock <= 1e-10 and elapsed < 5.0,
        f"matrix5 = {exact5}, sp4 = {exact4} (exact), fock = {fock:.3e} (tol 1e-10), "
        f"{elapsed:.2f}s (budget 5s)",
    )


def test_04_purity_closed_form():
    """Tr rho^2 equals 1/cosh(2 eta) for the traced ground state."""
    worst = max(
        abs(reduced_state.purity(0, eta) - 1.0 / math.cosh(2 * eta))
        for eta in np.linspace(0.0, 2.0, 20)
    )
    at_log2 = abs(reduced_state.purity(0, math.log(2.0)) - 0.470588235294118)
    report(
        4,
        worst <= 1e-10 and at_log2 <= 1e-10,
        f"max |purity - 1/cosh 2eta| = {worst:.3e} (tol 1e-10), "
        f"|purity(ln 2) - 8/17| = {at_log2:.3e}",
    )


def test_05_entropy_two_path():
    """Schmidt-sum entropy equals the closed forms; pinned values at landmarks."""
    worst = max(
        abs(reduced_state.entropy(n, eta) - reduced_state.entropy_closed_form(n, eta))
        for n in (0, 1, 2, 3)
        for eta in (0.2, 0.6, 1.0, 1.5)
    )
    landmark = abs(reduced_state.entropy(0, math.asinh(1.0)) - 2.0 * math.log(2.0))
    at_rest = reduced_state.entropy(0, 0.0)
    report(
        5,
        worst <= 1e-8 and landmark <= 1e-10 and at_rest == 0.0,
        f"max two-path gap = {worst:.3e} (tol 1e-08), |S(asinh 1) - 2 ln 2| = {landmark:.3e}, "
        f"S(0) = {at_rest}",
    )


def test_06_temperature_map():
    """tanh^2 eta = e^{-1/T} map, round trip, and a monotone 200-point CSV."""
    t_dev = abs(reduced_state.temperature(math.atanh(math.sqrt(0.8))) - (-1.0 / math.log(0.8)))
    round_trip = abs(reduced_state.eta_for_temperature(reduced_state.temperature(1.1)) - 1.1)
    buf = io.StringIO()
    points = reduced_state.thermo_curve(np.linspace(0.0, 0.99, 200))
    reduced_state.write_thermo_csv(points, buf)
    rows = [tuple(map(float, line.split(","))) for line in buf.getvalue().splitlines()[1:]]
    monotone = all(b[1] > a[1] and b[2] > a[2] for a, b in zip(rows, rows[1:]))
    report(
        6,
        t_dev <= 1e-9 and round_trip <= 1e-12 and monotone and len(rows) == 200,
        f"|T(0.8) + 1/ln 0.8| = {t_dev:.3e} (tol 1e-09), round trip = {round_trip:.3e} "
        f"(tol 1e-12), CSV monotone over {len(rows)} rows: {monotone}",
    )


def test_07_ruiz_inner_product():
    """Frame-to-frame overlaps against cosh(d eta)^-(n+1) delta_nm."""
    worst = 0.0
    for n in range(5):
        for m in range(5):
            for gap in (0.5, 1.0, 1.5):
                worst = max(worst, covariant_inner.inner_product(n, gap, m, 0.0).deviation)
    log2_case = abs(covariant_inner.inner_product(0, math.log(2.0), 0, 0.0).quadrature - 0.8)
    contraction = max(
        abs(
            covariant_inner.inner_product(n, math.atanh(beta), n, 0.0).quadrature
            - covariant_inner.contraction_factor(n, beta)
        )
        for n in (0, 1, 2)
        for beta in (0.3, 0.6, 0.9)
    )
    report(
        7,
        worst <= 1e-6 and log2_case <= 1e-6 and contraction <= 1e-6,
        f"max overlap deviation = {worst:.3e} (tol 1e-06), ln2 case = {log2_case:.3e}, "
        f"contraction consistency = {contraction:.3e}",
    )


def test_08_shear_decompositions():
    """Bargmann reconstruction, rotated-squeeze form, singular-limit bound."""
    bargmann = 0.0
    form = 0.0
    for alpha in (0.1, 0.5, 1.0, 2.0, 5.0):
        theta_prime, eta = planar_transforms.bargmann_decompose(alpha)
        bargmann = max(
            bargmann,
            float(
                np.abs(
                    np.array(planar_transforms.bargmann_reconstruct(theta_prime, eta))
                    - planar_transforms.shear(alpha)
                ).max()
            ),
        )
        theta_rs, eta_rs = planar_transforms.shear_as_rotated_squeeze(alpha)
        form = max(
            form,
            float(
                np.abs(
                    np.array(planar_transforms.rotated_squeeze_form(theta_rs, eta_rs))
                    - planar_transforms.sheared_gaussian_form(alpha)
                ).max()
            ),
        )
    bound_ok = True
    for alpha in (0.2, 1.0):
        for lam in (2.0, 4.0, 8.0):
            omega = math.asin(2 * alpha * math.exp(-lam))
            bound = 2 * alpha * math.exp(-2 * lam) + (1 - math.cos(omega))
            residual = float(
                np.abs(np.array(planar_transforms.wigner_decompose(alpha, lam)) - planar_transforms.shear(alpha)).max()
            )
            bound_ok = bound_ok and residual <= bound + 1e-15
    report(
        8,
        bargmann <= 1e-11 and form <= 1e-12 and bound_ok,
        f"Bargmann residual = {bargmann:.3e} (tol 1e-11), form residual = {form:.3e} "
        f"(tol 1e-12), singular-limit bound holds: {bound_ok}",
    )


def test_09_wigner_covariance():
    """Ground-state Wigner value and covariance under the three tested flows."""
    psi = phase_space.ground_state_grid()
    origin = abs(
        phase_space.wigner_transform(psi, phase_space.PhasePoint(0, 0, 0, 0)) - 1.0 / math.pi**2
    )
    worst = max(phase_space.flow_covariance_check(label, 0.5) for label in ("Q3", "K3", "Q3-L2"))
    report(
        9,
        origin <= 1e-6 and worst <= 1e-5,
        f"|W(0) - 1/pi^2| = {origin:.3e} (tol 1e-06), flow covariance = {worst:.3e} (tol 1e-05)",
    )


def test_10_eigenvalue_invariance():
    """Finite-difference residual of the squeeze-invariant eigenvalue relation."""
    worst = max(
        eigenvalue_residual(n, eta, half_width=5.0, spacing=0.01).value
        for n in (0, 1, 2)
        for eta in (0.0, 0.7)
    )
    report(10, worst <= 1e-4, f"max residual = {worst:.3e} (tol 1e-04) on h = 0.01 grids")
