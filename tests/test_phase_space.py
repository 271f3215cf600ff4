"""Numerical Wigner transform: values, marginals, normalization, flows."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from entosc import DomainError, NumericsError
from entosc.phase_space import (
    DEFAULT_SAMPLE_POINTS,
    FLOW_LABELS,
    MIN_COVERAGE,
    GridFunction2D,
    PhasePoint,
    cross_squeezed_state_grid,
    flow_covariance_check,
    flow_exponential,
    flow_matrix,
    ground_state_grid,
    sheared_state_grid,
    squeezed_state_grid,
    wigner_ground_closed,
    wigner_section,
    wigner_transform,
    wigner_xp,
    wigner_xy,
)


class TestClosedForm:
    def test_origin(self):
        assert wigner_ground_closed(PhasePoint(0, 0, 0, 0)) == pytest.approx(1 / math.pi**2, rel=1e-15)

    def test_normalized(self):
        # separable Gaussian: the 4-d integral is (sqrt(pi))^4 / pi^2 = 1
        from entosc.oscillator_basis import quadrature

        rule = quadrature(20)
        one_dim = float(rule.weights.sum())  # int e^{-v^2} dv
        assert one_dim**4 / math.pi**2 == pytest.approx(1.0, abs=1e-8)

    def test_mode_exchange_symmetry(self):
        a = wigner_ground_closed(PhasePoint(0.3, -0.7, 0.2, 0.9))
        b = wigner_ground_closed(PhasePoint(-0.7, 0.3, 0.9, 0.2))
        assert a == b


class TestGridFunction:
    def test_axis_and_index(self):
        grid = ground_state_grid(half_width=1.0, spacing=0.25)
        assert np.allclose(grid.axis(0), np.arange(-1.0, 1.01, 0.25))
        assert grid.index_of(0.0, 0.25) == (4, 5)
        with pytest.raises(DomainError):
            grid.index_of(0.1, 0.0)

    def test_csv_roundtrip_stability(self):
        grid = ground_state_grid(half_width=0.5, spacing=0.25)
        buf1, buf2 = io.StringIO(), io.StringIO()
        grid.write_csv(buf1)
        grid.write_csv(buf2)
        assert buf1.getvalue() == buf2.getvalue()
        header, first = buf1.getvalue().split("\n")[:2]
        assert header == "x,y,value"
        assert first.startswith("-0.5,-0.5,")

    def test_validation(self):
        with pytest.raises(DomainError):
            GridFunction2D(origin=(0, 0), spacing=(0.0, 0.1), values=np.zeros((3, 3)))
        with pytest.raises(DomainError):
            GridFunction2D(origin=(0, 0), spacing=(0.1, 0.1), values=np.array([[np.nan]]))

    @pytest.mark.parametrize(
        "half_width, spacing",
        [(math.nan, 0.05), (math.inf, 0.05), (-1.0, 0.05), (1.0, math.nan), (1.0, 0.0), (1e300, 1e-300)],
    )
    def test_from_function_rejects_bad_sizes_before_sampling(self, half_width, spacing):
        def never(X, Y):
            raise AssertionError("sampled a lattice that should have been rejected")

        with pytest.raises(DomainError):
            GridFunction2D.from_function(never, half_width, spacing)

    def test_from_function_has_no_side_cap(self):
        # fine lattices such as spacing 0.005 at half-width 8 (3201 points per axis) must keep working
        grid = GridFunction2D.from_function(lambda X, Y: X, 1.025, 0.001)
        assert grid.values.shape == (2051, 2051)

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_csv_matches_pointwise_formula(self, complex_values):
        state = cross_squeezed_state_grid(0.4, 1.0, 0.25) if complex_values else ground_state_grid(1.0, 0.25)
        grid = GridFunction2D(state.origin, state.spacing, state.values[:, :-2] * 1e-7, ("x", "p"))
        expected = io.StringIO()
        expected.write("x,p,value\n")
        for i, a in enumerate(grid.axis(0)):
            for j, b in enumerate(grid.axis(1)):
                v = grid.values[i, j]
                v = v.real if np.iscomplexobj(grid.values) else v
                expected.write(f"{a:.12g},{b:.12g},{v:.12g}\n")
        got = io.StringIO()
        grid.write_csv(got)
        assert got.getvalue() == expected.getvalue()

    def test_indices(self):
        grid = ground_state_grid(half_width=1.0, spacing=0.25)
        assert grid.indices(0, [-1.0, 0.0, 0.75]).tolist() == [0, 4, 7]
        for bad in ([0.1], [1.25], [math.nan]):
            with pytest.raises(DomainError):
                grid.indices(1, bad)


class TestWignerTransform:
    def test_ground_state_at_origin(self):
        psi = ground_state_grid()
        w = wigner_transform(psi, PhasePoint(0, 0, 0, 0))
        assert abs(w - 1 / math.pi**2) < 1e-6

    def test_ground_state_displaced(self):
        psi = ground_state_grid()
        w = wigner_transform(psi, PhasePoint(1.0, 0.0, 0.0, 0.0))
        assert abs(w - math.exp(-1.0) / math.pi**2) < 1e-6

    def test_momentum_dependence(self):
        psi = ground_state_grid()
        w = wigner_transform(psi, PhasePoint(0.0, 0.0, 1.0, 0.5))
        assert abs(w - math.exp(-1.25) / math.pi**2) < 1e-6

    def test_marginal_recovers_probability_density(self):
        psi = ground_state_grid()
        pgrid = np.arange(-6.0, 6.0001, 0.15)
        W = wigner_section(psi, 0.3, 0.3, pgrid, pgrid)
        marginal = np.trapezoid(np.trapezoid(W, pgrid, axis=1), pgrid)
        density = abs(psi.values[psi.index_of(0.3, 0.3)]) ** 2
        assert abs(marginal - density) < 1e-5

    def test_imaginary_residual_is_asserted(self):
        psi = ground_state_grid(half_width=5.0)
        with pytest.raises(NumericsError):
            wigner_transform(psi, PhasePoint(0.5, 0.0, 2.0, 0.0), imag_tol=0.0)

    def test_coverage_requirement(self):
        psi = ground_state_grid(half_width=3.0)
        with pytest.raises(DomainError):
            wigner_transform(psi, PhasePoint(0.0, 0.0, 0.0, 0.0))

    def test_off_lattice_point(self):
        psi = ground_state_grid()
        with pytest.raises(DomainError):
            wigner_transform(psi, PhasePoint(0.013, 0.0, 0.0, 0.0))


def direct_wigner(psi, i, j, p, q):
    """The lattice sum at lattice point (i, j), over its whole symmetric window."""
    V, h = psi.values, psi.spacing[0]
    mx, my = min(i, V.shape[0] - 1 - i), min(j, V.shape[1] - 1 - j)
    a = np.arange(-mx, mx + 1)[:, None]
    b = np.arange(-my, my + 1)[None, :]
    terms = np.conj(V[i + a, j + b]) * V[i - a, j - b] * np.exp(-2j * h * (p * a + q * b))
    return h * h / math.pi**2 * terms.sum().real


def covered(n, h):
    return [i for i in range(n) if min(i, n - 1 - i) * h >= MIN_COVERAGE]


def small_lattice(state):
    return st.builds(
        lambda eta, h, trim: (state(eta, half_width=4.5, spacing=h), trim),
        st.floats(-0.6, 0.6),
        st.sampled_from([0.25, 0.5]),
        st.tuples(*[st.integers(0, 1)] * 4),
    )


def trimmed(psi, trim):
    """psi with up to one row or column dropped from each side: uneven and even lattice sides."""
    r0, r1, c0, c1 = trim
    V = psi.values[r0 : psi.values.shape[0] - r1, c0 : psi.values.shape[1] - c1]
    h = psi.spacing[0]
    return GridFunction2D((psi.origin[0] + r0 * h, psi.origin[1] + c0 * h), psi.spacing, V)


class TestPlaneKernels:
    @given(small_lattice(squeezed_state_grid))
    @settings(max_examples=30, deadline=None)
    def test_wigner_xy_matches_direct_sum(self, lattice):
        psi = trimmed(*lattice)
        h = psi.spacing[0]
        rows, cols = covered(psi.values.shape[0], h), covered(psi.values.shape[1], h)
        plane = wigner_xy(psi)
        assert plane.values.shape == (len(rows), len(cols))
        assert plane.origin[0] == pytest.approx(psi.axis(0)[rows[0]], abs=1e-12)
        assert plane.origin[1] == pytest.approx(psi.axis(1)[cols[0]], abs=1e-12)
        ref = np.array([[direct_wigner(psi, i, j, 0.0, 0.0) for j in cols] for i in rows])
        assert np.abs(plane.values - ref).max() <= 1e-15

    @given(
        st.one_of(small_lattice(squeezed_state_grid), small_lattice(cross_squeezed_state_grid)),
        st.floats(-1.5, 1.5),
        st.integers(1, 7),
    )
    @settings(max_examples=30, deadline=None)
    def test_wigner_xp_matches_direct_sum(self, lattice, p0, count):
        psi = trimmed(*lattice)
        h = psi.spacing[0]
        rows, cols = covered(psi.values.shape[0], h), covered(psi.values.shape[1], h)
        iy = cols[len(cols) // 2]
        p = p0 + 0.3 * np.arange(count)
        plane = wigner_xp(psi, float(psi.axis(1)[iy]), p)
        assert plane.labels == ("x", "p")
        assert plane.values.shape == (len(rows), count)
        assert plane.origin[0] == pytest.approx(psi.axis(0)[rows[0]], abs=1e-12)
        ref = np.array([[direct_wigner(psi, i, iy, pm, 0.0) for pm in p] for i in rows])
        assert np.abs(plane.values - ref).max() <= 1e-15

    def test_planes_agree_with_point_functions(self):
        psi = squeezed_state_grid(0.5, half_width=6.0, spacing=0.1)
        xy = wigner_xy(psi)
        i, j = xy.index_of(1.0, -0.5)
        assert abs(xy.values[i, j] - wigner_transform(psi, PhasePoint(1.0, -0.5, 0.0, 0.0))) <= 1e-15
        p = np.linspace(-1.0, 1.0, 9)
        xp = wigner_xp(psi, 0.3, p)
        i = int(xp.indices(0, 1.5)[0])
        assert np.abs(xp.values[i] - wigner_section(psi, 1.5, 0.3, p, np.array([0.0]))[:, 0]).max() <= 1e-15

    def test_coverage_mask(self):
        psi = ground_state_grid(half_width=5.0, spacing=0.5)  # covers x, y in [-1, 1] only
        plane = wigner_xy(psi)
        assert np.allclose(plane.axis(0), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.allclose(plane.axis(1), plane.axis(0))
        assert np.allclose(wigner_xp(psi, 1.0, [0.0]).axis(0), plane.axis(0))
        with pytest.raises(DomainError):
            wigner_xp(psi, 1.5, [0.0])
        with pytest.raises(DomainError):
            plane.indices(0, [1.5])

    def test_lattice_too_small(self):
        psi = ground_state_grid(half_width=3.0)
        with pytest.raises(DomainError, match="need at least"):
            wigner_xy(psi)
        with pytest.raises(DomainError, match="need at least"):
            wigner_xp(psi, 0.0, [0.0])

    def test_wigner_xy_takes_real_psi_only(self):
        with pytest.raises(DomainError, match="real wave function"):
            wigner_xy(cross_squeezed_state_grid(0.5, half_width=5.0, spacing=0.25))

    def test_imaginary_residual_is_asserted(self):
        # the residual check is absolute: at amplitude 1e8 rounding leaves imaginary parts far above 1e-9
        psi = cross_squeezed_state_grid(0.5, half_width=5.0, spacing=0.25)
        loud = GridFunction2D(psi.origin, psi.spacing, 1e8 * psi.values)
        with pytest.raises(NumericsError, match="imaginary residual"):
            wigner_xp(loud, 0.0, [0.5, 1.0])
        assert np.abs(wigner_xp(psi, 0.0, [0.5, 1.0]).values).max() > 0

    @pytest.mark.parametrize("p", [[], [[0.0, 1.0]], [0.0, 0.5, 1.5], [1.0, 0.0]])
    def test_momentum_grid_must_be_even(self, p):
        with pytest.raises(DomainError):
            wigner_xp(ground_state_grid(half_width=5.0, spacing=0.5), 0.0, p)

    def test_unequal_spacing_rejected(self):
        psi = GridFunction2D((0.0, 0.0), (0.5, 0.25), np.ones((21, 41)))
        with pytest.raises(DomainError, match="equal spacing"):
            wigner_xy(psi)


@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
def test_wigner_normalization(eta):
    """The numerical Wigner function integrates to one over phase space.

    Positions are integrated with Gauss-Hermite in the squeeze-adapted
    normal coordinates (the density is Gaussian up to the numerical error
    under test), momenta with a trapezoid wide enough for the broadened
    momentum spread.
    """
    from entosc.entangled_series import squeezed_wavefunction
    from entosc.oscillator_basis import quadrature

    rule = quadrature(24)
    wide, narrow = math.exp(eta), math.exp(-eta)
    u = rule.nodes[:, None] * wide
    v = rule.nodes[None, :] * narrow
    X = (u + v) / math.sqrt(2.0)
    Y = (u - v) / math.sqrt(2.0)
    pmax = 5.0 * wide / math.sqrt(2.0) + 1.0
    pgrid = np.arange(-pmax, pmax + 0.1, 0.2)

    def psi_fn(xx, yy):
        return squeezed_wavefunction(0, eta, xx, yy)

    total = 0.0
    for i in range(rule.order):
        for j in range(rule.order):
            x, y = float(X[i, j]), float(Y[i, j])
            psi = GridFunction2D.from_function(psi_fn, 6.0, 0.1, center=(x, y))
            W = wigner_section(psi, x, y, pgrid, pgrid)
            marginal = np.trapezoid(np.trapezoid(W, pgrid, axis=1), pgrid)
            # undo the e^{-u~^2 - v~^2} weight; the u, v scalings cancel
            total += rule.weights[i] * rule.weights[j] * marginal * math.exp(
                rule.nodes[i] ** 2 + rule.nodes[j] ** 2
            )
    assert abs(total - 1.0) < 1e-6


class TestFlowCovariance:
    def test_identity_flow(self):
        assert flow_covariance_check("Q3", 0.0) < 1e-12

    @pytest.mark.parametrize("label", ["Q3", "K3", "Q3-L2"])
    def test_covariance_at_half(self, label):
        assert flow_covariance_check(label, 0.5) <= 1e-5

    def test_unknown_label(self):
        with pytest.raises(DomainError):
            flow_covariance_check("L1", 0.5)

    def test_q3_squeezes_positions_and_momenta_oppositely(self):
        M = expm(0.5 * flow_matrix("Q3"))
        c, s = math.cosh(0.25), math.sinh(0.25)
        assert np.abs(M[:2, :2] - [[c, s], [s, c]]).max() < 1e-12
        assert np.abs(M[2:, 2:] - [[c, -s], [-s, c]]).max() < 1e-12

    def test_k3_squeezes_cross_planes_same_sign(self):
        M = expm(0.5 * flow_matrix("K3"))
        assert M[0, 3] == pytest.approx(M[1, 2], abs=1e-14)
        assert M[0, 3] == pytest.approx(-math.sinh(0.25), abs=1e-12)

    def test_sample_cloud_is_bounded(self):
        for pt in DEFAULT_SAMPLE_POINTS:
            assert max(abs(c) for c in (pt.x, pt.y, pt.p, pt.q)) <= 2.0
        assert len(DEFAULT_SAMPLE_POINTS) == 16

    def test_symplectic_volume(self):
        for label in ("Q3", "K3", "Q3-L2"):
            assert abs(np.linalg.det(expm(0.7 * flow_matrix(label))) - 1.0) < 1e-12


class TestFlowExponential:
    def test_flow_matrices_square_to_quarter_identity_or_zero(self):
        for label in FLOW_LABELS:
            A = flow_matrix(label)
            expected = np.zeros((4, 4)) if label == "Q3-L2" else np.eye(4) / 4.0
            assert np.array_equal(A @ A, expected)

    @given(st.sampled_from(FLOW_LABELS), st.floats(-2.0, 3.0, allow_nan=False))
    def test_closed_form_matches_expm(self, label, t):
        assert np.abs(flow_exponential(label, t) - expm(t * flow_matrix(label))).max() <= 1e-14


class TestTransformedStates:
    def test_sheared_state_matches_pushforward(self):
        alpha = 0.3
        grid = sheared_state_grid(alpha, half_width=2.0, spacing=0.5)
        x, y = 1.0, -0.5
        i, j = grid.index_of(x, y)
        expected = math.exp(-0.5 * ((x - 2 * alpha * y) ** 2 + y**2)) / math.sqrt(math.pi)
        assert grid.values[i, j] == pytest.approx(expected, rel=1e-13)

    def test_cross_squeezed_state_is_normalized(self):
        psi = cross_squeezed_state_grid(0.5, half_width=6.0, spacing=0.05)
        h = psi.spacing[0]
        norm = float(np.sum(np.abs(psi.values) ** 2)) * h * h
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_cross_squeezed_state_reduces_to_ground(self):
        psi = cross_squeezed_state_grid(0.0, half_width=2.0, spacing=0.5)
        ref = ground_state_grid(half_width=2.0, spacing=0.5)
        assert np.abs(psi.values - ref.values).max() < 1e-14
