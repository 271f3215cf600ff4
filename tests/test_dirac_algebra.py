"""The ten generators and their commutator table in all three forms."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from entosc import CutoffError, DomainError
from entosc.cli import main
from entosc.dirac_algebra import (
    DENSE_FOCK_CUTOFF_MAX,
    FOCK_CUTOFF_MAX,
    LABELS,
    check_algebra,
    canonical_pairs,
    fock_generators,
    hermiticity_defect,
    matrix5_generators,
    metric_defect,
    safe_sector_mask,
    sp4_generators,
    structure_constant,
    symplectic_defect,
    two_mode_ladders,
)
from entosc.errors import BYTE_BUDGET


class TestFockOperators:
    def test_l3_is_half_number_difference(self):
        gens = fock_generators(4)
        n, m = np.divmod(np.arange(25), 5)
        assert np.allclose(np.diag(gens["L3"]).real, (n - m) / 2.0, atol=1e-14)
        # |1, 0> sits at index 5 and carries +1/2
        assert gens["L3"][5, 5].real == pytest.approx(0.5, abs=1e-14)

    def test_s3_vacuum_eigenvalue(self):
        gens = fock_generators(4)
        assert gens["S3"][0, 0].real == pytest.approx(0.5, abs=1e-14)

    def test_all_ten_hermitian(self):
        gens = fock_generators(8)
        assert max(hermiticity_defect(G) for G in gens.values()) < 1e-13

    def test_ladder_action(self):
        a, b = two_mode_ladders(3)
        # a|2, 1> = sqrt(2) |1, 1>: indices 2*4+1 = 9 and 1*4+1 = 5
        vec = np.zeros(16)
        vec[9] = 1.0
        out = a @ vec
        assert out[5] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        out = b @ vec
        assert out[8] == pytest.approx(1.0, abs=1e-15)

    def test_cutoff_validation(self):
        with pytest.raises(DomainError):
            fock_generators(1)


def kron_generators(cutoff):
    """Dense reference: the ten bilinears from np.kron ladders and dense products."""
    dim = cutoff + 1
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    a, b = np.kron(lower, np.eye(dim)), np.kron(np.eye(dim), lower)
    ad, bd = a.T, b.T
    gens = {
        "L1": (ad @ b + bd @ a) / 2.0,
        "L2": (ad @ b - bd @ a) / 2j,
        "L3": (ad @ a - bd @ b) / 2.0,
        "S3": (ad @ a + bd @ b + np.eye(dim * dim)) / 2.0,
        "K1": -(ad @ ad + a @ a - bd @ bd - b @ b) / 4.0,
        "K2": 1j * (ad @ ad - a @ a + bd @ bd - b @ b) / 4.0,
        "K3": (ad @ bd + a @ b) / 2.0,
        "Q1": 1j * (ad @ ad - a @ a - bd @ bd + b @ b) / 4.0,
        "Q2": (ad @ ad + a @ a + bd @ bd + b @ b) / 4.0,
        "Q3": -1j * (ad @ bd - a @ b) / 2.0,
    }
    return {lab: gens[lab].astype(complex) for lab in LABELS}


def dense_pair_deviations(cutoff):
    """Per-pair max |[G, G'] - i*lam*G''| over safe-sector columns, by dense products."""
    gens = kron_generators(cutoff)
    dim = cutoff + 1
    n, m = np.divmod(np.arange(dim * dim), dim)
    mask = (n + m) <= cutoff - 2
    out = []
    for left, right in canonical_pairs():
        comm = gens[left] @ gens[right] - gens[right] @ gens[left]
        entry = structure_constant(left, right)
        if entry is not None:
            lam, target = entry
            comm = comm - 1j * lam * gens[target]
        out.append(float(np.abs(comm[:, mask]).max()))
    return out


class TestBandedFock:
    @given(st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_pair_deviations_match_dense_products(self, cutoff):
        report = check_algebra("fock", cutoff=cutoff)
        assert [(p.left, p.right) for p in report.pairs] == canonical_pairs()
        dense = dense_pair_deviations(cutoff)
        assert max(abs(p.deviation - d) for p, d in zip(report.pairs, dense)) <= 1e-13
        assert report.max_deviation == max(p.deviation for p in report.pairs)

    @pytest.mark.parametrize("cutoff", [2, 3, 7])
    def test_generators_match_kron_reference(self, cutoff):
        gens, ref = fock_generators(cutoff), kron_generators(cutoff)
        assert set(gens) == set(LABELS)
        for lab in LABELS:
            assert gens[lab].dtype == complex
            assert np.abs(gens[lab] - ref[lab]).max() <= 1e-13

    def test_ladders_match_kron_reference(self):
        lower = np.diag(np.sqrt(np.arange(1.0, 6)), 1)
        a, b = two_mode_ladders(5)
        assert np.array_equal(a, np.kron(lower, np.eye(6)))
        assert np.array_equal(b, np.kron(np.eye(6), lower))

    def test_large_cutoff_on_the_command_line(self, capsys):
        code = main(["algebra-check", "--rep", "fock", "--cutoff", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pairs = 45" in out
        assert float(out.split("max_deviation = ")[1].split("\n")[0]) <= 1e-10

    @pytest.mark.parametrize("cutoff", [1, 0, -3, 2.5, 10.01, float("nan"), float("inf"), "10"])
    def test_invalid_cutoff_raises(self, cutoff):
        with pytest.raises(DomainError):
            check_algebra("fock", cutoff=cutoff)
        with pytest.raises(DomainError):
            fock_generators(cutoff)

    @pytest.mark.parametrize("cutoff", ["1", "0", "2.5"])
    def test_invalid_cutoff_exits_one(self, cutoff, capsys):
        assert main(["algebra-check", "--rep", "fock", "--cutoff", cutoff]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", [20, 30])
    def test_cutoffs_in_use_pass(self, cutoff):
        assert check_algebra("fock", cutoff=cutoff).max_deviation <= 1e-10

    @pytest.mark.parametrize("cutoff", [FOCK_CUTOFF_MAX + 1, 10**400])
    def test_cutoff_above_the_cap_raises(self, cutoff):
        # 10**400 used to reach numpy's "Maximum allowed size exceeded"
        with pytest.raises(CutoffError, match="cap"):
            check_algebra("fock", cutoff=cutoff)
        with pytest.raises(CutoffError):
            safe_sector_mask(cutoff)

    def test_caps_follow_the_byte_budget(self):
        # about 1 kB per basis state for the banded check, 16 (c + 1)^4 bytes per dense matrix
        assert 1000 * (FOCK_CUTOFF_MAX + 1) ** 2 <= BYTE_BUDGET < 1000 * (FOCK_CUTOFF_MAX + 2) ** 2
        assert 16 * (DENSE_FOCK_CUTOFF_MAX + 1) ** 4 <= BYTE_BUDGET < 16 * (DENSE_FOCK_CUTOFF_MAX + 2) ** 4

    def test_dense_cutoff_cap(self):
        a, _ = two_mode_ladders(31)
        assert a.shape == (32**2,) * 2
        for dense in (fock_generators, two_mode_ladders):
            with pytest.raises(CutoffError, match="cap"):
                dense(DENSE_FOCK_CUTOFF_MAX + 1)

    @pytest.mark.parametrize("cutoff", [str(FOCK_CUTOFF_MAX + 1), "1" + "0" * 400])
    def test_cutoff_above_the_cap_exits_one(self, cutoff, capsys):
        assert main(["algebra-check", "--rep", "fock", "--cutoff", cutoff]) == 1
        assert "above the cap" in capsys.readouterr().err


class TestPrintedMatrices:
    def test_l3_matrix(self):
        L3 = matrix5_generators()["L3"]
        expected = np.zeros((5, 5), dtype=complex)
        expected[0, 1] = -1j
        expected[1, 0] = 1j
        assert np.array_equal(L3, expected)

    def test_k3_q3_matrices(self):
        gens = matrix5_generators()
        K3 = np.zeros((5, 5), dtype=complex)
        K3[2, 3] = K3[3, 2] = 1j
        Q3 = np.zeros((5, 5), dtype=complex)
        Q3[2, 4] = Q3[4, 2] = 1j
        assert np.array_equal(gens["K3"], K3)
        assert np.array_equal(gens["Q3"], Q3)

    def test_s3_rotates_time_plane(self):
        S3 = matrix5_generators()["S3"]
        expected = np.zeros((5, 5), dtype=complex)
        expected[3, 4] = -1j
        expected[4, 3] = 1j
        assert np.array_equal(S3, expected)
        # no action outside the (t, s) block
        assert np.abs(S3[:3, :]).max() == 0.0


class TestAlgebraTable:
    def test_matrix5_exact(self):
        report = check_algebra("matrix5")
        assert len(report.pairs) == 45
        assert report.max_deviation == 0.0

    def test_sp4_exact(self):
        report = check_algebra("sp4")
        assert report.max_deviation == 0.0

    def test_fock_on_safe_sector(self):
        report = check_algebra("fock", cutoff=10)
        assert report.max_deviation <= 1e-10

    def test_k3_q3_pair_is_minus_i_s3(self):
        report = check_algebra("matrix5")
        by_pair = {(p.left, p.right): p for p in report.pairs}
        pair = by_pair[("K3", "Q3")]
        assert pair.expected == "-i*S3"
        assert pair.deviation == 0.0

    def test_rotations_commute_with_s3_on_full_space(self):
        gens = fock_generators(10)
        for i in (1, 2, 3):
            L, S3 = gens[f"L{i}"], gens["S3"]
            assert np.abs(L @ S3 - S3 @ L).max() < 1e-12

    def test_boost_boost_closes_on_rotations(self):
        assert structure_constant("K1", "K2") == (-1, "L3")
        assert structure_constant("K2", "K1") == (1, "L3")
        assert structure_constant("Q1", "Q2") == (-1, "L3")

    def test_pair_count_and_coverage(self):
        pairs = canonical_pairs()
        assert len(pairs) == 45
        assert len(set(pairs)) == 45
        for left, right in pairs:
            structure_constant(left, right)  # raises on any gap

    def test_report_serialization(self):
        payload = json.loads(check_algebra("sp4").to_json())
        assert payload["rep"] == "sp4"
        assert payload["max_deviation"] == 0.0
        assert len(payload["pairs"]) == 45
        assert {"pair", "expected", "deviation"} <= set(payload["pairs"][0])

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            check_algebra("fock")
        with pytest.raises(DomainError):
            check_algebra("matrix5", cutoff=8)
        with pytest.raises(DomainError):
            check_algebra("so99")


class TestStructuralProperties:
    def test_metric_antisymmetry(self):
        assert max(metric_defect(G) for G in matrix5_generators().values()) == 0.0

    def test_symplectic_condition(self):
        assert max(symplectic_defect(A) for A in sp4_generators().values()) == 0.0

    def test_liouville_unit_determinant(self):
        for A in sp4_generators().values():
            assert abs(np.linalg.det(expm(0.8 * A)) - 1.0) < 1e-12

    def test_safe_sector_mask(self):
        mask = safe_sector_mask(4)
        n, m = np.divmod(np.arange(25), 5)
        assert np.array_equal(mask, (n + m) <= 2)


class TestFlows:
    def test_q3_flow_blocks(self):
        A = sp4_generators()["Q3"]
        eta = 0.8
        M = expm(2.0 * eta * A)
        c, s = np.cosh(eta), np.sinh(eta)
        assert np.abs(M[:2, :2] - [[c, s], [s, c]]).max() < 1e-12
        assert np.abs(M[2:, 2:] - [[c, -s], [-s, c]]).max() < 1e-12
        assert np.abs(M[:2, 2:]).max() == 0.0

    def test_k3_flow_squeezes_xq_and_yp_with_same_sign(self):
        A = sp4_generators()["K3"]
        eta = 0.6
        M = expm(2.0 * eta * A)
        c, s = np.cosh(eta), np.sinh(eta)
        # (x, q) block
        assert M[0, 0] == pytest.approx(c, abs=1e-12)
        assert M[0, 3] == pytest.approx(-s, abs=1e-12)
        assert M[3, 0] == pytest.approx(-s, abs=1e-12)
        # (y, p) block squeezes with the same sign
        assert M[1, 2] == pytest.approx(-s, abs=1e-12)
        assert M[2, 1] == pytest.approx(-s, abs=1e-12)

    def test_shear_combination_nilpotent_and_shears_both_planes(self):
        gens = sp4_generators()
        A = gens["Q3"] - gens["L2"]
        assert np.abs(A @ A).max() == 0.0
        alpha = 0.45
        M = expm(2.0 * alpha * A)
        for point, image in [
            ((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
            ((0.0, 1.0, 0.0, 0.0), (2 * alpha, 1.0, 0.0, 0.0)),
            ((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 1.0, -2 * alpha)),
            ((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)),
        ]:
            assert np.abs(M @ np.array(point) - np.array(image)).max() < 1e-12
