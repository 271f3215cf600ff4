"""The ten generators and their commutator table in all three forms."""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from entosc import CutoffError, DomainError, dirac_algebra, errors
from entosc.cli import main
from entosc.dirac_algebra import (
    LABELS,
    check_algebra,
    canonical_pairs,
    fock_generators,
    safe_sector_mask,
    sp4_generators,
    structure_constant,
)

FOCK_CUTOFF_MAX, DENSE_FOCK_CUTOFF_MAX = 2071, 67  # the caps at the default 4 GiB byte budget

# algebra-check --rep fock as the complex-band check printed it: max_deviation at the README example
# (cutoff 10), the benchmark's three jobs (30, 20, 10), the CI array job (60) and the array route at scale
# (200), and at cutoff 30 every per-pair deviation, in canonical pair order, as float.hex
FOCK_PRINTED_MAX = {
    10: "5.3290705182e-15", 20: "2.13162820728e-14", 30: "4.97379915032e-14", 60: "2.82440737465e-13",
    200: "2.74269496003e-12",
}
FOCK_PAIRS_30_HEX = [
    "0x1.7000000000000p-45", "0x1.1800000000000p-45", "0x1.8000000000000p-45", "0x1.0000000000000p-46",
    "0x1.1000000000000p-46", "0x1.6800000000000p-46", "0x1.0000000000000p-46", "0x1.1000000000000p-46",
    "0x1.6800000000000p-46", "0x1.1800000000000p-45", "0x1.8000000000000p-45", "0x1.1000000000000p-46",
    "0x1.0000000000000p-46", "0x1.6800000000000p-46", "0x1.1000000000000p-46", "0x1.0000000000000p-46",
    "0x1.6800000000000p-46", "0x0.0p+0", "0x1.4000000000000p-45", "0x1.4000000000000p-45",
    "0x1.2000000000000p-45", "0x1.4000000000000p-45", "0x1.4000000000000p-45", "0x1.2000000000000p-45",
    "0x1.4000000000000p-45", "0x1.4000000000000p-45", "0x1.2800000000000p-45", "0x1.4000000000000p-45",
    "0x1.4000000000000p-45", "0x1.2800000000000p-45", "0x1.1000000000000p-45", "0x1.0000000000000p-46",
    "0x1.1000000000000p-45", "0x0.0p+0", "0x1.0000000000000p-46", "0x1.0000000000000p-46",
    "0x0.0p+0", "0x1.1000000000000p-45", "0x1.0000000000000p-46", "0x1.0000000000000p-46",
    "0x1.0000000000000p-46", "0x1.c000000000000p-45", "0x1.1000000000000p-45", "0x1.0000000000000p-46",
    "0x1.0000000000000p-46",
]

O32_METRIC = np.diag([1.0, 1.0, 1.0, -1.0, -1.0])
# symplectic form on (x, y, p, q) with conjugate pairs (x, p) and (y, q)
SYMPLECTIC_FORM = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])


def two_mode_ladders(cutoff):
    """Annihilation matrices (a, b) on |n, m>, n, m <= cutoff, a-mode outer, as dense arrays.

    Each is one band G[j - k, j] = v[j] as _fock_bands lays the ladders out, v[(n, m)] = sqrt(n) at
    k = cutoff + 1 for a and sqrt(m) at k = 1 for b, assembled by the _dense that fock_generators uses.
    """
    dim = dirac_algebra._check_cutoff(cutoff, dense=True) + 1
    root = np.sqrt(np.arange(dim))
    return dirac_algebra._dense({dim: np.repeat(root, dim)}), dirac_algebra._dense({1: np.tile(root, dim)})


def matrix5_generators():
    """The ten 5x5 generators as complex arrays (entries 0, +/- i), from the checker's integer table."""
    return {lab: 1j * np.array(dirac_algebra._matrix5_im(lab), dtype=float) for lab in LABELS}


def metric_defect(G):
    """max |B g + g B^T| with B = -iG: zero iff B generates O(3,2) flows."""
    B = np.real(-1j * np.asarray(G, dtype=complex))
    return float(np.abs(B @ O32_METRIC + O32_METRIC @ B.T).max())


def symplectic_defect(A):
    """max |A^T J + J A|: zero iff the flow of A is canonical."""
    return float(np.abs(A.T @ SYMPLECTIC_FORM + SYMPLECTIC_FORM @ A).max())


def hermiticity_defect(G):
    return float(np.abs(G - G.conj().T).max())


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

    @given(st.integers(2, math.isqrt(dirac_algebra.LIST_STATES_MAX) + 9))
    @settings(max_examples=20, deadline=None)
    def test_list_and_array_bands_give_the_same_deviations(self, cutoff):
        # below the switch the bands are lists of floats, above it numpy arrays; every float
        # operation is the same, so every per-pair deviation is the same to the bit
        reports = {}
        for kind, states_max in (("list", 10**9), ("array", 0)):
            with mock.patch.object(dirac_algebra, "LIST_STATES_MAX", states_max):
                vectors = [v for _, v in dirac_algebra._fock_bands(cutoff).values()]
                assert all(isinstance(v, list) == (kind == "list") for v in vectors)
                reports[kind] = check_algebra("fock", cutoff=cutoff)
        assert reports["list"] == reports["array"]
        assert all(type(p.deviation) is float for p in reports["list"].pairs)

    def test_list_bands_run_only_where_their_bytes_fit(self, monkeypatch):
        # the lists charge their own bytes per state; where the budget cannot hold them the arrays run
        edge = math.isqrt(dirac_algebra.LIST_STATES_MAX) - 1
        assert dirac_algebra._vector(edge) is dirac_algebra._Floats
        assert dirac_algebra._vector(edge + 1) is not dirac_algebra._Floats
        monkeypatch.setattr(errors, "BYTE_BUDGET", 2**20)
        fits = math.isqrt(2**20 // dirac_algebra._LIST_BYTES) - 1
        assert dirac_algebra._vector(fits) is dirac_algebra._Floats
        assert dirac_algebra._vector(fits + 1) is not dirac_algebra._Floats
        assert check_algebra("fock", cutoff=fits + 1).max_deviation <= 1e-10

    def test_printed_deviations_are_pinned_to_the_bit(self, capsys):
        for cutoff, printed in FOCK_PRINTED_MAX.items():
            assert main(["algebra-check", "--rep", "fock", "--cutoff", str(cutoff)]) == 0
            assert f"max_deviation = {printed}\n" in capsys.readouterr().out
        for kind, states_max in (("list", 10**9), ("array", 0)):
            with mock.patch.object(dirac_algebra, "LIST_STATES_MAX", states_max):
                assert [p.deviation.hex() for p in check_algebra("fock", cutoff=30).pairs] == FOCK_PAIRS_30_HEX, kind

    def test_scales_leave_the_check_real(self):
        # G = scale * R with R real: every scale is a power of two times 1, -1, i or -i, and for every pair
        # the expected term's ratio r = i lam sT / (sL sR) is real, so no imaginary part is dropped
        scales = {lab: complex(scale) for lab, (scale, _) in dirac_algebra._FOCK.items()}
        assert all((s.real == 0) != (s.imag == 0) and math.log2(abs(s)).is_integer() for s in scales.values())
        for left, right in canonical_pairs():
            lam, target = structure_constant(left, right) or (0, left)
            ratio = 1j * lam * scales[target] / (scales[left] * scales[right])
            assert ratio.imag == 0 and (lam == 0 or math.log2(abs(ratio)).is_integer()), (left, right, ratio)

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
        # the ten products the generators are built from, each one band, are the dense products to the bit
        ad, bd = a.T, b.T
        dense = {
            "ad ad": ad @ ad, "a a": a @ a, "bd bd": bd @ bd, "b b": b @ b,
            "ad b": ad @ b, "bd a": bd @ a, "ad bd": ad @ bd, "a b": a @ b,
            "L3": ad @ a - bd @ b, "S3": ad @ a + bd @ b + np.eye(36),
        }
        bands = dirac_algebra._fock_bands(5)
        assert set(bands) == set(dense)
        for name, (k, v) in bands.items():
            assert np.array_equal(dirac_algebra._dense({k: v}), dense[name]), name

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

    def test_caps_follow_the_byte_budget(self, monkeypatch):
        # about 1 kB per basis state for the banded check, 12 dense matrices of 16 (c + 1)^4 bytes each;
        # the caps are read at call time, so a patched budget moves them
        for budget in (errors.BYTE_BUDGET, 2**20):
            monkeypatch.setattr(errors, "BYTE_BUDGET", budget)
            with pytest.raises(CutoffError) as banded:
                check_algebra("fock", cutoff=10**6)
            with pytest.raises(CutoffError) as dense:
                fock_generators(10**6)
            cap, dense_cap = (int(re.search(r"cap of (\d+)", str(e.value))[1]) for e in (banded, dense))
            assert 1000 * (cap + 1) ** 2 <= budget < 1000 * (cap + 2) ** 2
            assert 12 * 16 * (dense_cap + 1) ** 4 <= budget < 12 * 16 * (dense_cap + 2) ** 4
        # the 1 MiB caps, 31 and 7, admit their own cutoff and refuse the next
        assert check_algebra("fock", cutoff=cap).max_deviation <= 1e-10
        assert set(fock_generators(dense_cap)) == set(LABELS)
        for call, refused in ((safe_sector_mask, cap + 1), (two_mode_ladders, dense_cap + 1)):
            with pytest.raises(CutoffError, match=f"cap of {refused - 1} "):
                call(refused)

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
        # every one of the 90 ordered pairs against the brackets of the module docstring, built here from
        # eps_ijk and delta_ij: the table holds only the nonzero ones, so a missing entry would read as zero
        eps = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1, (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}
        expected = {}
        for (i, j, k), e in eps.items():
            expected[f"L{i}", f"L{j}"] = (e, f"L{k}")
            expected[f"L{i}", f"K{j}"] = (e, f"K{k}")
            expected[f"L{i}", f"Q{j}"] = (e, f"Q{k}")
            expected[f"K{i}", f"K{j}"] = expected[f"Q{i}", f"Q{j}"] = (-e, f"L{k}")
        for i in (1, 2, 3):
            expected[f"K{i}", f"Q{i}"] = (-1, "S3")  # delta_ij: Ki and Qj commute for i != j
            expected[f"K{i}", "S3"] = (-1, f"Q{i}")
            expected[f"Q{i}", "S3"] = (1, f"K{i}")
        for (left, right), (lam, target) in list(expected.items()):
            assert expected.setdefault((right, left), (-lam, target)) == (-lam, target)  # [B, A] = -[A, B]
        assert len(expected) == 60  # 30 nonzero brackets, in both orders; the other 30 ordered pairs commute
        for left in LABELS:
            for right in LABELS:
                if left != right:
                    assert structure_constant(left, right) == expected.get((left, right)), (left, right)

    def test_report_serialization(self, tmp_path):
        # the JSON report is the CLI's; the library returns the AlgebraReport it serializes
        assert main(["algebra-check", "--rep", "sp4", "--json", str(tmp_path / "report.json")]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["rep"] == "sp4"
        assert payload["max_deviation"] == 0.0
        assert len(payload["pairs"]) == 45
        assert payload["pairs"][0] == {"pair": "[L1,L2]", "expected": "i*L3", "deviation": 0.0}

    @given(st.sampled_from(LABELS), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_exact_sp4_check_sees_one_flipped_entry(self, label, i, j):
        # any one changed entry breaks the table; the plain-Python products must see it
        flipped = [row[:] for row in dirac_algebra._SP4_TWICE[label]]
        flipped[i][j] = -flipped[i][j] if flipped[i][j] else 1
        with mock.patch.dict(dirac_algebra._SP4_TWICE, {label: flipped}):
            assert check_algebra("sp4").max_deviation > 0.0

    @pytest.mark.parametrize("label", LABELS)
    def test_exact_matrix5_check_sees_one_flipped_plane(self, label):
        # the flipped sign turns a rotation into a boost or back
        a, b, sign = dirac_algebra._M5_PLANES[label]
        with mock.patch.dict(dirac_algebra._M5_PLANES, {label: (a, b, -sign)}):
            assert check_algebra("matrix5").max_deviation > 0.0

    @pytest.mark.parametrize("rep, table, label, flipped", [
        ("sp4", "_SP4_TWICE", "L1", [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]),
        ("matrix5", "_M5_PLANES", "K1", (0, 3, -1)),  # (x, t) rotation in place of the boost
    ], ids=["sp4", "matrix5"])
    def test_flipped_entry_exits_two(self, rep, table, label, flipped, capsys):
        with mock.patch.dict(getattr(dirac_algebra, table), {label: flipped}):
            assert main(["algebra-check", "--rep", rep]) == 2
        assert capsys.readouterr().out.endswith("FAIL: commutator table not satisfied at tolerance\n")

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
