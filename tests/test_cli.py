"""Exit-code contract, CSV/JSON formats, and config handling of the CLI."""

import ast
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import entosc
from entosc import entangled_series, errors, oscillator_basis, phase_space
from entosc.cli import main
from entosc.dirac_algebra import LIST_STATES_MAX
from entosc.entangled_series import _arange
from entosc.reduced_state import THERMO_CURVE_MAX_STEPS, ThermoPoint, beta_sq_grid, entropy, temperature, write_thermo_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIdentityCheck:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--n", "0", "--eta", "0.5")
        assert code == 0
        assert "max_deviation" in out
        assert out.strip().endswith("OK")

    def test_zero_rapidity_is_machine_exact(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--eta", "0")
        assert code == 0
        dev = float(out.split("max_deviation = ")[1].split("\n")[0])
        assert dev < 1e-14

    def test_excited_state(self, capsys):
        code, _, _ = run(capsys, "identity-check", "--n", "3", "--eta", "1.0")
        assert code == 0

    def test_tolerance_breach_exits_two(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--eta", "0.5", "--tol", "1e-30")
        assert code == 2
        assert "FAIL" in out

    def test_nan_deviation_exits_two(self, capsys, monkeypatch):
        # the array route: _series_sum is called only above the float route's work switch
        monkeypatch.setattr(entangled_series, "LIST_WORK_MAX", 0)
        monkeypatch.setattr(entangled_series, "_series_sum", lambda n, coeffs, x, y: np.full((x.size, y.size), np.nan))
        code, out, _ = run(capsys, "identity-check", "--eta", "0.5")
        assert code == 2
        assert "max_deviation = nan" in out
        assert out.strip().splitlines()[-1].startswith("FAIL:")

    @pytest.mark.parametrize("side", ["_series_rows", "_squeezed"])
    def test_nan_on_the_float_route_exits_two(self, side, capsys, monkeypatch):
        # one nan at point (3, 5), past the first point of a row and of the grid: Python's max would drop it
        if side == "_series_rows":
            rows = entangled_series._series_rows

            def with_nan(*args):
                for i, row in enumerate(rows(*args)):
                    if i == 3:
                        row[5] = math.nan
                    yield row

        else:  # the squeezed Gaussian, one point per call, row by row
            squeezed, calls = oscillator_basis._squeezed, iter(range(33 * 33))

            def with_nan(*args):
                value = squeezed(*args)
                return math.nan if next(calls) == 3 * 33 + 5 else value

        monkeypatch.setattr(oscillator_basis if side == "_squeezed" else entangled_series, side, with_nan)
        code, out, _ = run(capsys, "identity-check", "--eta", "0.5")
        assert code == 2
        assert "(33^2 points)" in out and "max_deviation = nan" in out
        assert out.strip().splitlines()[-1].startswith("FAIL:")

    def test_missing_argument_exits_one(self, capsys):
        code, _, err = run(capsys, "identity-check")
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("eta", ["20", "5"])
    def test_out_of_reach_rapidity_exits_one(self, eta, capsys):
        code, _, err = run(capsys, "identity-check", "--eta", eta)
        assert code == 1
        assert err.startswith("error: series cutoff") and "needs K >=" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--spacing", "nan"),
            ("--spacing", "inf"),
            ("--xmin=-inf",),
            ("--xmax", "nan"),
            ("--spacing", "0.0005"),
            ("--spacing", "1e-300"),
            ("--xmin=-1e308", "--xmax", "1e308"),
        ],
    )
    def test_bad_grid_exits_one_before_summing(self, flags, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("summed the series")

        monkeypatch.setattr(entangled_series, "_series_sum", never)  # the array route's series
        monkeypatch.setattr(entangled_series, "_series_rows", never)  # the float route's
        code, _, err = run(capsys, "identity-check", "--eta", "0.5", *flags)
        assert code == 1
        assert err.startswith("error:")

    def test_grid_budget_names_the_size(self, capsys):
        code, _, err = run(capsys, "identity-check", "--eta", "0.5", "--spacing", "0.0005")
        assert code == 1
        assert "a grid of 16001^2 points needs up to 13.4 GiB" in err

    def test_sums_on_an_open_mesh_within_budget(self, monkeypatch):
        # 1601^2 fits once the chi tables are built per axis (about 0.14 GiB in all)
        class Reached(Exception):
            pass

        def reached(n, coeffs, x, y):
            assert x.shape == (1601, 1) and y.shape == (1, 1601)
            raise Reached

        monkeypatch.setattr(entangled_series, "_series_sum", reached)
        with pytest.raises(Reached):
            main(["identity-check", "--eta", "0.5", "--spacing", "0.005"])

    def test_budget_does_not_grow_with_n(self, monkeypatch):
        # 7001^2 points at n = 5 fit in 7 doubles per point; n + 7 = 12 did not
        class Reached(Exception):
            pass

        def reached(n, coeffs, x, y):
            assert n == 5 and x.shape == (7001, 1) and y.shape == (1, 7001)
            raise Reached

        monkeypatch.setattr(entangled_series, "_series_sum", reached)
        with pytest.raises(Reached):
            main(["identity-check", "--n", "5", "--eta", "0.5", "--xmin=-3.5", "--xmax", "3.5", "--spacing", "0.001"])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 6),
        st.floats(-1.4, 1.4),
        st.floats(-6.0, 0.0),
        st.floats(0.5, 8.0),
        st.sampled_from(["0.5", "0.25", "0.1", "0.05"]),
    )
    @example(3, 1.0, -4.0, 8.0, "0.05")  # 161^2 points at K = 103: above LIST_WORK_MAX, so arrays unforced
    @example(0, 0.5, -4.0, 8.0, "0.25")  # the README's first example, below it
    @example(300, 0.0, -4.0, 8.0, "0.25")  # chi_300 is past the basis bound at eta = 0 too, on both routes
    def test_float_and_array_routes_agree(self, n, eta, xmin, width, spacing):
        runs = []
        for limit in (math.inf, 0):  # every grid on floats, then every grid on arrays
            with mock.patch.object(entangled_series, "LIST_WORK_MAX", limit):
                try:
                    runs.append(entangled_series.identity_check(n, eta, xmin, xmin + width, float(spacing), 1e-10))
                except errors.CutoffError as exc:
                    runs.append(str(exc))
        floats, arrays = runs
        if isinstance(floats, str):  # the series' CutoffError, the same on both routes
            assert floats == arrays and floats.startswith("series cutoff")
            return
        assert (floats.route, arrays.route) == ("floats", "arrays")
        assert (floats.points, floats.cutoff) == (arrays.points, arrays.cutoff)
        assert abs(floats.deviation - arrays.deviation) <= 1e-15
        # the series' K is the first k >= K0 whose amplitude tail bound A_k sup|chi chi| r / (1 - r), from the
        # closed-form coefficient, meets the tolerance: it does at K and, unless K = K0, not at K - 1
        K, a, tol = floats.cutoff, abs(eta), 1e-10
        if a:
            log_cosh, log_tanh = entangled_series._log_cosh(a), entangled_series._log_tanh(a)
            k0 = max(math.ceil((math.log(tol) - 2 * log_cosh) / (2 * log_tanh)), 8)

            def bound(k):
                r = math.tanh(a) * math.sqrt((n + k + 1) / (k + 1))
                return abs(entangled_series.coefficient(n, k, eta)) / math.sqrt(math.pi) * r / (1 - r) if r < 1 else math.inf

            assert bound(K) <= tol * (1 + 1e-9)
            assert K == k0 or bound(K - 1) > tol * (1 - 1e-9)

    @pytest.mark.parametrize("limit, route", [(math.inf, "_series_rows"), (0, "_series_sum")])
    def test_walks_the_cutoff_once(self, limit, route, monkeypatch):
        # the route is picked from the one cutoff search's K, and each route sums its coefficients up to that K
        searches, sums, search, series = [], [], entangled_series._series_cutoff, getattr(entangled_series, route)
        monkeypatch.setattr(entangled_series, "_series_cutoff", lambda *args: (searches.append(args), search(*args))[1])
        monkeypatch.setattr(entangled_series, route, lambda *args: (sums.append(args), series(*args))[1])
        monkeypatch.setattr(entangled_series, "LIST_WORK_MAX", limit)
        result = entangled_series.identity_check(3, -1.0, -4.0, 4.0, 0.25, 1e-10)
        assert (result.points, result.route) == (33, "floats" if limit else "arrays") and result.deviation <= 1e-8
        assert searches == [(3, -1.0, 1e-10)] and len(sums) == 1 and result.cutoff == len(sums[0][1]) - 1

    @pytest.mark.parametrize("over, route", [(0.0, "floats"), (1.0, "arrays")])
    def test_route_switches_at_the_work_limit(self, over, route, monkeypatch):
        # a grid of (K + 49 + 2.5 n) N^2 units of work runs on floats at exactly LIST_WORK_MAX, on arrays one unit past
        K = entangled_series._series_cutoff(3, -1.0, 1e-10)
        monkeypatch.setattr(entangled_series, "LIST_WORK_MAX", (K + 49 + 2.5 * 3) * 33**2 - over)
        assert entangled_series.identity_check(3, -1.0, -4.0, 4.0, 0.25, 1e-10).route == route


class TestAlgebraCheck:
    @pytest.mark.parametrize("rep", ["matrix5", "sp4"])
    def test_exact_reps(self, rep, capsys):
        code, out, _ = run(capsys, "algebra-check", "--rep", rep)
        assert code == 0
        assert "max_deviation = 0" in out

    def test_fock(self, capsys):
        code, out, _ = run(capsys, "algebra-check", "--rep", "fock", "--cutoff", "10")
        assert code == 0

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "algebra-check", "--rep", "sp4", "--json", "-")
        assert code == 0
        payload = json.loads(out[: out.rindex("}") + 1])
        assert len(payload["pairs"]) == 45
        assert payload["max_deviation"] == 0.0

    def test_cutoff_on_exact_rep_rejected(self, capsys):
        code, _, err = run(capsys, "algebra-check", "--rep", "sp4", "--cutoff", "8")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("rep", ["matrix5", "sp4"])
    def test_cutoff_off_fock_is_refused_by_check_algebra(self, rep, capsys):
        # the command passes --cutoff through, and the kernel's one check names it
        code, out, err = run(capsys, "algebra-check", "--rep", rep, "--cutoff", "5")
        assert (code, out) == (1, "")
        assert err == f"error: cutoff applies only to rep='fock', not {rep!r}\n"


class TestThermoCurve:
    def test_csv_contract(self, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "thermo-curve", "--steps", "200", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "beta_sq,entropy_nats,temperature"
        assert lines[1] == "0,0,0"
        assert len(lines) == 201
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        for a, b in zip(rows, rows[1:]):
            assert b[1] > a[1] and b[2] > a[2]

    @pytest.mark.parametrize("beta_sq_max", ["0.99", "0.9999"])
    def test_csv_matches_series_route(self, beta_sq_max, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "thermo-curve", "--beta-sq-max", beta_sq_max, "--steps", "200", "--out", str(out_file))
        assert code == 0
        points = []
        for q in np.linspace(0.0, float(beta_sq_max), 200):
            eta = math.atanh(math.sqrt(q))
            points.append(ThermoPoint(beta_sq=float(q), entropy=entropy(0, eta), temperature=temperature(eta)))
        buf = io.StringIO()
        write_thermo_csv(points, buf)
        assert out_file.read_text() == buf.getvalue()

    def test_byte_stable(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "thermo-curve", "--steps", "50", "--out", str(f1))
        run(capsys, "thermo-curve", "--steps", "50", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_io_error_exits_three(self, capsys):
        # every file writer of the CLI, not only this command's
        for argv in (
            ("thermo-curve", "--out", "/nonexistent-dir/x.csv"),
            ("wigner-grid", "--out", "/nonexistent-dir/x.csv"),
            ("algebra-check", "--rep", "sp4", "--json", "/nonexistent-dir/x.json"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 3
            assert "i/o error" in err

    def test_bad_range_exits_one(self, capsys):
        code, _, _ = run(capsys, "thermo-curve", "--beta-sq-max", "1.5", "--out", "-")
        assert code == 1

    def test_bad_range_is_refused_before_any_row(self):
        # every point used to be computed first: 999 999 rows and about 5 s before the exit
        argv = ["thermo-curve", "--beta-sq-max", "1.0", "--steps", str(THERMO_CURVE_MAX_STEPS), "--out", "-"]
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "entosc.cli", *argv], capture_output=True, text=True, env=source_env(), timeout=60
        )
        assert time.perf_counter() - started < 2.0
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "error: beta_sq_max must lie in [0, 1), got 1.0\n"

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(2, 10**4),
    )
    def test_grid_is_numpy_linspace_bit_for_bit(self, lo, hi, steps):
        assert np.array(beta_sq_grid(lo, hi, steps)).tobytes() == np.linspace(lo, hi, steps).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-3, 1e2))
    def test_axis_is_numpy_arange_bit_for_bit(self, start, stop, step):
        assume((stop - start) / step <= 10**4)
        assert np.array(_arange(start, stop, step)).tobytes() == np.arange(start, stop, step).tobytes()

    @pytest.mark.parametrize("lo, hi, steps", [(0.0, 5e-324, 3), (0.0, 1e-320, 10**4), (5e-323, 0.0, 1000)])
    def test_grid_of_a_subnormal_span_is_numpy_linspace(self, lo, hi, steps):
        # (hi - lo) / (steps - 1) rounds to zero, so numpy scales i / (steps - 1) by the span instead
        assert (hi - lo) / (steps - 1) == 0.0
        assert np.array(beta_sq_grid(lo, hi, steps)).tobytes() == np.linspace(lo, hi, steps).tobytes()

    def test_rows_are_written_as_they_are_computed(self, tmp_path, capsys):
        # the whole curve used to be held as ThermoPoints first: 160 B a row here, 198 MB at the step cap
        steps, out_file = 20_000, tmp_path / "curve.csv"
        run(capsys, "thermo-curve", "--steps", "2", "--out", str(out_file))  # load the modules outside the trace
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "thermo-curve", "--steps", str(steps), "--out", str(out_file))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, f"wrote {steps} rows to {out_file}\n")
        assert len(out_file.read_text().splitlines()) == steps + 1
        assert peak < 48 * steps  # the grid's list slot and float are 32 B a row

    @pytest.mark.parametrize("steps", [THERMO_CURVE_MAX_STEPS + 1, 2_000_000_000])
    def test_step_cap_exits_one(self, steps, capsys):
        code, out, err = run(capsys, "thermo-curve", "--steps", str(steps), "--out", "-")
        assert (code, out) == (1, "")
        assert err == f"error: steps must be an integer in [2, {THERMO_CURVE_MAX_STEPS}], got {steps}\n"


class TestDecomposeShear:
    def test_unit_shear_report(self, capsys):
        code, out, _ = run(capsys, "decompose-shear", "--alpha", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["bargmann"]["eta"] == pytest.approx(math.asinh(1.0), abs=1e-14)
        assert payload["bargmann"]["theta"] == pytest.approx(math.pi / 8, abs=1e-13)
        assert payload["bargmann"]["reconstruction_residual"] <= 1e-12
        assert payload["rotated_squeeze"]["exp_2eta"] == pytest.approx(
            3 + 2 * math.sqrt(2), rel=1e-12
        )
        assert payload["rotated_squeeze"]["form_residual"] <= 1e-12
        assert payload["squeezed_rotation"]["residual_vs_shear"] <= payload["squeezed_rotation"][
            "residual_bound"
        ]

    def test_tiny_shear_is_near_identity(self, capsys):
        code, out, _ = run(capsys, "decompose-shear", "--alpha", "0.000001")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["bargmann"]["eta"]) < 2e-6
        assert abs(payload["bargmann"]["theta_prime"]) < 1e-6

    @pytest.mark.parametrize("alpha", [1e-12, 1e8])
    def test_far_shears_keep_their_digits(self, alpha, capsys):
        # theta used to print 0.0 and the residual 0.99999998 at 1e8, the rotated-squeeze eta 9.9998e-13 at 1e-12
        code, out, _ = run(capsys, "decompose-shear", "--alpha", str(alpha), "--lam", "30")
        assert code == 0
        payload = json.loads(out)
        b, rs = payload["bargmann"], payload["rotated_squeeze"]
        assert payload["shear_max_entry"] == max(1.0, 2.0 * alpha)
        assert b["theta"] == rs["theta"] == pytest.approx(math.atan2(1.0, alpha) / 2, rel=1e-15)
        assert b["theta_prime"] == pytest.approx(-math.atan(alpha) / 2, rel=1e-15)
        assert b["eta"] == rs["eta"] == pytest.approx(math.asinh(alpha), rel=1e-15)
        assert b["reconstruction_residual"] <= 1e-13 * payload["shear_max_entry"]

    @pytest.mark.parametrize("alpha, lam", [(1e-12, "30"), (0.3, "4"), (1.0, "4"), (1e8, "30"), (1e150, "400")])
    def test_form_residual_is_small_against_its_printed_scale(self, alpha, lam, capsys):
        code, out, _ = run(capsys, "decompose-shear", "--alpha", str(alpha), "--lam", lam)
        assert code == 0
        rs = json.loads(out)["rotated_squeeze"]
        assert rs["form_max_entry"] == 1.0 + 4.0 * alpha * alpha
        assert rs["form_residual"] <= 1e-13 * rs["form_max_entry"]

    def test_printed_omega_is_the_matrix_angle(self, capsys):
        # one omega for the printout and the matrix; two formulas for it gave a cos(omega) one ulp apart
        # on ~4 % of these draws, whose omega runs from ~0.13 up to pi/2
        rng = np.random.default_rng(20000)
        for alpha, gap in zip(rng.uniform(0.25, 2.0, 300), rng.uniform(0.0, 2.0, 300)):
            lam = math.log(2.0 * alpha) + gap
            code, out, _ = run(capsys, "decompose-shear", "--alpha", repr(float(alpha)), "--lam", repr(float(lam)))
            assert code == 0
            rotation = json.loads(out)["squeezed_rotation"]
            assert rotation["matrix"][0][0] == rotation["matrix"][1][1] == math.cos(rotation["omega"]), (alpha, lam)

    def test_nonpositive_alpha_exits_one(self, capsys):
        code, _, _ = run(capsys, "decompose-shear", "--alpha", "-1")
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--alpha", "nan"),
            ("--alpha", "inf"),
            ("--alpha", "1", "--lam", "nan"),
            ("--alpha", "1", "--lam", "inf"),
            ("--alpha", "1e154", "--lam", "400"),
            ("--alpha", "1", "--lam", "-800"),
            ("--alpha", "1e-310", "--lam", "-700"),
        ],
    )
    def test_inputs_without_finite_output_exit_one(self, flags, capsys):
        code, out, err = run(capsys, "decompose-shear", *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            # the largest alpha whose 1 + 4 alpha^2 is finite
            ("--alpha", "6.703903964971298e153", "--lam", "400"),
            # lam = ln(2 alpha) rounded, where 2 alpha e^-lam rounds to one ulp above 1
            ("--alpha", "13.445080768798997", "--lam", "3.291760477611111"),
            ("--alpha", "1e-300", "--lam", "1e300"),
        ],
    )
    def test_domain_edges_print_finite_json(self, flags, capsys):
        code, out, err = run(capsys, "decompose-shear", *flags)
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["squeezed_rotation"]["residual_vs_shear"] <= payload["squeezed_rotation"]["residual_bound"]


class TestInnerProduct:
    def test_log_two_case(self, capsys):
        code, out, _ = run(
            capsys, "inner-product", "--n", "0", "--eta1", str(math.log(2)), "--m", "0", "--eta2", "0"
        )
        assert code == 0
        quad = float(out.split("quadrature = ")[1].split("\n")[0])
        assert quad == pytest.approx(0.8, abs=1e-6)

    def test_orthogonal_modes(self, capsys):
        code, out, _ = run(
            capsys, "inner-product", "--n", "1", "--eta1", "0.4", "--m", "2", "--eta2", "0"
        )
        assert code == 0
        quad = float(out.split("quadrature = ")[1].split("\n")[0])
        assert abs(quad) < 1e-8


    def test_far_boosted_frames_agree(self, capsys):
        # both frames near the rapidity cap: forming cosh(eta) z - sinh(eta) t there gives 0.2656 against 0.1764
        code, out, _ = run(capsys, "inner-product", "--n", "3", "--eta1", "20", "--m", "3", "--eta2", "19")
        assert code == 0
        assert "closed_form = 0.176378447614\n" in out

    def test_order_cap_runs_end_to_end_within_two_seconds(self):
        # the plain-Python kernel's work grows as order^2: n = m = 12 at order 370 is its heaviest input
        argv = ("inner-product", "--n", "12", "--eta1", "0.3", "--m", "12", "--eta2", "-0.4", "--order", "370")
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "entosc.cli", *argv], capture_output=True, text=True, env=source_env(), timeout=60
        )
        assert time.perf_counter() - started < 2.0
        assert result.returncode == 0, result.stderr
        assert "closed_form = 0.0521040300159\n" in result.stdout

    def test_order_past_cap_exits_one(self, tmp_path, capsys):
        argv = ("inner-product", "--n", "0", "--eta1", "0.5", "--m", "0", "--eta2", "0")
        cfg = tmp_path / "entosc.cfg"
        cfg.write_text("quadrature_order = 1000\n")
        for prefix, suffix in (((), ("--order", "371")), (("--config", str(cfg)), ())):
            code, out, err = run(capsys, *prefix, *argv, *suffix)
            assert (code, out) == (1, "")
            assert err.startswith("error: quadrature order must be an integer in [2, 370]")
            assert err.count("\n") == 1


TOLERANCE_COMMANDS = {
    "identity-check": ("identity-check", "--eta", "0.5"),
    "algebra-check": ("algebra-check", "--rep", "sp4"),
    "inner-product": ("inner-product", "--n", "0", "--eta1", "0.5", "--m", "0", "--eta2", "0"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize(
    "command, flag",
    [("identity-check", "--tol"), ("identity-check", "--series-tol"), ("algebra-check", "--tol"), ("inner-product", "--tol")],
)
def test_tolerance_must_be_positive_and_finite(command, flag, value, capsys):
    code, out, err = run(capsys, *TOLERANCE_COMMANDS[command], flag, value)
    assert (code, out) == (1, "")
    name = "series_tol" if flag == "--series-tol" else flag  # identity_check refuses its own argument
    assert err == f"error: {name} must be positive and finite, got {float(value)!r}\n"


class TestWignerGrid:
    def test_ground_state_origin_value(self, tmp_path, capsys):
        out_file = tmp_path / "wigner.csv"
        code, _, _ = run(
            capsys,
            "wigner-grid",
            "--state",
            "ground",
            "--half-width",
            "0.5",
            "--step",
            "0.5",
            "--out",
            str(out_file),
        )
        assert code == 0
        rows = {}
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,y,value"
        for line in lines[1:]:
            x, y, v = (float(part) for part in line.split(","))
            rows[(x, y)] = v
        assert rows[(0.0, 0.0)] == pytest.approx(1 / math.pi**2, abs=1e-6)

    def test_missing_eta_for_squeezed(self, capsys):
        code, _, _ = run(capsys, "wigner-grid", "--state", "squeezed", "--out", "-")
        assert code == 1

    @pytest.mark.parametrize("state", [["--state", "ground"], []])
    def test_eta_for_ground_state_exits_one(self, state, tmp_path, capsys):
        # --eta was silently dropped, with exit 0
        out_file = tmp_path / "w.csv"
        code, out, err = run(capsys, "wigner-grid", *state, "--eta", "5", "--out", str(out_file))
        assert (code, out, err) == (1, "", "error: --eta applies only to --state squeezed\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("plane", ["xy", "xp"])
    def test_squeezed_plane_matches_closed_form(self, plane, tmp_path, capsys):
        # chi_0(x')chi_0(y') has W = pi^-2 exp(-|B v|^2 - |B^-1 k|^2), B the symmetric squeeze
        eta = 0.5
        c, s = math.cosh(eta), math.sinh(eta)
        out_file = tmp_path / "w.csv"
        argv = ["wigner-grid", "--state", "squeezed", "--eta", str(eta), "--plane", plane]
        code, out, _ = run(capsys, *argv, "--half-width", "2", "--step", "0.25", "--out", str(out_file))
        assert code == 0
        assert out == f"wrote 289 rows to {out_file}\n"
        lines = out_file.read_text().splitlines()
        assert lines[0] == ("x,y,value" if plane == "xy" else "x,p,value")
        assert len(lines) == 290
        for line in lines[1:]:
            a, b, v = (float(part) for part in line.split(","))
            if plane == "xy":
                expo = (c * a - s * b) ** 2 + (c * b - s * a) ** 2
            else:
                expo = math.cosh(2 * eta) * (a * a + b * b)
            assert abs(v - math.exp(-expo) / math.pi**2) <= 1e-10

    @pytest.mark.parametrize("plane", ["xy", "xp"])
    def test_byte_stable(self, plane, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            run(capsys, "wigner-grid", "--state", "squeezed", "--eta", "0.3", "--plane", plane, "--out", str(f))
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--half-width", "nan"),
            ("--half-width", "inf"),
            ("--half-width", "-1"),
            ("--step", "nan"),
            ("--step", "inf"),
            ("--step", "1e-300"),
            ("--step", "0.07"),
            ("--step", "1e308"),
            ("--half-width", "1e6"),
        ],
    )
    def test_bad_sizes_exit_one_before_sampling(self, flags, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("sampled the wave function")

        monkeypatch.setattr(phase_space, "squeezed_wavefunction", never)
        code, _, err = run(capsys, "wigner-grid", *flags, "--out", "-")
        assert code == 1
        assert err.startswith("error:")

    def test_lattice_cap_names_the_size_needed(self, capsys):
        code, _, err = run(capsys, "wigner-grid", "--half-width", "100", "--out", "-")
        assert code == 1
        assert "samples 4241 points per axis" in err

    def test_uncovered_point_exits_one(self, capsys):
        # the axis reaches +-6.5 but the sampled lattice covers only +-5.5
        code, _, err = run(capsys, "wigner-grid", "--half-width", "3.5", "--step", "6.5", "--out", "-")
        assert code == 1
        assert "not a lattice point of [-5.5, 5.5]" in err


class TestConfig:
    def test_config_overrides_default(self, tmp_path, capsys):
        cfg = tmp_path / "entosc.cfg"
        cfg.write_text("identity_tol = 1e-30\n# comment line\n")
        code, _, _ = run(capsys, "--config", str(cfg), "identity-check", "--eta", "0.5")
        assert code == 2

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "entosc.cfg"
        cfg.write_text("identity_tol = 1e-30\n")
        code, _, _ = run(
            capsys, "--config", str(cfg), "identity-check", "--eta", "0.5", "--tol", "1e-8"
        )
        assert code == 0

    @pytest.mark.parametrize("line", ["identity_tol = nan", "series_tol = inf", "inner_tol = -1", "algebra_tol = 0"])
    def test_bad_tolerance_exits_one(self, line, tmp_path, capsys):
        cfg = tmp_path / "entosc.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "--config", str(cfg), "identity-check", "--eta", "0.5")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {line.split()[0]} must be positive and finite")
        assert err.count("\n") == 1

    def test_malformed_value_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "entosc.cfg"
        cfg.write_text("quadrature_order = 1e3\n")
        code, _, err = run(capsys, "--config", str(cfg), "identity-check", "--eta", "0.5")
        assert code == 1
        assert err.endswith("quadrature_order = '1e3' is not a valid int\n")

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "entosc.cfg"
        # series_kmax is not a key: the basis bound N_MAX is the only series ceiling
        for line in ("no_such_key = 3\n", "series_kmax = 64\n"):
            cfg.write_text(line)
            code, _, err = run(capsys, "--config", str(cfg), "identity-check", "--eta", "0.5")
            assert code == 1
            assert "unknown config key" in err


# Each example sets up to three numeric flags to one of these edge values (None
# leaves the flag out; non-integers given to integer flags are usage errors) and
# the rest to their ordinary values.
FLOAT_EDGES = ("0", "-1.5", "1e-300", "1e300", "nan", "inf", "-inf", None)
INT_EDGES = FLOAT_EDGES + (str(2**31),)
PROPERTY_BUDGET = 64 * 2**20
FOCK_CAP = math.isqrt(PROPERTY_BUDGET // 1000) - 1  # 258, the banded check's cutoff cap under that budget

# command -> (choice flags, {numeric flag: (ordinary value, edge values)})
PROPERTY_COMMANDS = {
    "identity-check": (
        {},
        {
            "--n": ("2", INT_EDGES),
            "--eta": ("0.5", FLOAT_EDGES),
            "--xmin": ("-4", FLOAT_EDGES),
            "--xmax": ("4", FLOAT_EDGES),
            "--spacing": ("0.25", FLOAT_EDGES),
            "--tol": ("1e-8", FLOAT_EDGES),
            "--series-tol": ("1e-10", FLOAT_EDGES),
        },
    ),
    "algebra-check": (
        {"--rep": ("fock", "matrix5", "sp4")},
        {"--tol": ("1e-10", FLOAT_EDGES), "--cutoff": (None, INT_EDGES + (str(FOCK_CAP), str(FOCK_CAP + 1), "10"))},
    ),
    "thermo-curve": (
        {"--out": ("-",)},
        {"--beta-sq-min": ("0", FLOAT_EDGES), "--beta-sq-max": ("0.99", FLOAT_EDGES), "--steps": ("20", INT_EDGES)},
    ),
    "decompose-shear": ({}, {"--alpha": ("1", FLOAT_EDGES), "--lam": ("4", FLOAT_EDGES)}),
    "inner-product": (
        {},
        {
            "--n": ("1", INT_EDGES),
            "--eta1": ("0.4", FLOAT_EDGES),
            "--m": ("1", INT_EDGES),
            "--eta2": ("-0.3", FLOAT_EDGES),
            "--tol": ("1e-6", FLOAT_EDGES),
            "--order": ("64", INT_EDGES),
        },
    ),
    "wigner-grid": (
        {"--out": ("-",), "--state": ("ground", "squeezed"), "--plane": ("xy", "xp")},
        {"--eta": ("0.5", FLOAT_EDGES), "--half-width": ("2", FLOAT_EDGES), "--step": ("0.25", FLOAT_EDGES)},
    ),
}


def assert_within_contract(command: str, flags: dict, out: str) -> None:
    """What an exit 0 promises: the deviation within the tolerance, and only finite numbers."""
    if command in ("identity-check", "algebra-check", "inner-product"):
        fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line and "," not in line)
        if command == "inner-product":
            dev, tol = float(fields["deviation"]), float(flags["--tol"] or 1e-6)
        else:
            dev, tol = float(fields["max_deviation"]), float(fields["tolerance"])
        assert dev <= tol
    elif command == "decompose-shear":
        rotation = json.loads(out, parse_constant=pytest.fail)["squeezed_rotation"]
        assert rotation["residual_vs_shear"] <= rotation["residual_bound"] + 1e-15
    else:
        values = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        assert values.size and np.isfinite(values).all()


@pytest.mark.parametrize("command", PROPERTY_COMMANDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cli_property(command, data):
    """Any flag values: exit 0, 1 or 2, at most one error line, exit 0 only within tolerance, under 2 s.

    A 64 MiB byte budget makes legal but huge inputs cheap to refuse; a
    RuntimeWarning anywhere fails the test (the suite's filterwarnings).
    """
    choices, numeric = PROPERTY_COMMANDS[command]
    flags = {flag: data.draw(st.sampled_from(values)) for flag, values in choices.items()}
    edged = data.draw(st.sets(st.sampled_from(sorted(numeric)), max_size=3))
    for flag, (ordinary, edges) in numeric.items():
        flags[flag] = data.draw(st.sampled_from(edges)) if flag in edged else ordinary
    if flags.get("--state") == "ground" and "--eta" not in edged:
        flags["--eta"] = None  # --eta applies only to the squeezed state; an edge value still checks the refusal
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items() if value is not None]
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with mock.patch.object(errors, "BYTE_BUDGET", PROPERTY_BUDGET):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert time.perf_counter() - started < 2.0, argv
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines(keepends=True)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith(("error: ", "usage error: ")) and lines[0].endswith("\n")
    else:
        assert lines == []
    if code == 0:
        assert_within_contract(command, flags, out.getvalue())


def source_env():
    src = str(Path(entosc.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


README_EXAMPLES = [
    ["identity-check", "--n", "0", "--eta", "0.5"],
    ["algebra-check", "--rep", "sp4", "--json", "report.json"],
    ["thermo-curve", "--beta-sq-min", "0", "--beta-sq-max", "0.99", "--steps", "200", "--out", "curve.csv"],
    ["decompose-shear", "--alpha", "1"],
    ["inner-product", "--n", "0", "--eta1", "0.6931", "--m", "0", "--eta2", "0"],
    ["wigner-grid", "--state", "ground", "--plane", "xy", "--out", "wigner.csv"],
]

# the submodules each command loads besides cli and errors: those it imports, and theirs;
# wigner-grid loads numpy, and so do identity-check above entangled_series.LIST_WORK_MAX and
# algebra-check --rep fock above dirac_algebra.LIST_STATES_MAX basis states, while the identity
# check and the Fock check below those switches, the exact algebra reps, thermo-curve,
# decompose-shear and inner-product are plain Python (oscillator_basis and entangled_series load
# numpy only inside their array functions); entangled_series reads the Schmidt probability law
# and ln cosh, ln tanh from reduced_state, so every series command loads it, while wigner-grid
# samples the squeezed state through oscillator_basis alone
COMMAND_MODULES = {
    "identity-check": {"entangled_series", "oscillator_basis", "reduced_state"},
    "algebra-check": {"dirac_algebra"},
    "thermo-curve": {"reduced_state"},
    "decompose-shear": {"planar_transforms"},
    "inner-product": {"covariant_inner", "oscillator_basis"},
    "wigner-grid": {"phase_space", "oscillator_basis"},
}

# the entosc modules each library module imports at load time, and those it imports inside a function
# (flow_matrix reads the sp(4) generators when called); together an acyclic graph
MODULE_IMPORTS = {
    "errors": set(),
    "oscillator_basis": {"errors"},
    "reduced_state": {"errors"},
    "planar_transforms": {"errors"},
    "dirac_algebra": {"errors"},
    "entangled_series": {"errors", "oscillator_basis", "reduced_state"},
    "phase_space": {"errors", "oscillator_basis"},
    "covariant_inner": {"errors", "oscillator_basis"},
}
FUNCTION_IMPORTS = {"phase_space": {"dirac_algebra"}}


def _source_imports(module: str) -> set[str]:
    """The entosc modules a source file imports anywhere: `from . import m` and `from .m import name`."""
    tree = ast.parse((Path(entosc.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def _reached(imports: dict[str, set[str]], module: str) -> set[str]:
    """Every module reachable from `module`'s own imports."""
    seen, todo = set(), list(imports[module])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(imports.get(name, ()))
    return seen


@pytest.mark.parametrize("module", sorted(MODULE_IMPORTS))
def test_import_graph(module):
    source = {name: _source_imports(name) for name in MODULE_IMPORTS}
    assert module not in _reached(source, module), f"{module} imports a module that imports it back"
    assert source[module] == MODULE_IMPORTS[module] | FUNCTION_IMPORTS.get(module, set())
    probe = f"import sys, entosc.{module}\nprint(sorted(m.split('.')[1] for m in sys.modules if m.startswith('entosc.')))\n"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=source_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{sorted(_reached(MODULE_IMPORTS, module) | {module})}\n"


def test_cli_reads_no_private_name_and_imports_no_numpy():
    # each subcommand is one kernel call: cli reads only the public names of the library modules, and
    # numpy, where a command needs it, loads inside the kernel
    tree = ast.parse((Path(entosc.__file__).parent / "cli.py").read_text())
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules |= {alias.asname or alias.name for alias in node.names} if not node.module else set()
            found += [f"from .{node.module} import {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
            found += [f"import {name}" for name in names if name.split(".")[0] == "numpy"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            found += [f"{node.value.id}.{node.attr}"] if node.attr.startswith("_") else []
    assert modules == set(MODULE_IMPORTS) - {"errors", "oscillator_basis"}
    assert found == []


def test_module_entry_runs_without_runpy_warning(tmp_path):
    env = source_env()
    # -X importtime lists every module the process imports on stderr: help and usage errors load no numpy
    run_module = [sys.executable, "-W", "error::RuntimeWarning", "-X", "importtime", "-m", "entosc.cli"]
    result = subprocess.run([*run_module, "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: entosc")
    assert "numpy" not in result.stderr
    result = subprocess.run([*run_module, "wigner-grid"], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1, result.stderr
    assert "usage error: the following arguments are required: --out" in result.stderr
    assert "numpy" not in result.stderr
    # nor does importing the CLI module
    probe = "import sys, entosc.cli\nprint([m for m in sys.modules if m.startswith('numpy')])\n"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
    # `import entosc` loads errors alone and no numpy, and every name in __all__ resolves on first access
    probe = (
        "import sys, entosc\n"
        "print(sorted(m for m in sys.modules if m.startswith(('entosc.', 'numpy'))))\n"
        "from entosc import *\n"
        "print(all(globals()[name] is getattr(entosc, name) for name in entosc.__all__))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['entosc.errors']\nTrue\n"
    # each command loads only the modules it runs
    for argv in README_EXAMPLES:
        probe = (
            "import sys, entosc.cli\n"
            f"assert entosc.cli.main({argv!r}) == 0\n"
            "print(sorted(m.split('.')[1] for m in sys.modules if m.startswith('entosc.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == str(sorted(COMMAND_MODULES[argv[0]] | {"cli", "errors"})), argv


def test_exact_algebra_checks_load_no_numpy():
    # -X importtime lists every module the process imports; the Fock check above the list-type switch
    # is the control that loads numpy
    run_module = [sys.executable, "-X", "importtime", "-m", "entosc.cli", "algebra-check", "--rep"]
    for rep in ("sp4", "matrix5"):
        for flags in ((), ("--json", "-"), ("--verbose",)):
            result = subprocess.run([*run_module, rep, *flags], capture_output=True, text=True, env=source_env(), timeout=60)
            assert result.returncode == 0, result.stderr
            assert "max_deviation = 0\n" in result.stdout
            assert "numpy" not in result.stderr, (rep, flags)
    above = str(math.isqrt(LIST_STATES_MAX))  # the least cutoff whose basis passes LIST_STATES_MAX states
    result = subprocess.run(
        [*run_module, "fock", "--cutoff", above], capture_output=True, text=True, env=source_env(), timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert "numpy" in result.stderr


@pytest.mark.parametrize("cutoff", [2, 10, 20, 30, 40, math.isqrt(LIST_STATES_MAX) - 1])
def test_fock_check_below_the_switch_loads_no_numpy(cutoff):
    # up to LIST_STATES_MAX basis states the band vectors are plain lists of floats
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "entosc.cli", "algebra-check", "--rep", "fock", "--cutoff", f"{cutoff}"],
        capture_output=True, text=True, env=source_env(), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert f"rep = fock, cutoff = {cutoff}\n" in result.stdout
    assert "numpy" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [README_EXAMPLES[3], ["decompose-shear", "--alpha", "1e8", "--lam", "30"], README_EXAMPLES[4],
     ["inner-product", "--n", "3", "--eta1", "0.4", "--m", "3", "--eta2", "-0.2", "--order", "20"]],
    ids=["decompose-shear", "decompose-shear-far", "inner-product", "inner-product-order"],
)
def test_overlap_and_shear_commands_load_no_numpy(argv):
    # the Gauss-Hermite rule, the overlap kernel and the shear factorizations are plain Python
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "entosc.cli", *argv],
        capture_output=True, text=True, env=source_env(), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "numpy" not in result.stderr, argv


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (README_EXAMPLES[0], False),
        (["identity-check", "--n", "3", "--eta", "1.0", "--spacing", "0.25"], False),
        (["identity-check", "--eta", "1.4"], False),
        (["identity-check", "--n", "3", "--eta", "1.0", "--spacing", "0.05"], True),
    ],
    ids=["n0-eta0.5", "n3-eta1", "eta1.4", "n3-eta1-161sq"],
)
def test_identity_check_loads_numpy_only_above_the_work_switch(argv, loads_numpy):
    # up to LIST_WORK_MAX the series, the squeezed Gaussian and their deviation are plain Python
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "entosc.cli", *argv],
        capture_output=True, text=True, env=source_env(), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("OK\n")
    assert ("numpy" in result.stderr) == loads_numpy, argv


def test_thermo_curve_loads_no_numpy_and_no_dataclasses(tmp_path):
    # the closed forms are plain `math`, and the package's records are NamedTuples or slotted classes
    probe = (
        "import sys, entosc.cli\n"
        "assert entosc.cli.main(['thermo-curve', '--steps', '200', '--out', 'curve.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'dataclasses')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=source_env(), cwd=tmp_path, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_readme_examples_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is a test extra
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import entosc\n"
        f"sys.exit(max(entosc.cli.main(argv) for argv in {README_EXAMPLES!r}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=source_env(), cwd=tmp_path, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"report.json", "curve.csv", "wigner.csv"}


@pytest.mark.parametrize("settings, printed", [({}, "4"), ({"OPENBLAS_THREAD_TIMEOUT": "8"}, "8")])
def test_console_entry_sets_blas_idle_timeout_unless_user_did(settings, printed):
    # the console entry sets the minimum idle timeout before numpy loads; importing the module sets nothing
    probe = (
        "import os\n"
        "before = dict(os.environ)\n"
        "from entosc import cli\n"
        "assert dict(os.environ) == before\n"
        "cli.main = lambda: print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
        "cli.entry()\n"
    )
    env = {k: v for k, v in source_env().items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**env, **settings}, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == printed + "\n"


def test_console_entry_runs_main_without_the_cyclic_collector():
    # importing the module leaves the collector on; the console entry turns it off for main and freezes before exit
    probe = (
        "import atexit, gc\n"
        "from entosc import cli\n"
        "assert gc.isenabled()\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "cli.main = lambda: print(gc.isenabled())\n"
        "cli.entry()\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=source_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\nTrue\n"


def garbage_left_by(argv) -> int:
    """Objects the cyclic collector finds after main(argv) runs with the collector off, on a warm second run."""
    for _ in range(2):  # a first run also leaves the garbage of the imports it triggers
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        finally:
            found = gc.collect()
            gc.enable()
    return found


# each README example beside the same command on a larger input (the sp4 example has no size: --verbose prints more)
GROWN_EXAMPLES = [
    (README_EXAMPLES[0], README_EXAMPLES[0] + ["--spacing", "0.05"]),  # 33^2 -> 161^2 grid points
    (README_EXAMPLES[1], README_EXAMPLES[1] + ["--verbose"]),
    (["algebra-check", "--rep", "fock", "--cutoff", "10"], ["algebra-check", "--rep", "fock", "--cutoff", "60"]),
    (README_EXAMPLES[2], README_EXAMPLES[2][:-4] + ["--steps", "20000", "--out", "curve.csv"]),
    (README_EXAMPLES[3], ["decompose-shear", "--alpha", "1e100", "--lam", "400"]),
    (README_EXAMPLES[4], README_EXAMPLES[4] + ["--order", "300"]),
    (README_EXAMPLES[5], README_EXAMPLES[5] + ["--half-width", "6"]),
]


@pytest.mark.parametrize("small, large", GROWN_EXAMPLES, ids=[small[0] for small, _ in GROWN_EXAMPLES])
def test_command_garbage_does_not_grow_with_input(small, large, tmp_path, monkeypatch):
    # why the console entry may run a command with the collector off: the cyclic garbage a command
    # leaves is a fixed few hundred objects (mostly the parser), however large its input
    monkeypatch.chdir(tmp_path)
    assert garbage_left_by(small) == garbage_left_by(large)
