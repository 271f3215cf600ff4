"""Exit-code contract, CSV/JSON formats, and config handling of the CLI."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entosc
from entosc import entangled_series, errors, phase_space
from entosc.cli import THERMO_CURVE_MAX_STEPS, main
from entosc.reduced_state import ThermoPoint, entropy, temperature, write_thermo_csv


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

        monkeypatch.setattr(entangled_series, "series_sum", never)
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

        def reached(n, eta, x, y, *args, **kwargs):
            assert x.shape == (1601, 1) and y.shape == (1, 1601)
            raise Reached

        monkeypatch.setattr(entangled_series, "series_sum", reached)
        with pytest.raises(Reached):
            main(["identity-check", "--eta", "0.5", "--spacing", "0.005"])

    def test_budget_does_not_grow_with_n(self, monkeypatch):
        # 7001^2 points at n = 5 fit in 7 doubles per point; n + 7 = 12 did not
        class Reached(Exception):
            pass

        def reached(n, eta, x, y, *args, **kwargs):
            assert n == 5 and x.shape == (7001, 1) and y.shape == (1, 7001)
            raise Reached

        monkeypatch.setattr(entangled_series, "series_sum", reached)
        with pytest.raises(Reached):
            main(["identity-check", "--n", "5", "--eta", "0.5", "--xmin=-3.5", "--xmax", "3.5", "--spacing", "0.001"])


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

    @pytest.mark.parametrize("steps", [THERMO_CURVE_MAX_STEPS + 1, 2_000_000_000])
    def test_step_cap_exits_one(self, steps, capsys):
        code, out, err = run(capsys, "thermo-curve", "--steps", str(steps), "--out", "-")
        assert (code, out) == (1, "")
        assert err == f"error: --steps must be an integer in [2, {THERMO_CURVE_MAX_STEPS}], got {steps}\n"


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
    assert err == f"error: {flag} must be positive and finite, got {float(value)!r}\n"


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
        cfg.write_text("no_such_key = 3\n")
        code, _, err = run(capsys, "--config", str(cfg), "identity-check", "--eta", "0.5")
        assert code == 1
        assert "unknown config key" in err


# Each example sets up to three numeric flags to one of these edge values (None
# leaves the flag out; non-integers given to integer flags are usage errors) and
# the rest to their ordinary values.
FLOAT_EDGES = ("0", "-1.5", "1e-300", "1e300", "nan", "inf", "-inf", None)
INT_EDGES = FLOAT_EDGES + (str(2**31),)
# the patched budget does not move the Fock caps, so only cutoffs they refuse, or <= 30
CUTOFF_EDGES = ("0", "-1", "1e-300", "1e300", "nan", "inf", str(2**31), None)

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
        {"--tol": ("1e-10", FLOAT_EDGES), "--cutoff": (None, CUTOFF_EDGES + ("10",))},
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
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items() if value is not None]
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with mock.patch.object(errors, "BYTE_BUDGET", 64 * 2**20):
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


def test_module_entry_runs_without_runpy_warning():
    src = str(Path(entosc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run_module = [sys.executable, "-W", "error::RuntimeWarning", "-m", "entosc.cli", "--help"]
    result = subprocess.run(run_module, capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: entosc")
    # `import entosc` leaves cli unloaded, and entosc.cli still resolves
    probe = "import sys, entosc; assert 'entosc.cli' not in sys.modules; print(entosc.cli.main.__name__)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "main\n"
