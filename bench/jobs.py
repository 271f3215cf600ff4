"""Workload job lists drawn from a seed, and the checks that judge each job's output.

A job is one `entosc` command line.  The seed draws only physical parameters
(rapidities, excitation numbers, shear strengths, signs); grid sizes, steps,
Fock cutoffs and row counts are fixed, so every seed asks for the same amount
of work.  Every check compares the command's output with an independent
reference computed here, never with the library under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Numerical Wigner transform against the closed form: the lattice sum is good
# to ~3e-11 up to |eta| = 0.8 at the corners of a half-width-4 plane; the
# drawn rapidities stay below 0.7.
WIGNER_ABS_TOL = 1e-10
# Relative error of the 12-significant-digit CSV/text output plus the series
# path's own agreement with the closed form (~5e-12 up to beta^2 = 0.9999).
THERMO_REL_TOL = 1e-9
# Quadrature overlaps agree with the closed form to ~1e-15; zero for n != m.
INNER_TOL = 1e-9

# A check returns None when the output is right, else a one-line reason.
Check = Callable[[str, str], "str | None"]


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `writes_file` jobs get `--out <path>` appended."""

    argv: tuple[str, ...]
    check: Check
    writes_file: bool = False


def _num(x: float) -> str:
    # six decimals: the CLI argument and the reference use the same float
    return f"{x:.6f}"


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return float(_num(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _fields(stdout: str) -> dict[str, str]:
    """`key = value` lines of the text reports."""
    out = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def _ok_line(stdout: str) -> str | None:
    return None if "OK" in stdout.splitlines() else "no OK line"


def check_identity(stdout: str, _: str) -> str | None:
    problem = _ok_line(stdout)
    if problem:
        return problem
    f = _fields(stdout)
    dev, tol = float(f["max_deviation"]), float(f["tolerance"])
    return None if dev <= tol else f"max_deviation {dev} above tolerance {tol}"


def algebra_check(rep: str) -> Check:
    def check(stdout: str, _: str) -> str | None:
        problem = _ok_line(stdout)
        if problem:
            return problem
        f = _fields(stdout)
        if f.get("pairs") != "45":
            return f"expected 45 pairs, got {f.get('pairs')}"
        dev = float(f["max_deviation"])
        # matrix5 and sp4 are checked in exact arithmetic
        limit = 1e-10 if rep == "fock" else 0.0
        return None if dev <= limit else f"{rep} max_deviation {dev} above {limit}"

    return check


def inner_check(n: int, eta1: float, m: int, eta2: float) -> Check:
    ref = math.cosh(eta1 - eta2) ** -(n + 1) if n == m else 0.0

    def check(stdout: str, _: str) -> str | None:
        problem = _ok_line(stdout)
        if problem:
            return problem
        f = _fields(stdout)
        closed, quad = float(f["closed_form"]), float(f["quadrature"])
        for name, value in (("closed_form", closed), ("quadrature", quad)):
            if abs(value - ref) > INNER_TOL * max(abs(ref), 1.0):
                return f"{name} {value} differs from cosh(d eta)^-(n+1) delta = {ref}"
        return None

    return check


def shear_check(alpha: float) -> Check:
    def check(stdout: str, _: str) -> str | None:
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        b, rs, sr = payload["bargmann"], payload["rotated_squeeze"], payload["squeezed_rotation"]
        if payload["alpha"] != alpha:
            return f"alpha {payload['alpha']} != {alpha}"
        if abs(b["eta"] - math.asinh(alpha)) > 1e-12:
            return f"Bargmann eta {b['eta']} != asinh(alpha)"
        if b["reconstruction_residual"] > 1e-11:
            return f"Bargmann residual {b['reconstruction_residual']} above 1e-11"
        if rs["form_residual"] > 1e-12:
            return f"rotated-squeeze form residual {rs['form_residual']} above 1e-12"
        if sr["residual_vs_shear"] > sr["residual_bound"] + 1e-15:
            return f"squeezed-rotation residual {sr['residual_vs_shear']} above its bound {sr['residual_bound']}"
        return None

    return check


def _read_csv(text: str, header: str) -> np.ndarray | str:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return f"header {lines[0] if lines else ''!r} != {header!r}"
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def thermo_entropy(q: np.ndarray) -> np.ndarray:
    """Closed-form entropy 2[cosh^2 ln cosh - sinh^2 ln sinh] of the n = 0 reduced state."""
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    pos = q > 0
    eta = np.arctanh(np.sqrt(q[pos]))
    c, s = np.cosh(eta), np.sinh(eta)
    out[pos] = 2.0 * (c * c * np.log(c) - s * s * np.log(s))
    return out


def thermo_temperature(q: np.ndarray) -> np.ndarray:
    """T = -1 / ln(beta^2), extended by 0 at beta^2 = 0."""
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    pos = q > 0
    out[pos] = -1.0 / np.log(q[pos])
    return out


def thermo_check(q_max: float, steps: int) -> Check:
    grid = np.linspace(0.0, q_max, steps)  # 0 is the CLI's --beta-sq-min default
    refs = (grid, thermo_entropy(grid), thermo_temperature(grid))

    def check(_: str, text: str) -> str | None:
        data = _read_csv(text, "beta_sq,entropy_nats,temperature")
        if isinstance(data, str):
            return data
        if data.shape != (steps, 3):
            return f"expected {steps} rows of 3 columns, got {data.shape}"
        for col, (name, ref) in enumerate(zip(("beta_sq", "entropy", "temperature"), refs)):
            err = np.abs(data[:, col] - ref) - THERMO_REL_TOL * np.abs(ref) - 1e-12
            if err.max() > 0:
                i = int(err.argmax())
                return f"{name} at row {i}: {data[i, col]} vs closed form {ref[i]}"
        return None

    return check


def wigner_closed(eta: float, plane: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-form Wigner function of the squeezed ground state on a plane slice.

    The state chi_0(x')chi_0(y') is a Gaussian with exponent matrix B^2, B the
    symmetric squeeze of rapidity eta; its Wigner function is
    pi^-2 exp(-|B v|^2 - |B^-1 k|^2).  On the xy slice (p = q = 0) that is
    pi^-2 exp(-(x'^2 + y'^2)); on the xp slice (y = q = 0) it is
    pi^-2 exp(-cosh(2 eta) (x^2 + p^2)).
    """
    c, s = math.cosh(eta), math.sinh(eta)
    if plane == "xy":
        expo = (c * a - s * b) ** 2 + (c * b - s * a) ** 2
    else:
        expo = math.cosh(2.0 * eta) * (a * a + b * b)
    return np.exp(-expo) / math.pi**2


def wigner_check(eta: float, plane: str, half_width: float, step: float) -> Check:
    n = int(round(half_width / step))
    axis = step * np.arange(-n, n + 1)
    a, b = np.repeat(axis, axis.size), np.tile(axis, axis.size)
    ref = wigner_closed(eta, plane, a, b)
    header = "x,y,value" if plane == "xy" else "x,p,value"

    def check(_: str, text: str) -> str | None:
        data = _read_csv(text, header)
        if isinstance(data, str):
            return data
        if data.shape != (a.size, 3):
            return f"expected {a.size} rows of 3 columns, got {data.shape}"
        if np.abs(data[:, 0] - a).max() > 1e-9 or np.abs(data[:, 1] - b).max() > 1e-9:
            return "grid coordinates do not match the requested lattice"
        err = np.abs(data[:, 2] - ref)
        i = int(err.argmax())
        if err[i] > WIGNER_ABS_TOL:
            return f"W({data[i, 0]}, {data[i, 1]}) = {data[i, 2]} vs closed form {ref[i]}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _wigner(state: str, eta: float, plane: str, half_width: float, step: float) -> Job:
    argv = ("wigner-grid", "--state", state)
    if state == "squeezed":
        argv += ("--eta", _num(eta), "--plane", plane, "--half-width", _num(half_width), "--step", _num(step))
    return Job(argv, wigner_check(eta, plane, half_width, step), writes_file=True)


def wigner_jobs(rng: random.Random) -> list[Job]:
    return [
        _wigner("squeezed", _signed(rng, 0.2, 0.7), "xy", 4.0, 0.1),
        _wigner("squeezed", _signed(rng, 0.2, 0.7), "xp", 4.0, 0.05),
        _wigner("ground", 0.0, "xy", 2.0, 0.25),  # no flags: the CLI's defaults
    ]


def algebra_jobs(rng: random.Random) -> list[Job]:
    # the commutator tables have no physical parameter for the seed to draw
    jobs = [
        Job(("algebra-check", "--rep", "fock", "--cutoff", str(c)), algebra_check("fock"))
        for c in (30, 20, 10)
    ]
    return jobs + [Job(("algebra-check", "--rep", rep), algebra_check(rep)) for rep in ("matrix5", "sp4")]


def verify_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    # The Schmidt cutoff, and with it a job's time and memory, grows with
    # |eta|.  The fine-grid job (161^2 points, the heaviest) keeps n = 3 and
    # |eta| = 1, drawing only the sign, so every seed asks for the same work.
    coarse = [(rng.randrange(4), _signed(rng, 0.6, 1.0), "0.25") for _ in range(2)]
    for n, eta, spacing in coarse + [(3, rng.choice((-1.0, 1.0)), "0.05")]:
        argv = ("identity-check", "--n", str(n), "--eta", _num(eta), "--spacing", spacing)
        jobs.append(Job(argv, check_identity))
    for q_max in (0.99, 0.9999):
        jobs.append(
            Job(("thermo-curve", "--beta-sq-max", str(q_max), "--steps", "200"), thermo_check(q_max, 200), True)
        )
    alpha = float(_num(rng.uniform(0.25, 2.0)))
    jobs.append(Job(("decompose-shear", "--alpha", _num(alpha)), shear_check(alpha)))
    for _ in range(2):
        n = rng.randrange(5)
        m = rng.choice((n, n + 1))
        eta1, eta2 = _signed(rng, 0.0, 0.7), _signed(rng, 0.0, 0.7)
        argv = ("inner-product", "--n", str(n), "--eta1", _num(eta1), "--m", str(m), "--eta2", _num(eta2))
        jobs.append(Job(argv, inner_check(n, eta1, m, eta2)))
    jobs.append(Job(("algebra-check", "--rep", "sp4"), algebra_check("sp4")))
    return jobs


WORKLOADS: dict[str, Callable[[random.Random], list[Job]]] = {
    "wigner": wigner_jobs,
    "algebra": algebra_jobs,
    "verify": verify_jobs,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
