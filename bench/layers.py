"""In-process timings and counts for the public functions of each entosc module.

Run as a script from the repository root, it prints one JSON object of
per-layer metrics (name -> [value, unit]) as its last line:

    python3 bench/layers.py

Each timing is the median per call after one warm-up call; a call that takes
longer than SLOW_CALL_S on its first run is timed once, without warm-up, so
the Fock-cutoff-30 check costs one call.  The arguments are fixed (they are
the baseline rows of ROADMAP.md), so these numbers do not depend on the
workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from run import ENTRY, OUT, ROOT, SRC, child_env

sys.path.insert(0, str(SRC))
from entosc import (  # noqa: E402
    cli,
    covariant_inner,
    dirac_algebra,
    entangled_series,
    oscillator_basis,
    phase_space,
    planar_transforms,
    reduced_state,
)

SLOW_CALL_S = 2.0
BUDGET_S = 0.3  # timed calls per function stop after this much time (at least MIN_CALLS)
MIN_CALLS = 3
IMPORT_RUNS = 3


def per_call(fn) -> float:
    """Median seconds per call of fn(), warmed."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    if first > SLOW_CALL_S:
        return first
    samples: list[float] = []
    stop = time.perf_counter() + BUDGET_S
    while len(samples) < MIN_CALLS or time.perf_counter() < stop:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _direct_cumulative(lines: list[str], root: str) -> float:
    """Cumulative import time (s) of `root` entries that entosc itself imports.

    An entry counts when every import enclosing it is an entosc module and
    none is another `root` entry, so numpy submodules that scipy pulls in are
    scipy's time, not numpy's.
    """
    entries = []  # (level, name, cumulative_us), in printed order: children before parents
    for line in lines:
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:") :].split("|")
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip(), int(cum)))
    total = 0
    # (level, every enclosing import is entosc, inside a `root` entry) of the open ancestors
    stack: list[tuple[int, bool, bool]] = []
    for level, name, cum in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        direct, inside = (stack[-1][1], stack[-1][2]) if stack else (True, False)
        mine = name == root or name.startswith(root + ".")
        if direct and mine and not inside:
            total += cum
        stack.append((level, direct and name.split(".")[0] == "entosc", inside or mine))
    return total / 1e6


def import_times() -> dict[str, float]:
    """Median of entosc, scipy and numpy import time in fresh processes, from -X importtime."""
    runs = {"entosc": [], "scipy": [], "numpy": []}
    env = child_env()
    for _ in range(IMPORT_RUNS):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import entosc"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        lines = res.stderr.splitlines()
        for root in runs:
            runs[root].append(_direct_cumulative(lines, root))
    return {root: statistics.median(v) for root, v in runs.items()}


def cli_times(workdir: Path) -> dict[str, float]:
    """In-process cli.main time per subcommand, stdout discarded."""
    commands = {
        "identity-check": ["identity-check", "--n", "3", "--eta", "1.0"],
        "algebra-check": ["algebra-check", "--rep", "sp4"],
        "thermo-curve": ["thermo-curve", "--beta-sq-max", "0.9999", "--out", str(workdir / "t.csv")],
        "decompose-shear": ["decompose-shear", "--alpha", "1"],
        "inner-product": ["inner-product", "--n", "0", "--eta1", "0.6931", "--m", "0", "--eta2", "0"],
        "wigner-grid": ["wigner-grid", "--state", "ground", "--out", str(workdir / "w.csv")],
    }
    out = {}
    for name, argv in commands.items():

        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"entosc {' '.join(argv)} failed")

        out[name] = per_call(call)
    return out


def cli_overhead(in_process_s: float) -> float:
    """Subprocess wall of `entosc decompose-shear --alpha 1` minus its in-process time."""
    walls = []
    for _ in range(IMPORT_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", ENTRY, "decompose-shear", "--alpha", "1"],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=60,
        )
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) - in_process_s


def measure() -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}

    def t(name: str, fn) -> None:
        m[name] = (per_call(fn), "s")

    # phase_space: the Wigner kernel as the wigner workload's xy and xp jobs call it
    psi = phase_space.squeezed_state_grid(0.5, half_width=10.0)
    axis = 0.05 * np.arange(-80, 81)
    t("phase_space.wigner_transform_s", lambda: phase_space.wigner_transform(psi, phase_space.PhasePoint(1.0, -0.5, 0.0, 0.0)))
    t("phase_space.wigner_section_s", lambda: phase_space.wigner_section(psi, 1.0, 0.0, axis, np.array([0.0])))
    t("phase_space.squeezed_state_grid_s", lambda: phase_space.squeezed_state_grid(0.5, half_width=10.0))
    # the xp job's output: the eta = 0.5 closed form has the same digits per row
    values = np.exp(-math.cosh(1.0) * np.add.outer(axis * axis, axis * axis)) / math.pi**2
    grid = phase_space.GridFunction2D(origin=(-4.0, -4.0), spacing=(0.05, 0.05), values=values, labels=("x", "p"))
    sink = io.StringIO()

    def write_csv():
        sink.seek(0)
        sink.truncate()
        grid.write_csv(sink)

    t("phase_space.write_csv_s", write_csv)
    m["phase_space.csv_bytes"] = (len(sink.getvalue().encode()), "B")
    for label in phase_space.FLOW_LABELS:
        t(f"phase_space.flow_covariance_check.{label}_s", lambda label=label: phase_space.flow_covariance_check(label, 0.3))

    # dirac_algebra: dense Fock products (float) and the exact small representations
    t("dirac_algebra.fock_generators_s", lambda: dirac_algebra.fock_generators(30))
    t("dirac_algebra.check_algebra.fock30_s", lambda: dirac_algebra.check_algebra("fock", 30))
    t("dirac_algebra.check_algebra.fock20_s", lambda: dirac_algebra.check_algebra("fock", 20))
    t("dirac_algebra.check_algebra.matrix5_s", lambda: dirac_algebra.check_algebra("matrix5"))
    t("dirac_algebra.check_algebra.sp4_s", lambda: dirac_algebra.check_algebra("sp4"))
    # 45 commutators are 90 dense complex d x d products, 8 real flops per multiply-add
    d = 31 * 31
    pairs = len(dirac_algebra.canonical_pairs())
    m["dirac_algebra.fock_flops"] = (2 * pairs * 8 * d**3, "flop")
    m["dirac_algebra.fock_useful_ratio"] = (int(dirac_algebra.safe_sector_mask(30).sum()) / d, "ratio")

    # reduced_state: entropy sums whose length grows like 1/(1 - beta^2)
    eta_hot = math.atanh(math.sqrt(0.9999))
    t("reduced_state.entropy_s", lambda: reduced_state.entropy(0, eta_hot))
    t("reduced_state.thermo_curve_s", lambda: reduced_state.thermo_curve(np.linspace(0.0, 0.99, 200)))
    m["reduced_state.terms"] = (reduced_state.reduced_density(0, eta_hot, tol=1e-20).probs.size, "count")

    # entangled_series and oscillator_basis
    grid161 = np.meshgrid(axis, axis, indexing="ij")
    t("entangled_series.schmidt_series_s", lambda: entangled_series.schmidt_series(3, 1.0, 1e-10))
    t("entangled_series.series_sum_s", lambda: entangled_series.series_sum(3, 1.0, *grid161))
    t("entangled_series.eigenvalue_residual_s", lambda: entangled_series.eigenvalue_residual(2, 0.5))
    t("entangled_series.coefficient_by_quadrature_s", lambda: entangled_series.coefficient_by_quadrature(3, 5, 0.5))
    m["entangled_series.schmidt_cutoff"] = (entangled_series.schmidt_series(3, 1.0, 1e-10).cutoff, "count")
    t("oscillator_basis.chi_batch_s", lambda: oscillator_basis.chi_batch(100, np.add.outer(axis, axis)))
    t("oscillator_basis.quadrature_s", lambda: oscillator_basis.quadrature(64))

    # covariant_inner and planar_transforms, as the verify jobs call them
    t("covariant_inner.inner_product_s", lambda: covariant_inner.inner_product(2, 0.3, 2, -0.4))

    def decompose():
        theta_prime, eta = planar_transforms.bargmann_decompose(1.0)
        planar_transforms.bargmann_reconstruct(theta_prime, eta)
        theta, eta_rs = planar_transforms.shear_as_rotated_squeeze(1.0)
        planar_transforms.rotated_squeeze_form(theta, eta_rs)
        planar_transforms.wigner_decompose(1.0, 4.0)

    t("planar_transforms.decompose_s", decompose)

    # package import and the CLI
    for root, seconds in import_times().items():
        m["entosc.import_s" if root == "entosc" else f"entosc.import.{root}_s"] = (seconds, "s")
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        mains = cli_times(Path(tmp))
    for name, seconds in mains.items():
        m[f"cli.main.{name}_s"] = (seconds, "s")
    m["cli.overhead_s"] = (cli_overhead(mains["decompose-shear"]), "s")
    return m


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    print(json.dumps({name: list(v) for name, v in measure().items()}))
