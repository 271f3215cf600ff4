"""Command-line surface: verifications and figure data as CSV/JSON.

Exit codes are contractual across subcommands: 0 success, 1 usage or
domain error, 2 tolerance breach, 3 I/O failure.  All numeric output is
printed with 12 significant digits, decimal point, newline-delimited,
so repeated runs are byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import typing
from dataclasses import dataclass, replace

import numpy as np

from . import (
    covariant_inner,
    dirac_algebra,
    entangled_series,
    oscillator_basis,
    phase_space,
    planar_transforms,
    reduced_state,
)
from .errors import CutoffError, DomainError, NumericsError, budget, finite, integer, positive


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@dataclass(frozen=True)
class RunConfig:
    identity_tol: float = 1e-8
    algebra_tol: float = 1e-10
    inner_tol: float = 1e-6
    series_tol: float = 1e-10
    quadrature_order: int = 64
    fock_cutoff: int = 10
    series_kmax: int = 256

    def __post_init__(self):
        for name, kind in _CONFIG_TYPES.items():
            if kind is float:
                positive(name, getattr(self, name))
            else:
                integer(name, getattr(self, name), low=2)


_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def load_config(path: str) -> RunConfig:
    """key=value lines; blank lines and '#' comments ignored."""
    overrides: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = _CONFIG_TYPES[key]
            try:
                overrides[key] = kind(value)
            except ValueError:
                raise DomainError(f"{path}:{lineno}: {key} = {value!r} is not a valid {kind.__name__}") from None
    return replace(RunConfig(), **overrides)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract wants 1
    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _output(path: str):
    """The stream to write a report to: stdout for '-', else the file, closed on exit."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_identity_check(args, cfg: RunConfig) -> int:
    tol = positive("--tol", args.tol if args.tol is not None else cfg.identity_tol)
    series_tol = positive("--series-tol", args.series_tol if args.series_tol is not None else cfg.series_tol)
    n, xmin, xmax = integer("--n", args.n), finite("--xmin", args.xmin), finite("--xmax", args.xmax)
    if xmax <= xmin:
        raise DomainError("grid requires xmax > xmin")
    # series_sum's chi tables hold (n + 2K + 2) doubles per axis point, K <= the series bound;
    # the series, the Gaussian side and the deviation peak at 7 doubles per grid point for any n
    side = (xmax - xmin) / positive("--spacing", args.spacing) + 1.0
    kmax = min(cfg.series_kmax, oscillator_basis.N_MAX)
    budget(8.0 * ((n + 2 * kmax + 2) * side + 7 * side * side), f"a grid of {side:.6g}^2 points")
    axis = np.arange(xmin, finite("--xmax + --spacing / 2", xmax + 0.5 * args.spacing), args.spacing)
    X, Y = np.meshgrid(axis, axis, indexing="ij", sparse=True)
    series = entangled_series.series_sum(args.n, args.eta, X, Y, series_tol, kmax=cfg.series_kmax)
    gauss = entangled_series.squeezed_wavefunction(args.n, args.eta, X, Y)
    dev = float(np.abs(series - gauss).max())
    print(f"n = {args.n}, eta = {_fmt(args.eta)}")
    print(f"grid = [{_fmt(args.xmin)}, {_fmt(args.xmax)}] step {_fmt(args.spacing)} ({axis.size}^2 points)")
    print(f"max_deviation = {_fmt(dev)}")
    print(f"tolerance = {_fmt(tol)}")
    if not dev <= tol:  # a nan deviation fails too
        print("FAIL: series does not reproduce the squeezed Gaussian at tolerance")
        return 2
    print("OK")
    return 0


def _cmd_algebra_check(args, cfg: RunConfig) -> int:
    tol = positive("--tol", args.tol if args.tol is not None else cfg.algebra_tol)
    cutoff = None
    if args.rep == "fock":
        cutoff = args.cutoff if args.cutoff is not None else cfg.fock_cutoff
    elif args.cutoff is not None:
        raise DomainError("--cutoff applies only to --rep fock")
    report = dirac_algebra.check_algebra(args.rep, cutoff)
    if args.json is not None:
        with _output(args.json) as stream:
            stream.write(report.to_json() + "\n")
    print(f"rep = {report.rep}" + (f", cutoff = {cutoff}" if cutoff is not None else ""))
    print(f"pairs = {len(report.pairs)}")
    if args.verbose:
        for p in report.pairs:
            print(f"  [{p.left},{p.right}] -> {p.expected}: deviation {_fmt(p.deviation)}")
    print(f"max_deviation = {_fmt(report.max_deviation)}")
    print(f"tolerance = {_fmt(tol)}")
    if not report.max_deviation <= tol:
        print("FAIL: commutator table not satisfied at tolerance")
        return 2
    print("OK")
    return 0


def _cmd_thermo_curve(args, cfg: RunConfig) -> int:
    steps = integer("--steps", args.steps, low=2, high=THERMO_CURVE_MAX_STEPS)
    grid = np.linspace(finite("--beta-sq-min", args.beta_sq_min), finite("--beta-sq-max", args.beta_sq_max), steps)
    points = reduced_state.thermo_curve(grid)
    with _output(args.out) as stream:
        reduced_state.write_thermo_csv(points, stream)
    if args.out != "-":
        print(f"wrote {len(points)} rows to {args.out}")
    return 0


def _cmd_decompose_shear(args, cfg: RunConfig) -> int:
    alpha, lam = positive("--alpha", args.alpha), finite("--lam", args.lam)
    # the two factorizations that check their domains go first, so a refused input computes nothing
    theta_rs, eta_rs = planar_transforms.shear_as_rotated_squeeze(alpha)
    sr = planar_transforms.wigner_decompose(alpha, lam)
    theta_prime, eta_b = planar_transforms.bargmann_decompose(alpha)
    recon = planar_transforms.bargmann_reconstruct(theta_prime, eta_b)
    target = planar_transforms.shear(alpha)
    form_dev = float(
        np.abs(
            planar_transforms.rotated_squeeze_form(theta_rs, eta_rs)
            - planar_transforms.sheared_gaussian_form(alpha)
        ).max()
    )
    omega = math.asin(min(2.0 * alpha * math.exp(-lam), 1.0))
    bound = 2.0 * alpha * math.exp(-2.0 * lam) + (1.0 - math.cos(omega))
    payload = {
        "alpha": alpha,
        "bargmann": {
            "theta": theta_prime + math.pi / 4.0,
            "theta_prime": theta_prime,
            "eta": eta_b,
            "reconstruction_residual": float(np.abs(recon - target).max()),
        },
        "rotated_squeeze": {
            "theta": theta_rs,
            "eta": eta_rs,
            "exp_2eta": math.exp(2.0 * eta_rs),
            "form_residual": form_dev,
        },
        "squeezed_rotation": {
            "lambda": lam,
            "omega": omega,
            "matrix": sr.tolist(),
            "residual_vs_shear": float(np.abs(sr - target).max()),
            "residual_bound": bound,
        },
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_inner_product(args, cfg: RunConfig) -> int:
    tol = positive("--tol", args.tol if args.tol is not None else cfg.inner_tol)
    order = args.order if args.order is not None else cfg.quadrature_order
    result = covariant_inner.inner_product(args.n, args.eta1, args.m, args.eta2, order=order)
    print(f"n = {args.n}, eta1 = {_fmt(args.eta1)}, m = {args.m}, eta2 = {_fmt(args.eta2)}")
    print(f"quadrature = {_fmt(result.quadrature)}")
    print(f"closed_form = {_fmt(result.closed_form)}")
    print(f"deviation = {_fmt(result.deviation)}")
    if not result.deviation <= tol:
        print("FAIL: quadrature and closed form disagree at tolerance")
        return 2
    print("OK")
    return 0


# Points per axis of the lattice wigner-grid samples; at the cap the lattice
# is 34 MB and the xy plane's FFT work arrays take a few times that.
WIGNER_GRID_MAX_SIDE = 2049
# Rows of thermo-curve; at the cap a run takes about 4.4 s and 244 MB end to end.
THERMO_CURVE_MAX_STEPS = 10**6


def _cmd_wigner_grid(args, cfg: RunConfig) -> int:
    if args.state == "squeezed":
        if args.eta is None:
            raise DomainError("--eta is required for --state squeezed")
        eta = args.eta
    else:
        eta = 0.0
    step, half_width = positive("--step", args.step), positive("--half-width", args.half_width)
    base_spacing = phase_space.DEFAULT_SPACING
    ratio = step / base_spacing
    if not (math.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9):
        raise DomainError(f"--step must be a positive multiple of the sampling spacing {base_spacing}")
    psi_halfwidth = half_width + phase_space.DEFAULT_HALF_WIDTH
    steps = psi_halfwidth / base_spacing
    if 2 * steps + 1 > WIGNER_GRID_MAX_SIDE:
        raise DomainError(
            f"--half-width {half_width} samples {2 * steps + 1:.0f} points per axis; "
            f"the cap is {WIGNER_GRID_MAX_SIDE}"
        )
    psi = phase_space.squeezed_state_grid(eta, half_width=psi_halfwidth)
    n = int(round(half_width / step))
    axis = step * np.arange(-n, n + 1)
    if args.plane == "xy":
        plane = phase_space.wigner_xy(psi)
        values = plane.values[np.ix_(plane.indices(0, axis), plane.indices(1, axis))]
    else:  # xp
        plane = phase_space.wigner_xp(psi, 0.0, axis)
        values = plane.values[plane.indices(0, axis)]
    grid = phase_space.GridFunction2D(
        origin=(float(axis[0]), float(axis[0])), spacing=(step, step), values=values, labels=plane.labels
    )
    with _output(args.out) as stream:
        grid.write_csv(stream)
    if args.out != "-":
        print(f"wrote {axis.size * axis.size} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="entosc", description="Entangled-oscillator verifications and figure data")
    parser.add_argument("--config", help="key=value file overriding tolerance/cutoff defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identity-check", help="series expansion vs squeezed Gaussian on a grid")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--xmin", type=float, default=-4.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--spacing", type=float, default=0.25)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--series-tol", type=float, default=None)
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("algebra-check", help="verify the 45-commutator table of one representation")
    p.add_argument("--rep", choices=("fock", "matrix5", "sp4"), required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", default=None, help="write the full report as JSON here ('-' for stdout)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_algebra_check)

    p = sub.add_parser("thermo-curve", help="entropy/temperature CSV against beta^2")
    p.add_argument("--beta-sq-min", type=float, default=0.0)
    p.add_argument("--beta-sq-max", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    p.set_defaults(func=_cmd_thermo_curve)

    p = sub.add_parser("decompose-shear", help="Bargmann and squeezed-rotation forms of a shear")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lam", type=float, default=4.0, help="squeezed-rotation parameter (shear is the lam->inf limit)")
    p.set_defaults(func=_cmd_decompose_shear)

    p = sub.add_parser("inner-product", help="covariant oscillator overlap between two frames")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta1", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eta2", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=_cmd_inner_product)

    p = sub.add_parser(
        "wigner-grid",
        help="numerical Wigner function on a plane slice, as CSV",
        description="Numerical Wigner function on a plane slice, as CSV. Values carry an absolute "
        "rounding floor of about 1e-16: smaller magnitudes, negative ones included, are noise.",
    )
    p.add_argument("--state", choices=("ground", "squeezed"), default="ground")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--plane", choices=("xy", "xp"), default="xy")
    p.add_argument("--half-width", type=float, default=2.0)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wigner_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else RunConfig()
        return args.func(args, cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, CutoffError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
