"""Command-line surface: verifications and figure data as CSV/JSON.

Exit codes are contractual across subcommands: 0 success, 1 usage or
domain error, 2 tolerance breach, 3 I/O failure.  All numeric output is
printed with 12 significant digits, decimal point, newline-delimited,
so repeated runs are byte-stable.  Each subcommand loads `errors` and the
modules it runs: `identity-check` entangled_series, oscillator_basis and
reduced_state, `algebra-check` dirac_algebra, `thermo-curve` reduced_state,
`decompose-shear` planar_transforms, `inner-product` covariant_inner and
oscillator_basis, `wigner-grid` phase_space and oscillator_basis.  numpy
loads for `wigner-grid`, for `identity-check` past entangled_series.LIST_WORK_MAX
units of work and for `algebra-check --rep fock` past cutoff 54
(dirac_algebra.LIST_STATES_MAX basis states); the rest is plain Python.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import sys
import typing

from .errors import CutoffError, DomainError, NumericsError, budget, finite, integer, positive


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class RunConfig(typing.NamedTuple):
    identity_tol: float = 1e-8
    algebra_tol: float = 1e-10
    inner_tol: float = 1e-6
    series_tol: float = 1e-10
    quadrature_order: int = 64
    fock_cutoff: int = 10


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
    cfg = RunConfig(**overrides)
    for name, kind in _CONFIG_TYPES.items():
        if kind is float:
            positive(name, getattr(cfg, name))
        else:
            integer(name, getattr(cfg, name), low=2)
    return cfg


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


def _verdict(ok: bool, failure: str) -> int:
    """Print OK and return 0, or FAIL: <failure> and 2; `ok = deviation <= tol` fails a nan deviation."""
    if ok:
        print("OK")
        return 0
    print(f"FAIL: {failure}")
    return 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_identity_check(args, cfg: RunConfig) -> int:
    from . import entangled_series
    tol = positive("--tol", args.tol if args.tol is not None else cfg.identity_tol)
    series_tol = positive("--series-tol", args.series_tol if args.series_tol is not None else cfg.series_tol)
    n, xmin, xmax = integer("--n", args.n), finite("--xmin", args.xmin), finite("--xmax", args.xmax)
    if xmax <= xmin:
        raise DomainError("grid requires xmax > xmin")
    # the series, the Gaussian side and the deviation peak at 7 doubles per grid point; series_sum charges its tables
    side = (xmax - xmin) / positive("--spacing", args.spacing) + 1.0
    budget(8.0 * 7 * side * side, f"a grid of {side:.6g}^2 points")
    axis = _arange(xmin, finite("--xmax + --spacing / 2", xmax + 0.5 * args.spacing), args.spacing)
    dev = entangled_series._grid_deviation(n, args.eta, axis, series_tol)
    print(f"n = {args.n}, eta = {_fmt(args.eta)}")
    print(f"grid = [{_fmt(args.xmin)}, {_fmt(args.xmax)}] step {_fmt(args.spacing)} ({len(axis)}^2 points)")
    print(f"max_deviation = {_fmt(dev)}")
    print(f"tolerance = {_fmt(tol)}")
    return _verdict(dev <= tol, "series does not reproduce the squeezed Gaussian at tolerance")


def _cmd_algebra_check(args, cfg: RunConfig) -> int:
    from . import dirac_algebra
    tol = positive("--tol", args.tol if args.tol is not None else cfg.algebra_tol)
    cutoff = None
    if args.rep == "fock":
        cutoff = args.cutoff if args.cutoff is not None else cfg.fock_cutoff
    elif args.cutoff is not None:
        raise DomainError("--cutoff applies only to --rep fock")
    report = dirac_algebra.check_algebra(args.rep, cutoff)
    if args.json is not None:
        import json
        pairs = [
            {"pair": f"[{p.left},{p.right}]", "expected": p.expected, "deviation": p.deviation} for p in report.pairs
        ]
        with _output(args.json) as stream:
            json.dump({"rep": report.rep, "pairs": pairs, "max_deviation": report.max_deviation}, stream, indent=2)
            stream.write("\n")
    print(f"rep = {report.rep}" + (f", cutoff = {cutoff}" if cutoff is not None else ""))
    print(f"pairs = {len(report.pairs)}")
    if args.verbose:
        for p in report.pairs:
            print(f"  [{p.left},{p.right}] -> {p.expected}: deviation {_fmt(p.deviation)}")
    print(f"max_deviation = {_fmt(report.max_deviation)}")
    print(f"tolerance = {_fmt(tol)}")
    return _verdict(report.max_deviation <= tol, "commutator table not satisfied at tolerance")


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    """np.linspace(lo, hi, steps) bit for bit, for steps >= 2, as a list of floats."""
    div, delta = steps - 1, hi - lo
    step = delta / div
    if step == 0:  # numpy's order for a span so small that delta / div underflows
        grid = [i / div * delta + lo for i in range(steps)]
    else:
        grid = [i * step + lo for i in range(steps)]
    grid[-1] = hi
    return grid


def _arange(start: float, stop: float, step: float) -> list[float]:
    """np.arange(start, stop, step) bit for bit, for finite floats, as a list of floats."""
    length = max(math.ceil((stop - start) / step), 0)
    delta = (start + step) - start  # numpy fills from the first two entries, start and start + step
    return [start, start + step, *(start + i * delta for i in range(2, length))][:length]


def _cmd_thermo_curve(args, cfg: RunConfig) -> int:
    from . import reduced_state
    steps = integer("--steps", args.steps, low=2, high=THERMO_CURVE_MAX_STEPS)
    lo, hi = finite("--beta-sq-min", args.beta_sq_min), finite("--beta-sq-max", args.beta_sq_max)
    # every grid point lies between the two ends, so checking them refuses a bad range before any row
    grid = _linspace(reduced_state._beta_sq(lo), reduced_state._beta_sq(hi), steps)
    with _output(args.out) as stream:
        # each row is written as it is computed, so memory stays flat in --steps
        reduced_state.write_thermo_csv(map(reduced_state.thermo_point, grid), stream)
    if args.out != "-":
        print(f"wrote {steps} rows to {args.out}")
    return 0


def _cmd_decompose_shear(args, cfg: RunConfig) -> int:
    import json
    from . import planar_transforms
    alpha, lam = positive("--alpha", args.alpha), finite("--lam", args.lam)
    # the two factorizations that check their domains go first, so a refused input computes nothing
    theta_rs, eta_rs = planar_transforms.shear_as_rotated_squeeze(alpha)
    sr = planar_transforms.wigner_decompose(alpha, lam)
    theta_prime, eta_b = planar_transforms.bargmann_decompose(alpha)
    recon = planar_transforms.bargmann_reconstruct(theta_prime, eta_b)
    target = planar_transforms.shear(alpha)
    form_dev = planar_transforms._residual(
        planar_transforms.rotated_squeeze_form(theta_rs, eta_rs), planar_transforms.sheared_gaussian_form(alpha)
    )
    omega = planar_transforms._omega(alpha, lam)  # the angle whose cosine sits on the matrix's diagonal
    bound = 2.0 * alpha * math.exp(-2.0 * lam) + (1.0 - math.cos(omega))
    payload = {
        "alpha": alpha,
        # the residuals are absolute; this is the scale they are judged against
        "shear_max_entry": max(1.0, 2.0 * alpha),
        "bargmann": {
            # theta_prime + pi/4 is the rotated squeeze's angle, which keeps its digits at large alpha
            "theta": theta_rs,
            "theta_prime": theta_prime,
            "eta": eta_b,
            "reconstruction_residual": planar_transforms._residual(recon, target),
        },
        "rotated_squeeze": {
            "theta": theta_rs,
            "eta": eta_rs,
            "exp_2eta": math.exp(2.0 * eta_rs),
            "form_residual": form_dev,
            # the form's largest entry, the scale form_residual is judged against
            "form_max_entry": 1.0 + 4.0 * alpha * alpha,
        },
        "squeezed_rotation": {
            "lambda": lam,
            "omega": omega,
            "matrix": sr,
            "residual_vs_shear": planar_transforms._residual(sr, target),
            "residual_bound": bound,
        },
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_inner_product(args, cfg: RunConfig) -> int:
    from . import covariant_inner
    tol = positive("--tol", args.tol if args.tol is not None else cfg.inner_tol)
    order = args.order if args.order is not None else cfg.quadrature_order
    result = covariant_inner.inner_product(args.n, args.eta1, args.m, args.eta2, order=order)
    print(f"n = {args.n}, eta1 = {_fmt(args.eta1)}, m = {args.m}, eta2 = {_fmt(args.eta2)}")
    print(f"quadrature = {_fmt(result.quadrature)}")
    print(f"closed_form = {_fmt(result.closed_form)}")
    print(f"deviation = {_fmt(result.deviation)}")
    return _verdict(result.deviation <= tol, "quadrature and closed form disagree at tolerance")


# Points per axis of the lattice wigner-grid samples; at the cap the lattice
# is 34 MB and the xy plane's FFT work arrays take a few times that.
WIGNER_GRID_MAX_SIDE = 2049
# Rows of thermo-curve; at the cap a run takes about 4.5 s and 53 MB end to end (2 CPUs, Python 3.11).
THERMO_CURVE_MAX_STEPS = 10**6


def _cmd_wigner_grid(args, cfg: RunConfig) -> int:
    if args.state == "squeezed":
        if args.eta is None:
            raise DomainError("--eta is required for --state squeezed")
        eta = args.eta
    elif args.eta is not None:
        raise DomainError("--eta applies only to --state squeezed")
    else:
        eta = 0.0
    import numpy as np
    from . import phase_space
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
        description="Numerical Wigner function on a plane slice, as CSV. For |eta| <= 0.3 values carry an "
        "absolute rounding floor of about 1e-16: smaller magnitudes, negative ones included, are noise. "
        "Past that the finite lattice adds error (about 6e-7 at |eta| = 1 and 1e-2 at 2), with exit 0.",
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
    # numpy's OpenBLAS otherwise spins an idle worker for ~0.1 s of CPU per process;
    # the minimum timeout makes idle workers sleep at once.  It must be set before numpy loads.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    # A command's cyclic garbage is a few hundred objects (mostly the parser) whatever its input, so
    # collecting only costs time: none runs during the command, and the frozen heap keeps the
    # interpreter's exit-time collection from walking every object numpy created.
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
