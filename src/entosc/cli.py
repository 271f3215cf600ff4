"""Command-line surface: verifications and figure data as CSV/JSON.

Exit codes are contractual across subcommands: 0 success, 1 usage or
domain error, 2 tolerance breach, 3 I/O failure.  All numeric output is
printed with 12 significant digits, decimal point, newline-delimited,
so repeated runs are byte-stable.  Each subcommand parses its flags, makes
one kernel call, prints from what it returns and picks the exit code.  It
loads `errors` and the modules it runs: `identity-check` entangled_series,
oscillator_basis and reduced_state, `algebra-check` dirac_algebra,
`thermo-curve` reduced_state, `decompose-shear` planar_transforms,
`inner-product` covariant_inner and oscillator_basis, `wigner-grid` phase_space
and oscillator_basis.  cli imports no numpy; the kernels load it for `wigner-grid`,
for `identity-check` past entangled_series.LIST_WORK_MAX units of work and for
`algebra-check --rep fock` past cutoff 54 (dirac_algebra.LIST_STATES_MAX basis states).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
import typing

from .errors import CutoffError, DomainError, NumericsError, integer, positive


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
    series_tol = args.series_tol if args.series_tol is not None else cfg.series_tol
    run = entangled_series.identity_check(args.n, args.eta, args.xmin, args.xmax, args.spacing, series_tol)
    print(f"n = {args.n}, eta = {_fmt(args.eta)}")
    print(f"grid = [{_fmt(args.xmin)}, {_fmt(args.xmax)}] step {_fmt(args.spacing)} ({run.points}^2 points)")
    print(f"max_deviation = {_fmt(run.deviation)}")
    print(f"tolerance = {_fmt(tol)}")
    return _verdict(run.deviation <= tol, "series does not reproduce the squeezed Gaussian at tolerance")


def _cmd_algebra_check(args, cfg: RunConfig) -> int:
    from . import dirac_algebra
    tol = positive("--tol", args.tol if args.tol is not None else cfg.algebra_tol)
    cutoff = cfg.fock_cutoff if args.cutoff is None and args.rep == "fock" else args.cutoff
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


def _cmd_thermo_curve(args, cfg: RunConfig) -> int:
    from . import reduced_state
    grid = reduced_state.beta_sq_grid(args.beta_sq_min, args.beta_sq_max, args.steps)
    with _output(args.out) as stream:
        # each row is written as it is computed, so memory stays flat in --steps
        reduced_state.write_thermo_csv(map(reduced_state.thermo_point, grid), stream)
    if args.out != "-":
        print(f"wrote {len(grid)} rows to {args.out}")
    return 0


def _cmd_decompose_shear(args, cfg: RunConfig) -> int:
    import json
    from . import planar_transforms
    print(json.dumps(planar_transforms.decompose_shear(args.alpha, args.lam), indent=2))
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


def _cmd_wigner_grid(args, cfg: RunConfig) -> int:
    if args.state == "squeezed" and args.eta is None:
        raise DomainError("--eta is required for --state squeezed")
    if args.state == "ground" and args.eta is not None:
        raise DomainError("--eta applies only to --state squeezed")
    from . import phase_space
    grid = phase_space.wigner_plane(0.0 if args.eta is None else args.eta, args.plane, args.half_width, args.step)
    with _output(args.out) as stream:
        grid.write_csv(stream)
    if args.out != "-":
        print(f"wrote {grid.values.size} rows to {args.out}")
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
