"""Span tracing of entosc's layers, and the per-job child process that records it.

Run as a script, this file executes one `entosc` command line in-process
through `entosc.cli.main(argv)`:

    python3 bench/spans.py --spans OUT.json [--traced] -- <entosc arguments>

It times `import entosc` as the `entosc.import` span.  With `--traced` it then
wraps every public function and public method of the package's modules at the
module attribute its callers resolve (a function imported by name into another
module is wrapped there too, under its defining layer), so each call records a
span: name, layer, start, end and parent.  Spans stay in memory until the job
ends and are then written to OUT.json with the in-process wall time of
`cli.main`.  Stdout and the exit code are the CLI's own, so the job's output
checks apply unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = (
    "oscillator_basis",
    "planar_transforms",
    "dirac_algebra",
    "entangled_series",
    "reduced_state",
    "covariant_inner",
    "phase_space",
    "cli",
)
IMPORT_LAYER = "entosc.import"
ALL_LAYERS = (IMPORT_LAYER,) + LAYERS


class Tracer:
    """Records nested spans as [name, layer, start, end, parent-index] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, start, end, parent])

    def wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def install(self, package: str = "entosc") -> None:
        """Wrap the public callables of every layer module where callers look them up."""
        owners = {f"{package}.{name}": name for name in LAYERS}
        for name in LAYERS:
            module = importlib.import_module(f"{package}.{name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in owners:
                    layer = owners[obj.__module__]
                    setattr(module, attr, self.wrap(f"{layer}.{obj.__qualname__}", layer, obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_methods(obj, name)

    def _install_methods(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            label = f"{layer}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(label, layer, member))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(label, layer, member.__func__)))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus the time its child spans cover.

    Spans are nested (single-threaded calls), so a parent's covered time is the
    sum of its children's durations.
    """
    covered: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] >= 0:
            key = (s["job"], s["parent"])
            covered[key] = covered.get(key, 0.0) + (s["end"] - s["start"])
    out = {layer: 0.0 for layer in ALL_LAYERS}
    for s in spans:
        own = (s["end"] - s["start"]) - covered.get((s["job"], s["index"]), 0.0)
        out[s["layer"]] += own
    return out


def _child(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1 :]
    spans_path = Path(opts[opts.index("--spans") + 1])
    traced = "--traced" in opts
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    tracer = Tracer()
    start = time.perf_counter()
    entosc = importlib.import_module("entosc")
    tracer.record(IMPORT_LAYER, IMPORT_LAYER, start, time.perf_counter())
    if traced:
        tracer.install()
    start = time.perf_counter()
    rc = entosc.cli.main(cli_argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    spans_path.write_text(json.dumps({"main_s": main_s, "spans": tracer.spans}))
    return rc


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
