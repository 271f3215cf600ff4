"""Benchmark of the entosc command line, end to end and layer by layer.

    python3 bench/run.py --workload {wigner,algebra,verify,all} --seed N --seconds S --trace {0,1}

Run from anywhere; paths are resolved from this file, and everything the run
writes goes under `.bench_out/` at the repository root.

--trace 0 (end to end).  Each job is a fresh `entosc` process, started the way
the `entosc` console script starts it (`entosc.cli:entry` with `src` on the
path), one at a time from this single client (a closed loop with one client).
Passes over the workload's job list repeat for --seconds; a pass starts only
if the previous pass's length still fits.  wall_s and cpu_s sum each job's
median over the passes; slowest_job_s and peak_rss_mb take the largest
per-job median.  Per-job CPU and peak RSS come from os.wait4 on that job
alone.  Every job's exit code and output are checked against independent
references (bench/jobs.py); a failed check counts the job as failed.  Set-up time is the median wall time of SETUP_RUNS fresh
`import entosc` processes, after one that fills the bytecode cache.

--trace 1 (per layer).  One traced and one untraced pass run each job
in-process through `cli.main(argv)`, one job per process so the import each
user pays shows as the `entosc.import` layer (bench/spans.py).  The traced pass
gives each layer's self time; traced minus untraced `cli.main` time is the
tracing overhead.  Then bench/layers.py times each module's public functions
in-process.  The spans go to `.bench_out/trace-<workload>-<seed>.json`.

Human-readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics (name -> value and unit), the
metrics being the end_to_end (--trace 0) or per_layer (--trace 1) list of
BENCHMARK.json.  `--workload all` runs the three workloads in turn and
prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jobs as jobs_mod
import spans as spans_mod

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The console script `entosc = "entosc.cli:entry"` does exactly this.
ENTRY = 'import sys\nfrom entosc.cli import entry\nsys.argv[0] = "entosc"\nentry()'
SETUP_RUNS = 5
JOB_TIMEOUT_S = 120.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a broken harness)."""


@dataclass(frozen=True)
class JobRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    problem: str | None  # None when the exit code and every output check passed


def child_env() -> dict:
    env = dict(os.environ)  # BLAS thread variables are passed on as found
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], stdout_path: Path, stderr_path: Path, env: dict):
    """Run cmd to completion; returns (wall seconds, rusage of this child alone, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above; Popen must not wait again
    return wall, usage, proc.returncode


def run_job(job: jobs_mod.Job, prefix: list[str], workdir: Path, env: dict) -> JobRun:
    """One job as a fresh process; stderr is kept as data and never fails a job."""
    out_file = workdir / "job.out"
    argv = list(job.argv) + (["--out", str(out_file)] if job.writes_file else [])
    out_file.unlink(missing_ok=True)
    wall, usage, rc = spawn(prefix + argv, workdir / "stdout", workdir / "stderr", env)
    if rc != 0:
        problem = f"exit code {rc}"
    else:
        stdout = (workdir / "stdout").read_text()
        text = out_file.read_text() if job.writes_file else ""
        problem = job.check(stdout, text)
    return JobRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, problem)


def setup_times(workdir: Path, env: dict) -> list[float]:
    cmd = [sys.executable, "-c", "import entosc"]
    walls = []
    for i in range(SETUP_RUNS + 1):
        wall, _, rc = spawn(cmd, workdir / "stdout", workdir / "stderr", env)
        if rc != 0:
            raise BenchError(f"`import entosc` failed: {(workdir / 'stderr').read_text()[-500:]}")
        if i:  # the first import compiles the bytecode cache
            walls.append(wall)
    return walls


def measure_passes(job_list, seconds: float, workdir: Path, env: dict) -> list[list[JobRun]]:
    prefix = [sys.executable, "-c", ENTRY]
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        start = time.perf_counter()
        passes.append([run_job(job, prefix, workdir, env) for job in job_list])
        took = time.perf_counter() - start
        if time.perf_counter() + took > deadline:
            return passes


def log(line: str) -> None:
    print(line, flush=True)


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path, env: dict) -> tuple[dict, int, int]:
    job_list = jobs_mod.make_jobs(workload, seed)
    setup = setup_times(workdir, env)
    passes = measure_passes(job_list, seconds, workdir, env)
    runs = [r for p in passes for r in p]
    failed = [(job.argv, r.problem) for p in passes for job, r in zip(job_list, p) if r.problem]

    def job_medians(field: str) -> list[float]:
        return [statistics.median(getattr(p[j], field) for p in passes) for j in range(len(job_list))]

    # A pass is summarised by per-job medians over all passes, so one slow job
    # in one pass does not move the result.
    wall, cpu, rss = job_medians("wall_s"), job_medians("cpu_s"), job_medians("rss_mb")
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "slowest_job_s": max(wall),
        "peak_rss_mb": max(rss),
    }
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "slowest_job_s": "s", "peak_rss_mb": "MB"}
    for name, value in values.items():
        how = f"median of n={len(setup)} imports" if name == "setup_s" else f"from per-job medians of n={len(passes)} passes"
        log(f"{workload:8s} {name:14s} {value:10.4f} {units[name]:3s} {how}")
    log(f"{workload:8s} {'failed_frac':14s} {len(failed) / len(runs):10.4f}     {len(failed)} of {len(runs)} jobs")
    for argv, problem in failed[:10]:
        log(f"{workload:8s} FAILED entosc {' '.join(argv)}: {problem}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    record = {"setup_s": setup, "passes": [[r.__dict__ for r in p] for p in passes], "metrics": metrics}
    _write(OUT / f"result-{workload}-seed{seed}.json", record)
    return metrics, len(runs), len(failed)


def traced(workload: str, seed: int, workdir: Path, env: dict) -> tuple[dict, int, int]:
    job_list = jobs_mod.make_jobs(workload, seed)
    attempted = failed = 0
    all_spans: list[dict] = []
    main_s = {True: 0.0, False: 0.0}
    spans_file = workdir / "spans.json"
    for job_id, job in enumerate(job_list):
        for is_traced in (True, False):
            prefix = [sys.executable, str(BENCH_DIR / "spans.py"), "--spans", str(spans_file)]
            prefix += ["--traced", "--"] if is_traced else ["--"]
            spans_file.unlink(missing_ok=True)
            run = run_job(job, prefix, workdir, env)
            attempted += 1
            if run.problem:
                failed += 1
                log(f"{workload:8s} FAILED (in-process) entosc {' '.join(job.argv)}: {run.problem}")
                continue
            child = json.loads(spans_file.read_text())
            main_s[is_traced] += child["main_s"]
            if is_traced:
                base = len(all_spans)
                for i, (name, layer, start, end, parent) in enumerate(child["spans"]):
                    all_spans.append(
                        {"job": job_id, "index": i, "name": name, "layer": layer,
                         "start": start, "end": end, "parent": parent}
                    )
                log(f"{workload:8s} traced job {job_id}: {len(all_spans) - base} spans, cli.main {child['main_s']:.3f} s")
    self_s = spans_mod.self_times(all_spans)
    total = sum(self_s.values())
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        log(f"{workload:8s} self {layer:18s} {seconds:9.4f} s  {100 * seconds / total:5.1f} %")
    overhead = main_s[True] - main_s[False]
    log(f"{workload:8s} tracing overhead {overhead:.4f} s (traced {main_s[True]:.4f} s, untraced {main_s[False]:.4f} s)")
    _write(OUT / f"trace-{workload}-seed{seed}.json", all_spans)

    metrics = {f"{layer}.self_s": {"value": s, "unit": "s"} for layer, s in self_s.items()}
    metrics["trace.spans"] = {"value": len(all_spans), "unit": "count"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    res = subprocess.run(
        [sys.executable, str(BENCH_DIR / "layers.py")], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=150,
    )
    if res.returncode != 0:
        raise BenchError(f"bench/layers.py failed:\n{res.stderr[-2000:]}")
    for name, (value, unit) in json.loads(res.stdout.splitlines()[-1]).items():
        log(f"{'layer':8s} {name:46s} {value:14.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, attempted, failed


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload) + "\n")


def environment(args) -> dict:
    import numpy  # the output checks need it anyway

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() if res.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "entosc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*jobs_mod.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entosc" / "cli.py").is_file():
        raise BenchError(f"no entosc sources under {SRC}")
    declared = declared_metrics(args.trace)

    OUT.mkdir(exist_ok=True)
    env_record = environment(args)
    print("env " + json.dumps(env_record, sort_keys=True), flush=True)
    names = list(jobs_mod.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict = {}
    attempted = failed = 0
    env = child_env()
    for workload in names:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            if args.trace:
                m, a, f = traced(workload, args.seed, Path(tmp), env)
            else:
                m, a, f = end_to_end(workload, args.seed, args.seconds, Path(tmp), env)
        if {k: v["unit"] for k, v in m.items()} != declared:
            raise BenchError(f"emitted metrics do not match BENCHMARK.json: {sorted(set(m) ^ set(declared))}")
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics |= {prefix + k: v for k, v in m.items()}
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
