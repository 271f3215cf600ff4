"""Self-test of the benchmark's output checks: real outputs pass, perturbed ones are flagged.

    python3 bench/selftest.py

Runs the verify workload's jobs and the ground-state Wigner grid once, through
the same launcher as the benchmark, then alters each output in one place and
requires the job's check to flag it.  Also requires a job that exits non-zero
to count as failed.  Exits 1 if any check passes a perturbed output or fails a
real one.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import jobs
import run


def _scale_csv_value(text: str, factor: float) -> str:
    """Multiply the last column of the middle data row by factor."""
    lines = text.splitlines()
    i = len(lines) // 2
    *head, value = lines[i].split(",")
    lines[i] = ",".join(head + [repr(float(value) * factor if float(value) else 1e-3)])
    return "\n".join(lines) + "\n"


def _set_field(stdout: str, key: str, value: str) -> str:
    return re.sub(rf"^{key} = .*$", f"{key} = {value}", stdout, count=1, flags=re.M)


def _shift_field(stdout: str, key: str, delta: float) -> str:
    old = float(re.search(rf"^{key} = (.*)$", stdout, flags=re.M).group(1))
    return _set_field(stdout, key, repr(old + delta))


def _shear(stdout: str) -> str:
    payload = json.loads(stdout)
    payload["bargmann"]["eta"] += 1e-9
    return json.dumps(payload)


# subcommand -> perturbations of (stdout, output file text)
PERTURB = {
    "identity-check": [
        lambda out, text: (out.replace("\nOK", "\nFAIL"), text),
        lambda out, text: (_set_field(out, "max_deviation", "1e-07"), text),
    ],
    "algebra-check": [lambda out, text: (_set_field(out, "max_deviation", "1e-300"), text)],
    "thermo-curve": [lambda out, text: (out, _scale_csv_value(text, 1 + 1e-7))],
    "decompose-shear": [lambda out, text: (_shear(out), text)],
    "inner-product": [lambda out, text: (_shift_field(out, "closed_form", 1e-7), text)],
    "wigner-grid": [lambda out, text: (out, _scale_csv_value(text, 1 + 1e-8))],
}


def main() -> int:
    cases = jobs.make_jobs("verify", 1) + jobs.make_jobs("wigner", 1)[2:]
    prefix = [sys.executable, "-c", run.ENTRY]
    env = run.child_env()
    bad = 0
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workdir = Path(tmp)
        for job in cases:
            result = run.run_job(job, prefix, workdir, env)
            stdout = (workdir / "stdout").read_text()
            text = (workdir / "job.out").read_text() if job.writes_file else ""
            verdicts = [result.problem] + [job.check(*p(stdout, text)) for p in PERTURB[job.argv[0]]]
            ok = verdicts[0] is None and all(v is not None for v in verdicts[1:])
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {' '.join(job.argv)}: real -> {verdicts[0]}; perturbed -> {verdicts[1:]}")
        broken = jobs.Job(("identity-check", "--eta", "99"), jobs.check_identity)
        problem = run.run_job(broken, prefix, workdir, env).problem
        bad += problem is None
        print(f"{'ok ' if problem else 'BAD'} entosc identity-check --eta 99: {problem}")
    print("selftest", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
