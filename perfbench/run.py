"""Benchmark of the ``lcn`` command line: four workloads, timed or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ideal --seed 1 --seconds 28 --trace 0

``--trace 0`` runs passes of the workload, each in a fresh interpreter, for
at most ``--seconds`` seconds (at least one pass) and reports the end-to-end
metrics as medians over the passes, with operation times corrected for the
host's speed as ``reference.py`` measures it.  ``--trace 1`` runs one
untimed-mode pass and one traced pass and reports the per-layer metrics of
the traced one.  Every operation's output is checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the details and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# A run must end within 180 s; stop starting children well before that.
DEADLINE_S = 170.0
SETUP_PROBES = 9


class BenchError(Exception):
    """The benchmark could not run (as opposed to an operation failing)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before the run finished")
    return left


def probe_setup(deadline: float) -> tuple:
    """Seconds from starting an interpreter to ``import lcn.cli`` done.

    Returns them raw and divided by the mean host slowdown probed just
    before and just after.
    """
    before = reference.probe(reference.EDGE_ROUNDS)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--probe"],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=_remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError(f"importing lcn.cli failed:\n{proc.stderr}")
    seconds = float(proc.stdout) - start
    after = reference.probe(reference.EDGE_ROUNDS)
    return seconds, seconds / ((before + after) / 2)


def run_child(ops: list, trace: bool, workdir: Path, deadline: float) -> dict:
    """One pass in a fresh interpreter; adds ``setup_s`` and ``process_s``."""
    out = workdir / f"pass-{time.monotonic_ns()}.json"
    spec = json.dumps(
        {"ops": [list(op.argv) for op in ops], "trace": trace, "probe": not trace, "out": str(out)}
    )
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), spec],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=_remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError(f"the workload process failed:\n{proc.stderr}")
    result = json.loads(out.read_text())
    out.unlink()
    if not Path(result["lcn_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"lcn was imported from {result['lcn_file']}, not from {SRC}")
    result["setup_s"] = result["import_done"] - start
    result["process_s"] = time.monotonic() - start
    return result


def _wall_s(passes: list, corrected: bool = True) -> float:
    """Sum over operations of each one's median wall time across passes.

    ``corrected`` divides each time by the host slowdown probed around it,
    which takes out the slow stretches of a shared host; per-operation
    medians keep a burst during one operation of one pass out of the figure.
    """
    per_op = zip(*(
        [r["wall_s"] / (r["slowdown"] if corrected else 1.0) for r in p["operations"]]
        for p in passes
    ))
    return sum(statistics.median(times) for times in per_op)


def run_workload(ops: list, seconds: float, trace: bool, workdir: Path) -> dict:
    """Passes of ``ops``, checked, with the metrics the mode asks for."""
    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    raw_setup, setup = zip(*(probe_setup(deadline) for _ in range(SETUP_PROBES)))
    passes = []
    if trace:
        passes.append(run_child(ops, False, workdir, deadline))
        traced = run_child(ops, True, workdir, deadline)
        checked = passes + [traced]
    else:
        while True:
            passes.append(run_child(ops, False, workdir, deadline))
            typical = statistics.median(p["process_s"] for p in passes)
            if time.monotonic() - begin + typical > seconds:
                break
        checked = passes

    judged = [
        [workloads.check(op, r["rc"], r["stdout"] or "", r["sha256"]) for op, r in zip(ops, p["operations"])]
        for p in checked
    ]
    outcomes = [o for per_pass in judged for o in per_pass]
    failed = sum(not o.ok for o in outcomes)
    found = sum(o.found for o in outcomes)
    expected = sum(o.expected for o in outcomes)
    if trace:
        metrics = spans.layer_metrics(
            traced["trace"],
            sum(r["stdout_bytes"] for r in traced["operations"]),
            traced["wall_s"] - passes[0]["wall_s"],
        )
    else:
        metrics = {
            "wall_s": {"value": _wall_s(passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "recall": {"value": found / expected, "unit": "ratio"},
        }
    details = {
        "raw_wall_s": _wall_s(passes, corrected=False),
        "passes": [
            {**{k: p[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "process_s")},
             "op_wall_s": [r["wall_s"] for r in p["operations"]],
             "op_slowdown": [r["slowdown"] for r in p["operations"]]}
            for p in checked
        ],
        "setup_samples_s": raw_setup,
        "pass_setup_s": [p["setup_s"] for p in checked],
        "fail_frac": failed / len(outcomes),
        "recall_base": [found, expected],
        "operations": [
            {"argv": op.label, "rc": r["rc"], "wall_s": r["wall_s"], "ok": o.ok, "reason": o.reason,
             "found": o.found, "expected": o.expected, "error": r["error"]}
            for op, r, o in zip(ops, checked[-1]["operations"], judged[-1])
        ],
    }
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}
    return {"result": result, "details": details}


def _git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lcn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lcn" / "cli.py").is_file():
        print(f"error: no lcn sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    env = environment()
    env["loadavg_start"] = os.getloadavg()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    (HERE / ".out").mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=HERE / ".out") as workdir:
            run = run_workload(ops, args.seconds, bool(args.trace), Path(workdir))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": env, **run["details"]}
    print(json.dumps(details))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
