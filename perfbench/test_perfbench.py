"""Tests of the benchmark itself, at toy size.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import hashlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


TOY = {
    "ideal": [Op(("ideal", "-k", "2,2", "-s", "2,1"), "digest", _sha("A*D - B*C\n"))],
    "verify": [Op(("verify", "-k", "3,2", "-s", "2,1", "--samples", "2", "--seed", "3"), "verify", 1)],
    "critpoints": [
        Op(("critpoints", "-k", "2,2", "-s", "2,1", "--format", "json", "--starts", "40"), "critpoints", 6)
    ],
    "eddeg": [Op(("eddeg", "-k", "2,2,2", "--tree"), "digest", _sha("C[2,2,2] = 34\n  C[3,2] = 10\n"))],
}
MIXED = [op for ops in TOY.values() for op in ops]
# Per-layer metrics that are counts or ratios of counts, so must repeat exactly.
EXACT = [
    name
    for name, unit in spans.LAYER_METRICS
    if unit == "count" or name.endswith("_frac")
]


def _run(ops, trace, tmp_path):
    return run.run_workload(ops, 0.0, trace, tmp_path)


@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload_timed(name, tmp_path):
    out = _run(TOY[name], False, tmp_path)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TOY[name])
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"] and metric["value"] > 0


def test_traced_run_reports_every_layer_metric_and_repeats_counts(tmp_path):
    first = _run(MIXED, True, tmp_path)["result"]
    second = _run(MIXED, True, tmp_path)["result"]
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [first["metrics"][n]["unit"] for n in first["metrics"]] == [
        m["unit"] for m in BENCHMARK["per_layer"]
    ]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    for name in (
        "polyring.determinant.calls",
        "polyring.evaluate.calls",
        "resultant.raw_minors",
        "idealgen.vanishing_generators.calls",
        "arch.sample_neuromanifold.calls",
        "critpoints.starts_used",
        "critpoints.linalg_solve.calls",
        "eddegree.merge_tree.calls",
        "cli.stdout_bytes",
    ):
        assert first["metrics"][name]["value"] > 0, name


def _wrapped_names():
    names = []
    for module in spans.lcn_modules() + [sys.modules["numpy.linalg"]]:
        for key, value in vars(module).items():
            if getattr(value, "perfbench_wrapper", False):
                names.append(f"{module.__name__}.{key}")
    for key, value in vars(sys.modules["lcn.polyring"].MultiPoly).items():
        if getattr(value, "perfbench_wrapper", False):
            names.append(f"MultiPoly.{key}")
    return names


def test_wrappers_only_while_tracing(monkeypatch):
    import lcn.cli

    seen = []
    original = lcn.cli.main

    def spy(argv):
        seen.append(_wrapped_names())
        return original(argv)

    monkeypatch.setattr(lcn.cli, "main", spy)
    argv = [TOY["verify"][0].argv]

    child.run_pass(argv, None)
    assert seen.pop() == []

    child.run_pass(argv, spans.Tracer())
    during = seen.pop()
    for name in ("lcn.idealgen.two_layer_ideal", "lcn.verify.vanishing_generators",
                 "lcn.cli.vanishing_generators", "MultiPoly.evaluate", "MultiPoly.__rmul__",
                 "numpy.linalg.solve"):
        assert name in during, name
    assert _wrapped_names() == []
    assert lcn.cli.main is spy


def _busy(n):
    s = 0
    for i in range(n):
        s += i
    return s


def test_sampler_times_the_call_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = reference.Sampler(interval_s=0.01)
    result, seconds, slowdown = sampler.run(lambda: _busy(2_000_000))
    assert result == _busy(2_000_000)
    assert seconds > 0 and slowdown > 0
    assert len(sampler._samples) > 2  # probes ran during the call, not only around it
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        sampler.run(lambda: 1 / 0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_wrong_digest_is_a_failed_operation(tmp_path):
    wrong = Op(TOY["ideal"][0].argv, "digest", "0" * 64)
    result = _run([wrong] + TOY["eddeg"], False, tmp_path)["result"]
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["metrics"]["recall"]["value"] == 0.5


def test_critpoints_checks():
    op = TOY["critpoints"][0]
    point = {"w_re": [1.0, 0.0], "w_im": [0.5, 0.0], "lambda_re": 1.0, "lambda_im": 0.0,
             "residual": 1e-14, "real": False}
    report = {"expected": 6, "distinct": 1, "saturated": False, "points": [point]}
    short = workloads.check(op, 1, json.dumps(report), "")
    assert short.ok and (short.found, short.expected) == (1, 6)
    assert not workloads.check(op, 0, json.dumps(report), "").ok
    bad = dict(report, points=[dict(point, residual=1e-9)])
    assert not workloads.check(op, 1, json.dumps(bad), "").ok
    # a complete set must be closed under conjugation
    full = {"expected": 6, "distinct": 6, "saturated": True, "points": [point] * 6}
    assert not workloads.check(op, 0, json.dumps(full), "").ok


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for make in workloads.WORKLOADS.values():
        assert make(5) == make(5)
    assert workloads.WORKLOADS["critpoints"](5) != workloads.WORKLOADS["critpoints"](6)
    assert workloads.WORKLOADS["ideal"](5) == workloads.WORKLOADS["ideal"](6)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "ideal", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
