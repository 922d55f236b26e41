"""Start-up contract: the exact ``lcn`` commands never load numpy, and
``import lcn.cli`` loads none of ``dataclasses``, ``inspect`` or ``json``.

``lcn.critpoints`` imports numpy inside the functions that use it, so numpy
enters ``sys.modules`` only when the solver or the training reduction first
runs, and the import lock makes that first use safe from several threads.
The records are ``typing.NamedTuple`` classes, and ``json`` is imported when
a ``--format json`` document is first printed.  Each check runs in a fresh
interpreter, since the test process itself has numpy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Imports lcn.cli first and records which of the start-up modules it loaded
# (the interpreter's own start, with its site hooks, may load some of them
# before); then runs each command line of argv[1] (JSON) in order, and
# prints, per step, its exit code and whether numpy is loaded afterwards.
CHILD = """
import sys

before = set(sys.modules)
import lcn.cli

STARTUP = ("dataclasses", "inspect", "json", "numpy")
loaded = [m for m in STARTUP if m in sys.modules and m not in before]
steps = [["import", 0, loaded, "lcn.critpoints" in sys.modules]]

import contextlib, io, json

def numpy_loaded():
    return "numpy" in sys.modules

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = lcn.cli.main(argv)
    steps.append([argv[0], rc, numpy_loaded()])
print(json.dumps(steps))
"""

EXACT = [
    ["ideal", "-k", "3,2", "-s", "2,1"],
    ["verify", "-k", "2,2", "-s", "2,1", "--samples", "5"],
    ["eddeg", "-k", "2,3,4", "--tree"],
    ["resultant", "-k", "3,2", "-s", "2,1"],
    ["compose", "-k", "2,2", "-s", "2,1"],
    ["eddeg", "--table", "3", "3"],
    # json is imported on first use, here
    ["compose", "-k", "2,2", "-s", "2,1", "--format", "json"],
]
CRITPOINTS = ["critpoints", "-k", "2,2", "-s", "2,1", "--starts", "20"]


# Two threads meet right after ``import lcn.cli``, so both make the first
# use of numpy at once; prints the exceptions they raised.
THREADS = """
import json, threading

import lcn.cli
from lcn.arch import Architecture
from lcn.critpoints import seeded_problem, solve_critical_points

barrier = threading.Barrier(2)
errors = []

def solve():
    barrier.wait()
    try:
        _, _, problem = seeded_problem(Architecture((2, 2), (2, 1)), 7, 3)
        solve_critical_points(problem, starts=20, seed=1)
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=solve) for _ in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps(errors))
"""


def fresh(commands, child: str = CHILD) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", child, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return json.loads(out)


def test_import_loads_critpoints_but_not_numpy():
    # nor dataclasses (with inspect) nor json
    assert fresh([]) == [["import", 0, [], True]]


def test_exact_commands_never_load_numpy_and_critpoints_does():
    steps = fresh(EXACT + [CRITPOINTS])
    assert steps[1:-1] == [[argv[0], 0, False] for argv in EXACT]
    # 20 starts may fall short of the count: exit 1, not an error
    name, rc, loaded = steps[-1]
    assert (name, loaded) == ("critpoints", True) and rc in (0, 1)


# Runs ``lcn critpoints`` in-process and prints OPENBLAS_NUM_THREADS after it.
OPENBLAS = """
import contextlib, io, json, os, sys

import lcn.cli

with contextlib.redirect_stdout(io.StringIO()):
    lcn.cli.main(json.loads(sys.argv[1]))
print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
"""


@pytest.mark.parametrize("given,kept", [(None, "1"), ("3", "3")])
def test_critpoints_defaults_openblas_to_one_thread(monkeypatch, given, kept):
    if given is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
    assert fresh(CRITPOINTS, OPENBLAS) == kept


def test_two_threads_can_make_the_first_numpy_use_at_once():
    assert fresh([], THREADS) == []
