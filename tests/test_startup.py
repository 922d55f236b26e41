"""Start-up contract: the exact ``lcn`` commands never load numpy.

``lcn.critpoints`` imports numpy inside the functions that use it, so numpy
enters ``sys.modules`` only when the solver or the training reduction first
runs, and the import lock makes that first use safe from several threads.
Each check runs in a fresh interpreter, since the test process itself has
numpy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLES = ROOT / "scripts" / "ed_degree_tables.py"

# Runs each command line of argv[1] (JSON) in order, then prints, per step,
# its exit code and whether numpy is loaded afterwards.  A command line that
# starts with a path runs that script.
CHILD = """
import contextlib, io, json, runpy, sys

import lcn.cli

def numpy_loaded():
    return "numpy" in sys.modules

steps = [["import", 0, numpy_loaded(), "lcn.critpoints" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if argv[0].endswith(".py"):
            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
            rc = 0
        else:
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
    [str(TABLES), "--max-k1", "3", "--max-k2", "3"],
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
    assert fresh([]) == [["import", 0, False, True]]


def test_exact_commands_never_load_numpy_and_critpoints_does():
    steps = fresh(EXACT + [CRITPOINTS])
    assert steps[1:-1] == [[argv[0], 0, False] for argv in EXACT]
    # 20 starts may fall short of the count: exit 1, not an error
    name, rc, loaded = steps[-1]
    assert (name, loaded) == ("critpoints", True) and rc in (0, 1)


def test_two_threads_can_make_the_first_numpy_use_at_once():
    assert fresh([], THREADS) == []
