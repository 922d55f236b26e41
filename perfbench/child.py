"""One pass of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/child.py SPEC_JSON`` with ``src`` on
``PYTHONPATH``.  The spec holds the command lines, whether to trace, whether
to probe the host's speed around each operation (see ``reference.py``), and
the file the pass writes its results (and spans) to.  ``--probe`` only imports
``lcn.cli`` and prints when the import finished, for the set-up time.

The first thing the pass does is import ``lcn.cli``; the time that import
finished is reported on the monotonic clock, which the parent shares, so the
parent can time interpreter start plus import.
"""

import time

import lcn.cli

IMPORT_DONE = time.monotonic()

import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402
from spans import Tracer  # noqa: E402


def _call(argv, buf) -> tuple:
    """Exit code (None if it raised) and traceback of one command line."""
    try:
        with contextlib.redirect_stdout(buf):
            return lcn.cli.main(list(argv)), None
    except Exception:  # an operation that raises is a failed operation
        return None, traceback.format_exc(limit=3)


def run_pass(ops, tracer=None, probe=False) -> dict:
    """Run the command lines in order through ``lcn.cli.main``.

    Returns the wall time of the whole list and, per operation, its exit
    code (None if it raised), captured stdout and digest.  With a tracer the
    wrappers are installed for the pass and removed afterwards.  With
    ``probe`` a ``reference.Sampler`` times each operation and measures the
    host's slowdown around and during it.
    """
    results = []
    sampler = reference.Sampler() if probe else None
    if tracer is not None:
        tracer.install()
    try:
        wall = 0.0
        for op_id, argv in enumerate(ops):
            if tracer is not None:
                tracer.op = op_id
            buf = io.StringIO()
            call = functools.partial(_call, argv, buf)
            if sampler is None:
                op_start = time.perf_counter()
                (rc, error), slowdown = call(), None
                seconds = time.perf_counter() - op_start
            else:
                (rc, error), seconds, slowdown = sampler.run(call)
            wall += seconds
            results.append((rc, error, seconds, slowdown, buf))
    finally:
        if tracer is not None:
            tracer.uninstall()
    operations = []
    for rc, error, seconds, slowdown, buf in results:
        data = buf.getvalue().encode()
        operations.append(
            {
                "rc": rc,
                "error": error,
                "wall_s": seconds,
                "slowdown": slowdown,
                "stdout_bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
                "stdout": data.decode() if len(data) <= 1 << 16 else None,
            }
        )
    return {"wall_s": wall, "operations": operations}


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        print(IMPORT_DONE)
        return 0
    spec = json.loads(sys.argv[1])
    tracer = Tracer() if spec["trace"] else None
    out = run_pass(spec["ops"], tracer, spec["probe"])
    out.update(
        import_done=IMPORT_DONE,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        lcn_file=lcn.__file__,
        trace=tracer.dump() if tracer is not None else None,
    )
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
