"""The names the benchmark's tracer wraps from outside must keep existing.

``perfbench/`` is outside the tier-1 test paths; a renamed or deleted
traced name would otherwise only show up as a failing ``--trace 1`` run.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

from lcn.polyring import MultiPoly, minor_expansion  # noqa: E402


def test_traced_names_resolve():
    import lcn.cli  # noqa: F401  (the tracer loads the package this way)

    for module, attr, _ in spans.SPANNED + spans.COUNTED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_cli_import_loads_every_traced_lcn_module():
    # The tracer reads sys.modules right after ``import lcn.cli``; a module
    # imported only inside a function would be missing there.
    modules = sorted({m for m, _, _ in spans.SPANNED + spans.COUNTED if m.startswith("lcn.")})
    code = "import json, sys, lcn.cli; print(json.dumps([m in sys.modules for m in sys.argv[1:]]))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *modules],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert dict(zip(modules, json.loads(out))) == dict.fromkeys(modules, True)


def test_minor_expansion_is_a_generator_function():
    assert inspect.isgeneratorfunction(minor_expansion)


def test_rmul_is_mul():
    assert MultiPoly.__rmul__ is MultiPoly.__mul__
