"""The names the benchmark's tracer wraps from outside must keep existing.

``perfbench/`` is outside the tier-1 test paths; a renamed or deleted
traced name would otherwise only show up as a failing ``--trace 1`` run.
"""

import importlib
import inspect
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


def test_minor_expansion_is_a_generator_function():
    assert inspect.isgeneratorfunction(minor_expansion)


def test_rmul_is_mul():
    assert MultiPoly.__rmul__ is MultiPoly.__mul__
