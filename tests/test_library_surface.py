"""Every public function and class of ``lcn`` has a caller outside the tests.

A name counts as used when it appears as a name token (not in a string or
comment) in ``src/lcn`` outside its own definition, or in ``scripts/``.
Reference code that only the tests call belongs in ``tests/``.
"""

import importlib
import inspect
import pkgutil
import tokenize
from pathlib import Path

import lcn

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def name_tokens(path):
    """``(name, line)`` of each name token of a Python source file."""
    with open(path, "rb") as f:
        return [
            (tok.string, tok.start[0])
            for tok in tokenize.tokenize(f.readline)
            if tok.type == tokenize.NAME
        ]


def public_definitions():
    """``(qualified name, object)`` of each public module-level function and
    class defined in an ``lcn`` module."""
    for info in pkgutil.iter_modules(lcn.__path__):
        module = importlib.import_module(f"lcn.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_every_public_name_has_a_library_caller():
    used = {name for p in SCRIPTS.glob("*.py") for name, _ in name_tokens(p)}
    package = {p.resolve(): name_tokens(p) for p in Path(lcn.__path__[0]).glob("*.py")}
    uncalled = []
    for qualified, obj in public_definitions():
        lines, start = inspect.getsourcelines(obj)
        own = Path(inspect.getsourcefile(obj)).resolve()
        definition = range(start, start + len(lines))
        called = obj.__name__ in used or any(
            name == obj.__name__ and not (path == own and line in definition)
            for path, tokens in package.items()
            for name, line in tokens
        )
        if not called:
            uncalled.append(qualified)
    assert uncalled == []
