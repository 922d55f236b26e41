"""Every public function, class, method and property of ``lcn`` has a caller
outside the tests.

A name counts as used when it appears as a name or an attribute in the
syntax tree (so not in a string or comment, but inside f-strings) of
``src/lcn`` outside its own definition, or of ``scripts/``.  The names the
benchmark's tracer wraps from outside (``perfbench/spans.py``) are exempt.
Names starting with ``_`` are not checked.  Reference code that only the
tests call belongs in ``tests/``.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import lcn

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

TRACED = {f"{module}.{attr}" for module, attr, _ in spans.SPANNED + spans.COUNTED}


def used_names(path):
    """``(name, line)`` of each name and attribute reference in a Python source file."""
    tree = ast.parse(Path(path).read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno


def members(cls):
    """``(name, function)`` of each public method, property, classmethod and
    staticmethod a class defines itself."""
    for name, member in vars(cls).items():
        if isinstance(member, property):
            member = member.fget
        elif isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        if not name.startswith("_") and inspect.isfunction(member):
            yield name, member


def public_definitions():
    """``(qualified name, name, object)`` of each public module-level function
    and class defined in an ``lcn`` module, and of each public member of
    those classes."""
    for info in pkgutil.iter_modules(lcn.__path__):
        module = importlib.import_module(f"lcn.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue
            yield f"{module.__name__}.{name}", name, obj
            if inspect.isclass(obj):
                for attr, member in members(obj):
                    yield f"{module.__name__}.{name}.{attr}", attr, member


def test_every_public_name_has_a_library_caller():
    used = {name for p in SCRIPTS.glob("*.py") for name, _ in used_names(p)}
    package = {p.resolve(): list(used_names(p)) for p in Path(lcn.__path__[0]).glob("*.py")}
    uncalled = []
    for qualified, name, obj in public_definitions():
        if qualified in TRACED:
            continue
        lines, start = inspect.getsourcelines(obj)
        own = Path(inspect.getsourcefile(obj)).resolve()
        definition = range(start, start + len(lines))
        called = name in used or any(
            used_name == name and not (path == own and line in definition)
            for path, references in package.items()
            for used_name, line in references
        )
        if not called:
            uncalled.append(qualified)
    assert uncalled == []
