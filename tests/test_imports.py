"""Every name a lieform module, test or demo imports is used in that file,
every module a lieform module imports is its own or in the standard
library, no lieform module imports another's private name, each imports
only the lieform modules in the layers below its own, and every parameter
of a lieform ``def`` is read by its body.

The package ``__init__`` is exempt from the first: its imports are the
public re-exports.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lieform"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
IMPORTERS = MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(
    ROOT.glob("demos/*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os, sys\nsys.exit\n"
    assert unused_imports(src) == [(2, "os")]


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_parameters(source):
    """(line, function, parameter) for each parameter of a def that its body
    never reads.  Lambdas are skipped: a lambda's signature is fixed by its
    caller."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, p) for p in params if p not in read]
    return out


# _FormParser.combine overrides Parser.combine and reads the position
UNREAD_PARAMETERS = {("scalars.py", "combine", "at")}


def test_checker_flags_an_unused_parameter():
    # b is only written, and the lambda's unread y is not reported
    src = ("def f(a, b, *c, d=1, **e):\n"
           "    b = lambda x, y: x\n"
           "    return a(d)\n")
    assert unused_parameters(src) == [(1, "f", "b"), (1, "f", "c"),
                                      (1, "f", "e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    unused = {(path.name, name, p) for _, name, p in
              unused_parameters(path.read_text(encoding="utf-8"))}
    assert unused - UNREAD_PARAMETERS == set()


def imported_modules(source):
    """Top-level names of the modules that source imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_checker_finds_absolute_imports():
    src = ("import numpy.linalg as la\n"
           "from os.path import join\n"
           "from . import x\n")
    assert imported_modules(src) == {"numpy", "os"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    imported = imported_modules(path.read_text(encoding="utf-8"))
    assert imported - sys.stdlib_module_names == set()


def private_imports(source):
    """(module, name) for each private name that source imports from a
    module of its own package, relatively or as ``lieform.module``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("lieform")):
            module = (node.module or "").rpartition(".")[2]
            out.update((module, alias.name) for alias in node.names
                       if alias.name.startswith("_")
                       and not alias.name.startswith("__"))
    return out


def test_checker_flags_a_private_import():
    src = ("from __future__ import annotations\n"
           "from .exterior import KForm, _merge_sign\n"
           "from lieform.scalars import _Parser\n"
           "from os import _exit\n"
           "from . import linalg\n")
    assert private_imports(src) == {("exterior", "_merge_sign"),
                                    ("scalars", "_Parser")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == set()


# each module may import only the modules before it
LAYERS = ["scalars", "linalg", "lie_core", "exterior", "structures",
          "constructions", "catalog", "document", "cli"]


def package_imports(source):
    """The modules of its own package that source imports, relatively or
    as ``lieform.module``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("lieform")):
            module = (node.module or "").removeprefix("lieform").lstrip(".")
            if module:
                out.add(module.partition(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_checker_finds_package_imports():
    src = ("from . import linalg\n"
           "from .exterior import KForm\n"
           "from lieform.scalars import Scalar\n"
           "from lieform import catalog\n"
           "from os import path\n")
    assert package_imports(src) == {"linalg", "exterior", "scalars",
                                    "catalog"}


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == [p.stem for p in MODULES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_lower_layers(path):
    lower = set(LAYERS[:LAYERS.index(path.stem)])
    assert package_imports(path.read_text(encoding="utf-8")) - lower == set()
