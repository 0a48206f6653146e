"""Scalars and polynomials are never changed once built.

``LieAlgebra.zero()`` and ``one()`` hand every caller the same instance, and
``Scalar`` arithmetic may return an operand itself, so nothing in
``src/lieform`` may assign to ``.num``, ``.den``, ``.rational`` (the
recorded value of a constant) or ``.terms`` outside an ``__init__``, or
change the dict held in ``.terms``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lieform"
MODULES = sorted(SRC.glob("*.py"))
FIELDS = {"num", "den", "rational", "terms"}
DICT_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update"}


def _targets(node):
    """The names, attributes and subscripts a statement writes to."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        todo = []
    while todo:
        target = todo.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            todo.extend(target.elts)
        elif isinstance(target, ast.Starred):
            todo.append(target.value)
        else:
            yield target


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def mutations(source):
    """(line, text) of every write to a scalar field the rule forbids."""
    found = []

    def visit(node, in_init):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_init = node.name == "__init__"
        for target in _targets(node):
            if (isinstance(target, ast.Attribute) and target.attr in FIELDS
                    and not in_init) or (isinstance(target, ast.Subscript)
                                         and _is_terms(target.value)):
                found.append((target.lineno, ast.unparse(target)))
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in DICT_MUTATORS
                and _is_terms(node.func.value)):
            found.append((node.lineno, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, in_init)

    visit(ast.parse(source), False)
    return sorted(found)


def test_checker_flags_each_kind_of_write():
    src = (
        "class P:\n"
        "    def __init__(self):\n"
        "        self.terms = {}\n"
        "        self.terms[0] = 1\n"
        "        self.rational = 0\n"
        "    def f(self, s):\n"
        "        s.num, s.den = s.den, s.num\n"
        "        s.rational = None\n"
        "        self.terms[(0,)] += 1\n"
        "        del self.terms[(0,)]\n"
        "        self.terms.update({})\n"
        "        terms = {}\n"
        "        terms[0] = s.terms[0]\n"
    )
    assert mutations(src) == [
        (4, "self.terms[0]"), (7, "s.den"), (7, "s.num"),
        (8, "s.rational"), (9, "self.terms[0,]"), (10, "self.terms[0,]"),
        (11, "self.terms.update")]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scalar_fields_are_written_only_in_init(path):
    assert mutations(path.read_text(encoding="utf-8")) == []
