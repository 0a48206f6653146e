"""Structured text documents describing an algebra plus named forms/endos.

A document is a single JSON file with the shape

    {
      "parameters": ["a", "b"],
      "algebra": {
        "dim": 4,
        "basis": ["e0", "e1", "e2", "e3"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"e3": "-1"}}, ...]
      },
      "forms":     {"omega": "e0^e1 + e2^e3", ...},
      "endos":     {"J": [["a", "-(1+a^2)/b", "0", "0"], ...], ...},
      "bilinears": {"B": [["1", "0", ...], ...], ...},
      "h_subalgebra": [["0", "1", "0", "0"], ...]        # optional
    }

Scalar entries use the literal grammar of the scalars module.  A wedge
expression is the same grammar with the basis names as atoms: ``e0^e1``
reads as the monomial form on the dual basis, the wedge of its basis
one-forms, so a term is ``[scalar *] name^name^...``.  A form prints as its
canonical wedge expression, ``KForm.__str__`` (``emit_form`` returns the
same text), so ``parse_form(str(f)) == f``.  ``loads`` raises DocumentError
on text that is not JSON or nests too deeply, on sections of another shape,
on a dim above ``lie_core.MAX_DIM`` and on basis or parameter names that are
not identifiers or that appear in both lists; ``load`` also on a directory
and on bytes that are not UTF-8.
"""

from __future__ import annotations

import json

from .exterior import KForm, wedge
from .lie_core import MAX_DIM, LieAlgebra
from .scalars import Parser, Scalar, parse_scalar


class DocumentError(Exception):
    pass


class FormParseError(DocumentError):
    def __init__(self, text, pos, msg):
        self.text = text
        self.pos = pos
        super().__init__(f"parse error at position {pos} in {text!r}: {msg}")


class Document:
    def __init__(self, parameters, algebra, forms=None, endos=None,
                 bilinears=None, h_subalgebra=None):
        self.parameters = list(parameters)
        self.algebra = algebra
        self.forms = dict(forms or {})
        self.endos = dict(endos or {})
        self.bilinears = dict(bilinears or {})
        self.h_subalgebra = h_subalgebra

    # -- building the exact objects -----------------------------------

    def build_algebra(self, at=None):
        """The algebra; a point ``at`` (name -> Fraction) is substituted
        into each literal as it is parsed, as in build_form and build_endo."""
        basis = self.algebra["basis"]
        dim = self.algebra["dim"]
        if len(basis) != dim:
            raise DocumentError(
                f"dim is {dim} but the basis lists {len(basis)} names")
        params = tuple(self.parameters)
        brackets = {}
        for entry in self.algebra.get("brackets", []):
            i, j = entry["i"], entry["j"]
            if not (0 <= i < dim and 0 <= j < dim):
                raise DocumentError(f"bracket indices ({i},{j}) out of range")
            if (i, j) in brackets:
                raise DocumentError(f"bracket ({i},{j}) is listed twice")
            vec = [Scalar.zero(params)] * dim
            for name, literal in entry["coeffs"].items():
                if name not in basis:
                    raise DocumentError(
                        f"unknown basis name {name!r} in bracket ({i},{j})")
                vec[basis.index(name)] = _literal(literal, params, at)
            brackets[(i, j)] = vec
        h = None
        if self.h_subalgebra:
            h = [[_literal(c, params, at) for c in row]
                 for row in self.h_subalgebra]
        return LieAlgebra(basis, brackets, params=params, h_subalgebra=h)

    def build_form(self, name, g, at=None):
        """The named form on g, specialized at ``at`` as it is parsed."""
        if name not in self.forms:
            raise DocumentError(f"document has no form named {name!r}")
        return parse_form(self.forms[name], g, at)

    def build_endo(self, name, g, at=None):
        """The named endomorphism as a matrix, specialized at ``at``."""
        if name not in self.endos:
            raise DocumentError(f"document has no entry named {name!r}")
        rows = self.endos[name]
        if not (_is_rows(rows, g.dim) and len(rows) == g.dim):
            raise DocumentError(f"matrix {name!r} has the wrong shape")
        return [[_literal(c, g.params, at) for c in row] for row in rows]

    # -- (de)serialization --------------------------------------------

    def to_dict(self):
        out = {
            "parameters": self.parameters,
            "algebra": self.algebra,
            "forms": self.forms,
            "endos": self.endos,
            "bilinears": self.bilinears,
        }
        if self.h_subalgebra:
            out["h_subalgebra"] = self.h_subalgebra
        return out


def loads(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("JSON nested too deeply") from exc
    _check_shapes(raw)
    return Document(raw.get("parameters", []), raw["algebra"],
                    raw.get("forms"), raw.get("endos"), raw.get("bilinears"),
                    raw.get("h_subalgebra"))


def _check_shapes(raw):
    """Raise DocumentError unless the sections have the shapes shown above."""
    if not isinstance(raw, dict) or not isinstance(raw.get("algebra"), dict):
        raise DocumentError("document lacks an 'algebra' section")
    alg = raw["algebra"]
    for key in ("dim", "basis"):
        if key not in alg:
            raise DocumentError(f"algebra section lacks {key!r}")
    dim = alg["dim"]
    if not _is_index(dim):
        raise DocumentError(f"dim {dim!r} is not an integer")
    if dim > MAX_DIM:
        raise DocumentError(f"dim {dim} exceeds the limit {MAX_DIM}")
    lists = {"basis": alg["basis"], "parameters": raw.get("parameters", [])}
    for key, names in lists.items():
        if not (isinstance(names, list)
                and all(isinstance(n, str) and _is_name(n) for n in names)
                and len(set(names)) == len(names)):
            raise DocumentError(f"{key} is not a list of distinct identifiers")
    both = set(lists["basis"]) & set(lists["parameters"])
    if both:
        raise DocumentError(
            f"{min(both)!r} names both a basis element and a parameter")
    brackets = alg.get("brackets", [])
    if not isinstance(brackets, list):
        raise DocumentError("brackets is not a list")
    for entry in brackets:
        if not (isinstance(entry, dict) and _is_index(entry.get("i"))
                and _is_index(entry.get("j"))
                and isinstance(entry.get("coeffs"), dict)):
            raise DocumentError(
                f"bracket {entry!r} is not of the form "
                '{"i": int, "j": int, "coeffs": {name: literal}}')
    for key in ("forms", "endos", "bilinears"):
        if not isinstance(raw.get(key) or {}, dict):
            raise DocumentError(f"{key} is not an object")
    if not _is_rows(raw.get("h_subalgebra") or [], dim):
        raise DocumentError(
            f"h_subalgebra is not a list of rows of length {dim}")


def _is_name(text):
    """Whether the literal grammar reads text as one identifier."""
    return ((text[:1].isalpha() or text[:1] == "_")
            and Parser(text, ()).identifier() == text)


def _is_index(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rows(rows, dim):
    """Whether rows is a list of lists of length dim."""
    return isinstance(rows, list) and all(
        isinstance(r, list) and len(r) == dim for r in rows)


def _literal(text, params, at):
    """A scalar literal, specialized at ``at`` when given."""
    c = parse_scalar(text, params)
    return c.substitute(at) if at else c


def load(path):
    """The document in a file; a missing file raises FileNotFoundError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read the document: {exc}") from exc
    return loads(text)


def dumps(doc):
    return json.dumps(doc.to_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Wedge expressions
# ---------------------------------------------------------------------------

class _FormParser(Parser):
    """The literal grammar with the basis names of g as atoms: a name, or
    ``name^name^...``, is a signed monomial KForm.  A sum takes forms of one
    degree, a product at most one form, and a divisor or the base of a power
    none."""

    def __init__(self, text, g):
        super().__init__(text, g.params)
        self.g = g

    def error(self, msg):
        raise FormParseError(self.text, self.pos, msg)

    def name(self, name):
        basis = self.g.basis_names
        if name not in basis:
            return super().name(name)
        form = KForm.basis_oneform(self.g, basis.index(name))
        while self.peek() == "^":
            self.pos += 1
            name = self.identifier()
            if name not in basis:
                self.error("expected a basis name")
            form = wedge(form, KForm.basis_oneform(self.g, basis.index(name)))
            if form.is_zero():
                self.error("repeated factor in monomial")
        return form

    def combine(self, op, at, a, b):
        ka, kb = (x.degree if isinstance(x, KForm) else None for x in (a, b))
        if not {"+": ka == kb, "-": ka == kb, "*": None in (ka, kb),
                "/": kb is None, "^": ka is None}[op]:
            self.pos = at
            self.error(f"{op!r} of {_kind(ka)} and {_kind(kb)}")
        return super().combine(op, at, a, b)


def _kind(degree):
    return "a scalar" if degree is None else f"a {degree}-form"


def parse_form(text, g, at=None):
    """Parse a wedge expression like ``e0^e1 + -(1+a^2)/b * e1^e3``,
    substituting the point ``at`` into each coefficient when given."""
    f = _FormParser(str(text), g).parse()
    if not isinstance(f, KForm):
        f = KForm.constant(g, f)
    if at:
        f = KForm(g, f.degree,
                  {idx: c.substitute(at) for idx, c in f.coeffs.items()})
    return f


def emit_form(f):
    """The canonical wedge expression of f, ``str(f)``."""
    return str(f)


def document_from_entry(entry):
    """Serialize a catalog entry (algebra + families) as a document."""
    g = entry.algebra
    brackets = []
    for (i, j), vec in sorted(g.structure_table().items()):
        brackets.append({
            "i": i, "j": j,
            "coeffs": {g.basis_names[k]: str(c)
                       for k, c in enumerate(vec) if not c.is_zero()}})
    forms = {}
    endos = {}
    for name, fam in entry.families.items():
        if isinstance(fam, KForm):
            forms[name] = emit_form(fam)
        else:
            endos[name] = [[str(c) for c in row] for row in fam.matrix]
    bilinears = {name: [[str(c) for c in row] for row in mat]
                 for name, mat in entry.bilinears.items()}
    return Document(
        list(g.params),
        {"dim": g.dim, "basis": list(g.basis_names), "brackets": brackets},
        forms, endos, bilinears)
