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

Scalar entries use the literal grammar of the scalars module; wedge
expressions are sums of terms ``[scalar-literal *] name^name^...`` over the
dual basis.  Emission is canonical, so parse -> emit -> parse is the
identity.  ``loads`` raises DocumentError on sections of another shape.
"""

from __future__ import annotations

import json

from .exterior import KForm, _merge_sign
from .lie_core import LieAlgebra
from .scalars import Scalar, parse_scalar, ScalarParseError


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
    for key, names in (("basis", alg["basis"]),
                       ("parameters", raw.get("parameters", []))):
        if not (isinstance(names, list)
                and all(isinstance(n, str) for n in names)
                and len(set(names)) == len(names)):
            raise DocumentError(f"{key} is not a list of distinct names")
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
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def dumps(doc):
    return json.dumps(doc.to_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Wedge expressions
# ---------------------------------------------------------------------------

def _split_top(text, seps):
    """Split at top-level occurrences of the given single-char separators.

    Returns a list of (position, separator-or-None, chunk).
    """
    parts = []
    depth = 0
    start = 0
    lead_sep = None
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormParseError(text, pos, "unbalanced ')'")
        elif depth == 0 and ch in seps:
            parts.append((start, lead_sep, text[start:pos]))
            lead_sep = ch
            start = pos + 1
    if depth != 0:
        raise FormParseError(text, len(text), "unbalanced '('")
    parts.append((start, lead_sep, text[start:]))
    return parts


def _as_monomial(chunk, g):
    """Index tuple for ``name^name^...`` over the dual basis, else None."""
    names = [p.strip() for p in chunk.split("^")]
    if not names or any(not n for n in names):
        return None
    try:
        idx = tuple(g.basis_names.index(n) for n in names)
    except ValueError:
        return None
    return idx


def parse_form(text, g, at=None):
    """Parse a wedge expression like ``e0^e1 + -(1+a^2)/b * e1^e3``,
    substituting the point ``at`` into each literal when given."""
    text = str(text)
    degree = None
    coeffs = {}
    sign = 1
    seen = False
    for pos, sep, chunk in _split_top(text, "+-"):
        if sep == "-":
            sign = -sign
        if not chunk.strip():
            # a sign run like "a + -b"; the sign carries to the next chunk
            continue
        seen = True
        factors = _split_top(chunk, "*")
        idx = _as_monomial(factors[-1][2], g)
        if idx is not None and len(factors) > 1:
            literal = "*".join(f[2] for f in factors[:-1])
        elif idx is not None:
            literal = "1"
        else:
            idx = ()
            literal = chunk
        try:
            c = _literal(literal, g.params, at)
        except ScalarParseError as exc:
            raise FormParseError(text, pos + exc.pos, str(exc)) from exc
        if sign < 0:
            c = -c
        if degree is None:
            degree = len(idx)
        elif len(idx) != degree:
            raise FormParseError(
                text, pos, f"mixed degrees {degree} and {len(idx)}")
        if len(set(idx)) != len(idx):
            raise FormParseError(text, pos, "repeated factor in monomial")
        # normalize to increasing order with the permutation sign
        key, perm_sign = _merge_sign(idx, ())
        if perm_sign < 0:
            c = -c
        coeffs[key] = coeffs.get(key, g.zero()) + c
        sign = 1
    if degree is None or not seen:
        raise FormParseError(text, 0, "empty expression")
    return KForm(g, degree, coeffs)


def emit_form(f):
    """Canonical wedge expression; parse(emit(f)) == f."""
    g = f.algebra
    if f.is_zero():
        return "0" if f.degree == 0 else "0 * " + "^".join(
            g.basis_names[i] for i in range(f.degree))
    parts = []
    for idx in sorted(f.coeffs):
        c = f.coeffs[idx]
        mono = "^".join(g.basis_names[i] for i in idx)
        if not idx:
            parts.append(f"({c})")
        else:
            parts.append(f"({c}) * {mono}")
    return " + ".join(parts)


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
