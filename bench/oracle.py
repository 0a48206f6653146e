"""Correctness checks for the benchmark's outputs.

Reports are compared line by line: verdicts, check names, titles and exit
codes exactly; details semantically.  A detail that differs as a string is
re-parsed with ``parse_form``/``parse_scalar`` on both sides and compared by
exact equality, so a change of canonical form is not a failure but a wrong
value is.  The rest of the module holds oracles that do not go through the
library's own code path: a signature from the characteristic polynomial and
the definitional formula for the Chevalley-Eilenberg differential.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from lieform import document, scalars

# every parameter name used by the catalog, for details of suite reports
CATALOG_PARAMS = ("a", "b", "a1", "a2", "a3", "mu1", "mu2", "ah", "ap", "am")

_LINE = re.compile(r"^\[(PASS|FAIL|INFO|SKIPPED)\] (.*)$")


class Mismatch(Exception):
    """An output disagrees with its reference."""


# ---------------------------------------------------------------------------
# Semantic values
# ---------------------------------------------------------------------------

def _value(text, g, params):
    """A comparable value for a detail string, or None if it has no meaning
    beyond its text."""
    if g is not None:
        try:
            return ("form", document.parse_form(text, g))
        except (document.DocumentError, scalars.ScalarError):
            pass
    try:
        return ("scalar", scalars.parse_scalar(text, params))
    except scalars.ScalarError:
        pass
    if text.startswith("[") and text.endswith("]"):
        items = [_value(t.strip(), None, params)
                 for t in text[1:-1].split(",")]
        if None not in items:
            return ("list", items)
    if "; " in text:
        items = [_value(t.strip().removesuffix(" = 0"), g, params)
                 for t in text.split("; ")]
        if None not in items:
            return ("list", items)
    head, sep, tail = text.partition(": ")
    if sep:
        rest = _value(tail, g, params)
        if rest is not None:
            return ("prefixed", head, rest)
    return None


def same_detail(ref, out, g=None, params=CATALOG_PARAMS):
    """True when two detail strings agree exactly or mean the same value."""
    if ref == out:
        return True
    if g is not None:
        params = g.params
    want = _value(ref, g, params)
    if want is None:
        return False
    got = _value(out, g, params)
    return got is not None and got[0] == want[0] and got == want


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def compare_text(ref, out, g=None):
    """Compare two text reports; raise Mismatch on the first difference."""
    ref_lines = ref.rstrip("\n").split("\n")
    out_lines = out.rstrip("\n").split("\n")
    if len(ref_lines) != len(out_lines):
        raise Mismatch(f"{len(out_lines)} lines, expected {len(ref_lines)}")
    for want, got in zip(ref_lines, out_lines):
        if want == got:
            continue
        mw, mg = _LINE.match(want), _LINE.match(got)
        if not (mw and mg and mw.group(1) == mg.group(1)):
            raise Mismatch(f"got {got!r}, expected {want!r}")
        wname, _, wdetail = mw.group(2).partition(" :: ")
        gname, _, gdetail = mg.group(2).partition(" :: ")
        if wname != gname or not same_detail(wdetail, gdetail, g):
            raise Mismatch(f"got {got!r}, expected {want!r}")


def compare_json_report(ref, out, g=None):
    want, got = json.loads(ref), json.loads(out)
    if (want["title"], want["ok"], len(want["checks"])) != (
            got["title"], got["ok"], len(got["checks"])):
        raise Mismatch(f"report header differs: {out[:200]!r}")
    for w, o in zip(want["checks"], got["checks"]):
        if (w["name"], w["verdict"]) != (o["name"], o["verdict"]) or \
                not same_detail(w["detail"], o["detail"], g):
            raise Mismatch(f"got {o!r}, expected {w!r}")


def compare_document(ref, out):
    """Compare two emitted documents; scalars and forms semantically."""
    want, got = json.loads(ref), json.loads(out)
    if want.keys() != got.keys() or want["parameters"] != got["parameters"]:
        raise Mismatch("document sections or parameters differ")
    params = want["parameters"]
    wa, ga = want["algebra"], got["algebra"]
    if (wa["dim"], wa["basis"]) != (ga["dim"], ga["basis"]):
        raise Mismatch("algebra dim or basis differs")
    if len(wa["brackets"]) != len(ga["brackets"]):
        raise Mismatch("bracket tables differ in length")
    for wb, gb in zip(wa["brackets"], ga["brackets"]):
        if (wb["i"], wb["j"], sorted(wb["coeffs"])) != (
                gb["i"], gb["j"], sorted(gb["coeffs"])):
            raise Mismatch(f"bracket entry differs: {gb!r}")
        for k, v in wb["coeffs"].items():
            _same_scalar(v, gb["coeffs"][k], params)
    g = document.loads(ref).build_algebra()
    for section in ("forms", "endos", "bilinears"):
        if want[section].keys() != got[section].keys():
            raise Mismatch(f"{section} differ in their names")
    for name, text in want["forms"].items():
        if text != got["forms"][name] and document.parse_form(text, g) != \
                document.parse_form(got["forms"][name], g):
            raise Mismatch(f"form {name} differs")
    for section in ("endos", "bilinears"):
        for name, rows in want[section].items():
            grows = got[section][name]
            if [len(r) for r in rows] != [len(r) for r in grows]:
                raise Mismatch(f"{section} {name} differs in shape")
            for wr, gr in zip(rows, grows):
                for w, o in zip(wr, gr):
                    _same_scalar(w, o, params)


def _same_scalar(ref, out, params):
    if ref != out and scalars.parse_scalar(ref, params) != \
            scalars.parse_scalar(out, params):
        raise Mismatch(f"scalar {out!r}, expected {ref!r}")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def signature(rows):
    """Signature (p, q) of a symmetric rational matrix, from the signs of its
    characteristic polynomial (Descartes' rule is exact for real-rooted
    polynomials), computed by the Faddeev-LeVerrier recursion."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    coeffs = [Fraction(1)]          # of t^n, t^(n-1), ..., t^0
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[-1]
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
        m = am
    while coeffs[-1] == 0:
        coeffs.pop()
    pos = _sign_changes(coeffs)
    neg = _sign_changes([c * (-1) ** i for i, c in
                         enumerate(reversed(coeffs))])
    return pos, neg


def _sign_changes(seq):
    signs = [c > 0 for c in seq if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def d_by_definition(g, alpha, vectors):
    """d alpha on k+1 vectors, by the definition for a left-invariant form:
    (d alpha)(X_0..X_k) = sum_{i<j} (-1)^(i+j) alpha([X_i,X_j], X_0..X_k),
    with X_i and X_j left out of the trailing arguments."""
    total = g.zero()
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            rest = [v for t, v in enumerate(vectors) if t not in (i, j)]
            term = alpha.evaluate(g.bracket(vectors[i], vectors[j]), *rest)
            total = total + term if (i + j) % 2 == 0 else total - term
    return total


def wedge_by_definition(g, lam, alpha, vectors):
    """(lam ^ alpha)(X_0..X_k) = sum_i (-1)^i lam(X_i) alpha(X_0..^i..X_k)."""
    total = g.zero()
    for i, x in enumerate(vectors):
        rest = [v for t, v in enumerate(vectors) if t != i]
        term = lam.evaluate(x) * alpha.evaluate(*rest)
        total = total + term if i % 2 == 0 else total - term
    return total
