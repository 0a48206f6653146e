"""Command-line interface: subcommands, output formats, exit-code contract."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieform import cli
from lieform.lie_core import LieAlgebra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(os.path.dirname(__file__), "data")
U2 = os.path.join(DATA, "u2.json")
GL2R = os.path.join(DATA, "gl2r.json")
CORRUPTED = os.path.join(DATA, "corrupted.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_algebra_pass(capsys):
    code, out = run(capsys, "check-algebra", U2)
    assert code == 0
    assert "[PASS] antisymmetry and Jacobi identity" in out
    assert "[INFO] dim :: 4" in out


def test_a_call_leaves_no_cyclic_garbage(capsys):
    # the parser is built once, not per call, so a call creates no cycles
    gc.collect()
    gc.disable()
    try:
        assert cli.main(["catalog", "u2"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_algebra_corrupted_fails(capsys):
    code, out = run(capsys, "check-algebra", CORRUPTED)
    assert code == 1
    assert "[FAIL]" in out
    assert "antisymmetry fails" in out


def test_check_algebra_corrupted_fails_at_a_point(capsys):
    # the point is substituted into the document's own bracket table, so
    # the inconsistent pair [e1, e2] and [e2, e1] stays inconsistent
    code, out = run(capsys, "check-algebra", CORRUPTED, "--at", "a=1")
    assert code == 1
    assert "antisymmetry fails" in out


def test_check_lcs(capsys):
    code, out = run(capsys, "check-lcs", U2, "omega_std")
    assert code == 0
    assert "[INFO] Lee form :: (-1) * e0" in out
    assert "Reeb vector :: [0, 1/2, 0, 0]" in out


def test_check_lck_symbolic_skips_definiteness(capsys):
    code, out = run(capsys, "check-lck", U2, "omega_std", "J_ab",
                    "--convention=thm")
    assert code == 0
    assert "[SKIPPED] metric definiteness" in out


def test_check_lck_at_point_reports_signature(capsys):
    code, out = run(capsys, "check-lck", U2, "omega_std", "J_ab",
                    "--convention=thm", "--at",
                    "a=0,b=-1,a1=1,a2=0,a3=0")
    assert code == 0
    assert "metric signature :: (4, 0)" in out


def test_check_lck_on_denominator_locus_fails(capsys):
    code, out = run(capsys, "check-lck", U2, "omega_std", "J_ab",
                    "--at", "a=0,b=0,a1=1,a2=0,a3=0")
    assert code == 1
    # the point in the --at syntax
    assert "denominator vanishes at a=0, b=0, a1=1, a2=0, a3=0" in out


def test_check_vaisman_positive_and_negative(capsys):
    code, out = run(capsys, "check-vaisman", U2, "omega_std", "J_ab")
    assert code == 0
    assert "[PASS] Lee field is parallel (Vaisman)" in out
    lines = out.splitlines()
    assert "[INFO] g(xi, xi) :: (1/4*a^2 + 1/4)/b" in lines
    assert "[INFO] lam(xi) :: (-1/2*a^2 - 1/2)/b" in lines
    code2, out2 = run(capsys, "check-vaisman", GL2R, "omega_general", "J_mu1",
                      "--at", "mu1=1,mu2=0,ah=1,ap=1,am=1")
    assert code2 == 1
    assert "[FAIL] Lee field is parallel (Vaisman)" in out2
    code3, out3 = run(capsys, "check-vaisman", U2, "omega_general", "J_01")
    assert code3 == 1
    assert (
        "[FAIL] Lee field is parallel (Vaisman) :: Vaisman exactly on the "
        "locus: 1/2*a1^2*a2 + 1/2*a2^3 + 1/2*a2*a3^2 = 0; "
        "1/2*a1^2*a3 + 1/2*a2^2*a3 + 1/2*a3^3 = 0; "
        "-1/2*a1^2*a2 - 1/2*a2^3 - 1/2*a2*a3^2 = 0; "
        "-1/2*a1^2*a3 - 1/2*a2^2*a3 - 1/2*a3^3 = 0") in out3.splitlines()
    # every vanishing condition is printed, not only the first four
    code4, out4 = run(capsys, "check-vaisman", GL2R, "omega_general", "J_mu1",
                      "--at", "ah=1,ap=2")
    assert code4 == 1
    fail = [ln for ln in out4.splitlines()
            if ln.startswith("[FAIL] Lee field is parallel (Vaisman)")]
    assert len(fail) == 1
    assert fail[0].count(" = 0") == 6


def test_cohomology(capsys):
    code, out = run(capsys, "cohomology", U2, "--lambda", "lambda_std",
                    "--degree", "1")
    assert code == 0
    assert "dim H^1 twisted by lambda_std :: 0" in out


def _u2_document(tmp_path, edit):
    """tests/data/u2.json, changed in place by edit(doc), written to
    tmp_path."""
    with open(U2, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / "u2_changed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cohomology_of_a_form_that_is_not_closed_fails(capsys, tmp_path):
    # d(e1) = e2^e3 on u2
    path = _u2_document(tmp_path, lambda doc: doc["forms"].update(lam="e1"))
    code, out = run(capsys, "cohomology", path, "--lambda", "lam",
                    "--degree", "1")
    assert code == 1
    assert "[FAIL] twisting form is closed :: (1) * e2^e3\n" in out


@pytest.mark.parametrize("h, closed", [
    ([["0", "1", "0", "0"]], True),
    ([["0", "1", "0", "0"], ["0", "0", "1", "0"]], False),  # [e1, e2] = -e3
])
def test_check_algebra_checks_h_is_a_subalgebra(h, closed, capsys, tmp_path):
    path = _u2_document(tmp_path, lambda doc: doc.update(h_subalgebra=h))
    code, out = run(capsys, "check-algebra", path)
    assert code == (0 if closed else 1)
    assert ("h is not closed under the bracket" in out) is not closed


@pytest.mark.parametrize("argv", [
    ("check-lcs", "omega_std"),
    ("check-lck", "omega_std", "J_01"),
    ("check-vaisman", "omega_std", "J_01"),
])
def test_a_form_that_does_not_live_on_g_mod_h_fails(argv, capsys, tmp_path):
    # h = span(e0), the centre: G/H is 3-dimensional, yet omega_std has rank
    # 4 and is not zero on e0, so no lcs structure lives on g/h
    h = [["1", "0", "0", "0"]]
    path = _u2_document(tmp_path, lambda doc: doc.update(h_subalgebra=h))
    code, out = run(capsys, argv[0], path, *argv[1:])
    assert code == 1
    assert "[FAIL] error: StructureError :: omega does not live on g/h: " \
        "i_X omega = (1) * e1 for X = [1, 0, 0, 0]\n" in out


def _basic_u2_document(tmp_path):
    """u2 with h = span(e0, e1) and omega = e2^e3, which vanishes on h and
    is h-invariant: a (Kahler) form on the 2-dimensional g/h."""
    def edit(doc):
        doc["h_subalgebra"] = [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
        doc["forms"]["omega_h"] = "e2^e3"
    return _u2_document(tmp_path, edit)


def test_a_form_that_lives_on_g_mod_h_passes(capsys, tmp_path):
    code, out = run(capsys, "check-lcs", _basic_u2_document(tmp_path),
                    "omega_h")
    assert code == 0, out
    assert "[PASS] omega nondegenerate on the quotient\n" in out


def test_a_metric_singular_on_g_mod_h_fails_the_vaisman_test(capsys,
                                                            tmp_path):
    # the metric of omega_h and J_01 vanishes on h, so check-lck passes but
    # the Vaisman test cannot invert it
    path = _basic_u2_document(tmp_path)
    code, out = run(capsys, "check-lck", path, "omega_h", "J_01")
    assert code == 0, out
    code, out = run(capsys, "check-vaisman", path, "omega_h", "J_01")
    assert code == 1
    assert "[FAIL] error: DegenerateMetric :: metric is singular\n" in out


def test_a_lee_form_that_is_not_closed_fails(capsys, tmp_path):
    path = _u2_document(tmp_path, lambda doc: doc["forms"].update(
        omega_nc="e0^e1 + e2^e3 + e0^e2"))
    code, out = run(capsys, "check-lcs", path, "omega_nc")
    assert code == 1
    assert "[FAIL] error: LeeFormNotClosed :: d(lam) = (1) * e1^e2 != 0\n" \
        in out


# almost complex structures that keep omega_std but are not integrable;
# check-vaisman used to pass the u2 one as Vaisman
NOT_INTEGRABLE = {
    "u2": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
           ["0", "0", "1", "1"], ["0", "0", "-2", "-1"]],
    "gl2r": [["1", "2", "1", "-1"], ["1/2", "1", "-1/2", "-1/2"],
             ["-1/2", "1", "0", "0"], ["5/2", "5", "0", "-2"]],
}


@pytest.mark.parametrize("command", ["check-lck", "check-vaisman"])
@pytest.mark.parametrize("name", sorted(NOT_INTEGRABLE))
def test_a_complex_structure_that_is_not_integrable_fails(
        name, command, capsys, tmp_path):
    with open(os.path.join(DATA, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["endos"]["J_bad"] = NOT_INTEGRABLE[name]
    path = tmp_path / f"{name}_not_integrable.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, command, str(path), "omega_std", "J_bad")
    assert code == 1
    assert "[FAIL] error: NotIntegrable :: the Nijenhuis tensor of J is " \
        "not zero\n" in out


def test_a_complex_structure_integrable_on_a_locus_names_it(capsys,
                                                           tmp_path):
    # the transvected block [[a, 1], [-1 - a^2, -a]] keeps omega_std and
    # J^2 = -Id for every a, and is the shipped J_01 at a = 0
    path = _u2_document(tmp_path, lambda doc: doc["endos"].update(J_a=[
        ["0", "-1", "0", "0"], ["1", "0", "0", "0"],
        ["0", "0", "a", "1"], ["0", "0", "-1 - a^2", "-a"]]))
    code, out = run(capsys, "check-lck", path, "omega_std", "J_a")
    assert code == 1
    assert "[FAIL] error: NotIntegrable :: integrable exactly on the " \
        "locus: -a^2 = 0; " in out
    code, out = run(capsys, "check-lck", path, "omega_std", "J_a",
                    "--at", "a=0")
    assert code == 0, out


def _abelian_document(tmp_path, n, forms):
    doc = {"algebra": {"dim": n, "basis": [f"e{i}" for i in range(n)]},
           "forms": forms}
    path = tmp_path / f"abelian_{n}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cohomology_with_too_many_monomials_fails(capsys, tmp_path):
    # C(14, 7) = 3,432 monomials of degree 7 on an abelian algebra of
    # dimension 14: before the bound this 157-byte document ran for 11 s;
    # the bound is checked before any monomial is built
    path = _abelian_document(tmp_path, 14, {"lam": "e0"})
    code, out = run(capsys, "cohomology", path, "--lambda", "lam",
                    "--degree", "7")
    assert code == 1
    assert "[FAIL] error: TooManyMonomials :: " in out


def test_document_dimension_is_bounded(capsys, tmp_path, monkeypatch):
    # check_jacobi costs about n^4 steps, so a short document could ask for
    # unbounded work; the dimension is checked before the algebra is built
    calls = []
    jacobi = LieAlgebra.check_jacobi
    monkeypatch.setattr(LieAlgebra, "check_jacobi",
                        lambda g: calls.append(g) or jacobi(g))
    path = _abelian_document(tmp_path, 21, {})
    code = cli.main(["check-algebra", path])
    out, err = capsys.readouterr()
    assert code == 1
    assert "[FAIL] error: DocumentError :: " in out
    assert err == "" and calls == []


def test_check_lcs_is_not_bounded_by_the_relative_complex(capsys, tmp_path):
    # C(20, 3) = 1,140 3-form monomials exceed the cohomology bound, which
    # lcs_check does not share: a symplectic form on abelian_20 is lcs
    omega = " + ".join(f"e{2 * i}^e{2 * i + 1}" for i in range(10))
    path = _abelian_document(tmp_path, 20, {"omega": omega})
    code, out = run(capsys, "check-lcs", path, "omega")
    assert code == 0, out


@pytest.mark.parametrize("argv", [
    ("check-lcs", "one"),
    ("check-lcs", "three"),
    ("check-lck", "one", "J_01"),
    ("check-vaisman", "three", "J_01"),
    ("cohomology", "--lambda", "lambda_std", "--degree", "-1"),
])
def test_bad_degree_fails_without_traceback(capsys, tmp_path, argv):
    with open(U2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["forms"].update({"one": "e1", "three": "e1^e2^e3"})
    path = tmp_path / "u2_extra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] error:" in captured.out
    assert captured.err == ""


DELETE = object()
MALFORMED = {  # (key path into tests/data/u2.json, new value)
    "index is a string": (("algebra", "brackets", 0, "i"), "x"),
    "index is a float": (("algebra", "brackets", 0, "i"), 1.5),
    "index is a bool": (("algebra", "brackets", 0, "j"), True),
    "basis is a number": (("algebra", "basis"), 5),
    "basis holds a list": (("algebra", "basis", 3), ["e3"]),
    "parameters is a number": (("parameters",), 5),
    "brackets is null": (("algebra", "brackets"), None),
    "brackets is an object": (("algebra", "brackets"), {"x": 1}),
    "coeffs is a list": (("algebra", "brackets", 0, "coeffs"), ["e1"]),
    "coeffs is missing": (("algebra", "brackets", 0, "coeffs"), DELETE),
    "h row is short": (("h_subalgebra",), [["0", "1"]]),
    "basis repeats a name": (("algebra", "basis", 0), "e1"),
    "parameters repeat a name": (("parameters", 1), "a"),
    "basis name is not an identifier": (("algebra", "basis", 0), "x^y"),
    "parameter is not an identifier": (("parameters", 0), "2a"),
    "parameter names a basis element": (("parameters", 1), "e1"),
    "bracket listed twice": (("algebra", "brackets"), [
        {"i": 1, "j": 2, "coeffs": {"e3": "-1"}},
        {"i": 1, "j": 2, "coeffs": {"e3": "5"}}]),
}
UNREADABLE = {  # writers of a path that no JSON document reads from
    "arrays nested 1,101 deep": lambda path: path.write_text("[" * 1101),
    "bytes that are not UTF-8": lambda path: path.write_bytes(b"\xff\xfe"),
    "a directory": lambda path: path.mkdir(),
}


@pytest.mark.parametrize("command", [["check-algebra"],
                                     ["check-lcs", "omega_std"]])
@pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(UNREADABLE))
def test_malformed_document_fails_without_traceback(case, command, capsys,
                                                    tmp_path):
    path = tmp_path / "malformed.json"
    if case in UNREADABLE:
        UNREADABLE[case](path)
    else:
        with open(U2, encoding="utf-8") as fh:
            doc = json.load(fh)
        (*keys, last), value = MALFORMED[case]
        target = doc
        for key in keys:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([command[0], str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] error: DocumentError :: " in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("command", ["check-lck", "check-vaisman"])
def test_kahler_structure_passes(command, capsys, tmp_path):
    # omega is closed, so the Lee form is 0 and omega has no twisted
    # potential; neither command needs one
    assert cli.main(["catalog", "abelian_4", "--emit"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["forms"]["omega"] = "e0^e1 + e2^e3"
    doc["endos"]["J"] = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                         ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]
    path = tmp_path / "kahler.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([command, str(path), "omega", "J"])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert "[FAIL]" not in captured.out
    assert captured.err == ""
    if command == "check-vaisman":
        assert "[PASS] Lee field is parallel (Vaisman) :: lam = 0: the " \
            "structure is Kahler, not proper lcK\n" in captured.out


ATOMS = st.sampled_from(
    ["a", "b", "a1", "2", "1/3", "0", "(a + b + 1)", "e0^e1", "e2^e3", "e1"])
EXPRESSIONS = st.recursive(ATOMS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from([" + ", " - ", "*", "/"]), inner)
    .map("".join),
    inner.map(lambda s: f"({s})"),
    inner.map(lambda s: f"-{s}"),
    st.tuples(inner, st.integers(-10**6, 10**6))
    .map(lambda t: f"({t[0]})^{t[1]}"),
), max_leaves=8)
FORM_LITERALS = st.one_of(
    st.tuples(EXPRESSIONS, st.sampled_from(
        [" * e0^e1 + e2^e3", " * e2^e3 + e0^e1 - e1^e3", ""])).map("".join),
    # deep nesting of parentheses or unary minus signs
    st.tuples(st.integers(1, 5000), st.sampled_from(["(", "-"]), ATOMS)
    .map(lambda t: t[1] * t[0] + t[2] + (")" * t[0] if t[1] == "(" else "")),
    # stray characters spliced into a well-formed literal
    st.tuples(EXPRESSIONS, st.integers(0, 40), st.text(max_size=3))
    .map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]),
)


@settings(max_examples=60, deadline=None)
@given(FORM_LITERALS)
def test_form_literal_fuzz_keeps_exit_contract(literal):
    with open(U2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["forms"]["fuzz"] = literal
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u2_fuzz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check-lcs", path, "fuzz"])
    assert code in (0, 1)
    assert err.getvalue() == ""


def test_construct_orbit(capsys):
    # drive the construction from a hand-written document
    doc = {
        "parameters": [],
        "algebra": {"dim": 3, "basis": ["e1", "e2", "e3"],
                    "brackets": [{"i": 0, "j": 1, "coeffs": {"e3": "-1"}},
                                 {"i": 1, "j": 2, "coeffs": {"e1": "-1"}},
                                 {"i": 2, "j": 0, "coeffs": {"e2": "-1"}}]},
        "forms": {"phi": "e1"},
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    try:
        code, out = run(capsys, "construct-orbit", path, "--phi", "phi")
    finally:
        os.unlink(path)
    assert code == 0
    assert "orbit is non-conical" in out
    assert "[INFO] omega :: (-1) * D^e1 + (1) * e2^e3" in out
    assert "[INFO] Lee form :: (1) * D" in out


def test_construct_orbit_with_an_inner_derivation(capsys, tmp_path):
    assert cli.main(["catalog", "su2", "--emit"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["forms"]["phi"] = "e2"
    # ad(e1): e2 -> -e3, e3 -> e2
    doc["endos"]["D"] = [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]]
    path = tmp_path / "su2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "construct-orbit", str(path), "--phi", "phi",
                    "--derivation", "D")
    assert code == 0, out
    assert "[INFO] extension basis :: D e1 e2 e3\n" in out
    # d(e2)(D, e3) = -e2([D, e3]) = -1 is the term that D adds
    assert "[INFO] omega :: (-1) * D^e2 + (-1) * D^e3 + (-1) * e1^e3\n" \
        in out


def test_construct_orbit_ignores_the_documents_h(capsys, tmp_path):
    # the extension's h is the kernel subalgebra of the orbit (here 0), not
    # the h the document gives g, on which omega need not vanish
    assert cli.main(["catalog", "su2", "--emit"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["forms"]["phi"] = "e1"
    outs = []
    for h in (None, [["0", "1", "0"]]):
        if h:
            doc["h_subalgebra"] = h
        path = tmp_path / "su2.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, "construct-orbit", str(path), "--phi", "phi")
        assert code == 0, out
        outs.append(out)
    assert outs[0] == outs[1]
    assert "[INFO] dim of the kernel subalgebra h :: 0\n" in outs[1]


def test_check_lck_on_a_zero_dimensional_document_fails_cleanly(capsys,
                                                                  tmp_path):
    # J = [] has no entries to clear; omega = 0 is a 0-form, not a 2-form
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"algebra": {"dim": 0, "basis": []},
                                "forms": {"om": "0"}, "endos": {"J": []}}),
                    encoding="utf-8")
    code = cli.main(["check-lck", str(path), "om", "J"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] error:" in captured.out
    assert captured.err == ""


def test_construct_orbit_rejects_a_two_form(capsys):
    code = cli.main(["construct-orbit", U2, "--phi", "omega_std"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] error: NotAOneForm :: phi has degree 2, not 1" \
        in captured.out
    assert captured.err == ""


def test_catalog_emit_round_trip(capsys):
    code, out = run(capsys, "catalog", "gl2r", "--emit")
    assert code == 0
    with open(GL2R, encoding="utf-8") as fh:
        assert out == fh.read()


def test_catalog_summary_and_unknown(capsys):
    code, out = run(capsys, "catalog", "u2")
    assert code == 0
    assert "[INFO] basis :: e0 e1 e2 e3" in out
    code2, out2 = run(capsys, "catalog", "nope")
    assert code2 == 1
    assert "[FAIL]" in out2


def test_json_format(capsys):
    code, out = run(capsys, "check-algebra", U2, "--format=json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["checks"][0]["verdict"] == "PASS"


def test_missing_file_exit_code(capsys):
    code = cli.main(["check-algebra", "/nonexistent/doc.json"])
    assert code == 2


def test_exit_codes_of_the_program():
    # the tests above call cli.main in-process; running the module as a
    # program also covers its __main__ guard, sys.exit and argparse's own
    # exit on a usage error
    env = dict(os.environ, PYTHONPATH="src")
    for argv, want in [(["catalog", "u2"], 0),
                       (["check-algebra", "tests/data/corrupted.json"], 1),
                       (["check-algebra", "tests/data/no-such.json"], 2),
                       (["suite", "nope"], 2)]:
        proc = subprocess.run([sys.executable, "-m", "lieform.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == want, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)


def test_bad_at_value(capsys):
    code, out = run(capsys, "check-algebra", U2, "--at", "a=zebra")
    assert code == 1
    assert "FAIL" in out
    code, out = run(capsys, "check-algebra", U2, "--at", "a=1/0")
    assert code == 1
    assert "bad --at value '1/0': zero denominator" in out


def test_at_value_with_exponent_fails_before_expanding(capsys):
    # Fraction("1e5000") would build a 5001-digit integer
    code = cli.main(["check-algebra", U2, "--at", "a=1e5000"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] error: CliError" in captured.out
    assert captured.err == ""
    code, out = run(capsys, "check-algebra", U2, "--at", "a=1/2")
    assert code == 0


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="0123456789/.eE+-", max_size=30))
def test_at_value_fuzz_keeps_exit_contract(value):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check-algebra", U2, "--at", f"a={value}"])
    assert code in (0, 1)
    assert err.getvalue() == ""


def test_at_parameter_named_twice(capsys):
    code = cli.main(["check-algebra", U2, "--at", "a=1, a =2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] error: CliError :: --at names 'a' twice" in captured.out
    assert captured.err == ""


def test_unknown_at_parameter(capsys):
    code, out = run(capsys, "check-algebra", U2, "--at", "q=1")
    assert code == 1
    assert "unknown parameter" in out
