"""Command-line front end.

Loads algebra documents, runs individual geometric checks or whole suites,
and emits deterministic reports as text or JSON.  The exit code is 0 exactly
when no check in the report failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog, document, linalg
from .exterior import FormError, ce_d, twisted_cohomology_dim
from .lie_core import LieError, center
from .constructions import coadjoint_stabilizer, lcs_from_orbit
from .scalars import ScalarError
from .structures import (CONVENTION_DEF, CONVENTION_THM, ComplexStructure,
                         FAIL, NotIntegrable, StructureReport, StructureError,
                         assemble_lck, lcs_check, nijenhuis, signatures,
                         vaisman_check)


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _parse_at(text):
    """``a=0,b=-1/2,c=0.25`` -> {name: Fraction}.

    A value with an exponent (``1e5``) is rejected: ``Fraction`` would expand
    it, and the work grows without bound in the exponent.
    """
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise CliError(f"bad --at entry {piece!r} (expected name=value)")
        name, value = piece.split("=", 1)
        name = name.strip()
        if name in out:
            raise CliError(f"--at names {name!r} twice")
        if "e" in value or "E" in value:
            raise CliError(f"bad --at value {value!r}: exponents are not "
                           "accepted; write p/q or a plain decimal")
        try:
            out[name] = Fraction(value.strip())
        except ValueError as exc:
            raise CliError(f"bad --at value {value!r}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise CliError(
                f"bad --at value {value!r}: zero denominator") from exc
    return out


def _load(args):
    """(document, its algebra specialized at --at, the --at point)."""
    doc = document.load(args.document)
    at = _parse_at(getattr(args, "at", None))
    for name in at:
        if name not in doc.parameters:
            raise CliError(f"--at names unknown parameter {name!r}")
    return doc, doc.build_algebra(at), at


def _fully_numeric(g, at):
    return all(p in at for p in g.params)


def _emit(report, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(report.to_json(), indent=2) + "\n")
    else:
        sys.stdout.write(report.to_text() + "\n")
    return 0 if report.ok else 1


def _run(title, fmt, body):
    """Run a report-producing body, surfacing domain errors as failures."""
    report = StructureReport(title)
    try:
        body(report)
    except (ScalarError, LieError, FormError, StructureError,
            document.DocumentError, catalog.CatalogError, CliError) as exc:
        report.add(f"error: {type(exc).__name__}", FAIL, str(exc))
    return _emit(report, fmt)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check_algebra(args):
    def body(rep):
        _, g, _ = _load(args)
        jr = g.check_jacobi()
        rep.check("antisymmetry and Jacobi identity", jr.passed,
                  "" if jr.passed else f"{jr.reason} at {jr.witness}")
        if jr.passed:
            rep.info("dim", g.dim)
            rep.info("dim of the center", len(center(g)))
    return _run(f"check-algebra {args.document}", args.format, body)


def cmd_check_lcs(args):
    def body(rep):
        doc, g, at = _load(args)
        lcs = lcs_check(g, doc.build_form(args.omega, g, at))
        rep.add("omega nondegenerate on the quotient", "PASS")
        rep.check("Lee form exists and is closed", True)
        rep.check("lam(Z) = 0", True)
        rep.info("Lee form", document.emit_form(lcs.lam))
        rep.info("Reeb vector", "[" + ", ".join(str(c) for c in lcs.Z) + "]")
        rep.info("proper (d omega != 0)", lcs.proper)
        if lcs.locus:
            rep.info("generic away from", "; ".join(str(p) for p in lcs.locus))
    return _run(f"check-lcs {args.omega}", args.format, body)


def _exactly_on(what, vanishing, otherwise):
    """'{what} exactly on the locus: p = 0; ...' for a vanishing list of
    non-constant polynomials, and otherwise when one entry is constant."""
    if any(p.is_constant() for p in vanishing):
        return otherwise
    return f"{what} exactly on the locus: " + "; ".join(
        f"{p} = 0" for p in vanishing)


def _build_lck(args, rep):
    doc, g, at = _load(args)
    om = doc.build_form(args.omega, g, at)
    J = ComplexStructure(g, doc.build_endo(args.J, g, at))
    _, _, vanishing = nijenhuis(J)
    if vanishing:
        raise NotIntegrable(_exactly_on(
            "integrable", vanishing, "the Nijenhuis tensor of J is not zero"))
    lck = assemble_lck(g, om, J, args.convention)
    rep.add("omega defines an lcs structure", "PASS")
    rep.add("omega is J-invariant", "PASS")
    rep.add("metric is symmetric", "PASS")
    rep.add("Z = J xi", "PASS")
    rep.info("Lee form", document.emit_form(lck.lcs.lam))
    rep.info("Reeb form theta", document.emit_form(lck.theta))
    rep.info("metric convention", lck.metric.convention_tag)
    return g, at, lck


def cmd_check_lck(args):
    def body(rep):
        g, at, lck = _build_lck(args, rep)
        if _fully_numeric(g, at):
            sig = next(signatures(lck.metric, [at]))
            rep.info("metric signature", str(sig))
            rep.check("metric nondegenerate at the point", True)
        else:
            rep.skip("metric definiteness",
                     "open condition; specialize with --at")
    return _run(f"check-lck {args.omega} {args.J}", args.format, body)


def cmd_check_vaisman(args):
    def body(rep):
        g, at, lck = _build_lck(args, rep)
        ok, vanishing, _ = vaisman_check(lck)
        detail = "" if ok else _exactly_on(
            "Vaisman", vanishing, "the Lee field is not parallel")
        if lck.lcs.lam.is_zero():
            detail = "lam = 0: the structure is Kahler, not proper lcK"
        rep.check("Lee field is parallel (Vaisman)", ok, detail)
        rep.info("g(xi, xi)", str(linalg.dot(lck.xi, lck.gxi)))
        rep.info("lam(xi)", str(lck.lcs.lam.evaluate(lck.xi)))
    return _run(f"check-vaisman {args.omega} {args.J}", args.format, body)


def cmd_cohomology(args):
    def body(rep):
        doc, g, at = _load(args)
        lam = doc.build_form(args.lam, g, at)
        dlam = ce_d(lam)
        if not dlam.is_zero():
            rep.check("twisting form is closed", False, str(dlam))
            return
        rep.check("twisting form is closed", True)
        dim, locus = twisted_cohomology_dim(g, lam, args.degree)
        rep.info(f"dim H^{args.degree} twisted by {args.lam}", dim)
        if locus:
            rep.info("generic away from", "; ".join(str(p) for p in locus))
    return _run(f"cohomology {args.lam} degree {args.degree}", args.format,
                body)


def cmd_construct_orbit(args):
    def body(rep):
        doc, g, at = _load(args)
        phi = doc.build_form(args.phi, g, at)
        D = None
        if args.derivation:
            D = doc.build_endo(args.derivation, g, at)
        orbit = coadjoint_stabilizer(phi)
        rep.info("dim of the coadjoint stabilizer", len(orbit.k))
        rep.info("dim of the kernel subalgebra h", len(orbit.h))
        rep.check("orbit is non-conical (phi nonzero on its stabilizer)",
                  orbit.non_conical)
        if not orbit.non_conical:
            return
        ext, lcs, phi_ext = lcs_from_orbit(orbit, D)
        rep.add("omega = -lam^phi + d(phi) is lcs on the extension", "PASS")
        rep.add("omega(Z, .) = phi(Z) lam", "PASS")
        rep.info("extension basis", " ".join(ext.basis_names))
        rep.info("omega", document.emit_form(lcs.omega))
        rep.info("Lee form", document.emit_form(lcs.lam))
    return _run(f"construct-orbit {args.phi}", args.format, body)


def cmd_suite(args):
    def body(rep):
        sub = catalog.run_suite(args.name)
        rep.extend(sub)
    return _run(f"suite {args.name}", args.format, body)


def cmd_catalog(args):
    try:
        entry = catalog.get(args.id)
    except catalog.CatalogError as exc:
        rep = StructureReport(f"catalog {args.id}")
        rep.add(f"error: {type(exc).__name__}", FAIL, str(exc))
        return _emit(rep, args.format)
    if args.emit:
        sys.stdout.write(document.dumps(document.document_from_entry(entry)))
        return 0
    rep = StructureReport(f"catalog {args.id}")
    rep.info("basis", " ".join(entry.algebra.basis_names))
    rep.info("parameters", " ".join(entry.algebra.params) or "(none)")
    rep.info("families", " ".join(sorted(entry.families)) or "(none)")
    rep.info("excluded locus",
             "; ".join(f"{p} = 0" for p in entry.excluded_locus) or "(none)")
    # catalog.get raises CatalogError on an algebra that fails Jacobi
    rep.add("structure constants satisfy the Jacobi identity", "PASS")
    return _emit(rep, args.format)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="lieform",
        description="Exact checks for left-invariant geometric structures "
                    "on Lie algebras.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    at_opt = argparse.ArgumentParser(add_help=False)
    at_opt.add_argument("--at", default="",
                        help="specialize parameters, e.g. a=0,b=-1")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-algebra", parents=[common, at_opt])
    p.add_argument("document")
    p.set_defaults(func=cmd_check_algebra)

    p = sub.add_parser("check-lcs", parents=[common, at_opt])
    p.add_argument("document")
    p.add_argument("omega", help="name of a 2-form in the document")
    p.set_defaults(func=cmd_check_lcs)

    for cmd, func in (("check-lck", cmd_check_lck),
                      ("check-vaisman", cmd_check_vaisman)):
        p = sub.add_parser(cmd, parents=[common, at_opt])
        p.add_argument("document")
        p.add_argument("omega")
        p.add_argument("J", help="name of an endomorphism in the document")
        p.add_argument("--convention", choices=(CONVENTION_DEF,
                                                CONVENTION_THM),
                       default=CONVENTION_DEF)
        p.set_defaults(func=func)

    p = sub.add_parser("cohomology", parents=[common, at_opt])
    p.add_argument("document")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="name of the twisting 1-form")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("construct-orbit", parents=[common, at_opt])
    p.add_argument("document")
    p.add_argument("--phi", required=True, help="name of the orbit 1-form")
    p.add_argument("--derivation", default="",
                   help="name of a derivation endomorphism")
    p.set_defaults(func=cmd_construct_orbit)

    p = sub.add_parser("suite", parents=[common])
    p.add_argument("name", choices=catalog.SUITES)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("catalog", parents=[common])
    p.add_argument("id")
    p.add_argument("--emit", action="store_true",
                   help="print the entry as a document")
    p.set_defaults(func=cmd_catalog)
    return parser


# built once: parse_args returns a fresh namespace on every call
PARSER = build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
