"""The benchmark's workloads: ``swell``, ``forms`` and ``cli``.

Each workload builds its inputs in ``__init__`` (the set-up that ``setup_s``
times) and returns one pass as a list of operations.  An operation is a
closed call with one caller: the next starts when the previous returns.
``check`` compares an operation's output with its reference and raises
``oracle.Mismatch`` when they disagree; it runs outside the timed pass.

Calls that a workload makes straight into a traced lieform function go
through ``_call``, which counts them, so the traced run can check that its
own counts of direct calls agree.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from lieform import catalog, cli, document, exterior, scalars, structures
from lieform.exterior import KForm

import oracle

U2 = "tests/data/u2.json"
GL2R = "tests/data/gl2r.json"
CORRUPTED = "tests/data/corrupted.json"
MISSING = "bench/no-such-document.json"

_MODULES = {"cli": cli, "exterior": exterior, "structures": structures}

# Calls the ``cli`` workload leaves out, with their seconds as first
# measured: they belong to the swell code path and are too long to repeat
# every pass.  ``record_baseline.py`` times them once.
EXCLUDED_CLI = [
    (["check-vaisman", GL2R, "omega_std", "J_mu"], 41.6),
    (["check-vaisman", GL2R, "omega_general", "J_mu1"], 126.0),
]

# The subcommand calls of one ``cli`` pass whose output does not depend on
# the seed, with their references in reference.json.
FIXED_CLI = [
    ["check-algebra", U2],
    ["check-algebra", GL2R, "--format", "json"],
    ["check-algebra", CORRUPTED],
    ["check-algebra", MISSING],
    ["check-lcs", U2, "omega_std"],
    ["check-lcs", U2, "omega_general", "--format", "json"],
    ["check-lcs", GL2R, "omega_std"],
    ["check-lcs", GL2R, "omega_general"],
    ["check-lck", U2, "omega_std", "J_ab", "--convention=thm"],
    ["check-lck", U2, "omega_std", "J_01"],
    ["check-lck", GL2R, "omega_std", "J_mu"],
    ["check-lck", GL2R, "omega_general", "J_mu1", "--format", "json"],
    ["check-vaisman", U2, "omega_std", "J_ab"],
    ["check-vaisman", U2, "omega_std", "J_01", "--format", "json"],
    ["check-vaisman", U2, "omega_general", "J_01"],
    ["check-vaisman", GL2R, "omega_std", "J_mu1"],
] + [
    ["cohomology", doc, "--lambda", "lambda_std", "--degree", str(k)]
    for doc in (U2, GL2R) for k in range(5)
] + [
    ["cohomology", GL2R, "--lambda", "lambda_std", "--degree", "2",
     "--format", "json"],
    ["construct-orbit", U2, "--phi", "phi_general"],
    ["construct-orbit", GL2R, "--phi", "phi_general", "--format", "json"],
] + [
    ["catalog", cid, "--emit"]
    for cid in ("u2", "gl2r", "su2", "sl2r", "abelian_4")
] + [
    ["catalog", "u2"],
    ["catalog", "gl2r", "--format", "json"],
    ["suite", "u2_classification"],
    ["suite", "reductive_identities", "--format", "json"],
]

# check-lck at seeded points: (document, argv of the symbolic call)
LCK_FAMILIES = {
    "u2": (U2, ["check-lck", U2, "omega_std", "J_ab", "--convention=thm"]),
    "gl2r": (GL2R, ["check-lck", GL2R, "omega_std", "J_mu"]),
}
LCK_POINTS_PER_FAMILY = 3

SWELL_ARGV = ["suite", "gl2_classification"]

# random forms per ``forms`` d-operation; several, so that one seed's draw
# moves the pass time little
FORMS_PER_OP = 4


def key(argv):
    return " ".join(argv)


def run_cli(argv):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fingerprint(x):
    """A plain, comparable rendering of an operation's output."""
    if isinstance(x, (list, tuple)):
        return tuple(fingerprint(v) for v in x)
    if isinstance(x, structures.LcsData):
        return ("lcs", str(x.lam), fingerprint(x.Z), x.proper,
                fingerprint(x.locus))
    if isinstance(x, (KForm, scalars.Scalar, scalars.Poly)):
        return str(x)
    return x


class Workload:
    seeded = True

    def __init__(self, seed, reference):
        self.direct = Counter()

    def _call(self, name, *args):
        self.direct[name] += 1
        module, attr = name.split(".", 1)
        return getattr(_MODULES[module], attr)(*args)

    def _cli(self, argv):
        self.direct["cli.main"] += 1
        return run_cli(argv)


# ---------------------------------------------------------------------------
# swell
# ---------------------------------------------------------------------------

class Swell(Workload):
    """``lieform suite gl2_classification``, one operation per pass.

    The inputs are fixed by the suite, so the seed is ignored.
    """

    seeded = False

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.reference = dict(reference["cli"][key(SWELL_ARGV)], kind="text")

    def ops(self):
        return [(key(SWELL_ARGV), lambda: self._cli(SWELL_ARGV))]

    def check(self, label, output):
        _check_cli(self.reference, output, None)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _check_cli(ref, output, g):
    code, out, err = output
    if code != ref["code"]:
        raise oracle.Mismatch(f"exit code {code}, expected {ref['code']}")
    if ref["code"] == 2:
        if out or "No such file" not in err:
            raise oracle.Mismatch(f"missing-file output {out!r} {err!r}")
    elif ref["kind"] == "text":
        oracle.compare_text(ref["out"], out, g)
    elif ref["kind"] == "json":
        oracle.compare_json_report(ref["out"], out, g)
    else:
        oracle.compare_document(ref["out"], out)


def _kind(argv):
    if "--emit" in argv:
        return "document"
    return "json" if "json" in argv else "text"


def _rational(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if q or not nonzero:
            return q


class Cli(Workload):
    """Every subcommand, in-process through ``cli.main`` with captured
    output, on the shipped documents; ``check-lck --at`` at seeded points."""

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        rng = random.Random(seed)
        self.algebras = {path: document.load(path).build_algebra()
                         for path in (U2, GL2R)}
        self.refs = {}
        self.argvs = []
        for argv in FIXED_CLI:
            ref = dict(reference["cli"][key(argv)], kind=_kind(argv))
            self.refs[key(argv)] = (ref, self.algebras.get(argv[1]))
            self.argvs.append(argv)
        for family, (path, sym_argv) in LCK_FAMILIES.items():
            sym = reference["lck"][family]
            g = self.algebras[path]
            metric = [[scalars.parse_scalar(c, g.params) for c in row]
                      for row in sym["metric"]]
            for _ in range(LCK_POINTS_PER_FAMILY):
                point, sig = self._point(rng, family, g, metric)
                at = ",".join(f"{p}={point[p]}" for p in g.params)
                argv = sym_argv + ["--at", at]
                ref = {"code": 0, "kind": "text",
                       "out": _lck_at_point(sym["out"], g, point, sig)}
                self.refs[key(argv)] = (ref, g)
                self.argvs.append(argv)

    @staticmethod
    def _point(rng, family, g, metric):
        """A seeded point off the excluded locus (b != 0, mu1 != 0) where
        the metric is nondegenerate, with its signature."""
        nonzero = "b" if family == "u2" else "mu1"
        while True:
            point = {p: _rational(rng, nonzero=p == nonzero)
                     for p in g.params}
            rows = [[scalars.scalar_eval(c, point) for c in row]
                    for row in metric]
            sig = oracle.signature(rows)
            if sum(sig) == len(rows):
                return point, sig

    def ops(self):
        return [(key(argv), lambda argv=argv: self._cli(argv))
                for argv in self.argvs]

    def check(self, label, output):
        ref, g = self.refs[label]
        _check_cli(ref, output, g)


def _lck_at_point(symbolic, g, point, sig):
    """The expected check-lck report at a point, from the symbolic one:
    forms specialised, and the definiteness skip replaced by the
    signature found by the characteristic-polynomial oracle."""
    lines = []
    for line in symbolic.rstrip("\n").split("\n"):
        head, sep, detail = line.partition(" :: ")
        if line.startswith("[SKIPPED] metric definiteness"):
            lines.append(f"[INFO] metric signature :: {sig}")
            lines.append("[PASS] metric nondegenerate at the point")
            continue
        if line.startswith("-- "):
            counts = [int(w) for w in line.split() if w.isdigit()]
            lines.append(f"-- {counts[0] + 1} passed, {counts[1]} failed, "
                         f"{counts[2] - 1} skipped")
            continue
        if sep and head.startswith("[INFO]"):
            try:
                f = document.parse_form(detail, g)
            except (document.DocumentError, scalars.ScalarError):
                pass
            else:
                f = KForm(g, f.degree, {i: c.substitute(point)
                                        for i, c in f.coeffs.items()})
                line = f"{head} :: {document.emit_form(f)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

def _algebras():
    """(name, algebra, polynomial coefficients) for the forms workload."""
    return [
        ("u2", catalog.u2(), False),
        ("gl2r", catalog.gl2r(), False),
        ("su2", catalog.get("su2").algebra, False),
        ("sl2r", catalog.get("sl2r").algebra, False),
        ("u2[a1,a2,a3]", catalog.u2(("a1", "a2", "a3")), True),
        ("gl2r[ah,ap,am]", catalog.gl2r(("ah", "ap", "am")), True),
    ]


def _coefficient(rng, g, poly):
    """A seeded coefficient: a small rational, or a polynomial with
    denominator 1 in the algebra's parameters."""
    if not poly:
        return g._scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    n = len(g.params)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * n
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return scalars.Scalar(scalars.Poly(g.params, terms))


def _random_form(rng, g, k, poly):
    while True:
        coeffs = {idx: _coefficient(rng, g, poly)
                  for idx in combinations(range(g.dim), k)
                  if rng.random() < 0.7}
        f = KForm(g, k, coeffs)
        if not f.is_zero():
            return f


def _random_vector(rng, g):
    return g.vector([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(g.dim)])


class Forms(Workload):
    """Exterior calculus on small exact scalars drawn from the seed."""

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        rng = random.Random(seed)
        self.cases = {}
        self._ops = []
        for name, g, poly in _algebras():
            reductive = g.basis_names[0] == "e0" and g.dim == 4
            if reductive:
                lam = KForm(g, 1, {(0,): _nonzero(rng, g, poly)})
            else:
                lam = KForm.zero(g, 1)
            for k in range(g.dim + 1):
                samples = [(_random_form(rng, g, k, poly),
                            [_random_vector(rng, g) for _ in range(k + 1)])
                           for _ in range(FORMS_PER_OP)]
                self._add(f"d {name} degree {k}", self._d_op,
                          (g, lam, samples))
            if not reductive:
                continue
            for k in range(g.dim + 1):
                self._add(f"H {name} degree {k}", self._cohomology_op,
                          (g, lam, k))
            phis = [{i: c for i, c in zip((1, 2, 3), g.params)}] if poly \
                else [_seeded_phi(rng, g)]
            for phi in phis:
                om = catalog.lcs_form(g, catalog.oneform(g, phi))
                lee = KForm(g, 1, {(0,): -g.one()})
                self._add(f"lcs_check {name}", self._lcs_op, (g, om, lee))
                self._add(f"solve_potential {name}", self._potential_op,
                          (g, om, lee))

    def _add(self, label, method, case):
        self.cases[label] = case
        self._ops.append((label, lambda: method(*case)))

    def ops(self):
        return self._ops

    # -- operations ---------------------------------------------------

    def _d_op(self, g, lam, samples):
        out = []
        for alpha, _ in samples:
            d1 = self._call("exterior.ce_d", alpha)
            dd = self._call("exterior.ce_d", d1)
            t1 = exterior.twisted_d(alpha, lam)
            t2 = exterior.twisted_d(t1, lam)
            out.append((d1, dd.is_zero(), t1, t2.is_zero()))
        return out

    def _cohomology_op(self, g, lam, k):
        return self._call("exterior.twisted_cohomology_dim", g, lam, k)

    def _lcs_op(self, g, om, lee):
        return self._call("structures.lcs_check", g, om)

    def _potential_op(self, g, om, lee):
        return self._call("exterior.solve_potential", om, lee)

    # -- oracle -------------------------------------------------------

    def check(self, label, output):
        kind = label.split()[0]
        case = self.cases[label]
        if kind == "d":
            _check_d(*case, output)
        elif kind == "H":
            # Kunneth: H_{q e^0}(R + s) = H_{q e^0}(R) (x) H(s) = 0 for q != 0
            dim, _ = output
            if dim != 0:
                raise oracle.Mismatch(f"dim H^{case[2]} = {dim}, expected 0")
        elif kind == "lcs_check":
            _check_lcs(*case, output)
        else:
            _check_potential(*case, output)


def _nonzero(rng, g, poly):
    while True:
        c = _coefficient(rng, g, poly)
        if not c.is_zero():
            return c


def _seeded_phi(rng, g):
    """phi = sum_{i>0} x_i e^i with omega = e^0 ^ phi + d(phi) nondegenerate:
    a1^2 + a2^2 + a3^2 != 0 on u(2), ah^2 + 4 ap am != 0 on gl(2,R)."""
    while True:
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        q = x[0] ** 2 + 4 * x[1] * x[2] if g.name == "gl2r" else \
            sum(v * v for v in x)
        if q:
            return dict(zip((1, 2, 3), x))


def _check_d(g, lam, samples, output):
    if len(output) != len(samples):
        raise oracle.Mismatch(f"{len(output)} results, {len(samples)} forms")
    for (alpha, vectors), (d1, dd_zero, t1, tt_zero) in zip(samples, output):
        if not dd_zero:
            raise oracle.Mismatch("ce_d(ce_d(alpha)) != 0")
        if not tt_zero:
            raise oracle.Mismatch("twisted_d(twisted_d(alpha)) != 0")
        want = oracle.d_by_definition(g, alpha, vectors)
        if d1.evaluate(*vectors) != want:
            raise oracle.Mismatch("ce_d disagrees with the definition")
        want = want - oracle.wedge_by_definition(g, lam, alpha, vectors)
        if t1.evaluate(*vectors) != want:
            raise oracle.Mismatch("twisted_d disagrees with d - lam ^ .")


def _check_lcs(g, om, lee, lcs):
    if lcs.lam != lee:
        raise oracle.Mismatch(f"Lee form {lcs.lam}, expected {lee}")
    e = g.basis_vector
    for j in range(g.dim):
        if om.evaluate(lcs.Z, e(j)) != lee.evaluate(e(j)) * Fraction(1, 2):
            raise oracle.Mismatch(f"omega(Z, e{j}) != lam(e{j})/2")
    proper = False
    for t in combinations(range(g.dim), 3):
        vs = [e(i) for i in t]
        dom = oracle.d_by_definition(g, om, vs)
        if dom != oracle.wedge_by_definition(g, lee, om, vs):
            raise oracle.Mismatch(f"d omega != lam ^ omega on {t}")
        proper = proper or not dom.is_zero()
    if lcs.proper != proper:
        raise oracle.Mismatch(f"proper = {lcs.proper}, expected {proper}")


def _check_potential(g, om, lee, phi):
    e = g.basis_vector
    for i, j in combinations(range(g.dim), 2):
        vs = [e(i), e(j)]
        got = oracle.d_by_definition(g, phi, vs) - \
            oracle.wedge_by_definition(g, lee, phi, vs)
        if got != om.evaluate(*vs):
            raise oracle.Mismatch(f"d_lam(phi) != omega on ({i}, {j})")


WORKLOADS = {"swell": Swell, "forms": Forms, "cli": Cli}
