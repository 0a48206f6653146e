"""Per-layer spans for lieform, recorded from outside the library.

``Tracer.install`` replaces each function named in ``TRACED`` by a wrapper,
at every place the function is bound: module globals (including the
``from .exterior import ce_d`` copies in other modules), class attributes
(including aliases such as ``Scalar.__radd__ = __add__``) and the package
namespace.  Calls inside the library that go through a module global
(``solve -> rref``) or an operator slot (``a + b``) therefore reach the
wrapper too.

Each wrapper records, per function: calls, self time (span minus the spans
of wrapped callees), inclusive time of outermost calls, calls made directly
from the benchmark's own modules, and the largest scalar in any result seen,
as terms (numerator plus denominator) and total degree (the larger of
numerator and denominator).  A function none of whose results held a scalar
has no size: its ``max_terms`` and ``max_degree`` are left out.
Per module it counts exceptions that leave the module through a wrapped
function.  Spans are kept as running sums in memory; nothing is
written while tracing.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute path, reported name, sizes listed in BENCHMARK.json)
#
# Every function is sized; the last field only says whether its max_terms
# and max_degree are among the per-layer metrics of BENCHMARK.json, which
# holds at most 128.  The text output and baseline.json have all of them.
TRACED = [
    ("scalars", "Poly.__mul__", "Poly.mul", True),
    ("scalars", "Poly.__add__", "Poly.add", True),
    ("scalars", "Scalar.__init__", "Scalar.init", True),
    ("scalars", "Scalar.__add__", "Scalar.add", True),
    ("scalars", "Scalar.__mul__", "Scalar.mul", True),
    ("scalars", "Scalar.__truediv__", "Scalar.div", True),
    ("scalars", "Scalar.__eq__", "Scalar.eq", False),
    ("scalars", "Scalar.substitute", "Scalar.substitute", True),
    ("scalars", "scalar_eval", "scalar_eval", False),
    ("scalars", "parse_scalar", "parse_scalar", True),
    ("linalg", "rref", "rref", True),
    ("linalg", "det", "det", True),
    ("linalg", "inverse", "inverse", True),
    ("linalg", "solve", "solve", True),
    ("linalg", "mat_vec", "mat_vec", False),
    ("lie_core", "LieAlgebra.bracket", "LieAlgebra.bracket", False),
    ("lie_core", "LieAlgebra.check_jacobi", "LieAlgebra.check_jacobi", False),
    ("exterior", "ce_d", "ce_d", True),
    ("exterior", "wedge", "wedge", False),
    ("exterior", "interior", "interior", False),
    ("exterior", "twisted_cohomology_dim", "twisted_cohomology_dim", False),
    ("exterior", "solve_potential", "solve_potential", True),
    ("structures", "lcs_check", "lcs_check", False),
    ("structures", "nijenhuis", "nijenhuis", False),
    ("structures", "metric_from", "metric_from", False),
    ("structures", "assemble_lck", "assemble_lck", True),
    ("structures", "levi_civita", "levi_civita", True),
    ("structures", "nabla_of_vector", "nabla_of_vector", True),
    ("structures", "Metric.pair", "Metric.pair", True),
    ("structures", "vaisman_check", "vaisman_check", True),
    ("structures", "signature_at", "signature_at", False),
    ("constructions", "coadjoint_stabilizer", "coadjoint_stabilizer", False),
    ("constructions", "lcs_from_orbit", "lcs_from_orbit", False),
    ("catalog", "get", "get", False),
    ("catalog", "run_suite", "run_suite", False),
    ("document", "loads", "loads", False),
    ("document", "parse_form", "parse_form", False),
    ("document", "emit_form", "emit_form", False),
    ("cli", "main", "main", False),
]

MODULES = sorted({spec[0] for spec in TRACED})
SCALAR_ADD = "scalars.Scalar.add"


class Stat:
    __slots__ = ("module", "calls", "self_s", "total_s", "direct", "depth",
                 "max_terms", "max_degree")

    def __init__(self, module):
        self.module = module
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.direct = 0
        self.depth = 0
        self.max_terms = None
        self.max_degree = None


def _poly_degree(p):
    return max(map(sum, p.terms), default=0)


def _record(st, terms, degree):
    if st.max_terms is None or terms > st.max_terms:
        st.max_terms = terms
    if st.max_degree is None or degree > st.max_degree:
        st.max_degree = degree


class _Sizer:
    """Largest scalar (terms, total degree) inside a result."""

    def __init__(self, mods):
        self.Scalar = mods["scalars"].Scalar
        self.CScalar = mods["scalars"].CScalar
        self.Poly = mods["scalars"].Poly
        self.KForm = mods["exterior"].KForm
        self.skip = (mods["lie_core"].LieAlgebra, type, str, bytes, int,
                     float, bool, type(None))

    def measure(self, obj, st):
        stack = [obj]
        seen = set()
        while stack:
            x = stack.pop()
            t = type(x)
            if t is self.Scalar:
                _record(st, len(x.num.terms) + len(x.den.terms),
                        max(_poly_degree(x.num), _poly_degree(x.den)))
            elif t is self.Poly:
                _record(st, len(x.terms), _poly_degree(x))
            elif t is list or t is tuple:
                stack.extend(x)
            elif t is dict:
                stack.extend(x.values())
            elif t is self.KForm:
                stack.extend(x.coeffs.values())
            elif t is self.CScalar:
                stack.append(x.re)
                stack.append(x.im)
            elif isinstance(x, self.skip) or id(x) in seen:
                continue
            elif hasattr(x, "__dict__"):
                # result records such as LcsData, LckData, Metric
                seen.add(id(x))
                stack.extend(v for v in vars(x).values()
                             if not isinstance(v, self.skip))


class Tracer:
    """Installs the wrappers, accumulates the per-layer counts, removes them.

    ``direct_modules`` are the benchmark modules whose calls into a traced
    function count as direct calls.
    """

    def __init__(self, direct_modules=()):
        self.direct_ids = {id(vars(m)) for m in direct_modules}
        self.stats = {}
        self.raised = {m: 0 for m in MODULES}
        self.den_mismatch = 0
        self.active = False
        self.missing = []
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every function in TRACED at every binding.

        A function the library no longer has is listed in ``missing`` and
        reports zero.  Returns the bindings that still hold an original
        after wrapping, which must be none.
        """
        pkg = importlib.import_module("lieform")
        mods = {m: importlib.import_module("lieform." + m) for m in MODULES}
        namespaces = [pkg] + list(mods.values())
        classes = [v for ns in namespaces for v in vars(ns).values()
                   if isinstance(v, type)
                   and v.__module__.startswith("lieform")]
        sizer = _Sizer(mods)
        originals = []
        for module, path, name, _ in TRACED:
            full = f"{module}.{name}"
            st = self.stats[full] = Stat(module)
            owner = mods[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                self.missing.append(full)
                continue
            wrapper = self._wrap(orig, st, full, sizer,
                                 is_init=attr == "__init__")
            for ns in namespaces + classes:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapper)
            originals.append((full, orig))
        return [f"{full} still bound as {getattr(ns, '__name__', ns)}.{key}"
                for full, orig in originals
                for ns in namespaces + classes
                for key, value in vars(ns).items() if value is orig]

    def uninstall(self):
        for ns, key, orig in reversed(self._patches):
            setattr(ns, key, orig)
        self._patches = []

    # -- the wrapper --------------------------------------------------

    def _wrap(self, orig, st, full, sizer, is_init):
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        getframe = sys._getframe
        direct_ids = self.direct_ids
        raised = self.raised
        module = st.module
        measure = sizer.measure
        is_add = full == SCALAR_ADD
        Scalar = sizer.Scalar

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if id(getframe(1).f_globals) in direct_ids:
                st.direct += 1
            t0 = perf()
            span = [0.0, module]
            stack.append(span)
            st.depth += 1
            ok = False
            try:
                result = orig(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += t1 - t0 - span[0]
                if st.depth == 0:
                    st.total_s += t1 - t0
                if not ok:
                    if not stack or stack[-1][1] != module:
                        raised[module] += 1
                    if stack:
                        stack[-1][0] += t1 - t0
            measure(args[0] if is_init else result, st)
            if is_add:
                other = args[1]
                den = args[0].den
                if type(other) is Scalar:
                    if den != other.den:
                        tracer.den_mismatch += 1
                elif not den.is_constant():
                    tracer.den_mismatch += 1
            if stack:
                # the parent's self time excludes this whole call, including
                # the measuring above
                stack[-1][0] += perf() - t0
            return result

        wrapper.__name__ = getattr(orig, "__name__", full)
        wrapper.__qualname__ = getattr(orig, "__qualname__", full)
        wrapper.__doc__ = orig.__doc__
        return wrapper

    # -- results ------------------------------------------------------

    def snapshot(self):
        """Plain copy of every counter, keyed by metric name."""
        out = {}
        for full, st in self.stats.items():
            out[f"{full}.calls"] = st.calls
            out[f"{full}.self_s"] = st.self_s
            out[f"{full}.total_s"] = st.total_s
            out[f"{full}.direct"] = st.direct
            if st.max_terms is not None:
                out[f"{full}.max_terms"] = st.max_terms
                out[f"{full}.max_degree"] = st.max_degree
        for module, n in self.raised.items():
            out[f"{module}.raised"] = n
        adds = self.stats[SCALAR_ADD].calls
        out[f"{SCALAR_ADD}.den_mismatch_share"] = (
            self.den_mismatch / adds if adds else 0.0)
        return out
