"""lieform benchmark: one command, three workloads, correctness-checked.

Run from the root of a checkout:

    python3 bench/run.py --workload {swell,forms,cli} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout, single process,
single thread.  Each workload is a closed loop with one caller.  Passes
repeat until ``--seconds`` have been spent (at least one pass); every
operation's output is checked against its reference after the pass.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
fresh-interpreter set-ups), ``pass_s`` (median pass), ``op_p50_s``,
``peak_rss_mb``, and, as text only, ``op_p90_s`` where at least ten samples
lie beyond it and ``fail_share``.  ``--trace 1`` runs pairs of one untraced
and one traced pass, alternating which comes first, and prints the per-layer
metrics of the first traced pass plus ``trace.overhead_share``: the median
over pairs of traced over untraced pass time, minus one.
The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--save FILE`` also writes every figure of the run, including those that
are not in the JSON line, to FILE; ``record_baseline.py`` uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Half of the set-ups are timed before the passes and half after, so that
# one run samples the machine's speed at both ends.
SETUP_PROBES = 16
# --trace 1 runs at least MIN_PAIRS pairs unless that would take longer than
# PAIRS_BUDGET_S; then it stops at --seconds (on swell, after one pair).
MIN_PAIRS = 5
PAIRS_BUDGET_S = 90

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB")]


class CheckoutError(Exception):
    pass


def prepare_checkout():
    """Import lieform from this checkout's ``src/``, nowhere else."""
    src = ROOT / "src"
    for need in (src / "lieform" / "__init__.py", ROOT / "tests" / "data"):
        if not need.exists():
            raise CheckoutError(f"{need} is missing; run from a lieform "
                                "checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    import lieform
    if Path(lieform.__file__).resolve().parent != (src / "lieform").resolve():
        raise CheckoutError(f"imported lieform from {lieform.__file__}")


def load_reference():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_names():
    """The per-layer metrics reported in the JSON line, in order."""
    from spans import MODULES, SCALAR_ADD, TRACED
    names = []
    for module, _, name, sizes_listed in TRACED:
        names += [f"{module}.{name}.calls", f"{module}.{name}.self_s"]
        if sizes_listed:
            names += [f"{module}.{name}.max_terms",
                      f"{module}.{name}.max_degree"]
    names += [f"{m}.raised" for m in MODULES]
    names += [f"{SCALAR_ADD}.den_mismatch_share", "trace.overhead_share"]
    return names


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs passes of a workload, times its operations, checks outputs."""

    def __init__(self, workload):
        self.wl = workload
        self.ops = workload.ops()
        self.op_times = []
        self.pass_times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._checked = {}

    def run_pass(self, tracer=None):
        """One timed pass; returns the fingerprints of its outputs."""
        outputs = []
        self.wl.direct.clear()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            for label, op in self.ops:
                t0 = time.perf_counter()
                try:
                    out = op()
                except Exception as exc:  # an op that raises is a failure
                    out = exc
                self.op_times.append(time.perf_counter() - t0)
                outputs.append((label, out))
        finally:
            if tracer is not None:
                tracer.active = False
        self.pass_times.append(time.perf_counter() - start)
        self.attempted += len(outputs)
        return [self._check(label, out) for label, out in outputs]

    def _check(self, label, out):
        from oracle import Mismatch
        from workloads import fingerprint
        if isinstance(out, Exception):
            self._fail(label, f"raised {type(out).__name__}: {out}")
            return ("raised", type(out).__name__, str(out))
        fp = fingerprint(out)
        verdict = self._checked.get(label)
        if verdict is None or verdict[0] != fp:
            try:
                self.wl.check(label, out)
                verdict = (fp, None)
            except Mismatch as exc:
                verdict = (fp, str(exc))
            except Exception as exc:  # an output the oracle cannot read
                verdict = (fp, f"check raised {type(exc).__name__}: {exc}")
            self._checked[label] = verdict
        if verdict[1] is not None:
            self._fail(label, verdict[1])
        return fp

    def _fail(self, label, why):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")


def quantile_p90(samples):
    """(p90, samples beyond it) by nearest rank."""
    s = sorted(samples)
    idx = max(0, -(-9 * len(s) // 10) - 1)
    p90 = s[idx]
    return p90, sum(1 for x in s if x > p90)


def measure_setup(args, probes):
    """Seconds from starting a fresh interpreter to a ready workload, for
    each of ``probes`` set-ups."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--setup-probe"]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise CheckoutError(f"set-up probe failed: {line!r}")
        times.append(dt)
    return times


def run_end_to_end(args, workload_cls, reference):
    setups = measure_setup(args, SETUP_PROBES // 2)
    runner = Runner(workload_cls(args.seed, reference))
    deadline = time.perf_counter() + args.seconds
    while True:
        runner.run_pass()
        if time.perf_counter() >= deadline:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
    ops = runner.op_times
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(runner.pass_times),
        "op_p50_s": statistics.median(ops),
        "peak_rss_mb": peak_mb,
    }
    print(f"workload {args.workload}: seed {args.seed}"
          f"{'' if workload_cls.seeded else ' (ignored: fixed inputs)'}, "
          f"{len(runner.pass_times)} passes, {len(ops)} ops "
          f"({len(runner.ops)} per pass), closed loop, 1 caller")
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    p90, beyond = quantile_p90(ops)
    if beyond >= 10:
        print(f"op_p90_s = {p90:.6g} s ({len(ops)} samples, {beyond} beyond)")
    else:
        print(f"op_p90_s not reported: {len(ops)} samples, {beyond} beyond "
              f"the 90th percentile (needs 10)")
    print(f"fail_share = {runner.failed}/{runner.attempted}")
    for e in runner.errors:
        print(f"FAILED {e}")
    everything = dict(metrics, passes=len(runner.pass_times),
                      op_samples=len(ops),
                      fail_share=runner.failed / runner.attempted)
    if beyond >= 10:
        everything["op_p90_s"] = p90
    return runner, {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}, everything


def run_traced(args, workload_cls, reference):
    import spans
    import workloads
    runner = Runner(workload_cls(args.seed, reference))
    problems = []
    untraced, traced, shares = [], [], []
    first = None
    pair_floor = MIN_PAIRS
    deadline = time.perf_counter() + args.seconds
    while True:
        pair_start = time.perf_counter()
        tracer = spans.Tracer(direct_modules=[workloads])
        if len(shares) % 2:
            got = _traced_pass(runner, tracer, problems)
            base = runner.run_pass()
            t_traced, t_untraced = runner.pass_times[-2:]
        else:
            base = runner.run_pass()
            got = _traced_pass(runner, tracer, problems)
            t_untraced, t_traced = runner.pass_times[-2:]
        untraced.append(t_untraced)
        traced.append(t_traced)
        shares.append(t_traced / t_untraced - 1)
        snap = tracer.snapshot()
        if got != base:
            problems.append("traced outputs differ from untraced ones")
        if first is None:
            first = snap
            if (time.perf_counter() - pair_start) * MIN_PAIRS > PAIRS_BUDGET_S:
                pair_floor = 1
        elif count_metrics(snap) != count_metrics(first):
            problems.append("counts differ between traced passes")
        if time.perf_counter() >= deadline and len(shares) >= pair_floor:
            break
    overhead = statistics.median(shares)
    first["trace.overhead_share"] = overhead
    first["pairs"] = len(shares)
    first["untraced_pass_s"] = statistics.median(untraced)
    first["traced_pass_s"] = statistics.median(traced)
    print(f"workload {args.workload}: seed {args.seed}, {len(shares)} pairs "
          f"of an untraced and a traced pass")
    print(f"pass_s untraced {first['untraced_pass_s']:.6g} s, "
          f"traced {first['traced_pass_s']:.6g} s")
    spread = _spread(untraced)
    if len(shares) < MIN_PAIRS or abs(overhead) <= spread:
        first["trace.overhead_resolved"] = False
        print(f"trace.overhead_share = {overhead:.6g}, unresolved: "
              f"{len(shares)} pairs (needs {MIN_PAIRS}), untraced spread "
              f"{spread:.3g} (needs less than the overhead)")
    else:
        first["trace.overhead_resolved"] = True
        print(f"trace.overhead_share = {overhead:.6g} ({len(shares)} pairs, "
              f"untraced spread {spread:.3g})")
    rows = sorted((k.removesuffix(".self_s") for k in first
                   if k.endswith(".self_s")),
                  key=lambda f: -first[f + ".self_s"])
    print(f"{'function':40} {'calls':>9} {'self_s':>10} {'total_s':>10} "
          f"{'terms':>6} {'degree':>6}")
    for f in rows:
        print(f"{f:40} {first[f + '.calls']:9d} {first[f + '.self_s']:10.4f} "
              f"{first[f + '.total_s']:10.4f} "
              f"{first.get(f + '.max_terms', '-'):>6} "
              f"{first.get(f + '.max_degree', '-'):>6}")
    for k in sorted(first):
        if k.endswith((".raised", ".den_mismatch_share")):
            print(f"{k} = {first[k]:.6g}")
    if tracer.missing:
        print("not in the library, reported as 0: " +
              " ".join(tracer.missing))
    for p in dict.fromkeys(problems):
        print(f"SELF-CHECK FAILED {p}")
    for e in runner.errors:
        print(f"FAILED {e}")
    runner.failed += len(set(problems))
    # A function that was not called, or none of whose results held a
    # scalar, has no size; the JSON line must carry every listed metric, so
    # it reads 0 there.
    metrics = {name: {"value": first.get(name, 0),
                      "unit": per_layer_unit(name)}
               for name in per_layer_names()}
    return runner, metrics, first


def _traced_pass(runner, tracer, problems):
    try:
        problems += [f"not intercepted: {leak}" for leak in tracer.install()]
        got = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    for name, st in tracer.stats.items():
        if st.direct != runner.wl.direct.get(name, 0):
            problems.append(f"{name}: {st.direct} direct calls traced, "
                            f"{runner.wl.direct.get(name, 0)} made")
    return got


def _spread(samples):
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def count_metrics(snap):
    """The counters that must repeat exactly between traced passes."""
    return {k: v for k, v in snap.items()
            if k.endswith((".calls", ".max_terms", ".max_degree", ".direct",
                           ".raised"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("swell", "forms", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--save", help="also write every metric to this "
                                       "JSON file")
    args = parser.parse_args(argv)
    try:
        prepare_checkout()
        from workloads import WORKLOADS
        workload_cls = WORKLOADS[args.workload]
        reference = load_reference()
        if args.setup_probe:
            workload_cls(args.seed, reference)
            print("ready", flush=True)
            return 0
        run = run_traced if args.trace else run_end_to_end
        runner, metrics, everything = run(args, workload_cls, reference)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "attempted": runner.attempted,
                       "failed": runner.failed, "metrics": everything},
                      fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
