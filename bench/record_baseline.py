"""Record ``bench/baseline.json``: the benchmark's numbers for this commit.

Run from the root of a checkout, on an otherwise idle machine:

    python3 bench/record_baseline.py

It runs ``run.py --trace 0`` on every workload for two sets of ten seeds
(101-110, then 201-210), and gives each end-to-end metric's runs, median,
quartiles and spread (the distance between the quartiles as a share of the
median) per set, and the second set's median over the first's.  It then
runs ``run.py --trace 1`` twice on seed 101 per workload, keeps every
per-layer figure of the first and checks that the counts of the second are
identical.  Last it times once the two ``check-vaisman`` calls that the
``cli`` workload leaves out.  On a 2 vCPU machine this takes about 40
minutes, most of it on ``swell``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import run

WORKLOADS = ("swell", "forms", "cli")
SETS = (range(101, 111), range(201, 211))
TRACE_SEED = 101
RUN_SECONDS = 10
TIMINGS = ("setup_s", "pass_s", "op_p50_s", "op_p90_s", "peak_rss_mb")


def bench(tmp, workload, seed, trace):
    """One run of the benchmark in a fresh process; its saved figures."""
    out = os.path.join(tmp, f"{workload}-{seed}-{trace}.json")
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS),
           "--trace", str(trace), "--save", out]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    last = json.loads(proc.stdout.splitlines()[-1])
    with open(out, encoding="utf-8") as fh:
        saved = json.load(fh)
    saved["correct"] = last["correct"]
    print(f"{workload} seed {seed} trace {trace}: correct {last['correct']}",
          flush=True)
    return saved


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"runs": [round(v, 6) for v in values], "median": med, "q1": q1,
            "q3": q3, "spread": (q3 - q1) / med}


def end_to_end(tmp, workload):
    sets = []
    for seeds in SETS:
        saved = [bench(tmp, workload, seed, 0) for seed in seeds]
        entry = {"seeds": list(seeds),
                 "attempted": sum(s["attempted"] for s in saved),
                 "failed": sum(s["failed"] for s in saved),
                 "passes_per_run": [s["metrics"]["passes"] for s in saved],
                 "op_samples_per_run": [s["metrics"]["op_samples"]
                                        for s in saved]}
        for name in TIMINGS:
            values = [s["metrics"].get(name) for s in saved]
            if None in values:
                entry[name] = ("not reported: fewer than 10 samples beyond "
                               "the 90th percentile")
            else:
                entry[name] = summary(values)
        sets.append(entry)
    ratios = {name: sets[1][name]["median"] / sets[0][name]["median"]
              for name in TIMINGS if isinstance(sets[0][name], dict)}
    return {"sets": sets, "second_median_over_first": ratios}


def per_layer(tmp, workload):
    first, second = (bench(tmp, workload, TRACE_SEED, 1) for _ in range(2))
    a = run.count_metrics(first["metrics"])
    b = run.count_metrics(second["metrics"])
    differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return {"seed": TRACE_SEED, "failed": first["failed"],
            "counts_repeat_in_a_second_run": not differing,
            "differing": differing, "metrics": first["metrics"]}


def time_excluded():
    run.prepare_checkout()
    from workloads import EXCLUDED_CLI, key, run_cli
    timed = []
    for argv, seconds_earlier in EXCLUDED_CLI:
        t0 = time.perf_counter()
        run_cli(argv)
        timed.append({"call": key(argv),
                      "seconds_reported_earlier": seconds_earlier,
                      "seconds_measured": round(time.perf_counter() - t0, 2)})
        print(f"{key(argv)}: {timed[-1]['seconds_measured']} s", flush=True)
    return timed


def machine():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} vCPU, {model}, {platform.system()} " \
           f"{platform.release()}"


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=run.ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        e2e = {w: end_to_end(tmp, w) for w in WORKLOADS}
        layers = {w: per_layer(tmp, w) for w in WORKLOADS}
    swell = layers["swell"]["metrics"]
    out = {
        "commit": commit(),
        "machine": machine(),
        "python": platform.python_version(),
        "run_seconds": RUN_SECONDS,
        "end_to_end": e2e,
        "per_layer": layers,
        "degree_gate_baseline": {
            "workload": "swell",
            "note": "largest scalar of the J_mu Vaisman check, the "
                    "g(xi, xi) it discards; max_terms counts numerator and "
                    "denominator, max_degree is the larger of their degrees",
            "structures.vaisman_check.max_terms":
                swell["structures.vaisman_check.max_terms"],
            "structures.vaisman_check.max_degree":
                swell["structures.vaisman_check.max_degree"],
        },
        "swell_attribution": {
            name: swell[name] for name in (
                "traced_pass_s", "structures.vaisman_check.total_s",
                "structures.Metric.pair.total_s", "scalars.Poly.mul.self_s")},
        "excluded_from_cli": time_excluded(),
    }
    with open(run.BENCH / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, entry in e2e.items():
        for name, ratio in entry["second_median_over_first"].items():
            spreads = [s[name]["spread"] for s in entry["sets"]]
            print(f"{w:6} {name:12} spreads "
                  f"{' '.join(f'{x:.3f}' for x in spreads)}, "
                  f"second median / first {ratio:.3f}")


if __name__ == "__main__":
    main()
