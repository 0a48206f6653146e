"""The size-scaling table: ``check-vaisman`` on forms with growing
coefficients, and the cost of each catalog suite's signature census.

The seven documents are the shipped ones with one form added: on gl(2, R)
(mu1+mu2+1)^k * omega_std with J_mu for k = 1..4, on u(2)
(a+b+1)^k * e0^e1 + e2^e3 with J_ab for k = 4, 8, 12.  Each is written to a
temporary directory and run once through ``cli.main``; the table gives the
time, the output length (without the document path) and the exit code, as
Markdown.  A second table runs each catalog suite in-process and gives the
median time of a run, the part of it spent in the lattice censuses of the
metric's signature (``catalog._check_census``) and their sample count.
Both tables report and gate nothing.

Run from the root of a checkout:

    PYTHONPATH=src python tests/size_table.py
"""

import contextlib
import io
import json
import os
import statistics
import tempfile
import time

from lieform import catalog, cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# (document, form, J); "{std}" stands for the document's omega_std
TABLE = [("gl2r", f"(mu1+mu2+1)^{k} * ({{std}})", "J_mu") for k in range(1, 5)]
TABLE += [("u2", f"(a+b+1)^{k} * e0^e1 + e2^e3", "J_ab") for k in (4, 8, 12)]

SUITE_RUNS = 5  # runs of each suite, after one warm-up run


def swell_document(directory, name, form):
    """Path of a copy of the shipped document ``name`` written to
    ``directory``, with ``form`` added as omega_swell."""
    with open(os.path.join(DATA, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["forms"]["omega_swell"] = form.format(std=doc["forms"]["omega_std"])
    path = os.path.join(directory, f"{name}_swell.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def main():
    print("| document | omega_swell | J | time (s) | output chars | exit |")
    print("|---|---|---|---:|---:|---:|")
    with tempfile.TemporaryDirectory() as tmp:
        for name, form, J in TABLE:
            path = swell_document(tmp, name, form)
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(["check-vaisman", path, "omega_swell", J])
            elapsed = time.perf_counter() - start
            chars = len(out.getvalue().replace(path, ""))
            print(f"| {name} | `{form.format(std='omega_std')}` | {J} "
                  f"| {elapsed:.3f} | {chars:,} | {code} |")


def census_run(name):
    """(time, census time, census samples) of one in-process run of the
    catalog suite ``name``."""
    census = catalog._check_census
    seen = {"time": 0.0, "samples": 0}

    def timed(rep, label, metric, points, agrees):
        start = time.perf_counter()
        census(rep, label, metric, points, agrees)
        seen["time"] += time.perf_counter() - start
        seen["samples"] += len(points)

    catalog._check_census = timed
    try:
        start = time.perf_counter()
        catalog.run_suite(name)
        elapsed = time.perf_counter() - start
    finally:
        catalog._check_census = census
    return elapsed, seen["time"], seen["samples"]


def suite_table():
    print("| suite | time (ms) | census time (ms) | census samples |")
    print("|---|---:|---:|---:|")
    for name in catalog.SUITES:
        runs = [census_run(name) for _ in range(SUITE_RUNS + 1)][1:]
        elapsed = statistics.median(r[0] for r in runs)
        in_census = statistics.median(r[1] for r in runs)
        print(f"| {name} | {elapsed * 1e3:.1f} | {in_census * 1e3:.1f} "
              f"| {runs[0][2]} |")


if __name__ == "__main__":
    main()
    print()
    suite_table()
