"""Record the references that the benchmark's outputs are checked against.

Run from the root of a checkout, only when a change of output is intended:

    python3 bench/record_reference.py

It writes ``bench/reference.json``: exit code and output of every fixed
CLI call (including the swell suite), and for each ``check-lck --at``
family the symbolic report and metric matrix from which the expected report
at a seeded point is derived.  The suite ``gl2_classification`` makes this
take about a minute.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    run.prepare_checkout()
    from lieform import document, structures
    from workloads import FIXED_CLI, LCK_FAMILIES, SWELL_ARGV, key, run_cli

    refs = {"cli": {}, "lck": {}}
    for argv in FIXED_CLI + [SWELL_ARGV]:
        code, out, _ = run_cli(argv)
        refs["cli"][key(argv)] = {"code": code, "out": out}
    for family, (path, argv) in LCK_FAMILIES.items():
        code, out, _ = run_cli(argv)
        if code != 0:
            sys.exit(f"{key(argv)} exited with {code}")
        doc = document.load(path)
        g = doc.build_algebra()
        J = structures.ComplexStructure(g, doc.build_endo(argv[3], g))
        convention = "thm" if "--convention=thm" in argv else "def"
        lck = structures.assemble_lck(g, doc.build_form(argv[2], g), J,
                                      convention)
        refs["lck"][family] = {
            "out": out,
            "metric": [[str(c) for c in row] for row in lck.metric.matrix]}
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
