"""Reproduce the compact-case classification by exact computation.

The suite verifies, over the rational-function field in the family
parameters, that the standard structure on u(2) is Vaisman for the whole
complex-structure family, that its metric is definite exactly when b < 0,
and that the exceptional member admits only the standard form as a Vaisman
structure.

Run:  python3 demos/02_classification.py            (about 0.3 s)
      python3 demos/02_classification.py gl2        (the non-compact case,
                                                     about 0.4 s)
"""

import sys

from lieform.catalog import run_suite

name = "u2_classification"
if len(sys.argv) > 1 and sys.argv[1].startswith("gl2"):
    name = "gl2_classification"

report = run_suite(name)
print(report.to_text())
sys.exit(0 if report.ok else 1)
