"""Reproduce the compact-case classification by exact computation.

The suite verifies, over the rational-function field in the family
parameters, that the standard structure on u(2) is Vaisman for the whole
complex-structure family and that its metric is definite exactly when
b < 0.  The exceptional member J_01 carries no lcK metric: its metric has
signature (2, 2) at every census sample, so the structure is
pseudo-Hermitian, with a parallel Lee field only for the standard form.

Run:  python3 demos/02_classification.py            (about 0.15 s, most of
                                                     it interpreter start-up)
      python3 demos/02_classification.py gl2        (the non-compact case,
                                                     about 0.15 s)
"""

import sys

from lieform.catalog import run_suite

name = "u2_classification"
if len(sys.argv) > 1 and sys.argv[1].startswith("gl2"):
    name = "gl2_classification"

report = run_suite(name)
print(report.to_text())
sys.exit(0 if report.ok else 1)
