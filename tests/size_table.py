"""The size-scaling table: ``check-vaisman`` on forms with growing
coefficients.

The seven documents are the shipped ones with one form added: on gl(2, R)
(mu1+mu2+1)^k * omega_std with J_mu for k = 1..4, on u(2)
(a+b+1)^k * e0^e1 + e2^e3 with J_ab for k = 4, 8, 12.  Each is written to a
temporary directory and run once through ``cli.main``; the table gives the
time, the output length (without the document path) and the exit code, as
Markdown.  It reports and gates nothing.

Run from the root of a checkout:

    PYTHONPATH=src python tests/size_table.py
"""

import contextlib
import io
import json
import os
import tempfile
import time

from lieform import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# (document, form, J); "{std}" stands for the document's omega_std
TABLE = [("gl2r", f"(mu1+mu2+1)^{k} * ({{std}})", "J_mu") for k in range(1, 5)]
TABLE += [("u2", f"(a+b+1)^{k} * e0^e1 + e2^e3", "J_ab") for k in (4, 8, 12)]


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


if __name__ == "__main__":
    main()
