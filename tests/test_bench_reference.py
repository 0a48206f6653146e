"""The benchmark's copy of the CLI references cannot drift from the CLI
golden: every call in the ``cli`` section of bench/reference.json is in
tests/data/cli_reference.json with the same exit code, and the two outputs
agree under the benchmark's own oracle (bench/oracle.py), which compares
verdicts exactly and values rather than bytes.

Delete this test once the benchmark reads its references from the golden.
"""

import importlib.util
import json
import os

import pytest

from lieform import document

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_oracle", os.path.join(ROOT, "bench", "oracle.py"))
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def load_cli(*path):
    with open(os.path.join(ROOT, *path), encoding="utf-8") as fh:
        return json.load(fh)["cli"]


BENCH = load_cli("bench", "reference.json")
GOLDEN = load_cli("tests", "data", "cli_reference.json")
# the documents whose algebra the benchmark parses details against
ALGEBRAS = {path: document.load(os.path.join(ROOT, path)).build_algebra()
            for path in ("tests/data/u2.json", "tests/data/gl2r.json")}


@pytest.mark.parametrize("call", sorted(BENCH))
def test_bench_reference_agrees_with_the_golden(call):
    assert call in GOLDEN
    ref, out = BENCH[call], GOLDEN[call]
    assert out["code"] == ref["code"]
    argv = call.split()
    if "--emit" in argv:
        oracle.compare_document(ref["out"], out["out"])
    elif "json" in argv:
        oracle.compare_json_report(ref["out"], out["out"],
                                   ALGEBRAS.get(argv[1]))
    else:
        oracle.compare_text(ref["out"], out["out"], ALGEBRAS.get(argv[1]))
