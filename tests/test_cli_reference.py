"""Every CLI call recorded in tests/data/cli_reference.json prints the same
bytes and exits with the same code as when it was recorded.

The ``--at`` calls specialise the shipped documents at seeded points: full
points (with a metric signature), partial points (results over the
remaining parameters), a point on a denominator locus (``a=0,b=0``) and an
unknown parameter name.  ``tests/record_cli_reference.py`` re-records them.
"""

import json
import os

import pytest

from lieform import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "tests", "data", "cli_reference.json"),
          encoding="utf-8") as fh:
    CALLS = json.load(fh)["cli"]


@pytest.mark.parametrize("call", sorted(CALLS))
def test_cli_output_matches_reference(call, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the recorded calls use repo-relative paths
    code = cli.main(call.split())
    assert code == CALLS[call]["code"]
    assert capsys.readouterr().out == CALLS[call]["out"]
