"""The two ``check-vaisman`` calls on tests/data/gl2r.json that the
benchmark's ``cli`` workload leaves out (``bench/workloads.EXCLUDED_CLI``)
print the bytes and exit with the codes recorded in
tests/data/vaisman_reference.json."""

import json
import os

import pytest

from lieform import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "tests", "data", "vaisman_reference.json"),
          encoding="utf-8") as fh:
    CALLS = json.load(fh)["cli"]


@pytest.mark.parametrize("call", sorted(CALLS))
def test_vaisman_call_matches_reference(call, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the recorded calls use repo-relative paths
    code = cli.main(call.split())
    assert code == CALLS[call]["code"]
    assert capsys.readouterr().out == CALLS[call]["out"]
