"""Re-record tests/data/cli_reference.json, the CLI golden.

Run from the root of a checkout:

    PYTHONPATH=src python tests/record_cli_reference.py ['CALL' ...]

Every call already in the file is run again, and each CALL given (the
words after ``lieform``, as one argument) is added.  The changed lines of
each changed call are printed as ``-``/``+`` pairs.
"""

import contextlib
import difflib
import io
import json
import sys

from lieform import cli

GOLDEN = "tests/data/cli_reference.json"


def record(call):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(call.split())
    return {"code": code, "out": out.getvalue()}


def lines(entry):
    return [f"exit code {entry['code']}", *entry["out"].splitlines()]


def main(new_calls):
    with open(GOLDEN, encoding="utf-8") as fh:
        calls = json.load(fh)["cli"]
    for call in sorted(set(calls) | set(new_calls)):
        old, calls[call] = calls.get(call), record(call)
        if old != calls[call]:
            print(f"{call}:")
            diff = difflib.unified_diff(lines(old) if old else [],
                                        lines(calls[call]), n=0, lineterm="")
            print(*(ln for ln in list(diff)[2:] if not ln.startswith("@@")),
                  sep="\n")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"cli": calls}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
