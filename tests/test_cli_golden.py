"""Golden CLI transcripts: argv -> (exit code, stdout, stderr), byte for byte.

cli_golden.json holds the polynomial files the commands read and one
entry per command.  Every command runs in-process in a directory that
holds just those files.  After a deliberate output change, rewrite the
recorded outputs with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the argv of every entry whose code, stdout or stderr
changed (a new entry counts as changed); review those in the data
file's diff entry by entry.  A new command is added as an entry with
just its "argv" and recorded by the same run.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from sphereint.cli import main

DATA = pathlib.Path(__file__).with_name("cli_golden.json")
GOLDEN = json.loads(DATA.read_text(encoding="utf-8"))


def _write_files(directory):
    for name, text in GOLDEN["files"].items():
        pathlib.Path(directory, name).write_text(text, encoding="utf-8")


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: "_".join(c["argv"]))
def test_cli_golden(case, tmp_path, monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = {k: case[k] for k in ("code", "stdout", "stderr")}
    assert _capture(case["argv"]) == expected


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("case", [c for c in GOLDEN["cases"] if "--json" in c["argv"]],
                         ids=lambda c: "_".join(c["argv"]))
def test_golden_json_is_strict(case):
    # every recorded --json report parses without NaN or Infinity
    if case["stdout"]:
        report = json.loads(case["stdout"], parse_constant=_refuse_constant)
        assert isinstance(report, dict)


if __name__ == "__main__":
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(tmp)
        os.chdir(tmp)
        try:
            for case in GOLDEN["cases"]:
                new = _capture(case["argv"])
                if any(case.get(k) != v for k, v in new.items()):
                    sys.stdout.write("changed: " + " ".join(case["argv"]) + "\n")
                case.update(new)
        finally:
            os.chdir(cwd)
    DATA.write_text(json.dumps(GOLDEN, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(GOLDEN['cases'])} cases to {DATA}\n")
