"""Every `ziclab` line of README's Command line block runs in-process, with
its report written under tmp_path: it exits 0, says nothing on stderr, and
writes strict JSON (or, with --format csv, a CSV table)."""

import csv
import json
import shlex
from pathlib import Path

import pytest

from ziclab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The `ziclab ...` lines of the first sh block after '## Command line'."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line.strip() for line in block.splitlines() if line.strip().startswith("ziclab ")]


def reject_non_finite(text):
    raise ValueError(f"non-finite JSON constant {text}")


def test_readme_runs_every_subcommand():
    assert len({shlex.split(line)[1] for line in readme_commands()}) == 14


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    if "--output" in argv:
        i = argv.index("--output")
        del argv[i : i + 2]
    report = tmp_path / "report"
    assert main([*argv, "--output", str(report)]) == 0
    assert capsys.readouterr() == ("", "")
    text = report.read_text()
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        rows = list(csv.DictReader(text.splitlines()))
        assert rows and all(rows[0].values())
    else:
        payload = json.loads(text, parse_constant=reject_non_finite)
        assert set(payload) == {"config", "results", "checks"}
