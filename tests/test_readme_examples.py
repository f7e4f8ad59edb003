"""Every `polydet` line of the README's CLI usage block runs and exits 0,
and its JSON output is strict JSON (no NaN or Infinity).

The lines run in order in one scratch directory, so the zero-table export
comes before its import."""
import json
import re
import shlex
from pathlib import Path

from polydet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _usage_lines() -> list[str]:
    text = README.read_text()
    block = re.search(r"\n## CLI\n.*?\n```\n(.*?)\n```", text, re.S).group(1)
    return [ln.strip() for ln in block.splitlines()
            if ln.strip().startswith("polydet ")]


def test_readme_usage_lines_exit_zero(tmp_path, monkeypatch, capsys):
    lines = _usage_lines()
    assert len(lines) >= 15
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = main(shlex.split(line)[1:])
        err = capsys.readouterr().err
        assert code == 0, f"{line!r} exited {code}: {err}"


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_readme_usage_lines_print_strict_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for line in _usage_lines():
        # the last --format wins
        code = main(shlex.split(line)[1:] + ["--format", "json"])
        captured = capsys.readouterr()
        assert code == 0, f"{line!r} exited {code}: {captured.err}"
        records = json.loads(captured.out, parse_constant=_reject_constant)
        assert records, line
