"""The README's CLI walkthrough and library example run as written.

The spec JSON block is saved as ``spec.json`` and every ``flowident`` line of
the walkthrough's shell block, with ``\\`` continuations joined and comments
dropped, goes through ``flowident.cli.main`` in a fresh directory.  The
library example's ``python`` block then runs in that directory, on the files
the walkthrough wrote, so a changed API shows up here.
"""

import re
import shlex
from pathlib import Path

from flowident.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def walkthrough_commands(text: str) -> list[list[str]]:
    [script] = [b for b in fenced_blocks(text, "sh") if "flowident synth" in b]
    lines = script.replace("\\\n", " ").splitlines()
    return [
        shlex.split(line)[1:]
        for line in lines
        if line.strip().startswith("flowident ")
    ]


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    [spec] = fenced_blocks(text, "json")
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(spec, encoding="utf-8")
    commands = walkthrough_commands(text)
    assert [args[0] for args in commands] == [
        "synth", "ingest", "select", "train", "classify", "evaluate", "update", "sample-report",
    ]
    for args in commands:
        assert main(args) == 0, (args, capsys.readouterr().err)
    [library] = fenced_blocks(text, "python")
    exec(compile(library, f"{README}: library use", "exec"), {"__name__": "readme"})
    assert "bulk" in capsys.readouterr().out
