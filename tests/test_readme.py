"""The README's CLI walkthrough and library example run as written.

The spec JSON block is saved as ``spec.json`` and every ``flowident`` line of
the walkthrough's shell block, with ``\\`` continuations joined and comments
dropped, goes through ``flowident.cli.main`` in a fresh directory, twice, and
the two runs must write the same bytes.  The library example's ``python``
block then runs in the second directory, on the files the walkthrough wrote,
so a changed API shows up here.
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


def run_walkthrough(text: str, directory: Path, monkeypatch, capsys) -> dict[str, bytes]:
    """Every file the walkthrough leaves in ``directory``, by name."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    [spec] = fenced_blocks(text, "json")
    Path("spec.json").write_text(spec, encoding="utf-8")
    commands = walkthrough_commands(text)
    assert [args[0] for args in commands] == [
        "synth", "ingest", "select", "train", "classify", "evaluate", "update", "sample-report",
    ]
    for args in commands:
        assert main(args) == 0, (args, capsys.readouterr().err)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """Two runs in two directories write the same bytes to every file: the
    outputs are a function of the inputs and seeds alone."""
    text = README.read_text(encoding="utf-8")
    first = run_walkthrough(text, tmp_path / "first", monkeypatch, capsys)
    second = run_walkthrough(text, tmp_path / "second", monkeypatch, capsys)
    assert {"model.json", "model2.json", "degradation.json"} <= set(first)
    assert first == second
    [library] = fenced_blocks(text, "python")
    exec(compile(library, f"{README}: library use", "exec"), {"__name__": "readme"})
    assert "bulk" in capsys.readouterr().out
