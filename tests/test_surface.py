"""The library names that code outside ``src/`` relies on still resolve.

The benchmark under ``perfbench/`` drives the library from files that change
on their own schedule, so a library name it reads and the library drops
would otherwise show first as a failed benchmark run.  Here every
``flowident`` name a ``perfbench`` file imports, and every attribute read
off such a name, resolves without running the benchmark; so do the import
lines of the README's library example and every name the packages export.
The other way round, every public library name has a caller outside the
tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

import flowident
import flowident.ingest
from test_readme import README, fenced_blocks

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted((ROOT / "perfbench").rglob("*.py"))
# Library modules; the package __init__ files only re-export their names.
LIBRARY_FILES = sorted(path for path in (ROOT / "src" / "flowident").rglob("*.py")
                       if path.name != "__init__.py")

# Members perfbench reads off instances, whose class an AST walk cannot see.
INSTANCE_MEMBERS = {
    "flowident.classifier.ClassifierModel": ("classes",),
    "flowident.features.Dataset": ("vectors",),
    "flowident.flow.FlowRecord": ("total_packets",),
    "flowident.flow.PacketTable": ("__iter__",),
    "flowident.ingest.LabelFile": ("lookup",),
    "flowident.ingest.PcapReader": ("__iter__",),
}


def flowident_paths(source: str) -> set[str]:
    """Dotted paths such as ``flowident.flow.FlowAggregator`` that ``source``
    imports from ``flowident`` or reads as attributes of an imported name."""
    tree = ast.parse(source)
    bound = {}  # local name -> dotted path of what it names
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flowident":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "flowident":
                    bound[alias.asname or "flowident"] = alias.name if alias.asname else "flowident"
    paths = set(bound.values())
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in bound:
            paths.add(".".join((bound[base.id], *reversed(chain))))
    return paths


def resolve(path: str):
    """The object at a dotted path: its longest importable module prefix, then
    attributes; AttributeError when a part is missing."""
    parts = path.split(".")
    for end in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:end]))
            break
        except ModuleNotFoundError:
            continue
    else:
        raise ModuleNotFoundError(path)
    for attr in parts[end:]:
        target = getattr(target, attr)
    return target


def unresolved(paths) -> list[str]:
    missing = []
    for path in sorted(paths):
        try:
            resolve(path)
        except (AttributeError, ModuleNotFoundError):
            missing.append(path)
    return missing


def test_every_flowident_name_the_benchmark_reads_resolves():
    assert BENCH_FILES
    paths = {path for file in BENCH_FILES
             for path in flowident_paths(file.read_text(encoding="utf-8"))}
    assert "flowident.flow.FlowAggregator" in paths  # the walk sees imports
    assert "flowident.classifier.NIGPrior" in paths  # and module attributes
    assert unresolved(paths) == []


def test_every_instance_member_the_benchmark_reads_exists():
    source = "".join(file.read_text(encoding="utf-8") for file in BENCH_FILES)
    for owner, members in INSTANCE_MEMBERS.items():
        for member in members:
            assert member.startswith("__") or f".{member}" in source, f"{member}: no longer read"
            assert hasattr(resolve(owner), member), f"{owner}.{member}"


def test_readme_library_imports_resolve():
    [library] = fenced_blocks(README.read_text(encoding="utf-8"), "python")
    imports = [node for node in ast.parse(library).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(imports, type_ignores=[]), f"{README}: library use", "exec"), {})


@pytest.mark.parametrize("package", [flowident, flowident.ingest], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def referenced_names(source: str) -> set[str]:
    """Every name ``source`` loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_library_name_has_a_caller_outside_the_tests():
    """A top-level public def or class that only tests reach leaves the library."""
    [library] = fenced_blocks(README.read_text(encoding="utf-8"), "python")
    callers = [file.read_text(encoding="utf-8")
               for file in (*LIBRARY_FILES, *BENCH_FILES, ROOT / "tests" / "test_acceptance.py")]
    used = set().union(*map(referenced_names, (*callers, library)))
    public = {
        ".".join((*path.relative_to(ROOT / "src").with_suffix("").parts, node.name))
        for path in LIBRARY_FILES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(name for name in public if name.rsplit(".", 1)[1] not in used) == []
