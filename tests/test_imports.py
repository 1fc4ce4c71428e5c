"""Import guards: the runtime is pure standard library, no module imports a
name it never uses, the mining model stays free of the heuristic, index
and metrics layers, the metrics stay free of the heuristics, ingest and
the CLI's start-up load no analysis module and no index, the CLI starts
without ``dataclasses``, ``inspect`` or ``fractions``, no module imports
the CLI, and each command loads only the modules it runs."""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import anonset
from anonset import cli

PACKAGE = Path(anonset.__path__[0])
MODULES = sorted(PACKAGE.rglob("*.py"))
NAMES = [str(m.relative_to(PACKAGE)) for m in MODULES]


def imported_roots(source: str) -> set[str]:
    """Top-level names of every absolute import in ``source``."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def unused_imports(source: str) -> set[str]:
    """Names bound by an import in ``source`` that no expression reads;
    ``__future__`` features are not names."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def loaded_after(statement: str) -> list[str]:
    """The ``anonset.*`` modules a fresh interpreter holds after ``statement``."""
    code = (f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{statement}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('anonset.'))))\n")
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True).stdout.split()


@pytest.mark.parametrize("module", MODULES, ids=NAMES)
def test_module_imports_only_stdlib_or_relative(module):
    foreign = imported_roots(module.read_text()) - sys.stdlib_module_names
    assert not foreign, f"{module.name} imports {sorted(foreign)}"


@pytest.mark.parametrize("module", MODULES, ids=NAMES)
def test_module_uses_every_import(module):
    unused = unused_imports(module.read_text())
    assert not unused, f"{module.name} never uses {sorted(unused)}"


def test_unused_import_is_found():
    source = "import json\nfrom typing import Any, Callable\nimport os.path\nx: Any = json\n"
    assert unused_imports(source) == {"Callable", "os"}


def source_tokens(source: str) -> int:
    """The tokens of ``source`` but its comments and blank lines."""
    skipped = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
    return sum(1 for token in tokenize.tokenize(io.BytesIO(source.encode()).readline)
               if token.type not in skipped)


# The power-of-two token step under which each module a data command
# compiles sits.  When no bytecode cache is written, a command compiles each
# of its modules, and CPython's parser doubles its token array as a module's
# count passes a power of two: 0.12-0.25 MB more peak memory on every command
# that compiles it (CHANGES.md, the FOUND lines on token steps).  A change
# that crosses a step raises its limit here and says so.
TOKEN_STEPS = {
    "cli.py": 1024, "commands/__init__.py": 1024, "errors.py": 512,
    "dataset.py": 4096, "ledger.py": 4096, "lines.py": 512, "rows.py": 1024,
    "heuristics.py": 2048, "indexing.py": 2048, "metrics.py": 2048,
    "mining.py": 2048, "groundtruth.py": 2048,
    "commands/anonymity.py": 1024, "commands/clusters.py": 512,
    "commands/relayers.py": 256, "commands/flows.py": 512, "commands/flags.py": 512,
    "commands/am_link.py": 1024, "commands/validate.py": 1024,
}


def module_file(name: str) -> str:
    """The file of module ``anonset.<name>``, relative to the package."""
    path = name.replace(".", "/")
    return f"{path}/__init__.py" if (PACKAGE / path).is_dir() else f"{path}.py"


def test_cli_stays_below_the_parsers_token_step():
    assert source_tokens("x = f(1)  # one\n\n") == 8
    compiled = {module_file(m) for command, modules in COMMAND_MODULES.items()
                if command != "synth"
                for m in [*COMMON, *modules, f"commands.{command.replace('-', '_')}"]}
    assert compiled == set(TOKEN_STEPS)
    for name, step in TOKEN_STEPS.items():
        assert source_tokens((PACKAGE / name).read_text()) < step, name


ANALYSIS = ("anonset.heuristics", "anonset.metrics", "anonset.mining",
            "anonset.groundtruth", "anonset.synth")


def imported_modules(module: Path) -> set[str]:
    """Every module ``module``'s imports name, made absolute: each
    ``from X import y`` names both ``X`` and ``X.y``, which may be a module."""
    package = ".".join(module.relative_to(PACKAGE.parent).with_suffix("").parts)
    if module.name != "__init__.py":
        package = package.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_imported_modules_are_made_absolute():
    assert imported_modules(PACKAGE / "commands" / "am_link.py") >= {
        "anonset", "anonset.mining", "anonset.errors", "anonset.ledger.DEPOSIT",
        "anonset.commands", "anonset.commands._write_report"}


def test_no_module_imports_the_cli():
    # under ``python -m anonset.cli`` the CLI runs as ``__main__``, so an
    # import of ``anonset.cli`` would compile and run it a second time
    for module in MODULES:
        assert "anonset.cli" not in imported_modules(module), module.name


@pytest.mark.parametrize("module,layers", [
    ("anonset.mining", ("anonset.heuristics", "anonset.indexing", "anonset.metrics")),
    ("anonset.metrics", ("anonset.heuristics",)),
    ("anonset.dataset", (*ANALYSIS, "anonset.indexing")),
    ("anonset.cli", (*ANALYSIS, "anonset.indexing")),
], ids=["mining", "metrics", "dataset", "cli"])
def test_module_loads_no_analysis_layer(module, layers):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    for layer in layers:
        assert layer not in loaded


def test_package_loads_no_module():
    assert loaded_after("import anonset") == []


def test_cli_start_up_generates_no_code():
    # a bare interpreter's own modules are left out, so a site hook that
    # loads dataclasses or inspect itself cannot fail this test
    code = (f"import sys\nbare = set(sys.modules)\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
            "import anonset.cli\nprint(' '.join(sorted(set(sys.modules) - bare)))\n")
    added = subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True).stdout.split()
    assert "anonset.cli" in added
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(added)


# each command's modules besides its own module and the ones every command
# loads; ``synth`` writes a dataset, so it compiles no ingest code
COMMON = ["cli", "commands", "errors", "ledger"]
INGEST = ["dataset", "lines", "rows"]
COMMAND_MODULES = {
    "synth": ["mining", "synth"],
    "anonymity": [*INGEST, "heuristics", "indexing", "metrics"],
    "clusters": [*INGEST, "heuristics", "indexing", "metrics"],
    "relayers": [*INGEST, "metrics"],
    "flows": [*INGEST, "indexing"],
    "flags": [*INGEST, "metrics"],
    "am-link": [*INGEST, "mining"],
    "validate": [*INGEST, "groundtruth", "heuristics", "indexing", "metrics"],
}


def test_each_command_loads_only_its_modules(tmp_path):
    data, out = str(tmp_path / "data"), str(tmp_path / "out")

    def run(*argv: str) -> list[str]:
        # the command's own printing is kept off the list; fractions and
        # decimal join it when loaded
        return loaded_after(
            "import contextlib, io\nfrom anonset import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == 0\n"
            "print(*sorted({'fractions', 'decimal'} & set(sys.modules)))")

    (commands,) = [a.choices for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(COMMAND_MODULES)
    extra = {"anonymity": ["--tas"], "validate": ["--gt", "airdrop"]}
    for command, modules in COMMAND_MODULES.items():
        if command == "synth":
            argv = ["synth", "--out", data, "--profile", "mixed", "--users", "20",
                    "--blocks", "600"]
        else:
            argv = [command, *extra.get(command, []), "--data", data, "--out", out]
        loaded = run(*argv)
        own = f"commands.{command.replace('-', '_')}"
        assert [m for m in loaded if m.startswith("anonset.")] == sorted(
            f"anonset.{m}" for m in COMMON + modules + [own]), command
        # one command's module, and no other's
        assert [m for m in loaded if m.startswith("anonset.commands.")] == [f"anonset.{own}"]
        # the two commands that take no ratio load neither fractions nor decimal
        if command in ("flows", "am-link"):
            assert all(m.startswith("anonset.") for m in loaded), loaded
