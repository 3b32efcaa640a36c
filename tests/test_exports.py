"""The package's export lists agree with what its modules define."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import circembed
from circembed.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(circembed.__path__))


def _package_imports() -> dict:
    """name -> submodule it is imported from, per `from .x import ...` in
    the package's __init__."""
    tree = ast.parse(inspect.getsource(circembed))
    return {alias.asname or alias.name: node.module
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module
            for alias in node.names}


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"circembed.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_are_exported_by_their_modules():
    assert [n for n in circembed.__all__ if not hasattr(circembed, n)] == []
    source = _package_imports()
    unlisted = []
    for n in circembed.__all__:
        if n not in source:  # defined in the package itself
            continue
        module = importlib.import_module(f"circembed.{source[n]}")
        if n not in getattr(module, "__all__", ()):
            unlisted.append(f"{source[n]}.{n}")
    assert unlisted == []


def test_every_export_is_named_in_the_readme():
    readme = README.read_text()
    assert [n for n in circembed.__all__ if n != "__version__"
            and not re.search(rf"\b{re.escape(n)}\b", readme)] == []


def _subcommand_options(parser) -> set:
    """Every long option of every subcommand under `parser`, --help aside."""
    found = set()
    for action in parser._actions:
        if isinstance(action.choices, dict):  # the subcommands
            for sub in action.choices.values():
                found.update(o for a in sub._actions for o in a.option_strings
                             if o.startswith("--") and o != "--help")
                found |= _subcommand_options(sub)
    return found


def test_every_long_option_is_named_in_the_readmes_command_line():
    section = README.read_text().split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    options = _subcommand_options(build_parser())
    assert "--threads" in options
    assert sorted(o for o in options
                  if not re.search(rf"{re.escape(o)}(?![\w-])", section)) == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_imports() -> list:
    """(module, name) for every `from circembed... import name` in the
    benchmark's scripts, top level or inside a function."""
    return sorted({(node.module, alias.name)
                   for path in PERFBENCH.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom) and node.level == 0
                   and node.module.split(".")[0] == "circembed"
                   for alias in node.names})


def test_the_benchmark_imports_only_names_that_exist():
    imports = _perfbench_imports()
    assert ("circembed.sampler", "draw_normal") in imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
