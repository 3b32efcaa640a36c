"""The sampling path loads no theory-only dependency, and every file the
package writes goes through `formats`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circembed

# each loads scipy.linalg; only the theory diagnostics in `analysis` use them
THEORY_ONLY = ("scipy.integrate", "scipy.optimize", "scipy.linalg")
PACKAGE = Path(circembed.__file__).resolve().parent


def test_importing_the_cli_loads_no_theory_only_module():
    src = str(PACKAGE.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, circembed.cli; "
            f"print([m for m in {THEORY_ONLY!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def _write_call(call: ast.Call):
    """What `call` does to a file, if it writes or replaces one: "replace"
    for os.replace or os.rename, "write" for os.open, write_text,
    write_bytes and an open whose mode writes (or is not a literal)."""
    func = call.func
    attr = func.attr if isinstance(func, ast.Attribute) else None
    on_os = isinstance(func, ast.Attribute) \
        and isinstance(func.value, ast.Name) and func.value.id == "os"
    if on_os and attr in ("replace", "rename"):
        return "replace"
    if on_os and attr == "open" or attr in ("write_text", "write_bytes"):
        return "write"
    if isinstance(func, ast.Name) and func.id == "open" or attr == "open":
        at = 1 if isinstance(func, ast.Name) else 0
        mode = next((k.value for k in call.keywords if k.arg == "mode"),
                    call.args[at] if len(call.args) > at else None)
        reads = mode is None or (isinstance(mode, ast.Constant)
                                 and isinstance(mode.value, str)
                                 and set(mode.value).isdisjoint("wax+"))
        return None if reads else "write"
    return None


def _file_writes(tree) -> list:
    """(innermost enclosing function, "write" or "replace") for each call
    in `tree` that writes or replaces a file, and ("import", name) for
    `from os import` of a name these calls are found by."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (what := _write_call(child)):
                found.append((func, what))
            if isinstance(child, ast.ImportFrom) and child.module == "os":
                found.extend(("import", a.name) for a in child.names
                             if a.name in ("open", "replace", "rename"))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("source,found", [
    ("open(p, 'w')", [(None, "write")]),
    ("def f(p):\n    return open(p, mode='a+')", [("f", "write")]),
    ("p.open('wb')", [(None, "write")]),
    ("open(p, m)", [(None, "write")]),
    ("os.open(p, os.O_WRONLY)", [(None, "write")]),
    ("p.write_text(s); p.write_bytes(b)", [(None, "write"), (None, "write")]),
    ("def g():\n    def h():\n        os.replace(a, b)", [("h", "replace")]),
    ("os.rename(a, b)", [(None, "replace")]),
    ("from os import cpu_count, replace", [("import", "replace")]),
    ("open(p); open(p, 'rb'); p.open(); s.replace('a', 'b')", []),
])
def test_the_write_finder_finds_writes(source, found):
    assert _file_writes(ast.parse(source)) == found


def test_only_formats_writes_files_and_only_replacing_replaces_them():
    writes = {path.stem: _file_writes(ast.parse(path.read_text()))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: found for stem, found in writes.items()
            if stem != "formats" and found} == {}
    assert [found for found in writes["formats"]
            if found[1] != "write"] == [("_replacing", "replace")]


def _constants(tree) -> set:
    """The UPPER_CASE names a module assigns at its top level."""
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.isupper():
                    names.add(name.id)
    return names


def _reads(tree) -> set:
    """The names `tree` reads, bare (`NAME`) or as attributes (`x.NAME`)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_the_constant_finder_sees_assignments_and_reads():
    tree = ast.parse("A = 1\nB: int = 2\nC, D = 3, 4\nlow = 5\n"
                     "def f():\n    E = 6\n    m.C = 7\n    return A + m.B\n")
    assert _constants(tree) == {"A", "B", "C", "D"}
    assert {"A", "B"} <= _reads(tree) and not {"C", "D", "E"} & _reads(tree)


def test_every_module_constant_is_read_in_the_package():
    # a tuning constant whose use was deleted is left behind as a knob
    # that does nothing
    trees = [ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))]
    constants = set().union(*map(_constants, trees))
    reads = set().union(*map(_reads, trees))
    assert len(constants) >= 20
    assert sorted(constants - reads) == []
