"""No module of the package or of the suite imports a name it never reads,
no package function is named nowhere, and every package function the
benchmark's tracer hooks exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names read by annotations, quoted ones included."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    names = set()
    for note in filter(None, notes):
        for sub in ast.walk(note):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    sub = ast.parse(sub.value, mode="eval")
                except SyntaxError:     # a Literal["..."] value, not a name
                    continue
            names |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name `path` imports but never reads, neither
    in code, nor in an annotation, nor through `__all__`."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= _annotation_names(tree) | _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    paths = sorted([*ROOT.glob("src/xmodgerbe/*.py"), *ROOT.glob("tests/*.py"),
                    *ROOT.glob("tools/*.py")])
    assert paths
    assert [f"{p.relative_to(ROOT)}:{line}: {name}"
            for p in paths for line, name in unused_imports(p)] == []


def _named(tree: ast.Module) -> set[str]:
    """Every name, attribute and string constant of `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unnamed_functions(defining: list[Path], reading: list[Path]) -> list[str]:
    """Each function or non-dunder method defined in `defining` whose name
    no file of `reading` uses as a name, an attribute or a string, as
    "file:line: name"."""
    named = set()
    for path in reading:
        named |= _named(ast.parse(path.read_text(), str(path)))
    out = []
    for path in defining:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))
                    and node.name not in named):
                out.append(f"{path.name}:{node.lineno}: {node.name}")
    return out


def test_no_package_function_is_named_nowhere():
    # a function of the package that neither the package, the suite, the
    # benchmark nor the tools name is dead code
    defining = sorted(ROOT.glob("src/xmodgerbe/*.py"))
    reading = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py"),
                      *ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")])
    assert defining
    assert unnamed_functions(defining, reading) == []


def test_the_guard_sees_an_unnamed_function(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "class A:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def read(self):\n"
        "        return self.called()\n"
        "    def called(self):\n"
        "        return hooked\n"
        "    def dead(self):\n"
        "        return 1\n"
        "def hooked():\n"
        "    return getattr(A, 'read')\n")
    assert unnamed_functions([src], [src]) == ["probe.py:8: dead"]


def test_tracer_hooks_name_package_functions():
    # perfbench/tracer.py wraps each (module, function) of its HOOKS with
    # getattr, so a renamed or removed function fails every traced run
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    hooks = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"])
    named = [tuple(ast.literal_eval(part) for part in hook.elts[:2])
             for hook in hooks.elts]
    assert ("gerbe", "enumerate_cocycles") in named
    assert [f"{module}.{fn}" for module, fn in named
            if not callable(getattr(importlib.import_module(
                f"xmodgerbe.{module}"), fn, None))] == []


def test_tracer_install_resolves_every_hook():
    # the tracer's own install() reads each hook with getattr and no
    # default; it runs in a child, so the suite's modules stay unwrapped
    code = (
        "import importlib.util, sys, xmodgerbe\n"
        "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "tracer.Tracer('probe').install(xmodgerbe)\n"
        "for module, name, *_ in tracer.HOOKS:\n"
        "    fn = getattr(importlib.import_module('xmodgerbe.' + module), name)\n"
        "    print(module, name, hasattr(fn, '__wrapped__'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code,
                          str(ROOT / "perfbench" / "tracer.py")],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) >= 20
    assert [line for line in lines if not line.endswith(" True")] == []


def test_the_guard_sees_an_unused_import(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import json, os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "    from fractions import Fraction\n"
        "from math import pi, tau\n"
        "__all__ = ['pi']\n"
        "def f(x: Decimal) -> 'Fraction':\n"
        "    return os.sep\n")
    assert unused_imports(src) == [(2, "json"), (7, "tau")]
