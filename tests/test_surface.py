"""The public surface: what ``randsum`` exports, what the demos read of it,
and no module importing a name it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randsum

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted(
    [*(ROOT / "src" / "randsum").glob("*.py"), *(ROOT / "tests").glob("*.py"), *DEMOS]
)


def test_every_export_resolves_through_star_import():
    namespace = {}
    exec("from randsum import *", namespace)
    assert [name for name in randsum.__all__ if name not in namespace] == []
    assert len(set(randsum.__all__)) == len(randsum.__all__)


def randsum_names(tree: ast.Module) -> set:
    """Names read from ``randsum`` through an alias or ``from randsum import``."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "randsum"}
        elif isinstance(node, ast.ImportFrom) and node.module == "randsum":
            names |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_reads_only_exports(demo):
    names = randsum_names(ast.parse(demo.read_text(), str(demo)))
    assert names
    assert names - set(randsum.__all__) == set()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    package_root = os.path.dirname(os.path.dirname(randsum.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _annotation_names(node: ast.AST):
    """Names in an annotation, quoted ones included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from (n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                        if isinstance(n, ast.Name))


def unused_imports(source: str, filename: str = "<source>") -> list:
    """(line, name) of every imported name the module never reads.

    A name listed in the module's ``__all__`` counts as read: that is how
    the package's ``__init__`` re-exports.
    """
    tree = ast.parse(source, filename)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_every_kind_of_use():
    source = (
        "import os.path\n"
        "import json as js\n"
        "from typing import List, Optional\n"
        "from .x import exported, stray\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    return [js.dumps(a)]\n"
    )
    assert unused_imports(source) == [(1, "os"), (4, "stray")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), str(path)) == []


def private_definitions(tree: ast.Module):
    """(name, node) of every private function, class, method and module
    constant; dunder names are not private."""

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if private(node.name):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and private(sub.name):
                        yield sub.name, sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and private(target.id):
                    yield target.id, target


def name_reads(tree: ast.Module, skip: ast.AST):
    """Names read in ``tree`` outside the subtree ``skip``: loaded names,
    attributes and string constants, but not the entries of ``__all__``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        stack.extend(ast.iter_child_nodes(node))


PACKAGE = {
    path: ast.parse(path.read_text(), str(path))
    for path in sorted((ROOT / "src" / "randsum").glob("*.py"))
}


def test_private_definition_check_sees_self_reads_and_exports():
    tree = ast.parse(
        "__all__ = ['_exported']\n"
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "def _exported(): pass\n"
        "def _recursive(k): return _recursive(k - 1)\n"
        "class _Box:\n"
        "    def _by_name(self): pass\n"
        "    def _by_attribute(self): pass\n"
        "    def run(self): return self._by_attribute(), getattr(self, '_by_name'), _USED\n"
    )
    unread = [
        name for name, node in private_definitions(tree) if name not in set(name_reads(tree, node))
    ]
    assert unread == ["_UNUSED", "_exported", "_recursive", "_Box"]


@pytest.mark.parametrize("path", sorted(PACKAGE), ids=lambda p: p.name)
def test_every_private_definition_is_read_in_the_package(path):
    unread = [
        f"{node.lineno}: {name}"
        for name, node in private_definitions(PACKAGE[path])
        if not any(name in set(name_reads(tree, node)) for tree in PACKAGE.values())
    ]
    assert unread == []


# the modules that draw: the laws themselves, and the engine's samplers,
# which hold the sampling contract (see the engine's module docstring)
DRAWING_MODULES = {"distributions.py", "engine.py"}


def sample_calls(tree: ast.Module) -> list:
    """Line of every call of a ``.sample`` attribute."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sample"
    )


def test_sample_call_check_sees_every_call_form():
    tree = ast.parse(
        "law.sample(rng, 4)\n"
        "total += self.base.sample(rng, size=size)\n"
        "sample(rng)\n"
        "draw = law.sample\n"
    )
    assert sample_calls(tree) == [1, 2]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE) if p.name not in DRAWING_MODULES], ids=lambda p: p.name
)
def test_only_the_laws_and_the_engine_draw(path):
    assert sample_calls(PACKAGE[path]) == []


def package_imports(tree: ast.Module) -> set:
    """Package modules a module of ``randsum`` imports, at module level or
    inside a function, as names relative to the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name[len("randsum."):] for a in node.names
                      if a.name.startswith("randsum.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("randsum"):
                module = module[len("randsum"):].lstrip(".")
            elif node.level == 0:
                continue
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {a.name for a in node.names}
    return found


def test_package_import_check_sees_every_form():
    tree = ast.parse(
        "import numpy\n"
        "from .arrays import take\n"
        "from . import conditions as c\n"
        "import randsum.cli\n"
        "def f():\n"
        "    from randsum.engine import DISTANCES\n"
        "    from randsum import metrics\n"
    )
    assert package_imports(tree) == {"arrays", "conditions", "cli", "engine", "metrics"}


def test_metrics_does_not_import_the_sampler():
    # the exact distances stay free of the engine's Monte Carlo
    assert "engine" not in package_imports(PACKAGE[ROOT / "src" / "randsum" / "metrics.py"])
