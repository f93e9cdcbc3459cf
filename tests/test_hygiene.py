"""Static checks over the package and test sources."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mfstop").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names never used as a name, except `__all__` and `__future__` ones."""
    imported, used, exported = {}, set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items())
        if name not in used and name not in exported
    ]


def test_the_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .measures import StopMap\n"
        "__all__ = ['StopMap']\n"
        "def f(x: Sequence) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Optional (line 4)", "np (line 3)"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in SOURCES
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def private_definitions(tree: ast.Module) -> dict:
    """Top-level `_`-prefixed, non-dunder functions, classes and constants."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found[name] = node
    return found


def references(node: ast.AST):
    """Every name that `node` reads, reaches as an attribute or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def unreferenced_private_names(sources: dict) -> list[str]:
    """Private top-level names that nothing outside their own definition names."""
    trees = {label: ast.parse(source) for label, source in sources.items()}
    total = Counter(name for tree in trees.values() for name in references(tree))
    return sorted(
        f"{label}: {name}"
        for label, tree in trees.items()
        for name, node in private_definitions(tree).items()
        if total[name] == sum(ref == name for ref in references(node))
    )


def test_the_private_scan_flags_only_names_nobody_uses():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "__version__ = '1'\n"
            "def _loop(n):\n"
            "    return _loop(n - 1) if n else 0\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "class _Kept:\n"
            "    pass\n"
        ),
        "b": "from .a import _helper\nimport a\nx = a._Kept\n",
    }
    assert unreferenced_private_names(sources) == ["a: _UNUSED", "a: _loop"]


def test_every_private_name_in_the_package_is_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unreferenced_private_names(sources) == []


def private_imports(source: str) -> list[str]:
    """`_`-prefixed, non-dunder names that `from ... import` brings in."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_the_import_scan_flags_only_private_names():
    source = (
        "from __future__ import annotations\n"
        "from . import __version__\n"
        "from .measures import StopMap, _merge_sorted\n"
        "import numpy as _np\n"
        "def f():\n"
        "    from .solver import _helper as helper\n"
    )
    assert private_imports(source) == ["_merge_sorted (line 3)", "_helper (line 6)"]


def test_no_module_imports_a_private_name_of_another():
    found = {
        path.name: names
        for path in PACKAGE
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def exported_names(tree: ast.Module) -> list[str]:
    """The names a module's `__all__` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def uses(node: ast.AST, by_string: bool):
    """Every name that `node` reads or reaches as an attribute, and with
    `by_string` every string constant; imports and `__all__` lists do not count."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif by_string and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def unused_exports(package: dict, bench: dict) -> list[str]:
    """`__all__` names of the package that no package or bench code uses
    outside the name's own definition; a bench string naming one counts."""
    trees = {label: ast.parse(source) for label, source in package.items()}
    total = Counter(name for tree in trees.values() for name in uses(tree, False))
    for source in bench.values():
        total.update(uses(ast.parse(source), True))
    found = []
    for label, tree in trees.items():
        for name in exported_names(tree):
            own = [
                node
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            ]
            if total[name] == sum(ref == name for node in own for ref in uses(node, False)):
                found.append(f"{label}: {name}")
    return sorted(found)


def test_the_export_scan_flags_only_names_nobody_uses():
    package = {
        "a": (
            "__all__ = ['used', 'reached', 'traced', 'unused', 'recursive']\n"
            "def used():\n"
            "    return 'recursive'\n"
            "def reached():\n"
            "    pass\n"
            "def traced():\n"
            "    pass\n"
            "def unused():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
        ),
        "b": (
            "from .a import unused, used\n"
            "from . import a\n"
            "__all__ = ['unused']\n"
            "x = used() or a.reached\n"
        ),
    }
    bench = {"run": "import a\nwrap(a, 'traced', 'a.unused')\n"}
    assert unused_exports(package, bench) == ["a: recursive", "a: unused", "b: unused"]


def test_every_exported_name_has_a_production_use():
    # policy_from_json is kept on purpose as the inverse of policy_to_json
    package = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    bench = {path.name: path.read_text(encoding="utf-8") for path in BENCH}
    assert unused_exports(package, bench) == ["policy.py: policy_from_json"]
