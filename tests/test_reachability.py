"""No dead code in src/gcdzeta: every top-level def and class is reachable.

The name-reference graph is built with ast.  Its roots are cli.main, the
names in the package's __all__, every module-level statement other than
a def, class or import, and the scripts under scripts/.  A def or class
that no chain of references from a root reaches is reported by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "gcdzeta"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _aliases(tree: ast.Module, package: str, modules: set[str]) -> dict:
    """Names bound by imports of the package: name -> (module, attribute).

    A module itself is bound as (module, ""); the package's __init__ is
    the module "__init__".  An import inside a function binds its names
    for the whole module, as one at the top would.
    """
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module and node.module.split(".")[0] == package:
                base = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if base:
                    out[bound] = (base, alias.name)
                elif alias.name in modules:  # from . import m
                    out[bound] = (alias.name, "")
                else:  # a name the package's __init__ binds
                    out[bound] = ("__init__", alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == package and rest and alias.asname:
                    out[alias.asname] = (rest, "")
    return out


def _references(node: ast.AST, module: str, defined: set[str], aliases) -> set:
    """(module, name) pairs that node refers to, as written."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in defined:
                refs.add((module, sub.id))
            elif sub.id in aliases:
                refs.add(aliases[sub.id])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = aliases.get(sub.value.id)
            if target is not None and target[1] == "":
                refs.add((target[0], sub.attr))
    return refs


def unreachable_definitions(src: Path, scripts: Path, package: str) -> list[str]:
    """Top-level defs and classes of the package at src that no root reaches."""
    edges = {}
    roots = {("cli", "main")}
    aliases = {}
    paths = sorted(src.glob("*.py"))
    modules = {path.stem for path in paths}
    for path in paths:
        module = path.stem
        tree = ast.parse(path.read_text())
        aliases[module] = _aliases(tree, package, modules)
        defined = {n.name for n in tree.body if isinstance(n, DEFINITIONS)}
        for node in tree.body:
            refs = _references(node, module, defined, aliases[module])
            if isinstance(node, DEFINITIONS):
                edges[(module, node.name)] = refs
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= refs
            if module == "__init__" and isinstance(node, ast.Assign):
                if any(getattr(t, "id", None) == "__all__" for t in node.targets):
                    for name in ast.literal_eval(node.value):
                        roots.add(("__init__", name))
    for path in sorted(scripts.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots |= _references(tree, "", set(), _aliases(tree, package, modules))

    def resolve(ref):
        # follow re-exports, such as gcdsum's names from arith
        seen = set()
        while ref not in edges and ref not in seen:
            seen.add(ref)
            target = aliases.get(ref[0], {}).get(ref[1])
            if target is None:
                return ref
            ref = target
        return ref

    reached = set()
    stack = [resolve(ref) for ref in roots]
    while stack:
        ref = stack.pop()
        if ref in reached or ref not in edges:
            continue
        reached.add(ref)
        stack.extend(resolve(r) for r in edges[ref])
    return sorted(f"{m}.{name}" for m, name in edges if (m, name) not in reached)


def test_every_definition_in_src_is_reachable():
    dead = unreachable_definitions(ROOT / "src" / PACKAGE, ROOT / "scripts", PACKAGE)
    assert dead == [], f"unreachable from cli.main, __all__ and scripts: {dead}"


def test_an_orphan_is_named(tmp_path):
    src = tmp_path / "src"
    scripts = tmp_path / "scripts"
    src.mkdir()
    scripts.mkdir()
    (src / "__init__.py").write_text(
        "from .core import exported\n__all__ = ['exported']\n"
    )
    (src / "core.py").write_text(
        "def exported():\n    return _helper()\n\n"
        "def _helper():\n    return 1\n\n"
        "def orphan():\n    return _orphan_helper()\n\n"
        "def _orphan_helper():\n    return 2\n\n"
        "def used_by_script():\n    return 3\n\n"
        "class Table:\n    pass\n\n"
        "TABLE = Table()\n"
    )
    (src / "cli.py").write_text(
        "from . import core\n\ndef main():\n"
        "    from .lazy import late\n\n    return core.exported() + late()\n"
    )
    (src / "lazy.py").write_text(
        "def late():\n    return 4\n\ndef never():\n    return 5\n"
    )
    (scripts / "run.py").write_text(
        "from pkg import core\n\ncore.used_by_script()\n"
    )
    assert unreachable_definitions(src, scripts, "pkg") == [
        "core._orphan_helper",
        "core.orphan",
        "lazy.never",
    ]
