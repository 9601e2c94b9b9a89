"""The package holds only what runs, and README's Layout rows name what each module holds.

A public top-level name of `src/singletsim` must be reached from outside
its own definition: by code in the package (docstrings and other strings do
not count), by the `pyproject.toml` entry point, or by the benchmark
harness under `perfbench/`.  A name that only tests reach belongs in
`tests/conftest.py`.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "singletsim"


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a tree loads or looks up as an attribute (string constants are not references)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def defined_names(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def test_every_public_name_is_reached_outside_the_tests():
    statements = [s for path in sorted(PACKAGE.glob("*.py")) for s in ast.parse(path.read_text()).body]
    reached = set()
    for statement in statements:  # a name's own definition does not reach it
        reached |= referenced_names(statement) - defined_names(statement)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reached |= referenced_names(ast.parse(path.read_text()))
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    reached |= set(re.findall(r'= "[\w.]+:(\w+)"', scripts))  # the entry points' callables
    public = {name for s in statements for name in defined_names(s) if not name.startswith("_")}
    assert sorted(public - reached) == []


def test_layout_rows_name_only_what_their_module_holds():
    section = (ROOT / "README.md").read_text().split("## Layout")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(singletsim\.\w+)` \|(.*)\|$", section, re.M)
    assert {module for module, _ in rows} == {f"singletsim.{path.stem}" for path in PACKAGE.glob("*.py")
                                             if path.stem != "__init__"}
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = re.findall(r"`([^`]+)`", contents)
        assert names, module_name
        assert [name for name in names if not hasattr(module, name)] == [], module_name
