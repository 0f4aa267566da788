"""Every public module-level function and class of the package, and every
public method, property and staticmethod of its public classes, has a
caller in the package or in the benchmark.

A module-level name counts as referenced where it appears as a ``Name`` or
an ``Attribute`` in ``src/`` or ``perfbench/``, outside its own definition;
a method, property or staticmethod where it appears as an ``Attribute``.
Strings (``__all__`` entries) and import statements (the re-exports of
``__init__.py``) are not references.  Code that only the tests call
belongs in the tests, as an oracle.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _top_level_nodes() -> list:
    """(path, top-level statement) for every source file of src/ and perfbench/."""
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return [(path, node) for path in sources for node in ast.parse(path.read_text(), str(path)).body]


def _referenced(node: ast.AST) -> set:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _attributes(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_public_definition_has_a_caller():
    nodes = _top_level_nodes()
    references = [(node, _referenced(node)) for _, node in nodes]
    unreferenced = [
        f"{path.stem}.{node.name}"
        for path, node in nodes
        if path.parent.name == "tricurves"
        and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for other, names in references if other is not node)
    ]
    # a method's own body does not count as its caller
    attributes = sum((_attributes(node) for _, node in nodes), Counter())
    unreferenced += [
        f"{path.stem}.{cls.name}.{method.name}"
        for path, cls in nodes
        if path.parent.name == "tricurves" and isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and not attributes[method.name] > _attributes(method)[method.name]
    ]
    assert unreferenced == [], f"public names that nothing in src/ or perfbench/ uses: {unreferenced}"
