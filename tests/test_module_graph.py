"""The package's import graph: one layer order, and no import inside a function.

A module of ``src/indval`` imports, at run time, only modules below it in
LAYERS; an import needed only for annotations sits under ``if TYPE_CHECKING:``.
``errors`` is the leaf every module may import, and ``__init__`` re-exports
the whole package, as the README's export list says, module by module.
No module holds an ``assert`` statement: ``python -O`` strips them, and an
invariant that fails must stay a named error (``InvariantError``) there too.
"""

import ast
import inspect
import pathlib
import re

import pytest

import indval

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "indval"
README = SRC.parent.parent / "README.md"
LAYERS = ("errors", "values", "basefield", "towers", "residual", "chains", "keys", "augmentation", "cli")
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _tree(name: str) -> ast.Module:
    path = SRC / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def _runtime_imports(node: ast.AST):
    """(line, module) of every package import outside ``if TYPE_CHECKING:``."""
    for child in ast.iter_child_nodes(node):
        if _is_type_checking(child):
            for other in child.orelse:
                yield from _runtime_imports(other)
            continue
        if isinstance(child, ast.ImportFrom) and child.level:
            if child.module:
                yield child.lineno, child.module.split(".")[0]
            else:  # from . import a, b
                yield from ((child.lineno, a.name) for a in child.names)
        elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "indval":
            yield child.lineno, (child.module.split(".") + ["__init__"])[1]
        elif isinstance(child, ast.Import):
            for a in child.names:
                if a.name.startswith("indval."):
                    yield child.lineno, a.name.split(".")[1]
        yield from _runtime_imports(child)


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYERS) | {"__init__"}


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    found = [
        f"{name}.py:{node.lineno}"
        for fn in ast.walk(_tree(name))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


@pytest.mark.parametrize("name", LAYERS)
def test_runtime_imports_follow_the_layer_order(name):
    rank = LAYERS.index(name)
    upward = [
        f"{name}.py:{line} imports {target}"
        for line, target in _runtime_imports(_tree(name))
        if target not in LAYERS or LAYERS.index(target) >= rank
    ]
    assert upward == []


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statement(name):
    found = [f"{name}.py:{node.lineno}" for node in ast.walk(_tree(name)) if isinstance(node, ast.Assert)]
    assert found == []


def _readme_exports():
    """{module: [names]} from the README list "exported from `indval` ... by module"."""
    text = README.read_text(encoding="utf-8")
    listing = text.split("by module:", 1)[1].strip().split("\n\n", 1)[0]
    bullets = re.split(r"^- ", listing, flags=re.M)[1:]
    out = {}
    for bullet in bullets:
        module, names = bullet.split(":", 1)
        out[module.strip("`")] = re.findall(r"`(\w+)`", names)
    return out


def test_readme_export_list_is_the_public_api():
    listed = _readme_exports()
    names = [n for ns in listed.values() for n in ns]
    assert sorted(names) == sorted(indval.__all__)
    misplaced = [
        f"{name} is listed under {module}, defined in {obj.__module__}"
        for module, ns in listed.items()
        for name in ns
        if (inspect.isclass(obj := getattr(indval, name)) or inspect.isfunction(obj)) and obj.__module__ != module
    ]
    assert misplaced == []


def test_readme_removed_names_are_gone():
    # each backticked `name` or `Name.attr` of the README's "Removed from the
    # API" paragraph: no such name in indval, and no such attribute on the
    # indval class it names
    text = README.read_text(encoding="utf-8")
    start = text.index("Removed from the API")
    paragraph = text[start : text.index("\n\n", start)]
    names = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)?)`", paragraph)
    assert "InductiveValuation.prefix" in names and "TowerElem.__add__" in names
    present = []
    for name in names:
        owner, _, attr = name.rpartition(".")
        if owner and not hasattr(indval, owner):
            present.append(f"{name}: indval has no {owner} to look in")
        elif hasattr(getattr(indval, owner) if owner else indval, attr):
            present.append(name)
    assert present == []
