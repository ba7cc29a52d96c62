"""Modules of the package import no private name from one another."""

import ast
from pathlib import Path

import quadode

PACKAGE = Path(quadode.__file__).parent


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level > 0 or (node.module or "").startswith("quadode")):
                continue
            offenders += [
                f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert not offenders


def _raised_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    # A class counts as raised when it or one of its subclasses is.
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    live = set()
    for path in PACKAGE.glob("*.py"):
        live |= _raised_names(ast.parse(path.read_text(), filename=str(path))) & set(bases)
    frontier = set(live)
    while frontier:
        frontier = set().union(*(bases[name] for name in frontier)) & set(bases) - live
        live |= frontier
    assert sorted(set(bases) - live) == []
