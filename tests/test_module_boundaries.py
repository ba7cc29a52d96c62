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
