"""Modules of the package import no private name from one another, raise
every error class they define, and export only names that have a caller."""

import ast
from pathlib import Path

import quadode

PACKAGE = Path(quadode.__file__).parent
BENCH = PACKAGE.parent.parent / "bench"


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


def test_one_judge_of_a_singular_point():
    # The evaluator decides every singular point, and the lifted pass rule
    # the points past a pass of the pole; nothing else raises the error.
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            is_class = isinstance(stmt, ast.ClassDef)
            for node in stmt.body if is_class else [stmt]:
                if "SingularPointError" in _raised_names(node):
                    name = getattr(node, "name", type(node).__name__)
                    sites.append(f"{path.name}:{stmt.name + '.' if is_class else ''}{name}")
    assert sites == ["canonical.py:eval_canonical_general", "extensions.py:_WarpLog.point"]


def test_the_solution_case_chooses_no_formula():
    # SolutionCase is a reported label: only solve_canonical, which computes
    # it, reads its members, and no module reads a solution's .case.
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                    continue
                on_enum = isinstance(node.value, ast.Name) and node.value.id == "SolutionCase"
                if on_enum or node.attr == "case":
                    readers.add(f"{path.name}:{getattr(stmt, 'name', type(stmt).__name__)}")
    assert sorted(readers) == ["canonical.py:solve_canonical"]


# Exported paper features that no module calls, each with its reason.
EXPORTED_WITHOUT_CALLER = {
    "canonical_rhs": "the canonical vector field; acceptance criterion 06 integrates it",
    "normalize": "the joint rescaling to c11 = c23 = 1, a README feature of the paper",
}


def _loaded_names(tree) -> set[str]:
    """Names and attributes that ``tree`` reads.  Imports, assignments and
    the names of defined functions and classes are not reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [path for path in BENCH.glob("*.py") if path.name != "test_bench.py"]
    referenced = set()
    for path in sources:
        referenced |= _loaded_names(ast.parse(path.read_text(), filename=str(path)))
    uncalled = set(quadode.__all__) - referenced - set(EXPORTED_WITHOUT_CALLER)
    assert sorted(uncalled) == []
    assert set(EXPORTED_WITHOUT_CALLER) <= set(quadode.__all__)
