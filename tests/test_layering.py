"""The package's import layers: numerics below certifiers, certifiers below the CLI."""

import ast
import pathlib

import pytest

import reduction_lab

PACKAGE = pathlib.Path(reduction_lab.__file__).parent
NUMERICS = ["errors", "rng", "perron", "oracle", "semigroup", "gallery", "matrixio"]
REPORTING = {"checks", "scenario", "battery", "cli"}


def imported_modules(module: str) -> set[str]:
    """Names of the package modules (as `checks`) and outside modules (as `numpy`) that `module` imports."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            names.update(alias.name for alias in node.names)  # from . import checks
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
    return names


@pytest.mark.parametrize("module", NUMERICS)
def test_numerics_import_no_report_module(module):
    assert imported_modules(module).isdisjoint(REPORTING)


def test_cli_imports_neither_semigroup_nor_numpy():
    assert imported_modules("cli").isdisjoint({"semigroup", "numpy"})


def module_body_imports(module: str) -> set[str]:
    """Outside modules (as `scipy`) that `module` imports when it is loaded, outside any function body."""
    names, pending = set(), list(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy_when_loaded(module):
    # scipy is loaded by the first LAPACK call, so `import reduction_lab` loads numpy only
    assert "scipy" not in module_body_imports(module)
