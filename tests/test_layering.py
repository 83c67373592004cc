"""The package's import layers: numerics below certifiers, certifiers below the CLI."""

import ast
import pathlib

import pytest

import reduction_lab
from reduction_lab.checks import FAMILY_KINDS
from reduction_lab.scenario import SCENARIO_KINDS

PACKAGE = pathlib.Path(reduction_lab.__file__).parent
NUMERICS = ["errors", "rng", "perron", "oracle", "semigroup", "gallery", "matrixio"]
REPORTING = {"checks", "scenario", "battery", "cli"}
GRID_NAMES = {name for _, grids in FAMILY_KINDS.values() for name in grids}


def imported_modules(module: str) -> set[str]:
    """Names of the package modules (as `checks`) and outside modules (as `numpy`) that `module` imports."""
    names = set()
    for node in ast.walk(parse(module)):
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


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def module_body_nodes(module: str):
    """The AST nodes of `module` that run when it is loaded, outside any function body."""
    pending = list(parse(module).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))


def module_body_imports(module: str) -> set[str]:
    """Outside modules (as `scipy`) that `module` imports when it is loaded, outside any function body."""
    names = set()
    for node in module_body_nodes(module):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
    return names


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy_when_loaded(module):
    # scipy is loaded by the first LAPACK call, so `import reduction_lab` loads numpy only
    assert "scipy" not in module_body_imports(module)


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_imports_warnings(module):
    # the library filters no warning: a floating-point event is decided by the np.errstate
    # of the solve or step that owns it, and a LAPACK failure by the info the wrapper returns
    assert "warnings" not in imported_modules(module)


def test_perron_enters_one_floating_point_scope_per_solve():
    # one np.errstate, built once when perron.py loads and entered only as the decorator of its
    # solver entry points: inside, the values a step leaves decide every overflow
    def is_errstate(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "np.errstate"

    def names(node):
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}

    tree = parse("perron")
    assert sum(map(is_errstate, ast.walk(tree))) == sum(map(is_errstate, module_body_nodes("perron"))) == 1
    (scope,) = [node.targets[0].id for node in tree.body if isinstance(node, ast.Assign) and is_errstate(node.value)]
    entered = [item.context_expr for node in ast.walk(tree) if isinstance(node, ast.With) for item in node.items]
    assert not [ast.unparse(e) for e in entered if names(e) & {"errstate", "nullcontext", scope}]
    decorated = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(scope in names(d) for d in node.decorator_list)
    }
    assert decorated == {"spectral_bound", "perron_vectors", "batched_starts"}


def test_perron_steps_read_the_tridiagonal_fact_and_compute_no_pattern():
    # whether a matrix is tridiagonal is recorded once per off-diagonal pattern by the memo behind
    # _pattern and carried in the frame of each solved block: a Noda step compares no entry with
    # zero and builds no pattern, O(n^2) work that every step of a dense solve would pay again
    tree = parse("perron")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_noda", "_scaled_solve"):
        for node in ast.walk(functions[name]):
            assert not (isinstance(node, ast.Compare) and any(isinstance(op, ast.NotEq) for op in node.ops)), name
            assert getattr(node, "attr", getattr(node, "id", None)) not in {"packbits", "triu", "tril"}, name
    # the fact travels in the frame alone, never as an argument of its own
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            assert "tridiagonal" not in {arg.arg for arg in arguments}, node.name
    declaring = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(field, ast.AnnAssign) and ast.unparse(field.target) == "tridiagonal" for field in node.body)
    }
    assert declaring == {"_Frame"}


def test_perron_asks_for_the_structure_of_a_matrix_in_one_place():
    # one function packs an off-diagonal pattern for the memo, and it decides on its own whether a
    # pattern is dense: no caller passes that in
    tree = parse("perron")
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    packing = [
        function.name
        for function in functions
        if any(isinstance(node, ast.Attribute) and node.attr == "packbits" for node in ast.walk(function))
    ]
    assert packing == ["_pattern"]
    for function in functions:
        arguments = function.args.posonlyargs + function.args.args + function.args.kwonlyargs
        assert "dense" not in {arg.arg for arg in arguments}, function.name


def test_perron_caches_two_functions_and_tests_every_bracket_vector_in_one():
    # the LAPACK import and the pattern memo are the only caches; whether a vector can carry a
    # Collatz-Wielandt bracket is decided by _unit_vector alone, for each start and each Noda iterate
    functions = {node.name: node for node in parse("perron").body if isinstance(node, ast.FunctionDef)}
    cached = {name for name, node in functions.items() if any("cache" in ast.unparse(d) for d in node.decorator_list)}
    assert cached == {"_lapack", "_scc_blocks"}
    noda = list(ast.walk(functions["_noda"]))
    assert "_unit_vector" in {ast.unparse(node.func) for node in noda if isinstance(node, ast.Call)}
    assert not [node for node in noda if getattr(node, "attr", None) == "isfinite"]


def test_perron_binds_no_module_level_state():
    # the constants, the one floating-point scope and the bound reductions; the two memos
    # (_lapack, _scc_blocks) are caches of functions, and no flag or table lives beside them
    bound = {
        target.id
        for node in parse("perron").body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    }
    assert bound == {"EPS", "WIDTH_TOL", "BATCH_STEPS", "BATCH_MAX_N", "_FLOAT_SCOPE", "_min", "_max", "_sum"}
    assert not [node for node in ast.walk(parse("perron")) if isinstance(node, (ast.Global, ast.Nonlocal))]


def test_cli_holds_no_matrix_arithmetic_and_no_per_kind_code():
    # cli.py parses, dispatches and writes: sweeps and products live in checks.py,
    # and each family kind's grids and builder only in checks.FAMILY_KINDS
    for node in ast.walk(parse("cli")):
        assert not isinstance(getattr(node, "op", None), ast.MatMult)
        assert not isinstance(node, ast.Lambda)
        assert not (isinstance(node, ast.Constant) and node.value in GRID_NAMES)


def test_cli_reaches_check_builders_only_through_family_kinds():
    names = {
        alias.name
        for node in ast.walk(parse("cli"))
        if isinstance(node, ast.ImportFrom) and node.module == "checks"
        for alias in node.names
    }
    assert "FAMILY_KINDS" in names
    assert not [name for name in names if name.endswith("_lines") or name == "solve_along"]


def test_scenario_defines_no_grid_table():
    assert not [n for n in module_body_nodes("scenario") if isinstance(n, ast.Constant) and n.value in GRID_NAMES]


def test_scenario_compares_no_string_with_a_kind_or_grid_name():
    # every per-kind and per-grid fact is a table row, so a new kind or grid needs only rows
    names = set(FAMILY_KINDS) | GRID_NAMES
    for node in ast.walk(parse("scenario")):
        if isinstance(node, ast.Compare):
            constants = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
            assert constants.isdisjoint(names), ast.unparse(node)


def test_scenario_writes_exactly_the_family_kinds():
    assert SCENARIO_KINDS.keys() == FAMILY_KINDS.keys()


def test_cli_compares_no_string_with_a_kind_name():
    # whether a kind has a threshold is read off its family, not its name
    for node in ast.walk(parse("cli")):
        if isinstance(node, ast.Compare):
            constants = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
            assert constants.isdisjoint(FAMILY_KINDS), ast.unparse(node)


def test_curve_table_compares_no_string_with_a_grid_name():
    # each grid's member and dM/dp are fields of its GridSpec in checks.FAMILY_KINDS
    (curve_table,) = [n for n in parse("checks").body if isinstance(n, ast.FunctionDef) and n.name == "curve_table"]
    for node in ast.walk(curve_table):
        if isinstance(node, ast.Compare):
            constants = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
            assert constants.isdisjoint(GRID_NAMES), ast.unparse(node)


def test_checks_leaves_block_starts_to_perron():
    # perron.grid_starts builds every batched start, reducible ones included
    tree = parse("checks")
    calls = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "SpectralData" not in calls
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"batched_starts", "scc_decomposition"})


def test_only_judge_and_the_advisory_line_build_a_check_line():
    # every verdict is decided in checks.judge; strict_convexity_line builds the advisory line
    def builds_line(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckLine"

    builders = set()
    for module in sorted(p.stem for p in PACKAGE.glob("*.py")):
        assert not any(builds_line(node) for node in module_body_nodes(module)), module
        for function in ast.walk(parse(module)):
            if isinstance(function, ast.FunctionDef) and any(builds_line(node) for node in ast.walk(function)):
                builders.add(f"{module}.{function.name}")
    assert builders == {"checks.judge", "checks.strict_convexity_line"}


def test_checks_decides_irreducibility_only_of_matrices_it_does_not_solve():
    # a certifier that solves A reads its irreducibility as spectral_bound(A).u is not None;
    # is_irreducible is left for Karlin's P, the derivative probe (tested once, in
    # derivative_bound_check) and strict_convexity_probe's A
    callers = [
        function.name
        for function in ast.walk(parse("checks"))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "is_irreducible"
    ]
    assert sorted(callers) == [
        "derivative_bound_check",
        "karlin_monotonicity_check",
        "strict_convexity_probe",
    ]
