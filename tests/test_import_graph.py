"""Each command loads only the modules it runs; `import flagclass` alone loads none.

The classification needs t-roots and their zero-sum triples only, so `info`,
`classify` and `sweep` must start without the Chevalley and Weyl layers,
which only `verify` cross-checks against.  The value classes are plain
frozen classes, so no command pays for importing `dataclasses` and the
`inspect` module it pulls in.  Each case runs in a fresh child interpreter,
because this process has imported every module already.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagclass

SRC = str(Path(flagclass.__file__).parents[1])
VERIFY_ONLY = {"flagclass.chevalley", "flagclass.weyl"}
NEVER_LOADED = ["dataclasses", "inspect"]

# Runs cli.main on argv[1:] and reports the exit code, the loaded flagclass
# modules, which of NEVER_LOADED got loaded and whether json did on stderr,
# below whatever the command itself prints.  json is looked up before this
# script imports it to print the report.
RUN_MAIN = f"""
import sys
from flagclass import cli
code = cli.main(sys.argv[1:])
flagclass = sorted(m for m in sys.modules if m.startswith("flagclass"))
never = [m for m in {NEVER_LOADED!r} if m in sys.modules]
loaded_json = "json" in sys.modules
import json
print(json.dumps([code, flagclass, never, loaded_json]), file=sys.stderr)
"""

BARE_IMPORT = """
import json, sys, types
import flagclass
before = sorted(m for m in sys.modules if m.startswith("flagclass"))
resolved = [isinstance(getattr(flagclass, m), types.ModuleType) for m in ("chevalley", "weyl", "cli")]
print(json.dumps([before, resolved]))
"""


def run_child(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, loads_verify_layers",
    [
        (["info", "--type", "A2", "--theta="], False),
        (["classify", "--type", "A2", "--theta=", "--format", "json"], False),
        (["sweep", "--max-rank", "1", "--out", "{tmp}"], False),
        (["verify", "--max-rank", "1"], True),
    ],
    ids=["info", "classify", "sweep", "verify"],
)
def test_commands_load_the_verify_layers_only_for_verify(tmp_path, argv, loads_verify_layers):
    argv = [a.replace("{tmp}", str(tmp_path / "sweep")) for a in argv]
    proc = run_child("-c", RUN_MAIN, *argv)
    code, loaded, never, _ = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert VERIFY_ONLY & set(loaded) == (VERIFY_ONLY if loads_verify_layers else set())
    assert never == []


@pytest.mark.parametrize(
    "argv, loads_solver",
    [
        (["info", "--type", "A2", "--theta="], False),
        (["classify", "--type", "A2", "--theta="], True),
        (["sweep", "--max-rank", "1", "--out", "{tmp}"], True),
        (["verify", "--max-rank", "2"], False),
    ],
    ids=["info", "classify", "sweep", "verify"],
)
def test_only_the_quasi_kahler_solves_load_the_solver(tmp_path, argv, loads_solver):
    # verify finds chambers and closed metrics with no elimination, so it
    # never loads feasibility; classify and sweep solve quasi-Kahler systems
    argv = [a.replace("{tmp}", str(tmp_path / "sweep")) for a in argv]
    proc = run_child("-c", RUN_MAIN, *argv)
    code, loaded, _, _ = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert ("flagclass.feasibility" in loaded) is loads_solver


@pytest.mark.parametrize(
    "argv, loads_json",
    [
        (["info", "--type", "A2", "--theta="], False),
        (["info", "--type", "A2", "--theta=", "--format", "json"], True),
        (["classify", "--type", "A2", "--theta="], False),
        (["verify", "--max-rank", "1"], False),
    ],
    ids=["info-text", "info-json", "classify-text", "verify"],
)
def test_json_is_loaded_only_to_write_a_json_report(argv, loads_json):
    proc = run_child("-c", RUN_MAIN, *argv)
    code, _, _, loaded_json = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert loaded_json is loads_json


def test_bare_import_loads_no_submodule_and_resolves_each_on_access():
    proc = run_child("-c", BARE_IMPORT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["flagclass"], [True, True, True]]


def test_module_entrypoint_is_imported_once():
    # If the package imported cli, `-m flagclass.cli` would run it a second
    # time as __main__, and runpy warns about that.
    proc = run_child("-W", "error", "-m", "flagclass.cli", "info", "--type", "A2", "--theta=")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_structures_imports_nothing_from_chevalley():
    # at module level or inside a function: classification never loads the
    # Chevalley layer, and the constant-based oracles take its table as given
    tree = ast.parse(Path(flagclass.__file__).with_name("structures.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name for alias in node.names]
    assert "feasibility" in names
    assert [n for n in names if "chevalley" in n.split(".")] == []


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads, not counting `__future__` or `__all__` entries."""
    tree = ast.parse(path.read_text(), filename=path.name)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in bound if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(flagclass.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 9
    assert {p.name: unused_imports(p) for p in modules} == {p.name: [] for p in modules}


def test_feasibility_caches_nothing():
    # The solver is a pure function of its rows.  Its callers pair conjugate
    # structures themselves (classify solves one of each +-j), so a cache
    # would only hold answers that are never asked for again, sized for one
    # structure count and thrashing above it.
    tree = ast.parse(Path(flagclass.__file__).with_name("feasibility.py").read_text())
    decorators = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for dec in node.decorator_list
        for sub in ast.walk(dec)
        for name in [getattr(sub, "id", None) or getattr(sub, "attr", None)]
        if name in {"lru_cache", "cache", "cached_property"}
    ]
    assert decorators == []


def test_no_module_runs_the_strict_solver():
    # Chambers are found by zero-sum prunes and Koszul witnesses, with no
    # elimination.  solve_strict_rows stays in feasibility as the tests'
    # chamber oracle; no other module names it.
    package = Path(flagclass.__file__).parent
    uses = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        uses += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            and "solve_strict_rows"
            in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        ]
    assert uses == []


def test_no_module_solves_for_a_closed_metric():
    # A closed metric comes from a chamber point (_closed_witness_list), so
    # a wrong point fails ak-equals-k instead of being patched over by a
    # solve.  closed_metric_feasibility stays public as the tests' oracle.
    package = Path(flagclass.__file__).parent
    uses = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        uses += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            and "closed_metric_feasibility"
            in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        ]
    assert uses == []


MASK_HELPERS = {"_full", "_columns", "_agree", "_mask", "_lowest_bit"}


def test_no_module_decides_structures_as_bit_masks():
    # Each integrability route lists its integrable structures, at most one
    # per chamber, where a 2^s-bit mask would take 8 GiB at s = 36.  No
    # module defines the mask helpers or a *_mask route, and run_verify
    # builds no list of all 2^s structures and decides none of them alone.
    package = Path(flagclass.__file__).parent
    defined = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        defined += [
            (path.name, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and (node.name in MASK_HELPERS or node.name.endswith("_mask"))
        ]
    assert defined == []
    tree = ast.parse((package / "cli.py").read_text(), filename="cli.py")
    (run_verify,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "run_verify"
    ]
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(run_verify)
        if isinstance(node, ast.Call)
    }
    assert called & {"enumerate_iacs", "is_integrable", "nijenhuis_oracle"} == set()


def callers(is_target) -> set[tuple[str, str]]:
    """(module, top-level function or method) for every call in `src` that is_target accepts.

    A call inside a nested function counts for the function that encloses
    it at the top; a call outside every function counts for "<module>".
    """
    package = Path(flagclass.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        owners = [(n, n.name) for n in tree.body if isinstance(n, ast.FunctionDef)]
        owners += [
            (m, f"{n.name}.{m.name}")
            for n in tree.body if isinstance(n, ast.ClassDef)
            for m in n.body if isinstance(m, ast.FunctionDef)
        ]
        owned = {id(c): name for node, name in owners for c in ast.walk(node)}
        found |= {
            (path.name, owned.get(id(node), "<module>"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and is_target(node.func)
        }
    return found


def test_one_sign_prefix_search_and_no_other_2s_loop():
    # Every route that lists structures (the triple, pair, Nijenhuis and
    # chamber routes) goes through the one prefix search, and only the two
    # enumerations that hand out every structure or metric walk all of them.
    def closes_a_triple(func):
        return "_closes_a_triple" in (getattr(func, "id", None), getattr(func, "attr", None))

    def itertools_product(func):
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "product"
            and getattr(func.value, "id", None) == "itertools"
        ) or getattr(func, "id", None) == "product"

    assert callers(closes_a_triple) == {("structures.py", "_avoiding")}
    assert callers(itertools_product) == {
        ("structures.py", "enumerate_iacs"),
        ("structures.py", "metric_grid"),
    }


ROOT_HELPERS = {"simple_reflection", "inner_product", "root_string", "cartan_pairing"}


def reached_calls(path: Path, entry: str) -> set[str]:
    """Names called by the function `entry` of a module, or by any function or
    method of the same module that it calls or whose attribute it reads."""
    tree = ast.parse(path.read_text(), filename=path.name)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    methods = {
        m.name: m
        for n in tree.body if isinstance(n, ast.ClassDef)
        for m in n.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
    }
    todo, done, called = [functions[entry]], set(), set()
    while todo:
        fn = todo.pop()
        if fn.name in done:
            continue
        done.add(fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                called.add(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            if isinstance(node, ast.Name) and node.id in functions:
                todo.append(functions[node.id])
            if isinstance(node, ast.Attribute) and node.attr in methods:
                todo.append(methods[node.attr])
    return called


@pytest.mark.parametrize(
    "module, entry",
    [
        ("chevalley.py", "compute_structure_constants"),
        ("chevalley.py", "verify_jacobi"),
        ("weyl.py", "generate_weyl"),
        ("weyl.py", "a_theta"),
    ],
)
def test_lie_stages_read_the_root_table(module, entry):
    # lengths, string counts, sums and reflections come from RootSystem.root_table,
    # built once per system in ints, so no Lie stage redoes the per-root helpers;
    # those stay public as the tests' oracles
    path = Path(flagclass.__file__).with_name(module)
    called = reached_calls(path, entry)
    assert called, entry
    assert called & ROOT_HELPERS == set()


def test_chamber_points_build_no_structure():
    # each chamber is its index n and its metric lambda: the search keeps the
    # leaves of the pair route that its Koszul point witnesses, decodes the
    # signs of n by bit arithmetic, builds no IACS, and reads no triple table,
    # so the chamber route stays independent of the triple route
    path = Path(flagclass.__file__).with_name("structures.py")
    called = reached_calls(path, "_chamber_points")
    assert {"_avoiding", "_pairs_list", "_koszul_columns", "_signs"} <= called
    assert called & {"IACS", "_signed_triples", "t_zero_sum_triples"} == set()


def test_test_oracles_import_no_private_library_name():
    # the oracles build their own tables, so none shares the table of the
    # route it checks
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(), filename="oracles.py")
    modules, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flagclass"):
            names += [a.name for a in node.names]
            modules |= {a.asname or a.name for a in node.names}
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.startswith("flagclass")}
    names += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules
    ]
    assert [name for name in names if name.startswith("_")] == []
