"""Repository hygiene: what git tracks, where the range rule and the
bisection loop live, which module opens files, imports the decoded-file
cache or orjson or switches the collector, what CLI report rows are given,
who checks output paths and what a subcommand handler takes,
that the CLI picks no decomposition, which errors, names and dependencies
exist, that every public name has a caller, and whether the README's code
runs."""

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "physcomp"
OUTSIDE_CLI = {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py") if p.parent != SRC / "cli"}


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a git checkout",
)
def test_no_tracked_file_is_ignored():
    # a generated file listed in .gitignore but committed anyway
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == ""


def _nodes(allowed, match):
    """Where a module under src/physcomp outside ``allowed`` (paths relative
    to src/physcomp) has a syntax node that ``match`` accepts."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if match(node):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return offenders


def _calls(names, allowed, match=lambda call: True):
    """Where a module outside ``allowed`` calls one of ``names`` in a call
    ``match`` accepts."""
    def named_call(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in names and match(node)

    return _nodes(allowed, named_call)


def test_range_errors_are_built_only_by_the_range_rule():
    # units.in_range is the one place that decides a formula result left
    # the double range; nowhere else constructs its errors
    assert _calls({"NumericalOverflow", "NumericalUnderflow"}, {"units.py", "errors.py"}) == []


def test_bisection_is_written_once():
    # units.bisect_root is the one loop that halves a bracket at 0.5 * (a + b);
    # the error-rate and temperature solves both call it
    def is_midpoint(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(isinstance(side, ast.Constant) and side.value == 0.5
                        for side in (node.left, node.right))
                and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Add)
                        for side in (node.left, node.right)))

    def bisects(node):
        return isinstance(node, (ast.For, ast.While)) and any(map(is_midpoint, ast.walk(node)))

    assert _nodes({"units.py"}, bisects) == []


def test_no_quantity_is_given_a_unit():
    # a quantity's unit follows from its dimension; a call passing one is a
    # TypeError, which on an untested error path would reach the user as a
    # stack trace in place of a one-line error
    def gives_a_unit(call):
        return len(call.args) > 2 or any(k.arg == "unit" for k in call.keywords)

    assert _calls({"Quantity"}, set(), gives_a_unit) == []


def test_report_rows_take_the_quantity():
    # Report.add reads a Quantity's magnitude and the unit its dimension
    # derives; a CLI row that passes the bare magnitude must then state
    # its unit by hand a second time, and nothing checks that the two agree
    def passes_a_magnitude(call):
        values = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "value")]
        return any(isinstance(v, ast.Attribute) and v.attr == "magnitude" for v in values)

    assert _calls({"add"}, OUTSIDE_CLI, passes_a_magnitude) == []


def test_the_cli_picks_no_decomposition():
    # HermitianOperator.eigenvalues() always runs eigvalsh and eigensystem()
    # always eigh; a command that called one to prime a cache would make its
    # printed rows depend on an output flag
    assert _calls({"eigenvalues", "eigensystem"}, OUTSIDE_CLI) == []


def test_files_are_opened_only_by_units():
    # units.read_bytes and units.write_text are the one reader and the one
    # writer, so every file error is the same one-line FileFormatError, and
    # qthermo.filecache (get and put) the one place arrays meet files
    assert _calls({"open", "load", "save"}, {"units.py", "qthermo/filecache.py"}) == []


def test_output_paths_are_checked_only_by_run():
    # cli.main.run refuses every output path once, before any handler sees
    # its flags, so the early check cannot be forgotten in one subcommand
    def names_it(node):
        return (isinstance(node, ast.Name) and node.id == "check_writable") or (
            isinstance(node, ast.Attribute) and node.attr == "check_writable")

    assert _nodes({"units.py", "cli/main.py"}, names_it) == []


def test_handlers_take_only_the_parsed_flags():
    # a handler returns a Report or CSV text and writes no stream itself:
    # cli.main.run writes stdout or --out
    from physcomp.cli.main import SUBCOMMANDS

    params = {}
    for path in sorted((SRC / "cli").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name == "handle":
                a = node.args
                params[path.stem] = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs] + [
                    p.arg for p in (a.vararg, a.kwarg) if p is not None]
    assert params == {name: ["args"] for name in SUBCOMMANDS if name != "constants"}


def _importers(module):
    """The modules under src/physcomp (paths relative to it) that import
    ``module``, once per import statement."""
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(module in name.split(".") for name in names):
                importers.append(path.relative_to(SRC).as_posix())
    return importers


def test_only_the_file_reader_imports_the_cache():
    # states._read_entries imports qthermo.filecache for a large file only,
    # so a process that reads none never compiles the cache code
    assert _importers("filecache") == ["qthermo/states.py"]


def test_only_the_json_reader_imports_orjson():
    # units.read_json is the one decoder of input files, so which decoder
    # reads a file, and the threshold that picks it, live in one place
    assert _importers("orjson") == ["units.py"]


def test_only_the_process_entry_switches_the_collector():
    # cli.main.main() owns its process and turns the cyclic collector off;
    # library code leaves an in-process caller's setting alone
    assert _calls({"disable", "enable", "freeze"}, {"cli/main.py"}) == []


def test_results_take_no_input_from_the_environment():
    # a result follows from its arguments and files: only the process entry
    # (its BLAS thread count) and the decoded-file cache (its directory)
    # read the environment, and neither changes an output byte
    names = {"environ", "environb", "getenv", "getenvb"}

    def reads_the_environment(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "os" and any(alias.name in names for alias in node.names)
        return isinstance(node, ast.Attribute) and node.attr in names

    assert _nodes({"cli/main.py", "qthermo/filecache.py"}, reads_the_environment) == []


def test_every_public_name_is_reached():
    # a public function, class or method is reached by a subcommand, a
    # README example or a perfbench workload; one that only tests call is
    # a second way to compute what the program computes, and nothing keeps
    # it in step. perfbench's string constants count, since layers.py
    # patches functions by name.
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    reached = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"] + bench:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif path in bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                reached.update(re.findall(r"\w+", node.value))
    unreached = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not d.name.startswith("_") and d.name not in reached):
                    unreached.append(f"{path.relative_to(ROOT)}:{d.lineno} {d.name}")
    assert unreached == []


def _child(code: str, cwd=ROOT) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports physcomp from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("module", ["physcomp", "physcomp.assembly", "physcomp.qthermo", "physcomp.cli"])
def test_every_exported_name_resolves(module):
    # in a fresh interpreter, so that names a module loads on first access
    # are looked up as a user's first access looks them up
    proc = _child(
        f"import importlib; m = importlib.import_module({module!r}); "
        "print(*[n for n in m.__all__ if not hasattr(m, n)])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


README_PYTHON = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("block", README_PYTHON, ids=[f"block-{i}" for i in range(len(README_PYTHON))])
def test_readme_python_block_runs(block, tmp_path):
    proc = _child(block, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_third_party_imports_are_the_declared_dependencies():
    # what the package imports is declared, and what is declared is imported;
    # tests may still importorskip others, such as scipy
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"physcomp"} == declared


def test_errors_are_two_families_and_five_named_kinds():
    # a refusal is an InputError (exit 2) or a NumericalError (exit 3); its
    # message says which check fired. A new class needs a caller that tells
    # it apart from its family.
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {
        "PhyscompError",
        "InputError",
        "NumericalError",
        "DimensionMismatch",
        "InvalidState",
        "FileFormatError",
        "NumericalOverflow",
        "NumericalUnderflow",
    }
