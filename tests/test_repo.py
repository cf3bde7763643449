"""Repository hygiene: what git tracks, where the range rule lives, which
module opens files, which errors exist."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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


def _calls(names, allowed):
    """Where a module under src/physcomp outside ``allowed`` calls one of ``names``."""
    offenders = []
    for path in sorted((ROOT / "src" / "physcomp").rglob("*.py")):
        if path.name in allowed and path.parent.name == "physcomp":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return offenders


def test_range_errors_are_built_only_by_the_range_rule():
    # units.in_range is the one place that decides a formula result left
    # the double range; nowhere else constructs its errors
    assert _calls({"NumericalOverflow", "NumericalUnderflow"}, {"units.py", "errors.py"}) == []


def test_files_are_opened_only_by_units():
    # units.read_bytes and units.write_text are the one reader and the one
    # writer, so every file error is the same one-line FileFormatError, and
    # units.cache_load and cache_store the one place arrays meet files
    assert _calls({"open", "load", "save"}, {"units.py"}) == []


def test_errors_are_two_families_and_five_named_kinds():
    # a refusal is an InputError (exit 2) or a NumericalError (exit 3); its
    # message says which check fired. A new class needs a caller that tells
    # it apart from its family.
    tree = ast.parse((ROOT / "src" / "physcomp" / "errors.py").read_text(encoding="utf-8"))
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
