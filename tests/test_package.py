"""The package ships only code that it runs."""

import ast
from pathlib import Path

import pytest

import sniplab

SRC = Path(sniplab.__file__).resolve().parent
# cli.args_from_manifest is the inverse of cli._write_manifest, kept next to
# it so that the manifest format has one reader and one writer in one place
UNCALLED = {("cli", "args_from_manifest")}


def test_every_public_function_is_referenced_in_the_package():
    # a public module-level function that no module of sniplab names is code
    # that the program never runs; its checks belong to the forms it runs
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {
            (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert len(defined) > 30  # the scan found the package
    unreferenced = {d for d in defined if d[1] not in referenced} - UNCALLED
    assert not unreferenced, sorted(unreferenced)


def test_version_matches_pyproject():
    # the version is written in two files; a bump must change both
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    assert sniplab.__version__ == version
