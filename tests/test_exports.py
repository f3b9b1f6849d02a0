"""``disclim.__all__`` is the package's public surface: complete and resolvable."""

import ast
from pathlib import Path

import disclim


def test_every_listed_name_resolves():
    for name in disclim.__all__:
        assert getattr(disclim, name) is not None, name


def test_no_name_is_listed_twice():
    assert len(set(disclim.__all__)) == len(disclim.__all__)


def test_every_public_import_is_listed():
    tree = ast.parse(Path(disclim.__file__).read_text("utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} <= set(disclim.__all__)
