"""Which modules import numpy when they are loaded.

Only ``stats`` may import numpy at module level; every other module that
needs it imports it inside the function that does.  That keeps open a
command that never computes a coefficient not loading numpy at all.
"""

import ast
from pathlib import Path

import disclim

PACKAGE = Path(disclim.__file__).parent


def _module_level_imports(tree: ast.Module) -> set[str]:
    """The top-level package of every import run when the module is loaded."""
    imported = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # runs when called, not when loaded
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imported.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return imported


def test_only_stats_imports_numpy_at_module_level():
    importers = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if "numpy" in _module_level_imports(ast.parse(path.read_text("utf-8")))
    }
    assert importers == {"stats.py"}

