"""The package imports nothing outside the standard library, and exports
its public names only."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import qapbound

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qapbound"


def test_every_import_is_relative_or_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in sources
    stray = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert stray == []


def test_all_lists_the_public_names_and_no_module():
    exported = {}
    exec("from qapbound import *", exported)
    del exported["__builtins__"]
    assert sorted(exported) == sorted(set(qapbound.__all__))
    assert [n for n, v in exported.items() if isinstance(v, ModuleType)] == []
    public = {n for n, v in vars(qapbound).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert public == set(qapbound.__all__)
