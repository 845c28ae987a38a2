"""Every ``src/xqmetro`` module reads every name it imports.

No linter runs on this repository, so this stdlib ``ast`` walk stands in for
one rule of one (pyflakes' F401, an unused import).  ``__init__`` re-exports
by design, and an import on a line marked ``# noqa: F401`` is a re-export
that another module reads, such as a name the benchmark's tracer rebinds.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "xqmetro"
MODULES = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, but for ``# noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_modules_are_found():
    assert {"cli.py", "linalg.py", "oracle.py", "xstate.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((SOURCE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import sys  # noqa: F401\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        ")\n"
        "print(pi)\n"
    )
    assert unused_imports(source) == ["os", "osp", "tau"]
