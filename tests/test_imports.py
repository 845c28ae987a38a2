"""Every ``src/xqmetro`` module reads every name it imports, and ``src/``
reads every private name a module defines.

No linter runs on this repository, so this stdlib ``ast`` walk stands in for
two rules: pyflakes' F401 (an unused import) and a dead-code check for
private module-level functions, classes and constants, which a deletion
elsewhere can leave with no reader.  ``__init__`` re-exports by design, and
an import on a line marked ``# noqa: F401`` is a re-export that another
module reads, such as a name the benchmark's tracer rebinds.
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


def private_definitions(source: str) -> set[str]:
    """The private (``_x``, not dunder) names ``source`` binds at module level by
    ``def``, ``class`` or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Every name ``source`` loads, and every attribute it names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private module-level name no source reads."""
    read = set().union(*(names_read(source) for source in sources.values()))
    return sorted(
        f"{module}: {name}"
        for module, source in sources.items()
        for name in private_definitions(source) - read
    )


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


def test_src_reads_every_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": (
            "import b\n"
            "_LIMIT = 3\n"
            "_WIDTH: int = 4\n"
            "_left, _right = 1, 2\n"
            "__version__ = '1'\n"
            "def _helper():\n"
            "    return _LIMIT + _left\n"
            "class _Record:\n"
            "    pass\n"
            "def public():\n"
            "    return _helper() + b._scale()\n"
        ),
        "b.py": "def _scale():\n    return 2\ndef _orphan():\n    _Record = 1\n",
    }
    assert unread_private_names(sources) == [
        "a.py: _Record",
        "a.py: _WIDTH",
        "a.py: _right",
        "b.py: _orphan",
    ]
