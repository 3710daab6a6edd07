"""Guard: no module of the package imports a private name from another.

A rule that several modules need (the letter limit, a table's status, a
witness row) has one public owner that the others call, rather than a
`_`-prefixed helper reached into from outside its module.  This test reads
the source of every module and fails on an import of a `_`-prefixed name
from the package; dunder names such as `__version__` are public.
"""

import ast
from pathlib import Path

import logicrel

SRC = Path(logicrel.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: Path) -> list[str]:
    """The `_`-prefixed names a module imports from the package, as "module.name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level or module.split(".")[0] == "logicrel":
            found += [f"{module}.{alias.name}" for alias in node.names if _private(alias.name)]
    return found


def test_no_module_imports_a_private_name_from_another():
    found = {path.name: private_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_guard_sees_relative_and_absolute_private_imports(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "from os import _exit\n"
        "from . import __version__\n"
        "from .equivalence import _lowest_row, default_universe\n"
        "from logicrel.semantics import _letter_patterns\n"
        "from .. import _helpers\n",
        encoding="utf-8",
    )
    assert private_imports(src) == [
        "equivalence._lowest_row", "logicrel.semantics._letter_patterns", "._helpers"
    ]
