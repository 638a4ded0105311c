import ast
import sys
from pathlib import Path

import digseg

ALLOWED_THIRD_PARTY = {"numpy"}


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(digseg.__file__).parent.rglob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in imported_top_level_modules(path)
        if name not in sys.stdlib_module_names and name not in ALLOWED_THIRD_PARTY
    }
    assert not foreign, sorted(foreign)
