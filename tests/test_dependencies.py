"""Runtime dependencies stay numpy only: every import in the package, at
any depth, names the standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

import openpop

PACKAGE = Path(openpop.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "openpop"}


def imported_modules(path: Path):
    """(line, top-level module) of every import in the file; relative
    imports are the package's own and are skipped."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    found = {(path.name, line, module) for path in sources
             for line, module in imported_modules(path)}
    assert any(module == "numpy" for _, _, module in found)
    assert sorted(f"{name}:{line}: {module}" for name, line, module in found
                  if module not in ALLOWED) == []


def test_function_local_imports_are_seen(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os\n\ndef f():\n    import scipy.stats\n"
                    "    from .x import y\n    from yaml import safe_load\n",
                    encoding="utf-8")
    assert list(imported_modules(path)) == [(1, "os"), (4, "scipy"), (6, "yaml")]
