"""Runtime dependencies stay numpy only: every import in the package, at
any depth, names the standard library, numpy, or the package itself. The
experiment harness beside it may import the package too, and the package
never imports the harness."""

import ast
import sys
from pathlib import Path

import openpop
import openpop_experiments

PACKAGE = Path(openpop.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "openpop"}
HARNESS = Path(openpop_experiments.__file__).parent


def imported_modules(path: Path):
    """(line, top-level module) of every import in the file; relative
    imports are the package's own and are skipped."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def disallowed_imports(package: Path, allowed: set[str]) -> list[str]:
    """Every import in `package` outside `allowed`, as "file:line: module",
    after checking that the package imports numpy at all."""
    found = {(path.name, line, module) for path in sorted(package.glob("*.py"))
             for line, module in imported_modules(path)}
    assert any(module == "numpy" for _, _, module in found)
    return sorted(f"{name}:{line}: {module}" for name, line, module in found
                  if module not in allowed)


def test_package_imports_only_stdlib_and_numpy():
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert disallowed_imports(PACKAGE, ALLOWED) == []


def test_harness_imports_only_stdlib_numpy_and_the_package():
    assert disallowed_imports(HARNESS, ALLOWED | {"openpop_experiments"}) == []


def test_function_local_imports_are_seen(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import os\n\ndef f():\n    import scipy.stats\n"
                    "    from .x import y\n    from yaml import safe_load\n",
                    encoding="utf-8")
    assert list(imported_modules(path)) == [(1, "os"), (4, "scipy"), (6, "yaml")]
