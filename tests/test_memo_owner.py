"""Only `catalog.py` reads or writes `Relation.memo`, so the category codes
and cell ids it holds have one producer: a fresh build, or an append's
extension. Every other module reaches them through `Relation.key_columns`
and `Relation.cell_ids`."""

import ast
from pathlib import Path

import openpop

PACKAGE = Path(openpop.__file__).parent


def memo_uses(path: Path) -> list[int]:
    """Lines of every attribute named `memo` and every "memo" string (as in
    `__dict__["memo"]` or `getattr(relation, "memo")`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "memo"
                   or isinstance(node, ast.Constant) and node.value == "memo"})


def test_only_the_catalog_touches_the_memo():
    found = {path.name: memo_uses(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 10 and found.pop("catalog.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_every_form_is_seen(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text('"""A memo."""\nrelation.memo.update(codes)\nmemo = {}\n'
                    'relation.__dict__["memo"] = memo\ngetattr(r, "memo")\n',
                    encoding="utf-8")
    assert memo_uses(path) == [2, 4, 5]
