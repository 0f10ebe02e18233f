"""Golden `openpop-catalog v1` file: loading and saving it again reproduces
it byte for byte, and answers over it keep their text.

`data/catalog_v1.opc` was written by openpop while it still stored relations
as tuple rows. It holds a global population and a derived one with a
predicate, a sample with a uniform mechanism and set weights, a second
sample, binned, 2-D and FOR marginals, and aux tables.
`data/catalog_v1_answers.json` records the text of CLOSED and SEMI-OPEN
answers over it from the same version.
"""

import json
from pathlib import Path

from openpop.catalog import Catalog
from openpop.dialect import parse_one
from openpop.engine import Engine
from openpop.executor import execute_semi_open

DATA = Path(__file__).parent / "data"


def test_load_then_save_reproduces_bytes(tmp_path):
    path = tmp_path / "again.opc"
    Catalog.load(DATA / "catalog_v1.opc").save(path)
    assert path.read_bytes() == (DATA / "catalog_v1.opc").read_bytes()


def test_answers_keep_their_text():
    catalog = Catalog.load(DATA / "catalog_v1.opc")
    engine = Engine(seed=catalog.seed)
    engine.catalog = catalog
    records = json.loads((DATA / "catalog_v1_answers.json").read_text(encoding="utf-8"))
    assert {r["text"].splitlines()[-1].split(", ")[-1] for r in records} >= {
        "closed)", "semi_open_ipf_direct)", "semi_open_mechanism)"}
    for record in records:
        if record["sample"] is None:
            (answer,) = engine.run_script(record["query"])
        else:
            answer = execute_semi_open(parse_one(record["query"]),
                                       catalog.sample(record["sample"]), catalog)
        assert answer.to_text() == record["text"], record["query"]
