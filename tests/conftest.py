import functools
import os

# Keep BLAS reductions single-threaded so repeated runs are bit-identical.
# BLAS reads these once, when numpy is first imported, so they come first.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import pytest  # noqa: E402

from openpop.catalog import Relation  # noqa: E402

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def group_keys(answer, n_group: int) -> set[tuple]:
    """The group keys of an answer: the first `n_group` values of each row."""
    return {row[:n_group] for row in answer.rows}


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def hashed(monkeypatch) -> list:
    """The names of the relations whose content digest is computed, in
    order, while the test runs."""
    names = []
    real_digest = Relation.digest.func

    def counting_digest(relation):
        names.append(getattr(relation, "name", None))
        return real_digest(relation)

    digest = functools.cached_property(counting_digest)
    digest.__set_name__(Relation, "digest")
    monkeypatch.setattr(Relation, "digest", digest)
    return names
