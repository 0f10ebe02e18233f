"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Runs each workload at a small size under the tracer and checks that every
span the workload is expected to exercise recorded calls (a patch on the
wrong name records zero without any error), that `forward` is split by its
training flag, that every original function is back after the tracer exits,
also after an exception, that an OPEN answer of zero or with no groups does
not pass its check, and that BENCHMARK.json lists exactly the per-layer
metrics the tracer emits. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.measure import ROOT, Record, Runner, load_program, open_checks  # noqa: E402
from perfbench.run import WORK, written  # noqa: E402

load_program()

from perfbench import tracing, workloads  # noqa: E402

# Sizes small enough to run in seconds; each still takes every route.
SMALL = {
    "spiral_open": lambda seed: workloads.spiral_open(
        seed, population=4_000, sample=400, boxes_per_coverage=2, epochs=1),
    "flights_open": lambda seed: workloads.flights_open(seed, population=2_000),
    "flights_semi": lambda seed: workloads.flights_semi(seed, population=20_000),
    "flights_ingest": lambda seed: workloads.flights_ingest(seed, population=20_000),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def originals():
    return [vars(owner)[attr] for owner, attr, _ in tracing.PATCHES]


def test_restore() -> None:
    before = originals()
    with tracing.Tracer():
        during = originals()
    check(all(a is not b for a, b in zip(before, during)),
          "entering the tracer replaces every patched name")
    check(all(a is b for a, b in zip(before, originals())),
          "leaving the tracer restores every original")
    try:
        with tracing.Tracer():
            raise RuntimeError("inside")
    except RuntimeError:
        pass
    check(all(a is b for a, b in zip(before, originals())),
          "an exception inside the tracer still restores every original")


def test_spans() -> None:
    seen = set()
    for name, build in SMALL.items():
        plan = build(3)
        directory = WORK / f"selftest-{name}-{os.getpid()}"
        with written(plan, directory), tracing.Tracer() as tracer:
            runner = Runner(plan, directory)
            engine = runner.set_up()[0]
            records = runner.stream(engine, count=plan.cycle)
        raised = [r.failure for r in records if r.failure and r.failure.startswith("raised")]
        check(not raised, f"{name}: no statement raised {raised[:1]}")
        metrics = tracer.metrics(sum(1 for r in records if r.kind == "semi_open"))
        for span in tracing.EXPECTED[name]:
            check(metrics[f"{span}.calls"][0] > 0, f"{name}: {span} recorded calls")
            seen.add(span)
        check(tracer.calls["net.forward_train"] == tracer.calls["mswg.loss_and_grad"],
              f"{name}: one training forward per training step")
        check(tracer.calls["net.forward_infer"] == tracer.calls["mswg.generate"],
              f"{name}: one inference forward per generate")
    check(seen == set(tracing.SPANS), "the expected spans cover every patched name")


class FakeAnswer:
    def __init__(self, rows):
        self.rows = rows
        self.provenance = workloads.PROVENANCE_OPEN


def test_open_checks() -> None:
    truth = {(): 500.0}
    bound = workloads.SPIRAL_OPEN_MAX_RATIO
    answer_check = workloads.AnswerCheck("open", 0, truth=truth, max_ratio=bound)
    check(answer_check([FakeAnswer([(600.0,)])]).failure is None,
          "an OPEN answer near the truth passes")
    for rows in ([(0.0,)], [(-3.0,)], [(500.0 / bound / 2,)], [(500.0 * bound * 2,)]):
        check(answer_check([FakeAnswer(rows)]).failure is not None,
              f"an OPEN answer {rows[0][0]} against a truth of 500 fails")
    verdict = answer_check([FakeAnswer([])])
    check(verdict.failure is None and verdict.missing == 1,
          "an OPEN answer with no groups counts as a missing group")
    plan = workloads.spiral_open(3, population=4_000, sample=400, boxes_per_coverage=1)
    empty = [Record("open", 0.1, 0, groups=1, missing=1)] * 10
    check(len(open_checks(plan, empty)[1]) == 2,
          "a run whose OPEN answers leave out every group fails both run checks")
    wide = [Record("open", 0.1, 0, error=3 * plan.open_median_error_pct, groups=1)] * 10
    check(len(open_checks(plan, wide)[1]) == 1,
          "a run whose median OPEN error is above the limit fails")


def test_benchmark_file() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer"]]
    emitted = list(tracing.Tracer().metrics(0)) + [
        "unattributed_ms", "traced_wall_ms", "tracing_overhead_pct"]
    check(sorted(listed) == sorted(emitted),
          "BENCHMARK.json per_layer lists exactly the traced metrics")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json names every workload")


if __name__ == "__main__":
    test_restore()
    test_open_checks()
    test_spans()
    test_benchmark_file()
