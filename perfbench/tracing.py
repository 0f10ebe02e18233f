"""Per-layer tracing from outside the program.

`Tracer` replaces functions and methods of the `openpop` modules with
wrappers that time each call, for as long as the tracer is entered, and puts
every original back on exit. A name is patched where its caller looks it
up: `executor.py` imports `ipf_fit`, `train` and friends into its own
namespace, so those are patched on `openpop.executor`, not on the module that
defines them. A patch on the wrong name records nothing, which is why
`EXPECTED` lists, per workload, spans that must have been entered.

A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import openpop.dialect
import openpop.engine
import openpop.executor
import openpop.mswg
from openpop.catalog import Catalog
from openpop.encoding import Encoding
from openpop.net import Adam, GeneratorNet

# (owner, attribute, span name); each owner is where the caller looks it up.
PATCHES = (
    (openpop.dialect, "parse", "dialect.parse"),
    (openpop.engine, "execute", "executor.execute"),
    (openpop.engine, "build_marginal", "catalog.build_marginal"),
    (Catalog, "ingest_csv", "catalog.ingest_csv"),
    (openpop.executor, "plan", "executor.plan"),
    (openpop.executor, "evaluate_aggregates", "executor.evaluate_aggregates"),
    (openpop.executor, "filter_rows", "predicate.filter_rows"),
    (openpop.executor, "ipf_fit", "ipf.ipf_fit"),
    (openpop.executor, "train", "mswg.train"),
    (openpop.executor, "generate", "mswg.generate"),
    (openpop.executor, "fingerprint", "mswg.fingerprint"),
    (openpop.mswg, "prepare_targets", "mswg.prepare_targets"),
    (openpop.mswg, "resample_target", "mswg.resample_target"),
    (openpop.mswg, "loss_and_grad", "mswg.loss_and_grad"),
    (openpop.mswg, "transport_term", "mswg.transport_term"),
    (openpop.mswg, "coverage_penalty", "mswg.coverage_penalty"),
    (openpop.mswg, "aligned_w1_grad", "transport.aligned_w1_grad"),
    (GeneratorNet, "forward", None),  # net.forward_train / net.forward_infer
    (GeneratorNet, "backward", "net.backward"),
    (Adam, "step", "net.adam"),
    (Encoding, "encode_rows", "encoding.encode_rows"),
    (Encoding, "decode_rows", "encoding.decode_rows"),
)

SPANS = tuple(sorted(
    [name for _, _, name in PATCHES if name] + ["net.forward_train", "net.forward_infer"]))

# Spans that must record calls on the workload where they do most of their
# work; together they name every span.
EXPECTED = {
    "spiral_open": (
        "mswg.train", "mswg.prepare_targets", "mswg.resample_target",
        "mswg.loss_and_grad", "mswg.transport_term", "mswg.coverage_penalty",
        "net.forward_train", "net.backward", "net.adam", "net.forward_infer",
        "mswg.generate", "mswg.fingerprint", "encoding.encode_rows",
        "encoding.decode_rows", "predicate.filter_rows",
        "executor.evaluate_aggregates", "catalog.build_marginal"),
    "flights_open": ("transport.aligned_w1_grad", "mswg.train", "mswg.generate"),
    "flights_semi": ("ipf.ipf_fit", "predicate.filter_rows", "executor.execute",
                     "executor.plan", "executor.evaluate_aggregates",
                     "dialect.parse"),
    "flights_ingest": ("catalog.ingest_csv", "ipf.ipf_fit"),
}


def _forward_span(args, kwargs) -> str:
    training = kwargs["training"] if "training" in kwargs else args[2]
    return "net.forward_train" if training else "net.forward_infer"


class Tracer:
    """Context manager that records calls, self time and work counts of
    the patched functions while entered."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # time of enclosed spans, per open span
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in PATCHES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        record = getattr(self, "_count_" + (name or "").replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name or _forward_span(args, kwargs)
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                enclosed = self._open.pop()
                self.calls[span] += 1
                self.self_s[span] += elapsed - enclosed
                self.total_s[span] += elapsed
                if self._open:
                    self._open[-1] += elapsed
            if record is not None:
                record(args, result)
            return result

        return wrapper

    # Work counts, recorded where the work happens.

    def _count_transport_aligned_w1_grad(self, args, result):
        self.counts["transport.elements_sorted"] += args[0].size + args[1].size

    def _count_mswg_generate(self, args, result):
        self.counts["mswg.rows_generated"] += len(result)

    def _count_encoding_decode_rows(self, args, result):
        self.counts["encoding.rows_decoded"] += len(result)

    def _count_ipf_ipf_fit(self, args, result):
        report = result[1]
        self.counts["ipf.rounds"] += report.rounds
        self.counts["ipf.converged"] += bool(report.converged)

    def _count_predicate_filter_rows(self, args, result):
        self.counts["predicate.rows_examined"] += len(args[1])
        self.counts["predicate.rows_kept"] += len(result)

    def _count_catalog_ingest_csv(self, args, result):
        self.counts["catalog.rows_ingested"] += result

    def metrics(self, semi_open_queries: int) -> dict[str, tuple[float, str]]:
        """Per-span calls and self milliseconds plus the derived counts, as
        name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for span in SPANS:
            out[f"{span}.calls"] = (self.calls[span], "count")
            out[f"{span}.self_ms"] = (1e3 * self.self_s[span], "ms")
        for name in ("transport.elements_sorted", "mswg.rows_generated",
                     "encoding.rows_decoded", "predicate.rows_examined",
                     "predicate.rows_kept", "catalog.rows_ingested"):
            out[name] = (self.counts[name], "count")
        steps = self.calls["mswg.loss_and_grad"]
        out["mswg.steps"] = (steps, "count")
        out["mswg.step_ms"] = (
            1e3 * self.total_s["mswg.train"] / steps if steps else 0.0, "ms")
        lookups = self.calls["mswg.fingerprint"]
        out["mswg.cache_hit_ratio"] = (
            (lookups - self.calls["mswg.train"]) / lookups if lookups else 0.0, "ratio")
        fits = self.calls["ipf.ipf_fit"]
        out["ipf.fits_per_query"] = (
            fits / semi_open_queries if semi_open_queries else 0.0, "ratio")
        out["ipf.rounds_per_fit"] = (
            self.counts["ipf.rounds"] / fits if fits else 0.0, "count")
        out["ipf.converged_ratio"] = (
            self.counts["ipf.converged"] / fits if fits else 0.0, "ratio")
        return out

    def self_total_s(self) -> float:
        return sum(self.self_s.values())
