"""The measured process of the benchmark.

    python3 -m perfbench.measure JOB

`run.py` generates a workload's inputs, writes its files and pickles the
plan (without the file contents) to JOB; this process imports the program,
drives the plan against it and prints the report. Only this process holds
an Engine, so its peak RSS covers the program and the interpreter, not the
generation of the inputs and their truths.

A timed run (--trace 0):
  1. builds the catalog (set-up) SETUP_RUNS times on fresh engines;
  2. cold rounds: a fresh engine, its set-up and the workload's first query,
     repeated until COLD_SECONDS have passed (one round when the first query
     trains a generator, which takes longer);
  3. on the last engine, runs the statement stream: whole rounds until the
     requested seconds have passed, or, on a workload whose statements
     change the state later ones read, a fixed number of rounds per
     requested second. Every SETUP_INTERVAL_S, between two statements,
     one more set-up runs on a fresh engine, so that the set-ups sample the
     host's speed over the whole run, as the statements do; their time does
     not count against the requested seconds.
Every statement's answer is checked, and then the run as a whole: the OPEN
answers' median error and the groups they left out, and after INGEST steps
the number of rows in the sample. The end-to-end metrics are the median
set-up time, the peak RSS and the median time of the stream's main query
kind (warm OPEN, or SEMI-OPEN). The cold answers, the other statement kinds
(CLOSED, INGEST) and the errors against the population truth are printed
per route but are not end-to-end metrics: on a shared 2-core host their
run-to-run spread reached 25% and more, and the errors differ by seed.

The host's speed drifts by tens of percent within and between runs on a
shared machine. So two fixed probe kernels (`Calibration`), one of
interpreter work and one of array work, are timed after every set-up and
statement, outside their timings. Each end-to-end time is the measured one
scaled by each probe's reference time over its median time around it:
seconds on a host where the probes take their reference times. Set-up
takes its speed from the interpreter probe, queries from the geometric mean
of both (INTERP_SHARE): on a shared 2-core x86 host these followed set-up
and warm OPEN times within 2-4% over minutes in which the raw times moved
by 20-75%, and halved the run-to-run spread of every gated time. The
measured times are printed beside them and kept in the detail line.

A traced run (--trace 1) runs steps 1-3 untraced, then one set-up, the first
query and the same stream statements traced, and prints the per-layer
metrics and the tracing overhead.

Human-readable lines come first, then a line `detail {...}` with the
inputs' digest and the environment (read by `compare.py`), and last the
result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 5          # set-up-only rounds before the cold rounds
SETUP_INTERVAL_S = 0.25  # one more set-up between stream statements this often
COLD_SECONDS = 3.0      # cold rounds go on until this much time has passed
P90_MIN_SAMPLES = 100   # a p90 needs ten samples beyond it
# Typical probe times on a 2-core x86 host; they fix the unit of the
# scaled times and are the same on every commit.
ARRAY_REF_S = 1.5e-3
INTERP_REF_S = 1.2e-3
PROBE_WINDOW = 5  # probes on each side of a timed item that set its speed
# Share of a timed item's speed taken from the interpreter probe, by kind:
# set-up parses CSV text into dictionaries; a query mixes small numpy
# kernels (IPF rounds, generator layers) with interpreter work.
INTERP_SHARE = {"setup": 1.0, "semi_open": 0.5, "open": 0.5}
ROUTE_NAMES = {"open": "open_warm", "semi_open": "semi_open", "closed": "closed",
               "ingest": "ingest"}


@dataclass
class Record:
    kind: str
    seconds: float
    probe: int  # index of the probe timed right after it
    failure: str | None = None
    error: float | None = None
    groups: int = 0   # groups of the population truth
    missing: int = 0  # of those, groups the answer left out
    ipf: object = None  # the IpfReport a SEMI-OPEN answer carries


class Calibration:
    """Host-speed probes. The interpreter probe parses CSV lines into a
    dictionary; the array probe runs a sort, a bincount, a dense layer and a
    nearest-neighbour distance matrix."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.lines = [f"C{i % 14},{i % 97},{i % 13},{5 * i},{25 * i}"
                      for i in range(1_500)]
        self.values = rng.random(8_000)
        self.ids = rng.integers(0, 256, 8_000)
        self.batch = rng.random((500, 100))
        self.weights = rng.random((100, 100))
        self.refs = rng.random((512, 100))
        self.interp: list[float] = []
        self.array: list[float] = []

    def _interp_pass(self) -> None:
        sums = {}
        for line in self.lines:
            carrier, _, _, elapsed, distance = line.split(",")
            key = (carrier, int(elapsed) % 40)
            sums[key] = sums.get(key, 0.0) + float(distance)

    def _array_pass(self) -> None:
        import numpy as np

        np.sort(self.values)
        np.bincount(self.ids, weights=self.values)
        np.maximum(self.batch @ self.weights, 0.0)
        np.argmin(-2.0 * self.batch @ self.refs.T, axis=1)

    def measure(self) -> int:
        """Record the median of three passes of each probe; returns their
        index."""
        for samples, probe in ((self.interp, self._interp_pass),
                               (self.array, self._array_pass)):
            passes = []
            for _ in range(3):
                start = perf_counter()
                probe()
                passes.append(perf_counter() - start)
            samples.append(statistics.median(passes))
        return len(self.array) - 1

    def scaled(self, record: Record, interp_share: float) -> float:
        """The record's seconds at the reference speed, taking
        `interp_share` of the speed from the interpreter probe and the rest
        from the array probe (as a geometric mean)."""
        i = record.probe
        lo, hi = max(0, i - PROBE_WINDOW), i + PROBE_WINDOW + 1
        interp = INTERP_REF_S / statistics.median(self.interp[lo:hi])
        array = ARRAY_REF_S / statistics.median(self.array[lo:hi])
        return record.seconds * interp ** interp_share * array ** (1.0 - interp_share)


def load_program() -> None:
    """Import openpop from this checkout's src/, never from elsewhere."""
    if not (SRC / "openpop" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'openpop'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import openpop
    if Path(openpop.__file__).resolve().parent != SRC / "openpop":
        sys.exit(f"perfbench: imported openpop from {openpop.__file__}, not {SRC}")


def environment() -> dict:
    import platform
    import subprocess

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = done.stdout.strip() or None
    program = hashlib.sha256()
    for path in sorted((SRC / "openpop").rglob("*.py")):
        program.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        program.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha,
        "program_sha256": program.hexdigest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class Runner:
    """Drives a plan, whose input files are in `directory`, against fresh
    engines."""

    def __init__(self, plan, directory: Path):
        from perfbench.workloads import DIR

        self.plan = plan
        self.placeholder = DIR
        self.calibration = Calibration()
        # Dialect strings double a single quote.
        self.dir_literal = str(directory).replace("'", "''")

    def set_up(self):
        """A fresh engine with its catalog built, and the set-up's record."""
        engine = self.plan.engine()
        start = perf_counter()
        engine.run_script(self.plan.setup.replace(self.placeholder, self.dir_literal))
        seconds = perf_counter() - start
        return engine, Record("setup", seconds, self.calibration.measure())

    def cold_start(self):
        """Steps 1 and 2 of the module docstring. Returns the last engine,
        every set-up record and the first query's record of each round."""
        setups = [self.set_up()[1] for _ in range(SETUP_RUNS)]
        colds = []
        engine = None
        start = perf_counter()
        while not colds or perf_counter() - start < COLD_SECONDS:
            engine = None  # free the previous catalog before building the next
            engine, setup = self.set_up()
            setups.append(setup)
            colds.append(self.execute(engine, self.plan.first))
        return engine, setups, colds

    def execute(self, engine, step) -> Record:
        text = step.text.replace(self.placeholder, self.dir_literal)
        start = perf_counter()
        try:
            answers = engine.run_script(text)
        except Exception as exc:  # a failing statement is counted, not fatal
            seconds = perf_counter() - start
            return Record(step.kind, seconds, self.calibration.measure(),
                          f"raised {type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        probe = self.calibration.measure()
        verdict = step.check(answers)
        ipf = answers[0].diagnostics.get("ipf") if answers else None
        return Record(step.kind, seconds, probe, verdict.failure, verdict.error,
                      verdict.groups, verdict.missing, ipf)

    def stream_length(self, seconds: float) -> int | None:
        """The fixed number of stream steps of a run of `seconds`, or None
        when the stream runs on time."""
        plan = self.plan
        if plan.rounds_per_second is None:
            return None
        rounds = max(1, round(seconds * plan.rounds_per_second))
        return min(rounds * plan.cycle, len(plan.stream))

    def stream(self, engine, seconds: float | None = None, count: int | None = None,
               setups: list[Record] | None = None) -> list[Record]:
        """Stream steps: exactly `count`, or whole rounds until `seconds`
        of steps have passed. Given `setups`, a set-up on a fresh engine is
        appended to it every SETUP_INTERVAL_S between two steps."""
        plan = self.plan
        records = []
        start = last_setup = perf_counter()
        in_setups = 0.0
        i = 0
        while True:
            if count is not None:
                if i >= count:
                    break
            elif i % plan.cycle == 0 and perf_counter() - start - in_setups >= seconds:
                break
            records.append(self.execute(engine, plan.stream[i % len(plan.stream)]))
            i += 1
            if setups is not None and perf_counter() - last_setup >= SETUP_INTERVAL_S:
                begin = perf_counter()
                setups.append(self.set_up()[1])
                last_setup = perf_counter()
                in_setups += last_setup - begin
        return records

    def count_check(self, engine, steps: int) -> list[Record]:
        """After `steps` stream steps, the sample must hold every row that
        set-up and the INGEST steps sent."""
        from perfbench.workloads import Step, Verdict

        plan = self.plan
        if plan.sample_rows is None:
            return []
        expected = plan.sample_rows + sum(
            plan.stream[i % len(plan.stream)].rows for i in range(steps))

        def check(answers):
            got = answers[0].rows[0][0] if answers and answers[0].rows else None
            if got != expected:
                return Verdict(f"sample holds {got} rows, expected {expected}")
            return Verdict()

        return [self.execute(engine, Step(
            "check", "SELECT CLOSED COUNT(*) FROM FlightsLike;", check))]


def open_checks(plan, records: list[Record]) -> tuple[int, list[str]]:
    """Checks over all OPEN answers of a run, also those that failed their
    own check: (number of checks, failures)."""
    answers = [r for r in records if r.kind == "open"]
    failed = []
    checks = 0
    errors = [r.error for r in answers if r.error is not None]
    if plan.open_median_error_pct is not None:
        checks += 1
        middle = statistics.median(errors) if errors else float("inf")
        if middle > plan.open_median_error_pct:
            failed.append(f"open: median error {middle:.1f}% of {len(errors)} answers "
                          f"above {plan.open_median_error_pct}%")
    if plan.open_missing_share is not None:
        checks += 1
        groups = sum(r.groups for r in answers)
        share = sum(r.missing for r in answers) / groups if groups else 1.0
        if share > plan.open_missing_share:
            failed.append(f"open: answers left out {100 * share:.1f}% of the truth's "
                          f"groups, above {100 * plan.open_missing_share:.0f}%")
    return checks, failed


def median(records: list[Record], kind: str | None = None, at=None) -> float | None:
    """Median seconds of the records (of one kind), as measured or, given a
    Calibration `at`, at its reference speed."""
    times = [at.scaled(r, INTERP_SHARE[r.kind]) if at else r.seconds
             for r in records if kind is None or r.kind == kind]
    return statistics.median(times) if times else None


def route_metrics(colds: list[Record], stream: list[Record]):
    """Per-route figures, as measured, as name -> (value, unit, samples):
    the cold first answer, p50 (and p90 where 100 samples allow) per
    statement kind, the mean and worst percent error per estimating route,
    and the groups the OPEN answers left out."""
    out = {}
    kind = colds[0].kind
    cold = "open_cold_s" if kind == "open" else f"{kind}_first_s"
    out[cold] = (statistics.median(r.seconds for r in colds), "s", len(colds))
    for kind in sorted({r.kind for r in stream}):
        times = [r.seconds for r in stream if r.kind == kind]
        out[f"{ROUTE_NAMES[kind]}_p50_ms"] = (1e3 * statistics.median(times), "ms",
                                              len(times))
        if len(times) >= P90_MIN_SAMPLES:
            out[f"{ROUTE_NAMES[kind]}_p90_ms"] = (
                1e3 * statistics.quantiles(times, n=10)[8], "ms", len(times))
    for kind in ("semi_open", "open"):
        answers = [r for r in colds + stream if r.kind == kind and not r.failure]
        errors = [r.error for r in answers if r.error is not None]
        if errors:
            out[f"{kind}_err_pct"] = (statistics.fmean(errors), "%", len(errors))
            out[f"{kind}_worst_err_pct"] = (max(errors), "%", len(errors))
        groups = sum(r.groups for r in answers)
        if kind == "open" and groups:
            out["open_missing_groups_pct"] = (
                100.0 * sum(r.missing for r in answers) / groups, "%", groups)
    return out


def failures(records: list[Record]) -> list[str]:
    return [f"{r.kind}: {r.failure}" for r in records if r.failure]


def print_health(name: str, fits: int, converged_ratio: float,
                 rounds_per_fit: float, cache_hit_ratio: float | None = None) -> None:
    """Counters of conditions that degrade answers, with a warning when IPF
    stopped at its round limit."""
    print("degradation counters:")
    print(f"  {'ipf.converged_ratio':<36} {converged_ratio:12.4f}  ({fits} fits)")
    print(f"  {'ipf.rounds_per_fit':<36} {rounds_per_fit:12.1f}")
    if cache_hit_ratio is not None:
        print(f"  {'mswg.cache_hit_ratio':<36} {cache_hit_ratio:12.4f}")
    if fits and converged_ratio < 1:
        print(f"WARNING: {name}: IPF did not converge in "
              f"{100 * (1 - converged_ratio):.0f}% of {fits} fits "
              f"({rounds_per_fit:.0f} rounds per fit)")


def report_failures(failed: list[str]) -> None:
    for message in failed[:10]:
        print(f"FAILED {message}", file=sys.stderr)


def emit(metrics: dict, attempted: int, failed: list[str], detail: dict) -> None:
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


def timed_run(name: str, seed: int, seconds: float, runner: Runner,
              detail: dict) -> None:
    plan = runner.plan
    engine, setups, colds = runner.cold_start()
    stream = runner.stream(engine, seconds=seconds, count=runner.stream_length(seconds),
                           setups=setups)
    checks = runner.count_check(engine, len(stream))
    n_open_checks, open_failed = open_checks(plan, colds + stream)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    figures = {}  # name -> (value at the reference speed, value as measured, unit)
    for metric, records, kind, unit in (("setup_s", setups, None, "s"),
                                       ("query_p50_ms", stream, plan.primary, "ms")):
        if median(records, kind) is None:
            sys.exit(f"perfbench: no {kind} statements for {metric}")
        factor = 1e3 if unit == "ms" else 1.0
        figures[metric] = (factor * median(records, kind, runner.calibration),
                          factor * median(records, kind), unit)
    figures["peak_rss_mb"] = (peak_rss_mb, peak_rss_mb, "MiB")
    metrics = {m: (v, u) for m, (v, _, u) in figures.items()}
    routes = route_metrics(colds, stream)
    failed = failures(colds + stream + checks) + open_failed

    print(f"workload {name}  seed {seed}  inputs sha256 {detail['inputs_sha256'][:16]}  "
          f"{len(setups)} set-ups, {len(colds)} cold rounds, {len(stream)} stream "
          f"statements ({len(stream) / plan.cycle:.2f} rounds of {plan.cycle})")
    probes = {"interp": statistics.median(runner.calibration.interp),
              "array": statistics.median(runner.calibration.array)}
    print(f"end-to-end (at the reference speed; as measured, with median probes "
          f"of {1e3 * probes['interp']:.3f} ms interpreter and "
          f"{1e3 * probes['array']:.3f} ms array):")
    for metric, (value, raw, unit) in figures.items():
        print(f"  {metric:<22} {value:12.4f} {unit:<4} {raw:12.4f} {unit}")
    print("per route (as measured):")
    for metric, (value, unit, n) in routes.items():
        print(f"  {metric:<22} {value:12.4f} {unit:<4} (n={n})")
    fits = [r.ipf for r in colds + stream if r.ipf is not None]
    print_health(name, len(fits),
                 sum(bool(f.converged) for f in fits) / len(fits) if fits else 0.0,
                 sum(f.rounds for f in fits) / len(fits) if fits else 0.0)
    report_failures(failed)
    detail.update(setup_runs_s=[r.seconds for r in setups], cold_rounds=len(colds),
                  stream_statements=len(stream), probe_median_s=probes,
                  measured={k: v[1] for k, v in figures.items()},
                  routes={k: v[0] for k, v in routes.items()})
    emit(metrics, len(colds) + len(stream) + len(checks) + n_open_checks, failed,
         detail)


def traced_run(name: str, seed: int, seconds: float, runner: Runner,
               detail: dict) -> None:
    from perfbench.tracing import EXPECTED, Tracer

    plan = runner.plan
    engine, setups, colds = runner.cold_start()
    plain = runner.stream(engine, seconds=seconds, count=runner.stream_length(seconds))
    checks = runner.count_check(engine, len(plain))
    wall_plain = setups[-1].seconds + colds[-1].seconds + sum(r.seconds for r in plain)
    engine = None

    with Tracer() as tracer:
        engine, setup = runner.set_up()
        first = runner.execute(engine, plan.first)
        traced = runner.stream(engine, count=len(plain))
    checks += runner.count_check(engine, len(traced))
    wall_traced = setup.seconds + first.seconds + sum(r.seconds for r in traced)
    n_open_checks = 0
    open_failed = []
    for records in (colds + plain, [first] + traced):
        n, failed = open_checks(plan, records)
        n_open_checks += n
        open_failed += failed

    semi_queries = sum(1 for r in [first] + traced if r.kind == "semi_open")
    metrics = tracer.metrics(semi_queries)
    metrics["unattributed_ms"] = (1e3 * (wall_traced - tracer.self_total_s()), "ms")
    metrics["traced_wall_ms"] = (1e3 * wall_traced, "ms")
    metrics["tracing_overhead_pct"] = (
        100.0 * (wall_traced - wall_plain) / wall_plain, "%")

    failed = failures(colds + plain + [first] + traced + checks) + open_failed
    for span in EXPECTED[name]:
        if metrics[f"{span}.calls"][0] == 0:
            failed.append(f"trace: span {span} recorded no calls on {name}")

    print(f"workload {name}  seed {seed}  inputs sha256 {detail['inputs_sha256'][:16]}  "
          f"traced set-up, first query and {len(traced)} stream statements: "
          f"{wall_traced:.3f} s traced, {wall_plain:.3f} s untraced")
    print("largest self times:")
    ranked = sorted((k for k in metrics if k.endswith(".self_ms")),
                    key=lambda k: -metrics[k][0])
    for key in ranked[:8] + ["unattributed_ms"]:
        value = metrics[key][0]
        print(f"  {key:<36} {value:12.1f} ms  {100.0 * value / (1e3 * wall_traced):5.1f}%")
    print(f"  {'tracing_overhead_pct':<36} {metrics['tracing_overhead_pct'][0]:12.1f} %")
    print_health(name, int(metrics["ipf.ipf_fit.calls"][0]),
                 metrics["ipf.converged_ratio"][0], metrics["ipf.rounds_per_fit"][0],
                 metrics["mswg.cache_hit_ratio"][0])
    report_failures(failed)
    detail.update(traced=True, stream_statements=len(traced))
    emit(metrics, len(colds) + len(plain) + 1 + len(traced) + len(checks)
         + n_open_checks, failed, detail)


def main(argv: list[str]) -> None:
    """Run the job that `run.py` pickled to argv[0]."""
    load_program()
    with open(argv[0], "rb") as handle:
        job = pickle.load(handle)
    detail = dict(job["detail"], environment=environment())
    runner = Runner(job["plan"], Path(job["directory"]))
    run = traced_run if job["trace"] else timed_run
    run(job["workload"], job["seed"], job["seconds"], runner, detail)


if __name__ == "__main__":
    main(sys.argv[1:])
