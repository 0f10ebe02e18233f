"""Closed-loop benchmark of the openpop Engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` of that checkout. One client sends dialect statements to
`Engine.run_script`, the next only after the previous answer returned.

This process builds the workload's inputs and their expected answers from
the seed and writes the input files. It then starts `perfbench/measure.py`
in a child process, which drives the engine and prints the report (its
module docstring describes a run and the metrics), and waits for it: the
child's peak RSS is the program's, not that of generating a population of
426k rows. The child's exit code is this process's.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads its BLAS, and inherited by the measured child;
# the same on every run and every commit.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.measure import ROOT, load_program  # noqa: E402

WORK = ROOT / ".perfbench_work"  # generated input files, removed after each run
# The measured child is stopped when the whole run would otherwise take longer.
RUN_LIMIT_S = 170.0


def inputs_digest(name: str, seed: int, plan) -> str:
    digest = hashlib.sha256(f"{name}\0{seed}\0".encode())
    for file_name in sorted(plan.files):
        digest.update(f"{file_name}\0{plan.files[file_name]}\0".encode())
    for text in [plan.setup, plan.first.text] + [s.text for s in plan.stream]:
        digest.update(text.encode() + b"\0")
    return digest.hexdigest()


@contextmanager
def written(plan, directory: Path):
    """The plan's input files, in `directory` while the context is open."""
    directory.mkdir(parents=True)
    try:
        for file_name, content in plan.files.items():
            (directory / file_name).write_text(content, encoding="utf-8")
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv=None) -> int:
    start = perf_counter()
    load_program()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    plan = WORKLOADS[args.workload](args.seed)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "inputs_sha256": inputs_digest(args.workload, args.seed, plan),
              **plan.notes}
    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with written(plan, directory):
            job = directory / "job.pickle"
            job.write_bytes(pickle.dumps({
                "plan": replace(plan, files={}), "directory": str(directory),
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "detail": detail}))
            del plan
            done = subprocess.run(
                [sys.executable, "-m", "perfbench.measure", str(job)], cwd=ROOT,
                timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - start)), check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: the measured process did not finish within "
              f"{RUN_LIMIT_S:.0f} s of the start", file=sys.stderr)
        return 1
    finally:
        _remove_if_empty(WORK)
    return done.returncode


def _remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:  # other runs' files, or already gone
        pass


if __name__ == "__main__":
    sys.exit(main())
