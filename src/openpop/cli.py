"""Interactive REPL and batch runner for the query dialect.

Exit codes: 0 success, 1 user error (bad input, failed statement),
2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import bench
from .catalog import Catalog
from .engine import Engine
from .errors import ConfigError, OpenPopError
from .util import apply_kv, csv_text, read_kv_pairs

META_HELP = """meta-commands:
  \\load <file>            run a script file
  \\save [<file>]          save the catalog (default: --catalog path)
  \\seed <n>               reseed the engine
  \\config <key> <value>   set train.<f>, ipf.<f>, or k_samples
  \\train <sample>         train the generator (kept in the cache)
  \\experiment spiral|flights [<spec-file>]
  \\help                   this text
  \\quit                   leave"""


def _build_engine(args) -> Engine:
    pairs = read_kv_pairs(args.config) if args.config else {}
    # Only a missing file is a fresh start; \save will create it.
    catalog = (Catalog.load(args.catalog)
               if args.catalog and os.path.exists(args.catalog) else None)
    # The seed is the first given of --seed, the config file's, the loaded
    # catalog's, and 0.
    seeds = (args.seed, pairs.pop("seed", None),
             catalog.seed if catalog else None, 0)
    seed = int(next(s for s in seeds if s is not None))
    log = (lambda message: None) if args.quiet else \
        (lambda message: print(message, file=sys.stderr))
    engine = Engine(seed=seed, log=log)
    for key, value in pairs.items():
        engine.set_config(key, value)
    if catalog is not None:
        catalog.seed = seed
        engine.catalog = catalog
    return engine


def _print_answer(answer, output: str) -> None:
    if output == "csv":
        sys.stdout.write(answer.to_csv())
    else:
        print(answer.to_text())


def run_script(path: str, engine: Engine, output: str) -> int:
    """Non-interactive execution; stops at the first error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        for answer in engine.run_script(text):
            _print_answer(answer, output)
    except OpenPopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_experiment(engine: Engine, kind: str, spec_path: str | None,
                    output: str) -> None:
    pairs = read_kv_pairs(spec_path) if spec_path else {}
    out_csv = pairs.pop("output_csv", f"{kind}_results.csv")
    out_svg = pairs.pop("output_svg", None)
    if kind == "spiral":
        coverages = tuple(float(v) for v in
                          pairs.pop("coverages", "0.01 0.2 0.4 0.6 0.8").split())
        repeats = int(pairs.pop("repeats", "10"))
        query_count = int(pairs.pop("query_count", "100"))
        spec = bench.SpiralSpec(seed=engine.seed,
                                **apply_kv(bench.SpiralSpec(), pairs))
        table = bench.run_spiral_experiment(
            spec, coverages, repeats=repeats, query_count=query_count,
            train_cfg=replace(engine.options.train_config, seed=engine.seed),
            log=engine.log)
    elif kind == "flights":
        methods = tuple(pairs.pop("methods", "unif ipf mswg").split())
        spec = bench.FlightsLikeSpec(seed=engine.seed,
                                     **apply_kv(bench.FlightsLikeSpec(), pairs))
        table = bench.run_flightslike_experiment(spec, methods=methods,
                                                 log=engine.log)
    else:
        raise ConfigError(f"unknown experiment {kind!r} (spiral or flights)")
    bench.emit_csv(table, out_csv)
    engine.log(f"wrote {out_csv}")
    if out_svg:
        if kind == "flights":
            bench.emit_svg_boxplot(bench.summarize_by_method(table), out_svg)
        else:
            bench.emit_svg_boxplot(table, out_svg)
        engine.log(f"wrote {out_svg}")
    if output == "csv":
        sys.stdout.write(csv_text(table.columns, table.rows))


def _handle_meta(engine: Engine, line: str, args) -> bool:
    """Returns False when the REPL should stop."""
    parts = line[1:].split()
    command = parts[0] if parts else ""
    if command in ("quit", "q", "exit"):
        return False
    if command == "help":
        print(META_HELP)
    elif command == "load" and len(parts) == 2:
        run_script(parts[1], engine, args.output)
    elif command == "save":
        path = parts[1] if len(parts) > 1 else args.catalog
        if not path:
            print("error: no catalog path (use \\save <file> or --catalog)",
                  file=sys.stderr)
        else:
            engine.catalog.save(path)
            print(f"saved catalog to {path}")
    elif command == "seed" and len(parts) == 2:
        engine.set_seed(int(parts[1]))
    elif command == "config" and len(parts) == 3:
        engine.set_config(parts[1], parts[2])
    elif command == "train" and len(parts) == 2:
        trained = engine.force_train(parts[1])
        print(f"trained generator ({trained.net.num_params()} parameters)")
    elif command == "experiment" and len(parts) >= 2:
        _run_experiment(engine, parts[1], parts[2] if len(parts) > 2 else None,
                        args.output)
    else:
        print(f"unknown meta-command; try \\help", file=sys.stderr)
    return True


def repl_loop(engine: Engine, args) -> int:
    """Reads statements terminated by ';' plus backslash meta-commands;
    errors are printed and the loop continues."""
    buffer = ""
    stream = sys.stdin
    interactive = stream.isatty()
    if interactive:
        print("openpop — \\help for meta-commands, \\quit to leave")
    while True:
        if interactive:
            sys.stderr.write("... " if buffer.strip() else ">>> ")
            sys.stderr.flush()
        line = stream.readline()
        if not line:
            break
        stripped = line.strip()
        if not buffer.strip() and stripped.startswith("\\"):
            try:
                if not _handle_meta(engine, stripped, args):
                    break
            except OpenPopError as exc:
                print(f"error: {exc}", file=sys.stderr)
            except (ValueError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
            continue
        buffer += line
        while ";" in buffer:
            statement, buffer = buffer.split(";", 1)
            statement = statement.strip()
            if not statement:
                continue
            try:
                for answer in engine.run_script(statement + ";"):
                    _print_answer(answer, args.output)
            except OpenPopError as exc:
                print(f"error: {exc}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="openpop",
        description="Population queries over arbitrarily biased samples.")
    parser.add_argument("--catalog", help="catalog file to load/save")
    parser.add_argument("--script", help="run this script instead of a REPL")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", help="key-value config file "
                                         "(train.*, ipf.*, k_samples, seed)")
    parser.add_argument("--output", choices=("table", "csv"), default="table")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    args = parser.parse_args(argv)

    try:
        engine = _build_engine(args)
    except (OpenPopError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.script:
            return run_script(args.script, engine, args.output)
        return repl_loop(engine, args)
    except OpenPopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
