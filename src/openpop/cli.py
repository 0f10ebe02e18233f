"""Interactive REPL and batch runner for the query dialect.

Exit codes: 0 success, 1 user error (bad input, failed statement),
2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import dialect
from .catalog import Catalog
from .engine import Engine
from .errors import OpenPopError
from .util import parse_setting, read_kv_pairs

META_HELP = """meta-commands:
  \\load <file>            run a script file
  \\save [<file>]          save the catalog (default: --catalog path)
  \\seed <n>               reseed the engine
  \\config <key> <value>   set train.<f>, ipf.<f>, or k_samples
  \\train <sample>         train the generator (kept in the cache)
  \\help                   this text
  \\quit                   leave"""
# command -> its META_HELP line, and the fewest and most arguments it names
USAGE = {words[0][1:]: (line, sum(w[0] == "<" for w in words), len(words) - 1)
         for line in map(str.strip, META_HELP.splitlines()[1:])
         for words in [line.partition("  ")[0].split()]}


def _build_engine(args) -> Engine:
    pairs = read_kv_pairs(args.config) if args.config else {}
    # Only a missing file is a fresh start; \save will create it.
    catalog = (Catalog.load(args.catalog)
               if args.catalog and os.path.exists(args.catalog) else None)
    # The seed is the first given of --seed, the config file's, the loaded
    # catalog's, and 0.
    seeds = (args.seed, pairs.pop("seed", None),
             catalog.seed if catalog else None, 0)
    seed = next(s for s in seeds if s is not None)
    seed = parse_setting("seed", 0, seed) if isinstance(seed, str) else seed
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
    """The answer on stdout; in CSV mode, its warnings on stderr."""
    if output == "csv":
        sys.stdout.write(answer.to_csv())
        for line in answer.warnings():
            print(line, file=sys.stderr)
    else:
        sys.stdout.write(answer.to_text() + "\n")


def _run_text(engine: Engine, text: str, output: str,
              origin: tuple[int, int] = (1, 1)) -> int:
    """Parse `text`, then run its statements in order, printing each answer
    as its statement completes. A syntax error anywhere runs nothing, and is
    reported at its place in the input, where `text` starts at line and
    column `origin`; the first failing statement stops the rest. 0, else 1
    after its error."""
    try:
        for stmt in dialect.parse(text, *origin):
            answer = engine.execute_statement(stmt)
            if answer is not None:
                _print_answer(answer, output)
    except OpenPopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def run_script(path: str, engine: Engine, output: str) -> int:
    """Non-interactive execution; stops at the first error."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: cannot read '{path}': not UTF-8 text ({exc.reason})",
              file=sys.stderr)
        return 1
    return _run_text(engine, text, output)


def _handle_meta(engine: Engine, line: str, args) -> bool:
    """Returns False when the REPL should stop. Status lines go to stderr
    under --output csv, so stdout holds only the CSV answers."""
    status = sys.stderr if args.output == "csv" else sys.stdout
    parts = line[1:].split()
    command = parts[0] if parts else ""
    if command in ("quit", "q", "exit"):
        return False
    if command not in USAGE:
        print("unknown meta-command; try \\help", file=sys.stderr)
        return True
    usage, fewest, most = USAGE[command]
    if not fewest <= len(parts) - 1 <= most:
        print(f"error: usage: {usage}", file=sys.stderr)
    elif command == "help":
        print(META_HELP)
    elif command == "load":
        run_script(parts[1], engine, args.output)
    elif command == "save":
        path = parts[1] if len(parts) > 1 else args.catalog
        if not path:
            print("error: no catalog path (use \\save <file> or --catalog)",
                  file=sys.stderr)
        else:
            engine.catalog.save(path)
            print(f"saved catalog to {path}", file=status)
    elif command == "seed":
        engine.set_seed(parse_setting("seed", engine.seed, parts[1]))
    elif command == "config":
        engine.set_config(parts[1], parts[2])
    elif command == "train":
        trained = engine.force_train(parts[1])
        print(f"trained generator ({trained.net.num_params()} parameters)",
              file=status)
    return True


def repl_loop(engine: Engine, args) -> int:
    """Reads statements, each ended by a `;` token, plus backslash
    meta-commands; each statement runs on its own, errors are printed and
    the loop continues. At end of input, what is left runs too."""
    buffer, origin = "", (1, 1)  # `buffer` starts at line and column `origin`
    stream = sys.stdin
    interactive = stream.isatty()
    if interactive:
        print("openpop — \\help for meta-commands, \\quit to leave")
    while True:
        if interactive:
            sys.stderr.write("... " if buffer else ">>> ")
            sys.stderr.flush()
        line = stream.readline()
        if not line:
            break
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            origin = (origin[0] + 1, 1)
            try:
                if not _handle_meta(engine, stripped, args):
                    break
            except (OpenPopError, ValueError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
            continue
        buffer += line
        tokens, start = dialect.tokenize(buffer, *origin), 0
        for tok in tokens:
            if tok.type == ";":
                _run_text(engine, buffer[start:tok.pos + 1], args.output, origin)
                start, origin = tok.pos + 1, (tok.line, tok.col + 1)
        # What follows the last `;` waits for more input if it holds a token.
        if len(tokens) > 1 and tokens[-2].type != ";":
            buffer = buffer[start:]
        else:
            buffer, origin = "", (tokens[-1].line, tokens[-1].col)
    if buffer:
        _run_text(engine, buffer, args.output, origin)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="openpop",
        description="Population queries over arbitrarily biased samples.")
    parser.add_argument("--catalog", help="catalog file to load/save")
    parser.add_argument("--script", help="run this script instead of a REPL")
    parser.add_argument("--seed", default=None)  # read by parse_setting
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
