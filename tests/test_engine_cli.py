"""Engine statement dispatch and the command-line surface."""

import argparse
import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import openpop.cli
import openpop.executor
from openpop.catalog import AttributeDef, Catalog, PopulationDef, Relation
from openpop.cli import _build_engine, main
from openpop.engine import Engine
from openpop.errors import (
    ConfigError,
    DialectSyntaxError,
    OpenPopError,
    UnknownRelationError,
)
from openpop.mswg import TrainConfig

COUNTRY_CSV = "country,reported_count\nUK,600\nFR,400\n"
EMAIL_CSV = "email,reported_count\nYahoo,550\nAOL,450\n"


def yahoo_rows_csv(n=80, seed=1) -> str:
    rng = np.random.default_rng(seed)
    lines = ["country,email"]
    for _ in range(n):
        lines.append(f"{rng.choice(['UK', 'FR'], p=[0.7, 0.3])},Yahoo")
    return "\n".join(lines) + "\n"


def write_fixture_files(tmp_path):
    (tmp_path / "country_stats.csv").write_text(COUNTRY_CSV, encoding="utf-8")
    (tmp_path / "email_stats.csv").write_text(EMAIL_CSV, encoding="utf-8")
    (tmp_path / "yahoo_users.csv").write_text(yahoo_rows_csv(), encoding="utf-8")


def migrants_script(tmp_path) -> str:
    return f"""
CREATE TABLE CountryStats (country TEXT, reported_count INT);
CREATE TABLE EmailStats (email TEXT, reported_count INT);
INGEST CountryStats FROM '{tmp_path / "country_stats.csv"}';
INGEST EmailStats FROM '{tmp_path / "email_stats.csv"}';
CREATE GLOBAL POPULATION Migrants (country TEXT, email TEXT);
CREATE METADATA Migrants_ByCountry AS
  (SELECT country, reported_count FROM CountryStats);
CREATE METADATA Migrants_ByEmail AS
  (SELECT email, reported_count FROM EmailStats);
CREATE SAMPLE YahooUsers AS (SELECT * FROM Migrants WHERE email = 'Yahoo');
INGEST YahooUsers FROM '{tmp_path / "yahoo_users.csv"}';
SELECT SEMI-OPEN country, email, COUNT(*) FROM Migrants GROUP BY country, email;
SELECT OPEN country, email, COUNT(*) FROM Migrants GROUP BY country, email;
"""


def fast_engine(seed=0) -> Engine:
    return Engine(seed=seed, train_config=TrainConfig(
        coverage_weight=0.01, latent_dim=2, projections=8, batch_size=16,
        epochs=25, layers=(24, 24), seed=seed))


class TestEngineScript:
    def test_end_to_end_migrants(self, tmp_path):
        write_fixture_files(tmp_path)
        engine = fast_engine()
        answers = engine.run_script(migrants_script(tmp_path))
        assert len(answers) == 2
        semi, openw = answers
        assert semi.provenance == "semi_open_ipf_direct"
        assert openw.provenance == "open"
        sample_keys = {(r[0], r[1]) for r in engine.catalog.sample("YahooUsers").to_rows()}
        assert semi.group_keys(2) <= sample_keys
        assert any(k not in sample_keys for k in openw.group_keys(2))

    def test_metadata_count_star_form(self, tmp_path):
        engine = fast_engine()
        rows = tmp_path / "raw.csv"
        rows.write_text("country,email\nUK,Yahoo\nUK,AOL\nFR,Yahoo\n",
                        encoding="utf-8")
        engine.run_script(f"""
CREATE TABLE Raw (country TEXT, email TEXT);
INGEST Raw FROM '{rows}';
CREATE GLOBAL POPULATION P (country TEXT, email TEXT);
CREATE METADATA P_Country AS (SELECT country, COUNT(*) FROM Raw GROUP BY country);
""")
        (marginal,) = engine.catalog.marginals_for("P")
        assert marginal.cells == {"UK": 2.0, "FR": 1.0}

    def test_metadata_for_derived_population(self, tmp_path):
        engine = fast_engine()
        rows = tmp_path / "raw.csv"
        rows.write_text("country,reported_count\nUK,10\n", encoding="utf-8")
        engine.run_script(f"""
CREATE TABLE Stats (country TEXT, reported_count INT);
INGEST Stats FROM '{rows}';
CREATE GLOBAL POPULATION P (country TEXT, email TEXT);
CREATE POPULATION UkOnly AS (SELECT * FROM P WHERE country = 'UK');
CREATE METADATA Uk_M FOR UkOnly AS (SELECT country, reported_count FROM Stats);
""")
        assert engine.catalog.marginals_for("UkOnly")

    def test_unknown_metadata_source(self):
        engine = fast_engine()
        engine.run_script("CREATE GLOBAL POPULATION P (a TEXT);")
        with pytest.raises(UnknownRelationError):
            engine.run_script(
                "CREATE METADATA M AS (SELECT a, n FROM Missing);")

    def test_syntax_error_position(self):
        engine = fast_engine()
        with pytest.raises(DialectSyntaxError):
            engine.run_script("CREATE GLOBAL POPULATION;")

    def test_set_config_and_seed(self):
        engine = fast_engine()
        engine.set_config("train.epochs", "7")
        assert engine.options.train_config.epochs == 7
        engine.set_config("ipf.max_rounds", "5")
        assert engine.options.ipf.max_rounds == 5
        engine.set_seed(42)
        assert engine.options.train_config.seed == 42

    def test_mechanism_statement_weighting(self):
        engine = fast_engine()
        engine.run_script("""
CREATE GLOBAL POPULATION P (a TEXT);
CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 10);
""")
        engine.catalog.ingest_rows("S", [("x",)] * 7)
        (answer,) = engine.run_script("SELECT SEMI-OPEN COUNT(*) FROM P;")
        assert answer.rows == [(70.0,)]

    def test_force_train_populates_cache(self, tmp_path):
        write_fixture_files(tmp_path)
        engine = fast_engine()
        for stmt in migrants_script(tmp_path).split(";")[:-3]:
            if stmt.strip():
                engine.run_script(stmt + ";")
        trained = engine.force_train("YahooUsers")
        assert trained.net.num_params() > 0
        assert len(engine.options.generator_cache) == 1

    def test_force_train_then_open_trains_once(self, tmp_path, monkeypatch):
        calls = []
        real_train = openpop.executor.train

        def counting_train(*args, **kwargs):
            calls.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(openpop.executor, "train", counting_train)
        write_fixture_files(tmp_path)
        engine = fast_engine()
        for stmt in migrants_script(tmp_path).split(";")[:-3]:
            if stmt.strip():
                engine.run_script(stmt + ";")
        engine.force_train("YahooUsers")
        engine.run_script(
            "SELECT OPEN country, COUNT(*) FROM Migrants GROUP BY country;")
        assert len(calls) == 1
        assert len(engine.options.generator_cache) == 1

    def test_set_config_rejects_unknown_keys(self):
        engine = fast_engine()
        for key in ("train.bogus", "ipf.bogus", "train.__init__", "train.",
                    "bogus"):
            with pytest.raises(ConfigError, match="unknown config key"):
                engine.set_config(key, "1")
        engine.set_config("k_samples", "3")
        assert engine.options.k_samples == 3

    def test_config_file_seed_then_flag(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("seed = 5\ntrain.epochs = 3\nipf.max_rounds = 7\n"
                          "k_samples = 4\n", encoding="utf-8")
        args = argparse.Namespace(seed=None, config=str(config), quiet=True,
                                  catalog=None)
        engine = _build_engine(args)
        assert (engine.seed, engine.options.train_config.seed) == (5, 5)
        assert engine.options.train_config.epochs == 3
        assert engine.options.ipf.max_rounds == 7
        assert engine.options.k_samples == 4
        args.seed = 9
        engine = _build_engine(args)
        assert (engine.seed, engine.options.train_config.seed) == (9, 9)

    @pytest.mark.parametrize("flag, config_seed, expected", [
        (None, None, 7), (None, 5, 5), (3, 5, 3), (3, None, 3)])
    def test_seed_order_with_loaded_catalog(self, tmp_path, flag, config_seed,
                                            expected):
        # --seed, then the config file's seed, then the catalog's, then 0.
        catalog_path = tmp_path / "c.opc"
        Catalog(seed=7).save(catalog_path)
        config = tmp_path / "run.conf"
        config.write_text("" if config_seed is None else f"seed = {config_seed}\n",
                          encoding="utf-8")
        args = argparse.Namespace(seed=flag, config=str(config), quiet=True,
                                  catalog=str(catalog_path))
        engine = _build_engine(args)
        assert (engine.seed, engine.catalog.seed,
                engine.options.train_config.seed) == (expected,) * 3

    def test_malformed_config_file(self, tmp_path):
        from openpop.errors import ConfigError
        from openpop.util import read_kv_pairs
        bad = tmp_path / "bad.conf"
        bad.write_text("this is not a pair\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_kv_pairs(bad)


class TestCli:
    def run_cli(self, args, stdin=""):
        import contextlib
        import io
        stdout = io.StringIO()
        stderr = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            old_stdin = sys.stdin
            sys.stdin = io.StringIO(stdin)
            try:
                code = main(args)
            finally:
                sys.stdin = old_stdin
        return code, stdout.getvalue(), stderr.getvalue()

    def script_path(self, tmp_path, text) -> str:
        path = tmp_path / "script.opq"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_script_exit_zero(self, tmp_path):
        write_fixture_files(tmp_path)
        config = tmp_path / "fast.conf"
        config.write_text("train.epochs = 20\ntrain.batch_size = 16\n"
                          "train.layers = 24 24\ntrain.projections = 8\n"
                          "train.coverage_weight = 0.01\ntrain.latent_dim = 2\n",
                          encoding="utf-8")
        path = self.script_path(tmp_path, migrants_script(tmp_path))
        code, out, err = self.run_cli(["--script", path, "--quiet",
                                       "--config", str(config)])
        assert code == 0
        assert "semi_open_ipf_direct" in out and "open" in out

    def test_empty_script_exit_zero(self, tmp_path):
        path = self.script_path(tmp_path, "")
        code, out, _ = self.run_cli(["--script", path, "--quiet"])
        assert code == 0 and out == ""

    def test_error_script_nonzero_exit(self, tmp_path):
        path = self.script_path(tmp_path, "SELECT FROM;")
        code, _, err = self.run_cli(["--script", path, "--quiet"])
        assert code == 1
        assert "error" in err

    def test_strict_ipf_structural_zero_fails_script(self, tmp_path):
        write_fixture_files(tmp_path)
        config = tmp_path / "strict.conf"
        config.write_text("ipf.zero_policy = error\n", encoding="utf-8")
        text = migrants_script(tmp_path).rsplit("SELECT OPEN", 1)[0]
        path = self.script_path(tmp_path, text)
        code, _, err = self.run_cli(["--script", path, "--quiet",
                                     "--config", str(config)])
        assert code == 1
        assert "error" in err

    def empty_sample_script(self, tmp_path) -> str:
        (tmp_path / "stats.csv").write_text("a,n\nx,5\ny,3\n", encoding="utf-8")
        return f"""
CREATE GLOBAL POPULATION P (a TEXT);
CREATE TABLE Stats (a TEXT, n INT);
INGEST Stats FROM '{tmp_path / "stats.csv"}';
CREATE METADATA P_a AS (SELECT a, n FROM Stats);
CREATE SAMPLE S AS (SELECT * FROM P);
SELECT OPEN COUNT(*) FROM P;
"""

    def test_open_over_empty_sample_exit_one(self, tmp_path):
        path = self.script_path(tmp_path, self.empty_sample_script(tmp_path))
        code, _, err = self.run_cli(["--script", path, "--quiet"])
        assert code == 1
        assert "error:" in err and "internal error" not in err

    def test_repl_continues_after_open_over_empty_sample(self, tmp_path):
        stdin = (self.empty_sample_script(tmp_path)
                 + "SELECT CLOSED COUNT(*) FROM P;\n\\quit\n")
        code, out, err = self.run_cli(["--quiet"], stdin=stdin)
        assert code == 0
        assert "error:" in err and "internal error" not in err
        assert "(0 rows, closed)" in out

    @pytest.mark.parametrize("query", [
        "SELECT CLOSED COUNT(*) FROM P WHERE country < 3;",
        "SELECT SEMI-OPEN COUNT(*) FROM P;",
        "SELECT OPEN COUNT(*) FROM P;",
        "SELECT CLOSED COUNT(*) FROM P WHERE age < 1\u00b2;",
    ])
    def test_query_user_errors_exit_one(self, tmp_path, query):
        # A categorical compared by order, a sample that lacks the attribute
        # of a marginal, and a digit that int() rejects are user errors, not
        # internal ones.
        (tmp_path / "ages.csv").write_text("age,n\n30,5\n40,3\n", encoding="utf-8")
        (tmp_path / "rows.csv").write_text("country\nUK\nFR\n", encoding="utf-8")
        path = self.script_path(tmp_path, f"""
CREATE GLOBAL POPULATION P (country TEXT, age INT);
CREATE TABLE Ages (age INT, n INT);
INGEST Ages FROM '{tmp_path / "ages.csv"}';
CREATE METADATA P_ByAge AS (SELECT age, n FROM Ages);
CREATE SAMPLE S AS (SELECT country FROM P);
INGEST S FROM '{tmp_path / "rows.csv"}';
{query}
""")
        code, _, err = self.run_cli(["--script", path, "--quiet"])
        assert code == 1
        assert "error:" in err and "internal error" not in err

    @pytest.mark.parametrize("stmt", [
        "CREATE SAMPLE S AS (SELECT * FROM Bogus);",
        "CREATE SAMPLE S (country TEXT) AS (SELECT * FROM Bogus);",
        "CREATE SAMPLE S AS (SELECT country FROM Bogus);",
        "CREATE POPULATION S AS (SELECT * FROM Bogus);",
        "CREATE POPULATION S (country TEXT) AS (SELECT * FROM Bogus);",
    ])
    def test_create_from_non_global_source_exit_one(self, tmp_path, stmt):
        # README: samples and derived populations are drawn FROM <global>.
        setup = "CREATE GLOBAL POPULATION P (country TEXT);\n"
        path = self.script_path(tmp_path, setup + stmt)
        code, _, err = self.run_cli(["--script", path, "--quiet"])
        assert code == 1
        assert "error: 'Bogus' is not the global population" in err
        engine = Engine()
        engine.run_script(setup)
        with pytest.raises(UnknownRelationError):
            engine.run_script(stmt)
        assert not engine.catalog.samples and list(engine.catalog.populations) == ["P"]

    def test_repl_continues_after_superscript_digit(self):
        # "²" is a digit to str.isdigit but not to int(): a syntax error.
        stdin = """
CREATE GLOBAL POPULATION P (x INT);
CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 50);
SELECT CLOSED COUNT(*) FROM P WHERE x < 1\u00b2;
SELECT CLOSED COUNT(*) FROM P;
\\quit
"""
        code, out, err = self.run_cli(["--quiet"], stdin=stdin)
        assert code == 0
        assert "unexpected character" in err and "internal error" not in err
        assert "closed)" in out

    def test_repl_continues_after_train_without_metadata(self, tmp_path):
        (tmp_path / "rows.csv").write_text("x\n1\n2\n", encoding="utf-8")
        stdin = f"""
CREATE GLOBAL POPULATION P (x INT);
CREATE SAMPLE S AS (SELECT * FROM P);
INGEST S FROM '{tmp_path / "rows.csv"}';
\\train S
SELECT CLOSED COUNT(*) FROM P;
\\quit
"""
        code, out, err = self.run_cli(["--quiet"], stdin=stdin)
        assert code == 0
        assert "population marginal is required" in err
        assert "internal error" not in err
        assert "closed)" in out

    def test_csv_output(self, tmp_path):
        path = self.script_path(tmp_path, """
CREATE GLOBAL POPULATION P (a TEXT);
CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 50);
""")
        code, out, _ = self.run_cli(["--script", path, "--quiet"])
        assert code == 0

    def test_repl_continues_after_error(self, tmp_path):
        stdin = "SELECT nonsense;;\nCREATE GLOBAL POPULATION P (a TEXT);\n\\quit\n"
        code, out, err = self.run_cli(["--quiet"], stdin=stdin)
        assert code == 0
        assert "error" in err

    def test_repl_meta_commands(self, tmp_path):
        catalog_path = tmp_path / "cat.opc"
        stdin = ("CREATE GLOBAL POPULATION P (a TEXT);\n"
                 f"\\save {catalog_path}\n"
                 "\\seed 7\n"
                 "\\config train.epochs 3\n"
                 "\\quit\n")
        code, out, _ = self.run_cli(["--quiet"], stdin=stdin)
        assert code == 0
        assert catalog_path.exists()
        assert "saved catalog" in out

    def test_repl_unknown_config_key_continues(self):
        stdin = ("\\config train.bogus 1\n\\config ipf.tolerance nan\n"
                 "\\config k_samples 3\n\\quit\n")
        code, _, err = self.run_cli(["--quiet"], stdin=stdin)
        assert code == 0
        assert "error: unknown config key" in err
        assert "error: tolerance must be positive, got nan" in err
        assert "internal error" not in err

    def test_repl_rejects_train_seed(self, monkeypatch):
        engines = []
        real_build = openpop.cli._build_engine
        monkeypatch.setattr(openpop.cli, "_build_engine",
                            lambda args: engines.append(real_build(args)) or engines[-1])
        stdin = "\\config train.seed 9\n\\config k_samples 3\n\\quit\n"
        code, _, err = self.run_cli(["--quiet", "--seed", "5"], stdin=stdin)
        assert code == 0
        assert "error: train.seed is not a config key" in err
        assert "\\seed" in err
        (engine,) = engines
        assert engine.options.k_samples == 3
        assert (engine.seed, engine.catalog.seed,
                engine.options.train_config.seed) == (5, 5, 5)

    def test_config_file_train_seed_exit_one(self, tmp_path):
        config = tmp_path / "seeds.conf"
        config.write_text("seed = 5\ntrain.seed = 9\n", encoding="utf-8")
        code, _, err = self.run_cli(["--quiet", "--config", str(config)],
                                    stdin="\\quit\n")
        assert code == 1
        assert "train.seed is not a config key" in err

    def test_config_file_unknown_key_exit_one(self, tmp_path):
        for text in ("bogus = 1\n", "train.bogus = 1\n"):
            config = tmp_path / "bad.conf"
            config.write_text(text, encoding="utf-8")
            code, _, err = self.run_cli(["--quiet", "--config", str(config)],
                                        stdin="\\quit\n")
            assert code == 1
            assert "unknown config key" in err

    def test_corrupt_catalog_is_not_overwritten(self, tmp_path):
        catalog_path = tmp_path / "cat.opc"
        catalog_path.write_bytes(b"\x00 not a catalog\n")
        code, _, err = self.run_cli(["--quiet", "--catalog", str(catalog_path)],
                                    stdin="\\save\n\\quit\n")
        assert code == 1
        assert "error" in err
        assert catalog_path.read_bytes() == b"\x00 not a catalog\n"

    @pytest.mark.parametrize("corrupt", [
        lambda record: {**record, "rows": [["UK"]]},
        lambda record: {**record, "rows": [["UK", 30.0, "extra"]]},
        lambda record: {"kind": "sample"},
        lambda record: [1, 2],
        lambda record: {**record, "mechanism": {"kind": "uniform", "percent": 0,
                                                "strat_attribute": None}},
        lambda record: {**record, "weights": []},
        lambda record: {**record, "schema": [{**record["schema"][0], "name": "zzz"},
                                             record["schema"][1]]},
        lambda record: {**record, "mechanism": {"kind": "stratified", "percent": 10.0,
                                                "strat_attribute": "zzz"}},
    ], ids=["short_row", "long_row", "missing_fields", "not_an_object",
            "zero_percent", "short_weights", "attribute_not_in_global",
            "strat_attribute_not_in_global"])
    def test_malformed_catalog_record_exit_one(self, tmp_path, corrupt):
        catalog_path = tmp_path / "cat.opc"
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("country", "categorical"),
                        AttributeDef("age", "numeric")]))
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", 30.0)])
        catalog.save(catalog_path)
        lines = catalog_path.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith('{"kind": "sample"'))
        lines[lineno - 1] = json.dumps(corrupt(json.loads(lines[lineno - 1])))
        catalog_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = self.run_cli(["--quiet", "--catalog", str(catalog_path)],
                                    stdin="SELECT CLOSED COUNT(*) FROM P;\n\\quit\n")
        assert code == 1
        assert f"error: line {lineno}: malformed catalog record" in err
        assert "Traceback" not in err and "internal error" not in err

    def test_missing_catalog_starts_fresh(self, tmp_path):
        catalog_path = tmp_path / "new.opc"
        stdin = "CREATE GLOBAL POPULATION P (a TEXT);\n\\save\n\\quit\n"
        code, out, _ = self.run_cli(["--quiet", "--catalog", str(catalog_path)],
                                    stdin=stdin)
        assert code == 0 and "saved catalog" in out
        code, _, err = self.run_cli(["--quiet", "--catalog", str(catalog_path)],
                                    stdin="CREATE GLOBAL POPULATION P (a TEXT);\n")
        assert code == 0 and "already in use" in err  # P was loaded

    def test_save_writes_the_seed_the_session_runs_with(self, tmp_path):
        catalog_path = tmp_path / "c.opc"

        def saved_seed(args, stdin="\\save\n\\quit\n"):
            code, _, _ = self.run_cli(["--quiet", "--catalog", str(catalog_path)]
                                      + args, stdin=stdin)
            assert code == 0
            return Catalog.load(catalog_path).seed

        assert saved_seed([], stdin="\\seed 7\n\\save\n\\quit\n") == 7
        assert saved_seed([]) == 7
        assert saved_seed(["--seed", "3"]) == 3
        assert saved_seed([]) == 3

    def test_entry_point_runs(self):
        # The child imports the same openpop as this test, PYTHONPATH or not.
        src = os.path.dirname(os.path.dirname(openpop.executor.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "openpop.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0
        assert "--catalog" in result.stdout


class TestCliExperiment:
    def test_spiral_experiment_deterministic(self, tmp_path):
        spec = tmp_path / "spiral.conf"
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ("population_size = 3000\nsample_size = 300\n"
                "coverages = 0.6\nrepeats = 2\nquery_count = 10\n")
        spec.write_text(base + f"output_csv = {out_a}\n", encoding="utf-8")
        config = tmp_path / "train.conf"
        config.write_text("train.epochs = 2\ntrain.batch_size = 32\n"
                          "train.layers = 16 16\n", encoding="utf-8")
        stdin = f"\\experiment spiral {spec}\n\\quit\n"
        code, _, _ = self.run_cli(["--quiet", "--seed", "3",
                                   "--config", str(config)], stdin=stdin)
        assert code == 0
        spec.write_text(base + f"output_csv = {out_b}\n", encoding="utf-8")
        code, _, _ = self.run_cli(["--quiet", "--seed", "3",
                                   "--config", str(config)], stdin=stdin)
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_experiment_csv_stdout_matches_file(self, tmp_path):
        spec = tmp_path / "spiral.conf"
        out_csv = tmp_path / "spiral.csv"
        spec.write_text("population_size = 2000\nsample_size = 200\n"
                        "coverages = 0.6\nrepeats = 1\nquery_count = 5\n"
                        f"output_csv = {out_csv}\n", encoding="utf-8")
        config = tmp_path / "train.conf"
        config.write_text("train.epochs = 1\ntrain.batch_size = 32\n"
                          "train.layers = 8 8\n", encoding="utf-8")
        code, out, _ = self.run_cli(
            ["--quiet", "--output", "csv", "--config", str(config)],
            stdin=f"\\experiment spiral {spec}\n\\quit\n")
        assert code == 0
        assert out == out_csv.read_text(encoding="utf-8")

    def test_flights_experiment_writes_artifacts(self, tmp_path):
        spec = tmp_path / "flights.conf"
        out_csv = tmp_path / "flights.csv"
        out_svg = tmp_path / "flights.svg"
        spec.write_text(
            f"population_size = 20000\nmethods = unif ipf\n"
            f"output_csv = {out_csv}\noutput_svg = {out_svg}\n",
            encoding="utf-8")
        stdin = f"\\experiment flights {spec}\n\\quit\n"
        code, _, _ = self.run_cli(["--quiet", "--seed", "1"], stdin=stdin)
        assert code == 0
        assert out_csv.exists() and out_svg.exists()
        header = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "query,method,pct_diff,false_negatives,excluded"

    run_cli = TestCli.run_cli


def cache_script(tmp_path) -> str:
    """Migrants with a UK-only population that owns an email marginal, so
    the global and the derived population each fit their own weights."""
    write_fixture_files(tmp_path)
    (tmp_path / "uk_email.csv").write_text("email,reported_count\nYahoo,500\n"
                                           "AOL,100\n", encoding="utf-8")
    return migrants_script(tmp_path).rsplit("SELECT SEMI-OPEN", 1)[0] + f"""
CREATE TABLE UkEmail (email TEXT, reported_count INT);
INGEST UkEmail FROM '{tmp_path / "uk_email.csv"}';
CREATE POPULATION UkMigrants AS (SELECT * FROM Migrants WHERE country = 'UK');
CREATE METADATA Uk_ByEmail FOR UkMigrants AS
  (SELECT email, reported_count FROM UkEmail);
"""


SEMI_QUERIES = [
    "SELECT SEMI-OPEN country, email, COUNT(*) FROM Migrants GROUP BY country, email;",
    "SELECT SEMI-OPEN COUNT(*) FROM Migrants;",
    "SELECT SEMI-OPEN country, COUNT(*) FROM Migrants GROUP BY country;",
    "SELECT SEMI-OPEN COUNT(*) FROM Migrants WHERE country = 'UK';",
]


class TestIpfCache:
    def engine(self, tmp_path) -> Engine:
        engine = fast_engine()
        engine.run_script(cache_script(tmp_path))
        return engine

    def ask(self, engine, query=SEMI_QUERIES[0]):
        (answer,) = engine.run_script(query)
        return answer

    def test_repeated_query_hits_with_identical_answer(self, tmp_path):
        engine = self.engine(tmp_path)
        first = self.ask(engine)
        again = self.ask(engine)
        fresh = self.ask(self.engine(tmp_path))
        assert (first.diagnostics["ipf_cache"], again.diagnostics["ipf_cache"]) \
            == ("miss", "hit")
        assert again.to_text() == fresh.to_text()
        assert again.to_csv() == fresh.to_csv()
        assert again.diagnostics["ipf"] == fresh.diagnostics["ipf"]

    def test_every_input_change_misses(self, tmp_path):
        engine = self.engine(tmp_path)
        self.ask(engine)
        more = tmp_path / "more.csv"
        more.write_text("country,email\nFR,Yahoo\n", encoding="utf-8")
        engine.run_script(f"INGEST YahooUsers FROM '{more}';")
        assert self.ask(engine).diagnostics["ipf_cache"] == "miss"
        rows = len(engine.catalog.sample("YahooUsers"))
        engine.catalog.set_weights("YahooUsers", np.linspace(1.0, 2.0, rows))
        assert self.ask(engine).diagnostics["ipf_cache"] == "miss"
        (tmp_path / "pair.csv").write_text(
            "country,email,reported_count\nUK,Yahoo,300\nFR,Yahoo,250\n",
            encoding="utf-8")
        engine.run_script(f"""
CREATE TABLE Pair (country TEXT, email TEXT, reported_count INT);
INGEST Pair FROM '{tmp_path / "pair.csv"}';
CREATE METADATA Migrants_Pair AS (SELECT country, email, reported_count FROM Pair);
""")
        assert self.ask(engine).diagnostics["ipf_cache"] == "miss"
        engine.set_config("ipf.tolerance", "1e-4")
        assert self.ask(engine).diagnostics["ipf_cache"] == "miss"
        assert self.ask(engine).diagnostics["ipf_cache"] == "hit"
        assert len(engine.options.ipf_cache) == 1

    def test_failed_ingest_keeps_answers(self, tmp_path):
        engine = self.engine(tmp_path)
        before = self.ask(engine)
        bad = tmp_path / "bad.csv"
        bad.write_text("country,email\nFR,Yahoo\nUK\n", encoding="utf-8")
        with pytest.raises(OpenPopError):
            engine.run_script(f"INGEST YahooUsers FROM '{bad}';")
        after = self.ask(engine)
        assert after.diagnostics["ipf_cache"] == "hit"
        assert after.to_text() == before.to_text()
        assert after.to_csv() == before.to_csv()

    def test_ingest_misses_once_and_failed_ingest_hits(self, tmp_path):
        engine = self.engine(tmp_path)
        more = tmp_path / "more.csv"
        more.write_text("country,email\nFR,Yahoo\n", encoding="utf-8")
        bad = tmp_path / "bad.csv"
        bad.write_text("country,email\nFR,Yahoo\nUK\n", encoding="utf-8")
        states = [self.ask(engine).diagnostics["ipf_cache"] for _ in range(2)]
        engine.run_script(f"INGEST YahooUsers FROM '{more}';")
        states += [self.ask(engine).diagnostics["ipf_cache"] for _ in range(2)]
        with pytest.raises(OpenPopError):
            engine.run_script(f"INGEST YahooUsers FROM '{bad}';")
        states.append(self.ask(engine).diagnostics["ipf_cache"])
        assert states == ["miss", "hit", "miss", "hit", "hit"]

    def test_unchanged_sample_is_hashed_once(self, tmp_path, monkeypatch):
        hashed = []
        real_digest = Relation.digest.func

        def counting_digest(relation):
            hashed.append(getattr(relation, "name", None))
            return real_digest(relation)

        digest = functools.cached_property(counting_digest)
        digest.__set_name__(Relation, "digest")
        monkeypatch.setattr(Relation, "digest", digest)
        engine = self.engine(tmp_path)
        self.ask(engine)
        assert hashed == ["YahooUsers"]
        assert self.ask(engine).diagnostics["ipf_cache"] == "hit"
        assert hashed == ["YahooUsers"]
        more = tmp_path / "more.csv"
        more.write_text("country,email\nFR,Yahoo\n", encoding="utf-8")
        engine.run_script(f"INGEST YahooUsers FROM '{more}';")
        self.ask(engine)
        self.ask(engine)
        assert hashed == ["YahooUsers"] * 2

    def test_derived_and_global_populations_keep_own_slots(self, tmp_path):
        engine = self.engine(tmp_path)
        uk = "SELECT SEMI-OPEN email, COUNT(*) FROM UkMigrants GROUP BY email;"
        routes = [(answer.provenance, answer.diagnostics["ipf_cache"])
                  for answer in (self.ask(engine, q)
                                 for q in (uk, SEMI_QUERIES[0], uk, SEMI_QUERIES[0]))]
        assert routes == [("semi_open_ipf_direct", "miss")] * 2 \
            + [("semi_open_ipf_direct", "hit")] * 2
        assert set(engine.options.ipf_cache) == {("YahooUsers", "UkMigrants"),
                                                 ("YahooUsers", "Migrants")}
        assert self.ask(engine, uk).rows == self.ask(self.engine(tmp_path), uk).rows

    def test_cached_weights_are_read_only(self, tmp_path):
        engine = self.engine(tmp_path)
        self.ask(engine)
        (_, weights, _), = engine.options.ipf_cache.values()
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_unchanged_catalog_fits_once(self, tmp_path, monkeypatch):
        fits = []
        real_fit = openpop.executor.ipf_fit

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(openpop.executor, "ipf_fit", counting_fit)
        engine = self.engine(tmp_path)
        answers = [self.ask(engine, q) for q in SEMI_QUERIES * 2]
        assert len(answers) == 8
        assert len(fits) == 1

    def test_ingest_then_open_keeps_one_generator(self, tmp_path):
        # Each INGEST changes the sample, so each OPEN trains anew; the
        # replaced generator is dropped, as the IPF slot's weights are.
        engine = Engine(train_config=TrainConfig(epochs=1, batch_size=50,
                                                 layers=(8,), projections=4))
        engine.run_script(cache_script(tmp_path))
        query = "SELECT OPEN country, COUNT(*) FROM Migrants GROUP BY country;"
        more = tmp_path / "more.csv"
        more.write_text("country,email\nFR,Yahoo\n", encoding="utf-8")
        sizes = []
        for _ in range(5):
            engine.run_script(f"INGEST YahooUsers FROM '{more}';")
            assert self.ask(engine, query).diagnostics["generator_cache"] == "miss"
            sizes.append(len(engine.options.generator_cache))
        assert sizes == [1] * 5

    def test_set_config_keeps_caches_and_restarts_rng(self, tmp_path):
        engine = self.engine(tmp_path)
        engine.set_seed(3)
        query = "SELECT OPEN country, COUNT(*) FROM Migrants GROUP BY country;"
        first_open = self.ask(engine, query)
        assert self.ask(engine).diagnostics["ipf_cache"] == "miss"
        engine.set_config("k_samples", str(engine.options.k_samples))
        assert self.ask(engine).diagnostics["ipf_cache"] == "hit"
        again = self.ask(engine, query)
        assert again.diagnostics["generator_cache"] == "hit"
        assert again.to_csv() == first_open.to_csv()

    def test_open_reports_generator_cache(self, tmp_path):
        engine = self.engine(tmp_path)
        query = "SELECT OPEN country, COUNT(*) FROM Migrants GROUP BY country;"
        assert [self.ask(engine, query).diagnostics["generator_cache"]
                for _ in range(2)] == ["miss", "hit"]
