"""Engine statement dispatch and the command-line surface."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import openpop.cli
import openpop.executor
from openpop.catalog import AttributeDef, Catalog, NumericBinning, PopulationDef
from openpop.cli import _build_engine, _run_text, main, repl_loop
from openpop.engine import Engine
from openpop.errors import (
    ConfigError,
    DialectSyntaxError,
    OpenPopError,
    UnknownRelationError,
)
from openpop.executor import ExecOptions
from openpop.ipf import IpfConfig
from openpop.mswg import TrainConfig

from conftest import group_keys

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
        assert group_keys(semi, 2) <= sample_keys
        assert any(k not in sample_keys for k in group_keys(openw, 2))

    def test_temporary_table_is_kept_and_saved_like_any_table(self, tmp_path):
        (tmp_path / "stats.csv").write_text("a,n\nx,5\ny,3\n", encoding="utf-8")

        def saved(create):
            engine = Engine()
            engine.run_script(f"""
{create} Stats (a TEXT, n INT);
INGEST Stats FROM '{tmp_path / "stats.csv"}';
CREATE GLOBAL POPULATION P (a TEXT);
CREATE METADATA P_a AS (SELECT a, n FROM Stats);
""")
            (marginal,) = engine.catalog.marginals_for("P")
            assert marginal.cells == {"x": 5.0, "y": 3.0}
            path = tmp_path / f"{create.split()[1]}.opc"
            engine.catalog.save(path)
            return path

        path = saved("CREATE TEMPORARY TABLE")
        loaded = Catalog.load(path)
        assert loaded.aux["Stats"].to_rows() == [("x", 5.0), ("y", 3.0)]
        loaded.save(tmp_path / "reloaded.opc")
        assert (tmp_path / "reloaded.opc").read_bytes() == path.read_bytes()
        assert saved("CREATE TABLE").read_bytes() == path.read_bytes()

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

    def test_engine_seed_reaches_training(self, tmp_path):
        # The seed given to Engine trains the generators, as set_seed's does,
        # whatever seed the TrainConfig carries.
        write_fixture_files(tmp_path)
        cfg = TrainConfig(coverage_weight=0.01, latent_dim=2, projections=8,
                          batch_size=16, epochs=3, layers=(16, 16))
        seeded = Engine(seed=5, train_config=cfg)
        reseeded = Engine(train_config=cfg)
        reseeded.set_seed(5)
        assert seeded.options.train_config.seed == 5
        answers = []
        for engine in (seeded, reseeded):
            (answer,) = engine.run_script(migrants_script(tmp_path).rsplit(
                "SELECT SEMI-OPEN", 1)[0]
                + "SELECT OPEN country, email, COUNT(*) FROM Migrants "
                  "GROUP BY country, email;")
            answers.append((answer.to_text(), answer.to_csv()))
        assert answers[0] == answers[1]

    def test_assigned_catalog_seeds_training_and_rng(self):
        # Assigning a catalog used to leave the generators' seed at the
        # constructor's seed, apart from `engine.seed`.
        engine = Engine(seed=3)
        engine.catalog = Catalog(seed=9)
        want = Engine(seed=9).options
        assert engine.seed == 9
        assert engine.options.train_config == want.train_config

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
                    "bogus", "train.batch_norm", "train.plateau_factor",
                    "train.plateau_patience", "train.plateau_min_improvement",
                    "train.coverage_subsample", "ipf.zero_policy"):
            with pytest.raises(ConfigError, match="unknown config key"):
                engine.set_config(key, "1")
        engine.set_config("k_samples", "3")
        assert engine.options.k_samples == 3

    def test_set_config_value_errors_name_the_setting(self):
        # These used to raise Python's bare int() or float() message.
        engine = fast_engine()
        before = engine.options
        for key, value, message in (
                ("k_samples", "x", "k_samples must be an integer, got 'x'"),
                ("train.epochs", "x", "epochs must be an integer, got 'x'"),
                ("train.layers", "8,x",
                 "layers must be integers separated by commas or spaces, got '8,x'"),
                ("ipf.max_rounds", "1.5", "max_rounds must be an integer, got '1.5'"),
                ("ipf.tolerance", "abc", "tolerance must be a number, got 'abc'")):
            with pytest.raises(ConfigError, match=re.escape(message)):
                engine.set_config(key, value)
            assert engine.options is before

    def test_readme_lists_every_config_key(self):
        # README's table of \config keys names each key set_config takes,
        # with its default.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("`\\config` takes these keys:", 1)[1].split("\n\n")[1]
        listed = dict(re.findall(r"^\| `([\w.]+)` \| ([^|]+) \|", table, re.M))
        accepted = ({f"train.{f.name}" for f in fields(TrainConfig)} - {"train.seed"}
                    | {f"ipf.{f.name}" for f in fields(IpfConfig)} | {"k_samples"})
        assert sorted(listed) == sorted(accepted)
        engine = Engine()
        for key, default in listed.items():
            engine.set_config(key, default)
        defaults = ExecOptions()
        assert (engine.options.train_config, engine.options.ipf,
                engine.options.k_samples) == (defaults.train_config, defaults.ipf,
                                              defaults.k_samples)

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

    def test_ingest_logs_its_row_count(self, tmp_path):
        for name, text in (("one.csv", "a\nx\n"), ("two.csv", "a\nx\ny\n")):
            (tmp_path / name).write_text(text, encoding="utf-8")
        path = self.script_path(tmp_path, "CREATE TABLE T (a TEXT);\n"
                                f"INGEST T FROM '{tmp_path / 'one.csv'}';\n"
                                f"INGEST T FROM '{tmp_path / 'two.csv'}';\n")
        code, _, err = self.run_cli(["--script", path])
        assert code == 0
        assert err.splitlines() == ["ingested 1 row into T", "ingested 2 rows into T"]

    def test_error_script_nonzero_exit(self, tmp_path):
        path = self.script_path(tmp_path, "SELECT FROM;")
        code, _, err = self.run_cli(["--script", path, "--quiet"])
        assert code == 1
        assert "error" in err

    def test_strict_ipf_structural_zero_fails_script(self, tmp_path):
        # No cell of the email marginal holds a row of the Yahoo-only
        # sample, so IPF has none of its mass left to fit.
        write_fixture_files(tmp_path)
        (tmp_path / "email_stats.csv").write_text(
            "email,reported_count\nAOL,450\nGmail,550\n", encoding="utf-8")
        config = tmp_path / "ipf.conf"
        config.write_text("ipf.max_rounds = 50\n", encoding="utf-8")
        text = migrants_script(tmp_path).rsplit("SELECT OPEN", 1)[0]
        path = self.script_path(tmp_path, text)
        code, _, err = self.run_cli(["--script", path, "--quiet",
                                     "--config", str(config)])
        assert code == 1
        assert "error: all target mass of marginal over ('email',)" in err
        assert "internal error" not in err

    def test_csv_output_prints_the_warnings_on_stderr(self, tmp_path):
        # The email marginal's AOL cell holds no row of the Yahoo-only
        # sample; the CSV used to leave that unsaid.
        write_fixture_files(tmp_path)
        text = migrants_script(tmp_path).rsplit("SELECT OPEN", 1)[0]
        path = self.script_path(tmp_path, text)
        code, table, warned = self.run_cli(["--script", path, "--quiet"])
        assert code == 0 and warned == ""
        code, out, err = self.run_cli(["--script", path, "--quiet", "--output", "csv"])
        assert code == 0
        (answer,) = Engine().run_script(text)
        assert out == answer.to_csv() and "warning" not in out
        assert err.splitlines() == answer.warnings() == [
            "warning: IPF dropped 450 target mass in 1 structural-zero cells"]
        assert table.splitlines()[-1] == answer.warnings()[0]

    def test_csv_output_keeps_meta_command_status_off_stdout(self, tmp_path):
        # A piped session's stdout holds the CSV answers alone: the status
        # lines of \train and \save go to stderr, after the IPF warning.
        write_fixture_files(tmp_path)
        text = migrants_script(tmp_path).rsplit("SELECT OPEN", 1)[0]
        code, expected, _ = self.run_cli(["--script", self.script_path(tmp_path, text),
                                          "--quiet", "--output", "csv"])
        assert code == 0 and expected
        config = tmp_path / "fast.conf"
        config.write_text("train.epochs = 2\ntrain.batch_size = 16\n"
                          "train.layers = 8\ntrain.projections = 4\n", encoding="utf-8")
        catalog_path = tmp_path / "cat.opc"
        code, out, err = self.run_cli(
            ["--quiet", "--output", "csv", "--config", str(config)],
            stdin=text + f"\\train YahooUsers\n\\save {catalog_path}\n")
        assert code == 0 and out == expected
        warning, trained, saved = err.splitlines()
        assert warning.startswith("warning: IPF dropped")
        assert re.fullmatch(r"trained generator \(\d+ parameters\)", trained)
        assert saved == f"saved catalog to {catalog_path}" and catalog_path.exists()

    def non_utf8_ingest(self, tmp_path) -> str:
        (tmp_path / "latin.csv").write_bytes(b"country,email\nUK,Yahoo\n\xff\xfe,Yahoo\n")
        return (migrants_script(tmp_path).rsplit("SELECT SEMI-OPEN", 1)[0]
                + f"INGEST YahooUsers FROM '{tmp_path / 'latin.csv'}';\n")

    def test_non_utf8_csv_fails_script(self, tmp_path):
        write_fixture_files(tmp_path)
        path = self.script_path(tmp_path, self.non_utf8_ingest(tmp_path))
        code, _, err = self.run_cli(["--script", path, "--quiet"])
        assert code == 1
        assert f"error: cannot read '{tmp_path / 'latin.csv'}': not UTF-8 text" in err
        assert "internal error" not in err

    def test_repl_continues_after_non_utf8_csv(self, tmp_path):
        write_fixture_files(tmp_path)
        stdin = (self.non_utf8_ingest(tmp_path)
                 + "SELECT CLOSED COUNT(*) FROM Migrants;\n\\quit\n")
        code, out, err = self.run_cli(["--quiet"], stdin=stdin)
        assert code == 0
        assert "not UTF-8 text" in err and "internal error" not in err
        assert "80.0" in out and "(1 row, closed)" in out

    def test_non_utf8_script_fails(self, tmp_path):
        path = tmp_path / "latin.opq"
        path.write_bytes(b"SELECT CLOSED COUNT(*) FROM P;\n-- \xff\n")
        code, out, err = self.run_cli(["--script", str(path), "--quiet"])
        assert code == 1 and out == ""
        assert err == (f"error: cannot read '{path}': not UTF-8 text "
                       "(invalid start byte)\n")

    def test_script_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.opq"
        path.write_text("\ufeffCREATE GLOBAL POPULATION P (a TEXT);\n"
                        "CREATE SAMPLE S AS (SELECT * FROM P);\n"
                        "SELECT CLOSED COUNT(*) FROM P;\n", encoding="utf-8")
        code, out, err = self.run_cli(["--script", str(path), "--quiet"])
        assert (code, err) == (0, "")
        assert "(0 rows, closed)" in out

    def test_config_with_byte_order_mark(self, tmp_path):
        config = tmp_path / "bom.conf"
        config.write_text("\ufeffk_samples = 4\n", encoding="utf-8")
        args = argparse.Namespace(seed=None, config=str(config), quiet=True,
                                  catalog=None)
        assert _build_engine(args).options.k_samples == 4

    def test_catalog_with_byte_order_mark(self, tmp_path):
        catalog_path = tmp_path / "bom.opc"
        Catalog(seed=7).save(catalog_path)
        assert not catalog_path.read_bytes().startswith(b"\xef\xbb\xbf")
        catalog_path.write_bytes(b"\xef\xbb\xbf" + catalog_path.read_bytes())
        code, _, err = self.run_cli(["--quiet", "--catalog", str(catalog_path)],
                                    stdin="\\quit\n")
        assert (code, err) == (0, "")
        assert Catalog.load(catalog_path).seed == 7

    def test_metadata_over_header_only_table_exit_one(self, tmp_path):
        (tmp_path / "stats.csv").write_text("a,n\n", encoding="utf-8")
        path = self.script_path(tmp_path, f"""
CREATE GLOBAL POPULATION P (a TEXT);
CREATE TABLE Stats (a TEXT, n INT);
INGEST Stats FROM '{tmp_path / "stats.csv"}';
CREATE METADATA P_a AS (SELECT a, n FROM Stats);
""")
        code, _, err = self.run_cli(["--script", path, "--quiet"])
        assert code == 1
        assert err == "error: marginal over ('a',) has no cells\n"

    @pytest.mark.parametrize("select, message", [
        ("SELECT b, n FROM Stats", "attribute 'b' not in table 'Stats'"),
        ("SELECT a, m FROM Stats", "count column 'm' not in 'Stats'"),
        ("SELECT a, a FROM Stats", "count column 'a' must be numeric"),
    ], ids=["attribute", "count_column", "text_count_column"])
    def test_create_metadata_user_errors_exit_one(self, tmp_path, select, message):
        (tmp_path / "stats.csv").write_text("a,n\nx,5\ny,3\n", encoding="utf-8")
        setup = f"""
CREATE GLOBAL POPULATION P (a TEXT);
CREATE TABLE Stats (a TEXT, n INT);
INGEST Stats FROM '{tmp_path / "stats.csv"}';
"""
        stmt = f"CREATE METADATA P_a AS ({select});\n"
        path = self.script_path(tmp_path, setup + stmt)
        code, out, err = self.run_cli(["--script", path, "--quiet"])
        assert (code, out, err) == (1, "", f"error: {message}\n")
        engine = Engine()
        engine.run_script(setup)
        engine.catalog.save(tmp_path / "before.opc")
        with pytest.raises(OpenPopError, match=re.escape(message)):
            engine.run_script(stmt)
        engine.catalog.save(tmp_path / "after.opc")
        assert ((tmp_path / "after.opc").read_bytes()
                == (tmp_path / "before.opc").read_bytes())

    def test_in_list_predicates_survive_save_and_load(self, tmp_path):
        (tmp_path / "xs.csv").write_text("x,n\n1,60\n2,40\n", encoding="utf-8")
        (tmp_path / "rows.csv").write_text("c,x\na,1\na,2\na,1\n", encoding="utf-8")
        catalog_path = tmp_path / "cat.opc"
        setup = f"""
CREATE TABLE Xs (x INT, n INT);
INGEST Xs FROM '{tmp_path / "xs.csv"}';
CREATE GLOBAL POPULATION P (c TEXT, x INT);
CREATE POPULATION V AS (SELECT * FROM P WHERE c IN ['a', 'b']);
CREATE METADATA V_x FOR V AS (SELECT x, n FROM Xs);
CREATE SAMPLE S AS (SELECT * FROM P WHERE c IN ('a'));
INGEST S FROM '{tmp_path / "rows.csv"}';
"""
        query = "SELECT SEMI-OPEN c, x, COUNT(*) FROM V GROUP BY c, x;\n"
        code, saved, err = self.run_cli(
            ["--quiet", "--catalog", str(catalog_path)],
            stdin=setup + query + "\\save\n\\quit\n")
        assert (code, err) == (0, "")
        assert "semi_open_ipf_direct" in saved
        engine = Engine()
        engine.run_script(setup)
        loaded = Catalog.load(catalog_path)
        assert (loaded.population("V").predicate
                == engine.catalog.population("V").predicate)
        assert loaded.sample("S").predicate == engine.catalog.sample("S").predicate
        code, out, err = self.run_cli(["--quiet", "--catalog", str(catalog_path),
                                       "--script", self.script_path(tmp_path, query)])
        assert (code, err) == (0, "")
        assert out == saved.split("saved catalog")[0]

    def test_repl_continues_after_loading_non_utf8_script(self, tmp_path):
        write_fixture_files(tmp_path)
        path = tmp_path / "latin.opq"
        path.write_bytes(b"-- \xff\n")
        stdin = (migrants_script(tmp_path).rsplit("SELECT SEMI-OPEN", 1)[0]
                 + f"\\load {path}\nSELECT CLOSED COUNT(*) FROM Migrants;\n\\quit\n")
        code, out, err = self.run_cli(["--quiet"], stdin=stdin)
        assert code == 0
        assert f"error: cannot read '{path}': not UTF-8 text" in err
        assert "internal error" not in err
        assert "80.0" in out and "(1 row, closed)" in out

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

    def test_where_literal_past_float_range_exit_zero(self, tmp_path):
        # The script used to exit 2 with "internal error: int too large to
        # convert to float".
        (tmp_path / "rows.csv").write_text("x\n1\n2\n3\n", encoding="utf-8")
        huge = "1" + "0" * 400
        path = self.script_path(tmp_path, f"""
CREATE GLOBAL POPULATION P (x INT);
CREATE SAMPLE S AS (SELECT * FROM P);
INGEST S FROM '{tmp_path / "rows.csv"}';
SELECT CLOSED COUNT(*) FROM P WHERE x < {huge};
SELECT CLOSED COUNT(*) FROM P WHERE x = {huge};
SELECT CLOSED COUNT(*) FROM P WHERE x > -{huge};
""")
        code, out, err = self.run_cli(["--script", path, "--quiet", "--output", "csv"])
        assert (code, err) == (0, "")
        assert out.split() == ["COUNT(*)", "3.0", "COUNT(*)", "COUNT(*)", "3.0"]

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

    def failing_script(self, tmp_path) -> str:
        # The 4th statement answers; the 5th names an unknown population.
        (tmp_path / "rows.csv").write_text("x\n1\n2\n", encoding="utf-8")
        return self.script_path(tmp_path, f"""
CREATE GLOBAL POPULATION P (x INT);
CREATE SAMPLE S AS (SELECT * FROM P);
INGEST S FROM '{tmp_path / "rows.csv"}';
SELECT CLOSED COUNT(*) FROM P;
SELECT CLOSED COUNT(*) FROM Nope;
SELECT CLOSED SUM(x) FROM P;
""")

    def test_script_prints_answers_before_failing_statement(self, tmp_path):
        code, out, err = self.run_cli(["--script", self.failing_script(tmp_path),
                                       "--quiet"])
        assert code == 1
        assert "COUNT(*)" in out and "(1 row, closed)" in out
        assert "SUM(x)" not in out
        assert "error: unknown population 'Nope'" in err

    def test_load_prints_answers_before_failing_statement(self, tmp_path):
        path = self.failing_script(tmp_path)
        code, out, err = self.run_cli(
            ["--quiet"], stdin=f"\\load {path}\nSELECT CLOSED SUM(x) FROM P;\n")
        assert code == 0  # the REPL goes on after the failed statement
        assert out.index("COUNT(*)") < out.index("SUM(x)")
        assert "error: unknown population 'Nope'" in err
        assert openpop.cli.run_script(path, Engine(), "table") == 1

    def repl(self, tmp_path, text):
        (tmp_path / "rows.csv").write_text("x,y\n1,a\n2,b\n", encoding="utf-8")
        setup = ("CREATE GLOBAL POPULATION P (x INT, y TEXT);\n"
                 "CREATE SAMPLE S AS (SELECT * FROM P);\n"
                 f"INGEST S FROM '{tmp_path / 'rows.csv'}';\n")
        return self.run_cli(["--quiet"], stdin=setup + text)

    def test_repl_semicolon_inside_string_literal(self, tmp_path):
        (tmp_path / "x;y.csv").write_text("x,y\n3,c\n", encoding="utf-8")
        code, out, err = self.repl(
            tmp_path, f"INGEST S FROM '{tmp_path / 'x;y.csv'}';\n"
            "SELECT CLOSED COUNT(*) FROM P WHERE y = 'a;\nb' -- still open;\n;\n"
            "SELECT CLOSED SUM(x) FROM P;\n")
        assert (code, err) == (0, "")
        assert "(0 rows, closed)" in out and "6.0" in out

    def test_repl_comment_after_statement(self, tmp_path):
        code, out, err = self.repl(
            tmp_path, "SELECT CLOSED COUNT(*) FROM P; -- done; really\n"
            "SELECT CLOSED SUM(x) FROM P;\n")
        assert (code, err) == (0, "")
        assert "2.0" in out and "3.0" in out

    def test_repl_comment_before_meta_command(self, tmp_path):
        code, out, err = self.repl(tmp_path, "-- setup\n\\help\n")
        assert (code, err) == (0, "")
        assert "meta-commands:" in out

    def test_repl_runs_statement_left_at_end_of_input(self, tmp_path):
        code, out, err = self.repl(tmp_path, "SELECT CLOSED SUM(x) FROM P\n")
        assert (code, err) == (0, "")
        assert "SUM(x)" in out and "3.0" in out

    def test_repl_statements_on_one_line_run_one_by_one(self, tmp_path):
        code, out, err = self.repl(
            tmp_path, "SELECT CLOSED COUNT(*) FROM Nope; SELECT CLOSED COUNT(*) "
            "FROM P WHERE x < 1\u00b2; SELECT CLOSED SUM(x) FROM P;\n")
        assert code == 0
        assert err.count("error:") == 2
        assert "unexpected character" in err and "unknown population" in err
        assert "3.0" in out

    def test_repl_reports_syntax_errors_at_input_line_and_column(self):
        code, _, err = self.run_cli(["--quiet"], stdin=(
            "\\help\n"
            "SELECT CLOSED COUNT(*) FROM P; "
            "SELECT CLOSED COUNT(*) FROM P WHERE x < 1\u00b2;\n"
            "SELECT CLOSED\n"
            "  COUNT(*) FROM P WHERE x < 2\u00b2; "
            "SELECT CLOSED COUNT(*) FROM P WHERE x < 3\u00b2\n"))
        assert code == 0
        assert [line for line in err.splitlines() if "unexpected" in line] == [
            f"error: {line}:{col}: unexpected character '\u00b2'"
            for line, col in ((2, 73), (4, 30), (4, 74))]

    def test_repl_overlong_number_fails_only_its_statement(self, tmp_path):
        where = "SELECT CLOSED COUNT(*) FROM P WHERE x < "
        code, out, err = self.repl(
            tmp_path, where + "9" * 5000 + "; SELECT CLOSED SUM(x) FROM P;\n")
        assert code == 0
        assert err == f"error: 4:{len(where) + 1}: number with 5000 digits\n"
        assert "SUM(x)" in out and "3.0" in out

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

    @pytest.mark.parametrize("command", [
        "\\train", "\\train S T", "\\seed", "\\seed 1 2", "\\config",
        "\\config k_samples", "\\config k_samples 3 4", "\\load", "\\load {a} {b}",
        "\\save {a} {b}", "\\help me"])
    def test_repl_meta_command_argument_count(self, tmp_path, command):
        usage = {
            "train": "\\train <sample>         train the generator (kept in the cache)",
            "seed": "\\seed <n>               reseed the engine",
            "config": "\\config <key> <value>   set train.<f>, ipf.<f>, or k_samples",
            "load": "\\load <file>            run a script file",
            "save": "\\save [<file>]          save the catalog (default: --catalog path)",
            "help": "\\help                   this text",
        }[command[1:].split()[0]]
        a, b = tmp_path / "a.opq", tmp_path / "b.opq"
        a.write_text("CREATE GLOBAL POPULATION P (x INT);\n", encoding="utf-8")
        stdin = command.format(a=a, b=b) + "\n\\quit\n"
        code, out, err = self.run_cli(["--quiet"], stdin=stdin)
        assert (code, out, err) == (0, "", f"error: usage: {usage}\n")
        assert a.read_text(encoding="utf-8") == "CREATE GLOBAL POPULATION P (x INT);\n"
        assert not b.exists()

    def test_repl_unknown_config_key_continues(self):
        stdin = ("\\config train.bogus 1\n\\config ipf.tolerance nan\n"
                 "\\config train.batch_norm false\n\\config ipf.zero_policy error\n"
                 "\\config train.plateau_patience 2\n"
                 "\\config train.layers 0\n\\config train.layers 8,0\n"
                 "\\config train.coverage_weight nan\n"
                 "\\config train.coverage_weight inf\n"
                 "\\config train.learning_rate -1\n"
                 "\\config train.learning_rate nan\n"
                 "\\config train.learning_rate inf\n"
                 "\\config k_samples 0\n\\config k_samples -4\n"
                 "\\config k_samples 3\n\\quit\n")
        code, _, err = self.run_cli(["--quiet"], stdin=stdin)
        assert code == 0
        for key in ("train.bogus", "train.batch_norm", "ipf.zero_policy",
                    "train.plateau_patience"):
            assert f"error: unknown config key {key.partition('.')[2]!r}" in err
        assert "error: tolerance must be positive, got nan" in err
        assert err.count("error: layers must be widths >= 1") == 2
        assert err.count("error: coverage_weight must be finite and >= 0") == 2
        assert err.count("error: learning_rate must be finite and > 0") == 3
        assert "error: k_samples must be >= 1, got 0" in err
        assert "error: k_samples must be >= 1, got -4" in err
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
        for text in ("bogus = 1\n", "train.bogus = 1\n",
                     "train.coverage_subsample = 10\n"):
            config = tmp_path / "bad.conf"
            config.write_text(text, encoding="utf-8")
            code, _, err = self.run_cli(["--quiet", "--config", str(config)],
                                        stdin="\\quit\n")
            assert code == 1
            assert "unknown config key" in err

    def test_repl_value_errors_name_the_setting(self, monkeypatch):
        engines = []
        real_build = openpop.cli._build_engine
        monkeypatch.setattr(openpop.cli, "_build_engine",
                            lambda args: engines.append(real_build(args)) or engines[-1])
        stdin = ("\\seed 1.5\n\\config k_samples x\n\\config train.epochs x\n"
                 "\\config train.layers 8,x\n\\config ipf.max_rounds 1.5\n"
                 "\\config ipf.tolerance abc\n\\quit\n")
        code, _, err = self.run_cli(["--quiet", "--seed", "5"], stdin=stdin)
        assert code == 0
        assert err.splitlines() == [
            "error: seed must be an integer, got '1.5'",
            "error: k_samples must be an integer, got 'x'",
            "error: epochs must be an integer, got 'x'",
            "error: layers must be integers separated by commas or spaces, got '8,x'",
            "error: max_rounds must be an integer, got '1.5'",
            "error: tolerance must be a number, got 'abc'"]
        (engine,) = engines
        assert (engine.seed, engine.options.train_config, engine.options.ipf,
                engine.options.k_samples) == (
            5, TrainConfig(seed=5), IpfConfig(), ExecOptions().k_samples)

    @pytest.mark.parametrize("text, message", [
        ("seed = x\n", "error: seed must be an integer, got 'x'\n"),
        ("train.epochs = x\n", "error: epochs must be an integer, got 'x'\n"),
        ("# settings\n\nnot a pair\n",
         "error: line 3: expected 'key = value', got 'not a pair'\n")])
    def test_config_file_errors_name_the_setting(self, tmp_path, text, message):
        config = tmp_path / "bad.conf"
        config.write_text(text, encoding="utf-8")
        code, out, err = self.run_cli(["--quiet", "--config", str(config)],
                                      stdin="\\quit\n")
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("seed", ["x", "1.5"])
    def test_seed_flag_error_names_the_setting(self, seed):
        # --seed text gets the check and exit code of a config file's seed.
        code, out, err = self.run_cli(["--quiet", "--seed", seed], stdin="\\quit\n")
        assert (code, out, err) == (
            1, "", f"error: seed must be an integer, got '{seed}'\n")

    def test_reader_error_in_csv_header_fails_script(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a," + "x" * 200_000 + "\nUK,1\n", encoding="utf-8")
        script = self.script_path(tmp_path, (
            "CREATE GLOBAL POPULATION P (a TEXT, n INT);\n"
            "CREATE SAMPLE S AS (SELECT * FROM P);\n"
            f"INGEST S FROM '{path}';\n"))
        code, out, err = self.run_cli(["--script", script, "--quiet"])
        assert (code, out) == (1, "")
        assert err == "error: line 1: field larger than field limit (131072)\n"

    def test_corrupt_catalog_is_not_overwritten(self, tmp_path):
        catalog_path = tmp_path / "cat.opc"
        catalog_path.write_bytes(b"\x00 not a catalog\n")
        code, _, err = self.run_cli(["--quiet", "--catalog", str(catalog_path)],
                                    stdin="\\save\n\\quit\n")
        assert code == 1
        assert "error" in err
        assert catalog_path.read_bytes() == b"\x00 not a catalog\n"

    @pytest.mark.parametrize("kind, corrupt", [
        ("sample", lambda record: {**record, "rows": [["UK"]]}),
        ("sample", lambda record: {**record, "rows": [["UK", 30.0, "extra"]]}),
        ("sample", lambda record: {"kind": "sample"}),
        ("sample", lambda record: [1, 2]),
        ("sample", lambda record: {**record, "mechanism": {
            "kind": "uniform", "percent": 0, "strat_attribute": None}}),
        ("sample", lambda record: {**record, "weights": []}),
        ("sample", lambda record: {**record, "schema": [
            {**record["schema"][0], "name": "zzz"}, record["schema"][1]]}),
        ("sample", lambda record: {**record, "mechanism": {
            "kind": "stratified", "percent": 10.0, "strat_attribute": "zzz"}}),
        ("sample", lambda record: {**record, "schema": record["schema"][1:], "rows": [
            [30.0]], "mechanism": {"kind": "stratified", "percent": 10.0,
                                   "strat_attribute": "country"}}),
        ("marginal", lambda record: {**record, "cells": [[0, float("nan")], [1, 2.0]]}),
        ("marginal", lambda record: {**record, "cells": [[0, float("inf")], [1, 2.0]]}),
        ("marginal", lambda record: {**record, "binnings": {"age": [0.0, 100.0, 0]}}),
        ("marginal", lambda record: {**record, "binnings": {"age": [0.0, 100.0, -3]}}),
        ("marginal", lambda record: {**record, "binnings": {"age": [0.0, 100.0, 2.5]}}),
        ("marginal", lambda record: {**record, "binnings": {
            "age": [0.0, float("inf"), 2]}}),
        ("marginal", lambda record: {**record, "binnings": {"age": [100.0, 0.0, 2]}}),
        ("marginal", lambda record: {**record, "attributes": ["country", "age"],
                                     "cells": [["UK", 5.0]]}),
        ("marginal", lambda record: {**record, "attributes": ["country", "age"],
                                     "cells": [[["UK", 1, 0], 5.0]]}),
        ("marginal", lambda record: {**record, "cells": [[[0], 5.0]]}),
        ("marginal", lambda record: {**record, "cells": []}),
        ("marginal", lambda record: {**record, "cells": [[0, True], [1, 2.0]]}),
        ("marginal", lambda record: {**record, "binnings": {
            **record["binnings"], "country": [0.0, 1.0, 2]}}),
        ("marginal", lambda record: {**record, "attributes": ["country"], "cells": [
            ["UK", 1.0]], "binnings": {"country": [0.0, 1.0, 2]}}),
        ("marginal", lambda record: {**record, "cells": [[0, 1.0], [7, 2.0]]}),
        ("marginal", lambda record: {**record, "cells": [[0, 1.0], [0.5, 2.0]]}),
        ("sample", lambda record: {**record, "schema": [
            record["schema"][0], {**record["schema"][1], "lo": "x"}]}),
        ("sample", lambda record: {**record, "schema": [
            record["schema"][0], {**record["schema"][1], "hi": 1e400}]}),
        ("sample", lambda record: {**record, "schema": [
            record["schema"][0], {**record["schema"][1], "lo": 50.0, "hi": 10.0}]}),
        ("sample", lambda record: {**record, "schema": [
            {**record["schema"][0], "hi": 1.0}, record["schema"][1]]}),
        ("sample", lambda record: {**record, "schema": [
            {**record["schema"][0], "domain": ["UK", 7]}, record["schema"][1]]}),
    ], ids=["short_row", "long_row", "missing_fields", "not_an_object",
            "zero_percent", "short_weights", "attribute_not_in_global",
            "strat_attribute_not_in_global", "strat_attribute_not_in_sample",
            "nan_count", "inf_count",
            "zero_bins", "negative_bins", "fractional_bins", "infinite_hi",
            "hi_below_lo", "pair_one_value_key", "pair_three_value_key",
            "single_tuple_key", "no_cells", "bool_count", "binning_not_held",
            "binning_on_categorical", "bin_id_past_nbins", "fractional_bin_id",
            "lo_not_a_number", "infinite_hi_bound", "lo_above_hi",
            "bound_on_categorical", "domain_value_not_a_string"])
    def test_malformed_catalog_record_exit_one(self, tmp_path, kind, corrupt):
        catalog_path = tmp_path / "cat.opc"
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("country", "categorical"),
                        AttributeDef("age", "numeric")]))
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", 30.0)])
        catalog.create_metadata("P", ("age",), {0: 1.0, 1: 2.0},
                                {"age": NumericBinning(0.0, 100.0, 2)})
        catalog.save(catalog_path)
        lines = catalog_path.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith(f'{{"kind": "{kind}"'))
        lines[lineno - 1] = json.dumps(corrupt(json.loads(lines[lineno - 1])))
        catalog_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = self.run_cli(["--quiet", "--catalog", str(catalog_path)],
                                    stdin="SELECT CLOSED COUNT(*) FROM P;\n\\quit\n")
        assert code == 1
        assert f"error: line {lineno}: malformed catalog record" in err
        assert "Traceback" not in err and "internal error" not in err

    def test_stratified_on_an_attribute_the_sample_lacks_fails_script(self, tmp_path):
        # The sample used to be created, and SEMI-OPEN then died with
        # "internal error: 'c'" (exit 2) reading each row's stratum.
        (tmp_path / "cs.csv").write_text("c,n\nu,3\nv,5\n", encoding="utf-8")
        path = self.script_path(tmp_path, f"""
CREATE TABLE CS (c TEXT, n INT);
INGEST CS FROM '{tmp_path / "cs.csv"}';
CREATE GLOBAL POPULATION P (x INT, c TEXT);
CREATE METADATA M AS (SELECT c, n FROM CS);
CREATE SAMPLE S (x INT) AS
  (SELECT x FROM P USING MECHANISM STRATIFIED ON c PERCENT 10);
SELECT SEMI-OPEN COUNT(*) FROM P;
""")
        code, out, err = self.run_cli(["--script", path, "--quiet"])
        assert (code, out) == (1, "")
        assert "error: stratification attribute 'c' not in schema of sample 'S'" in err
        assert "internal error" not in err

    def test_saved_marginal_key_of_wrong_kind_fails_script(self, tmp_path):
        # A string cell on a numeric attribute used to load, be dropped as a
        # structural zero by SEMI-OPEN and crash OPEN with a ValueError.
        catalog_path = tmp_path / "cat.opc"
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("country", "categorical"),
                        AttributeDef("age", "numeric")]))
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", 40.0), ("FR", 41.0)])
        catalog.create_metadata("P", ("age",), {40: 1.0, 41: 2.0})
        catalog.save(catalog_path)
        text = catalog_path.read_text(encoding="utf-8")
        edited = text.replace('"cells": [[40, 1.0], [41, 2.0]]',
                              '"cells": [["abc", 1.0], [40, 2.0]]')
        assert edited != text
        catalog_path.write_text(edited, encoding="utf-8")
        path = self.script_path(tmp_path, "SELECT SEMI-OPEN COUNT(*) FROM P;\n"
                                          "SELECT OPEN COUNT(*) FROM P;\n")
        code, out, err = self.run_cli(["--script", path, "--quiet",
                                       "--catalog", str(catalog_path)])
        assert code == 1 and out == ""
        assert ("malformed catalog record (TypeMismatchError: cell value 'abc' "
                "does not fit numeric attribute 'age')") in err
        assert "internal error" not in err

    def test_create_metadata_from_table_of_other_kind_fails_script(self, tmp_path):
        (tmp_path / "ages.csv").write_text("age,n\nforty,3\n", encoding="utf-8")
        path = self.script_path(tmp_path, f"""
CREATE TABLE Ages (age TEXT, n INT);
INGEST Ages FROM '{tmp_path / "ages.csv"}';
CREATE GLOBAL POPULATION P (age INT);
CREATE METADATA P_age AS (SELECT age, n FROM Ages);
""")
        code, _, err = self.run_cli(["--script", path, "--quiet"])
        assert code == 1
        assert "cell value 'forty' does not fit numeric attribute 'age'" in err
        assert "internal error" not in err

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

    def test_infinite_tolerance_is_a_config_error(self):
        code, _, err = self.run_cli(["--quiet"], stdin=(
            "\\config ipf.tolerance 1e-3\n\\config ipf.tolerance inf\n"
            "\\config ipf.tolerance 1e400\n\\quit\n"))
        assert (code, err) == (0, "error: tolerance must be finite, got inf\n" * 2)
        engine = Engine()
        with pytest.raises(ConfigError, match="^tolerance must be finite, got inf$"):
            engine.set_config("ipf.tolerance", "inf")
        assert engine.options.ipf == IpfConfig()

    def test_saved_value_past_float_range_fails_at_its_line(self, tmp_path):
        # The value's float() raised OverflowError, and the CLI printed a
        # traceback.
        catalog_path = tmp_path / "c.opc"
        catalog = Catalog()
        catalog.create_population(PopulationDef(
            "P", True, [AttributeDef("country", "categorical"),
                        AttributeDef("age", "numeric")]))
        catalog.create_sample("S")
        catalog.ingest_rows("S", [("UK", 30.0), ("FR", 41.0)])
        catalog.save(catalog_path)
        text = catalog_path.read_text(encoding="utf-8")
        edited = text.replace('["FR", 41.0]', f'["FR", {10 ** 400}]')
        assert edited != text
        catalog_path.write_text(edited, encoding="utf-8")
        code, _, err = self.run_cli(["--quiet", "--catalog", str(catalog_path)],
                                    stdin="\\quit\n")
        assert code == 1
        assert err.startswith("error: line 4: malformed catalog record (CsvParseError: "
                              "line 2: non-finite value 1000")
        assert err.endswith(" in numeric column 'age')\n")
        assert "Traceback" not in err and "internal error" not in err

    def test_rejected_seed_changes_nothing(self, tmp_path):
        # `\seed -1` used to set the seed before numpy refused it: every later
        # \config failed, and \save wrote a catalog that would not load.
        catalog_path = tmp_path / "c.opc"
        code, out, err = self.run_cli(
            ["--quiet", "--seed", "4", "--catalog", str(catalog_path)],
            stdin="\\seed -1\n\\config k_samples 5\n\\save\n")
        assert code == 0 and "saved catalog" in out
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert Catalog.load(catalog_path).seed == 4

    def test_negative_seed_is_rejected_before_it_is_set(self, tmp_path):
        message = "seed must be a non-negative integer, got -1"
        with pytest.raises(ConfigError, match=message):
            Engine(seed=-1)
        engine = Engine(seed=2)
        with pytest.raises(ConfigError, match=message):
            engine.set_seed(-1)
        assert (engine.seed, engine.catalog.seed,
                engine.options.train_config.seed) == (2, 2, 2)
        config = tmp_path / "seed.conf"
        config.write_text("seed = -1\n", encoding="utf-8")
        for args in (["--seed", "-1"], ["--config", str(config)]):
            code, _, err = self.run_cli(["--quiet", *args], stdin="\\quit\n")
            assert (code, err) == (1, f"error: {message}\n")

    def test_saved_negative_seed_fails_at_its_line(self, tmp_path):
        catalog_path = tmp_path / "c.opc"
        Catalog(seed=5).save(catalog_path)
        text = catalog_path.read_text(encoding="utf-8")
        edited = text.replace('{"kind": "state", "seed": 5}',
                              '{"kind": "state", "seed": -1}')
        assert edited != text
        catalog_path.write_text(edited, encoding="utf-8")
        code, _, err = self.run_cli(["--quiet", "--catalog", str(catalog_path)],
                                    stdin="\\quit\n")
        assert code == 1
        assert err == ("error: line 2: malformed catalog record (ConfigError: "
                       "seed must be a non-negative integer, got -1)\n")

    def run_entry_point(self, *args):
        """`python -m openpop.cli` in a child process, which imports the same
        openpop as this test, PYTHONPATH or not."""
        src = os.path.dirname(os.path.dirname(openpop.executor.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "openpop.cli", *args],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})

    def test_entry_point_runs(self):
        result = self.run_entry_point("--help")
        assert result.returncode == 0
        assert "--catalog" in result.stdout

    def test_non_finite_aggregate_prints_one_error_line(self, tmp_path):
        # numpy's overflow warning, with its source line, is not printed.
        rows = tmp_path / "rows.csv"
        rows.write_text("c,x\na,1e308\na,1e308\nb,1.0\n", encoding="utf-8")
        script = self.script_path(tmp_path, (
            "CREATE GLOBAL POPULATION P (c TEXT, x REAL);\n"
            "CREATE SAMPLE S AS (SELECT * FROM P);\n"
            f"INGEST S FROM '{rows}';\n"
            "SELECT CLOSED c, SUM(x) FROM P GROUP BY c;\n"))
        result = self.run_entry_point("--quiet", "--script", script)
        assert result.returncode == 1
        assert result.stderr == ("error: non-finite aggregate value: SUM(x) in "
                                 "group (c = 'a')\n")


# Error-free CLOSED statements as tokens; string literals hold `;`, `--`,
# quotes and line breaks.
REPL_STATEMENTS = [
    ["SELECT", "CLOSED", "COUNT(*)", "FROM", "P"],
    ["SELECT", "CLOSED", "y", ",", "SUM(x)", "FROM", "P", "WHERE", "y", "IN",
     "('a;',", "'b\n;--')", "GROUP", "BY", "y"],
    ["SELECT", "y", "FROM", "P", "WHERE", "y", "=", "'it''s'"],
    ["SELECT", "CLOSED", "AVG(x)", "FROM", "P", "WHERE", "x", ">=", "2"],
]
TOKEN_GAPS = st.sampled_from([" ", "\n", "\t", "\r\n  ", " -- a; 'b\n", "\n\n"])
STATEMENT_GAPS = st.sampled_from(["", " ", "\n", " -- done; 'x\n"])


@st.composite
def closed_scripts(draw):
    """A script of error-free CLOSED statements, and how many it holds."""
    parts, indexes = [], draw(st.lists(
        st.integers(0, len(REPL_STATEMENTS) - 1), min_size=1, max_size=4))
    for index in indexes:
        for token in REPL_STATEMENTS[index]:
            parts += [token, draw(TOKEN_GAPS)]
        parts += [";", draw(STATEMENT_GAPS)]
    if draw(st.booleans()):  # the last statement runs at end of input
        parts = parts[:-2]
    return "".join(parts), len(indexes)


@given(closed_scripts())
@settings(max_examples=100, deadline=None)
def test_repl_answers_as_the_whole_text_does(script):
    # However the statements are split across lines, the REPL prints what
    # running the whole text at once prints.
    text, statements = script
    engine = Engine()
    engine.run_script("CREATE GLOBAL POPULATION P (x INT, y TEXT);"
                      "CREATE SAMPLE S AS (SELECT * FROM P);")
    engine.catalog.ingest_rows("S", [(1, "a;"), (2, "b\n;--"), (3, "it's"), (4, "a;")])
    whole, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(whole), contextlib.redirect_stderr(errors):
        assert _run_text(engine, text, "table") == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", io.StringIO(text))
        patch.setattr(sys, "stdout", io.StringIO())
        patch.setattr(sys, "stderr", errors)
        assert repl_loop(engine, argparse.Namespace(output="table")) == 0
        out = sys.stdout.getvalue()
    assert errors.getvalue() == ""
    assert out == whole.getvalue()
    assert out.count("closed)") == statements


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
UK_QUERY = "SELECT SEMI-OPEN email, COUNT(*) FROM UkMigrants GROUP BY email;"


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

    def test_unchanged_sample_is_hashed_once(self, tmp_path, hashed):
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
        # A derived population's fit is keyed by the sample and the view's
        # predicate, so its queries hash no view of their own.
        assert [self.ask(engine, UK_QUERY).diagnostics["ipf_cache"]
                for _ in range(2)] == ["miss", "hit"]
        assert hashed == ["YahooUsers"] * 2

    def test_derived_population_ingest_misses_once_and_failed_ingest_hits(
            self, tmp_path):
        engine = self.engine(tmp_path)
        more = tmp_path / "more_uk.csv"
        more.write_text("country,email\nUK,Yahoo\n", encoding="utf-8")
        bad = tmp_path / "bad.csv"
        bad.write_text("country,email\nUK,Yahoo\nUK\n", encoding="utf-8")
        states = [self.ask(engine, UK_QUERY).diagnostics["ipf_cache"]
                  for _ in range(2)]
        engine.run_script(f"INGEST YahooUsers FROM '{more}';")
        states += [self.ask(engine, UK_QUERY).diagnostics["ipf_cache"]
                   for _ in range(2)]
        with pytest.raises(OpenPopError):
            engine.run_script(f"INGEST YahooUsers FROM '{bad}';")
        states.append(self.ask(engine, UK_QUERY).diagnostics["ipf_cache"])
        assert states == ["miss", "hit", "miss", "hit", "hit"]

    def test_view_is_filtered_once_per_answer(self, tmp_path, monkeypatch):
        # A global-population query without WHERE filters no rows at all,
        # hit or miss; a derived one filters the sample by its view once
        # per answer, plus once to fit on a miss.
        calls = []
        real_filter = openpop.executor.filter_rows

        def counting_filter(*args):
            calls.append(1)
            return real_filter(*args)

        monkeypatch.setattr(openpop.executor, "filter_rows", counting_filter)
        engine = self.engine(tmp_path)
        counts = []
        for query in (SEMI_QUERIES[1], SEMI_QUERIES[1], UK_QUERY, UK_QUERY):
            calls.clear()
            self.ask(engine, query)
            counts.append(len(calls))
        assert counts == [0, 0, 2, 1]

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
