import configparser
import dataclasses
import glob
import io
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import w2lab
from w2lab import checks, cli, config, experiments, seeding
from w2lab.checks import REGISTRY, Verdict
from w2lab.cli import JobResult, emit, jobs_for
from w2lab.config import RunSettings, UsageError, load_settings


ROOT = os.path.join(os.path.dirname(__file__), "..")
SMOKE = os.path.join(ROOT, "configs", "smoke.ini")
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini"))
                         + glob.glob(os.path.join(ROOT, "perfbench", "*.ini")))

SAMPLER_KEYS = {"sampler", "dim", "scale", "outcomes", "probs"}
ACCEPTED_KEYS = {
    "run": {"seed", "workers", "out", "verbosity"},
    **{f"{kind}_{leg}": SAMPLER_KEYS | {"n_grid"}
       for kind in ("rate", "lower", "ci") for leg in ("d1", "d2")},
}


EDGES = ("lhs_lo", "lhs", "rhs", "rhs_hi")


def refuse_constant(name):
    raise ValueError(f"non-finite number {name} in verdicts.json")


def assert_verdicts_follow_the_rule(records):
    """Every record's verdict is the one rule on its four edges: a null (non-finite)
    edge fails; else pass when lhs <= rhs, inconclusive when lhs_lo <= rhs_hi,
    fail otherwise.  Its margin is rhs - lhs, null where that is not finite."""
    for r in records:
        if None in (r["lhs"], r["rhs"]):
            assert r["margin"] is None, r
        else:
            assert r["margin"] == r["rhs"] - r["lhs"], r
        if None in (r[k] for k in EDGES):
            assert r["verdict"] == "fail", r
            continue
        lhs_lo, lhs, rhs, rhs_hi = (r[k] for k in EDGES)
        rule = "pass" if lhs <= rhs else "inconclusive" if lhs_lo <= rhs_hi else "fail"
        assert r["verdict"] == rule, r


class TestRegistry:
    def test_at_least_twelve_checkers(self):
        assert len(REGISTRY) >= 12

    def test_anchors_nonempty_and_unique(self):
        anchors = [e.anchor for e in REGISTRY]
        assert all(a.strip() for a in anchors)
        assert len(set(anchors)) == len(anchors)
        ids = [e.checker_id for e in REGISTRY]
        assert len(set(ids)) == len(ids)

    def test_list_subcommand(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for entry in REGISTRY:
            assert entry.checker_id in out

    @pytest.mark.parametrize("only", ["bogus", "r-of-n"])
    def test_list_rejects_only(self, capsys, only):
        # list runs no checker, so --only has nothing to pick, known id or not
        assert cli.main(["list", "--only", only]) == 2
        captured = capsys.readouterr()
        assert "--only applies to the check/all subcommands" in captured.err
        assert captured.out == ""


class TestConfig:
    def test_defaults_resolve(self):
        s = RunSettings(seed=1)
        assert s.seed == 1
        assert s.rate_d1.sampler.kind == "rademacher_product"
        # the 45-degree frame turns scaled_basis(2) into two lattice walks
        assert len(s.rate_d2.factors) == 2

    def test_smoke_file_overrides(self):
        s = load_settings(SMOKE)
        assert s.rate_d1.n_grid == (16, 64, 256, 1024)
        assert s.rate_d2.n_grid == (16, 64, 256)

    def test_cli_flags_strongest(self):
        s = load_settings(SMOKE, seed=42, workers=4, out_dir="x")
        assert s.seed == 42
        assert s.workers == 4
        assert s.out_dir == "x"

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(UsageError, match="nonsense"):
            load_settings(str(p))

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[rate_d1]\nbogus_key = 1\n")
        with pytest.raises(UsageError, match="bogus_key"):
            load_settings(str(p))

    def test_negative_seed_flag_rejected(self):
        with pytest.raises(UsageError, match="seed must be >= 0"):
            load_settings(seed=-1)

    def test_missing_file(self):
        with pytest.raises(UsageError, match="not found"):
            load_settings("/nonexistent/path.ini")

    def test_semantic_dict_excludes_presentation(self):
        s = RunSettings()
        d = s.semantic_dict()
        assert "out_dir" not in d and "workers" not in d
        assert "seed" in d

    def test_int_keys_coerced_to_int(self, tmp_path):
        p = tmp_path / "ints.ini"
        p.write_text("[run]\nworkers = 2\n[ci_d1]\ndim = 1\nn_grid = 16, 64\n")
        s = load_settings(str(p))
        assert (s.workers, s.ci_d1.sampler.dim, s.ci_d1.n_grid) == (2, 1, (16, 64))
        assert all(isinstance(v, int) for v in (s.workers, s.ci_d1.sampler.dim, *s.ci_d1.n_grid))

    @pytest.mark.parametrize("ini", ["[rate_d1]\nroot_seed = 5\n",
                                     "[ci_d2]\nroot_seed = 9\n"])
    def test_root_seed_in_section_rejected(self, tmp_path, ini):
        # the root seed is [run] seed / --seed; no section has a seed field
        p = tmp_path / "seed.ini"
        p.write_text(ini)
        with pytest.raises(UsageError, match="unknown key 'root_seed'"):
            load_settings(str(p))

    def test_defaults_equal_loaded_defaults(self):
        assert RunSettings() == load_settings()

    @pytest.mark.parametrize("alias", ["kind = scaled_basis", "beta = 2.0"])
    def test_sampler_aliases_are_unknown_keys(self, tmp_path, alias):
        p = tmp_path / "alias.ini"
        p.write_text(f"[rate_d1]\n{alias}\n")
        with pytest.raises(UsageError, match="unknown key"):
            load_settings(str(p))

    def test_accepted_keys_golden(self):
        s = RunSettings()
        keys = {section: set(config._section_keys(
                    s if section == "run" else getattr(s, section)))
                for section in ACCEPTED_KEYS}
        assert keys == ACCEPTED_KEYS
        assert sum(len(k) for k in keys.values()) == 40

    def test_no_config_shrinks_a_checker(self):
        # every checker size is a constant: no shipped config has a [check] section
        # and the settings have no checker field
        for path in SHIPPED_CONFIGS:
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            parser.read(path, encoding="utf-8")
            assert "check" not in parser, path
        assert "check" not in {f.name for f in dataclasses.fields(RunSettings)}

    @pytest.mark.parametrize("ini", [
        # the chain has no grid: its keys went with the section
        "[check]\nchain_grid_2d = 16\n", "[check]\nchain_refine = 1.5\n",
        "[check]\nroot_seed = 9\n", "[check]\nsampler = scaled_basis\n",
        "[check]\nincrement_m = 1000000\n", "[check]\nq_mc_pairs = 100000\n",
        "[check]\nchain_radius = 5.0\n", "[check]\ncalibration_m = 20000\n",
        "[check]\ngauss_quad_instances = 12\n", "[check]\not_instances = 40\n",
        "[check]\nquantile_instances = 25\n", "[check]\nmetric_triples = 20\n",
        "[check]\nincrement_ns = 20 40\n", "[check]\nschedule_n_max = 512\n",
        "[check]\n",
    ])
    def test_check_section_exits_2(self, tmp_path, capsys, ini):
        p = tmp_path / "bad.ini"
        p.write_text(ini)
        assert cli.main(["list", "--config", str(p)]) == 2
        assert "unknown config section [check]" in capsys.readouterr().err

    def test_every_key_parses_its_default_back(self, tmp_path):
        # writing each default under its key reads back the same settings,
        # down to the value types (repr tells 16 from 16.0)
        def ini_value(v):
            if isinstance(v, tuple) and v and isinstance(v[0], tuple):
                return " | ".join(ini_value(row) for row in v)
            return " ".join(map(str, v)) if isinstance(v, tuple) else str(v)

        s = RunSettings()
        lines = []
        for section in ACCEPTED_KEYS:
            obj = s if section == "run" else getattr(s, section)
            lines.append(f"[{section}]")
            for key, (part, name, _) in config._section_keys(obj).items():
                value = getattr(obj.sampler if part else obj, name)
                if value is not None:
                    lines.append(f"{key} = {ini_value(value)}")
        p = tmp_path / "defaults.ini"
        p.write_text("\n".join(lines) + "\n")
        assert repr(load_settings(str(p))) == repr(s)
        p.write_text("[rate_d1]\nsampler = lattice_custom\noutcomes = -1 | 1,\n"
                     "probs = 0.5, 0.5\n[ci_d1]\nn_grid = 16, 64\n")
        loaded = load_settings(str(p))
        assert repr(loaded.rate_d1.sampler.outcomes) == "((-1.0,), (1.0,))"
        assert repr(loaded.rate_d1.sampler.probs) == "(0.5, 0.5)"
        assert repr(loaded.ci_d1.n_grid) == "(16, 64)"

    @pytest.mark.parametrize("ini", [
        "[rate_d1]\nkind = scaled_basis\n", "[rate_d1]\nbeta = 2.0\n",
        "[run]\nout_dir = x\n", "[rate_d1]\nroot_seed = 5\n", "[run]\nroot_seed = 5\n",
        "[run]\ncheck = 1\n",
        # the lattice floor is exact: the retired Monte Carlo size is unknown
        "[lower_d1]\nm_proxy = 50000\n",
        # the halfspace statistic is exact: no ci leg takes a sample size or a
        # direction count for it
        "[ci_d1]\nm = 20000\n", "[ci_d2]\ndirections = 16\n",
    ])
    def test_unaccepted_keys_exit_2(self, tmp_path, capsys, ini):
        p = tmp_path / "bad.ini"
        p.write_text(ini)
        assert cli.main(["list", "--config", str(p)]) == 2
        key = ini.split("\n")[1].split(" = ")[0]
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        (b"seed = 3\n", "no section headers"),
        (b"[run]\nseed = 3\nseed = 4\n", "option 'seed' in section 'run' already exists"),
        (b"[run]\nseed = 3\n[run]\nworkers = 1\n", "section 'run' already exists"),
        (b"[run]\nout = caf\xe9\n", "can't decode byte 0xe9"),
    ], ids=["no-section", "duplicate-key", "duplicate-section", "not-utf8"])
    def test_unparsable_file_exits_2_naming_it(self, tmp_path, capsys, content, message):
        p = tmp_path / "bad.ini"
        p.write_bytes(content)
        assert cli.main(["list", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"cannot parse config file {p}" in err and message in err

    def test_percent_is_a_literal(self, tmp_path):
        p = tmp_path / "percent.ini"
        p.write_text("[run]\nout = res%1\n")
        assert load_settings(str(p)).out_dir == "res%1"

    def test_default_section_rejected(self, tmp_path, capsys):
        # its keys would otherwise reach every section as if written there
        p = tmp_path / "default.ini"
        p.write_text("[DEFAULT]\nseed = 3\n[rate_d1]\nn_grid = 16 64\n")
        assert cli.main(["list", "--config", str(p)]) == 2
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err
        p.write_text("[DEFAULT]\n[rate_d1]\nn_grid = 16 64\n")
        assert load_settings(str(p)).rate_d1.n_grid == (16, 64)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                             ids=lambda p: os.path.relpath(p, ROOT))
    def test_shipped_configs_load(self, path):
        assert len(SHIPPED_CONFIGS) >= 2
        assert cli.main(["list", "--config", path]) == 0

    def test_lattice_custom_from_config(self, tmp_path):
        p = tmp_path / "lattice.ini"
        p.write_text(
            "[lower_d1]\n"
            "sampler = lattice_custom\n"
            "dim = 1\n"
            "outcomes = -1 | 1\n"
            "probs = 0.5 0.5\n"
        )
        s = load_settings(str(p))
        built = s.lower_d1.sampler.build()
        assert built.kind == "lattice_custom"
        assert built.bound == 1.0


EXPERIMENT_JOBS = ["rate:d1", "rate:d2", "lower:d1", "lower:d2", "ci:d1", "ci:d2"]


class TestJobs:
    def test_job_lists(self):
        s = RunSettings()
        check_jobs = [f"check:{e.checker_id}" for e in REGISTRY]
        assert len(check_jobs) == 17
        assert jobs_for("check", s) == check_jobs
        assert jobs_for("rate", s) == ["rate:d1", "rate:d2"]
        assert jobs_for("lower", s) == ["lower:d1", "lower:d2"]
        assert jobs_for("ci", s) == ["ci:d1", "ci:d2"]
        assert jobs_for("all", s) == check_jobs + EXPERIMENT_JOBS
        assert jobs_for("all", s, only="r-of-n") == ["check:r-of-n"] + EXPERIMENT_JOBS
        with pytest.raises(UsageError, match="unknown subcommand"):
            jobs_for("bogus", s)

    def test_every_leg_job_names_its_settings_field(self):
        s = RunSettings()
        assert list(cli.EXPERIMENT_JOBS) == EXPERIMENT_JOBS
        legs = [j.replace(":", "_") for j in EXPERIMENT_JOBS]
        leg_fields = [f.name for f in dataclasses.fields(s)
                      if dataclasses.is_dataclass(getattr(s, f.name)) and f.name != "check"]
        assert legs == leg_fields

    def test_unknown_job_kind_raises(self):
        with pytest.raises(ValueError, match="unknown job 'bogus:d1'"):
            cli.run_job(RunSettings(), "bogus:d1")

    def test_only_filter(self):
        s = RunSettings()
        assert jobs_for("check", s, only="r-of-n") == ["check:r-of-n"]
        with pytest.raises(UsageError):
            jobs_for("check", s, only="not-a-checker")
        with pytest.raises(UsageError):
            jobs_for("rate", s, only="r-of-n")


TINY_EXPERIMENTS = """
[rate_d1]
n_grid = 16 64
[rate_d2]
n_grid = 16 64
[lower_d1]
n_grid = 64
[lower_d2]
n_grid = 64
[ci_d1]
n_grid = 16 64
[ci_d2]
n_grid = 16 64
"""

TABLE_HEADERS = {
    **{f"rate_{leg}": "n,w2_hat,bound" for leg in ("d1", "d2")},
    **{f"lower_{leg}": "n,ell_n,sqrtn_w2_hat,sqrtn_floor,sqrtn_bound" for leg in ("d1", "d2")},
    **{f"ci_{leg}": "n,delta,w2_hat,conversion_rhs" for leg in ("d1", "d2")},
}
PLOT_NAMES = {f"{kind}_{leg}{suffix}" for leg in ("d1", "d2")
              for kind, suffixes in (("rate", ("", "_bound")), ("lower", ("_floor", "_w2")),
                                     ("ci", ("_delta", "_bentkus_reference")))
              for suffix in suffixes}


class TestSeedPaths:
    def test_each_check_job_gets_one_generator_keyed_by_its_id(self, monkeypatch):
        # and an experiment job, which draws nothing, gets none: its leg config
        paths, given = [], []

        def recording_rng_for(root, *path):
            paths.append((root, path))
            return seeding.rng_for(root, *path)

        def job_stub(name, arg):
            given.append(arg)
            return JobResult(job_id=name, anchor="")

        monkeypatch.setattr(cli, "rng_for", recording_rng_for)
        for kind in cli._JOB_KINDS:
            monkeypatch.setitem(cli._JOB_KINDS, kind, job_stub)
        owner = {}
        for seed in (20260810, 20260811):
            settings = RunSettings(seed=seed)
            jobs = jobs_for("all", settings)
            assert len(jobs) == 23
            for job in jobs:
                paths.clear()
                given.clear()
                cli.run_job(settings, job)
                if job.startswith("check:"):
                    assert paths == [(seed, tuple(job.encode()))], job
                    assert [type(g) for g in given] == [np.random.Generator], job
                    assert owner.setdefault(paths[0], job) == job
                else:
                    assert paths == [] and given == [getattr(settings, job.replace(":", "_"))], job
        assert len(owner) == 2 * 17

    def test_only_the_job_runner_derives_generators(self):
        assert not hasattr(checks, "rng_for")
        assert not hasattr(experiments, "rng_for")

    def test_jobs_draw_the_same_alone_as_under_all(self, tmp_path):
        p = tmp_path / "tiny.ini"
        p.write_text(TINY_EXPERIMENTS)

        def run(*argv):
            out = tmp_path / argv[0]
            assert cli.main([*argv, "--config", str(p), "--out", str(out),
                             "--seed", "5"]) in (0, 1)
            records = json.loads((out / "verdicts.json").read_text())["verdicts"]
            tables = {t.name: t.read_text() for t in (out / "tables").glob("rate_*.csv")}
            return records, tables

        everything, all_tables = run("all")
        alone, _ = run("check", "--only", "lattice-distance")
        assert alone and alone == [r for r in everything
                                   if r["job"] == "check:lattice-distance"]
        rate, rate_tables = run("rate")
        assert rate == [r for r in everything if r["job"].startswith("rate:")]
        # the metadata lines hold the config hash, which both runs share
        assert len(rate_tables) == 2 and rate_tables == all_tables


class TestMainEndToEnd:
    def test_single_checker_run(self, tmp_path):
        out = str(tmp_path / "out")
        rc = cli.main(["check", "--only", "r-of-n", "--out", out, "--seed", "7"])
        assert rc == 0
        payload = json.loads(open(os.path.join(out, "verdicts.json")).read())
        assert payload["root_seed"] == 7
        assert payload["config_hash"]
        assert payload["summary"]["fail"] == 0
        assert all(v["verdict"] == "pass" for v in payload["verdicts"])

    def test_malformed_config_exits_2(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[rate_d1]\nwhatever = 3\n")
        assert cli.main(["check", "--config", str(p)]) == 2

    @pytest.mark.parametrize("argv", [["list"], ["check", "--only", "r-of-n"]])
    def test_malformed_run_value_exits_2(self, tmp_path, argv):
        out = tmp_path / "out"
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nseed = abc\n")
        assert cli.main(argv + ["--config", str(p), "--out", str(out)]) == 2
        assert not (out / "verdicts.json").exists()

    def test_missing_config_exits_2(self):
        assert cli.main(["check", "--config", "/no/such/file.ini"]) == 2

    @pytest.mark.parametrize("subcommand,ini,message", [
        # corners (+-1, +-1) are finite but not in beta Z^2 = sqrt(2) Z^2
        ("lower", "[lower_d2]\nsampler = rademacher_product\n",
         "[lower_d2]: sampler kind='rademacher_product' support is not contained in beta*Z^d"),
        # the ci legs read the halfspace walks at load: the product law (+-1, +-sqrt 2)
        # has an exact W2, but its diagonal directions are on no lattice
        ("ci", "[ci_d2]\nsampler = lattice_custom\nscale = 1\n"
               "outcomes = 1 1.4142135623730951 | 1 -1.4142135623730951 | "
               "-1 1.4142135623730951 | -1 -1.4142135623730951\nprobs = 0.25 0.25 0.25 0.25\n",
         "[ci_d2]: sampler lattice_custom(dim=2) has a halfspace direction that is no lattice "
         "walk of at most 16 steps"),
        ("lower", "[lower_d1]\nsampler = lattice_custom\ndim = 1\n"
                  "outcomes = -2 | 1\nprobs = 0.3333333333333333 0.6666666666666667\n",
         "[lower_d1]: sampler kind='lattice_custom' support is not contained in beta*Z^d"),
        # every leg rests on the exact law of S_n: a law without one is rejected,
        # by name, even where a leg then has nothing to run (list)
        ("rate", "[rate_d1]\nsampler = lattice_custom\noutcomes = -1 | 0 | 1.4142135623730951\n"
                 "probs = 0.28284271247461906 0.5171572875253809 0.2\n",
         "[rate_d1]: sampler lattice_custom(dim=1) has no exact law of S_n"),
        ("lower", "[lower_d2]\nsampler = scaled_basis\ndim = 3\nscale = 1.0\n",
         "[lower_d2]: sampler scaled_basis(dim=3) has no exact law of S_n"),
        ("ci", "[ci_d2]\ndim = 3\n", "[ci_d2]: sampler scaled_basis(dim=3) has no exact law of S_n"),
        ("list", "[rate_d2]\ndim = 3\n",
         "[rate_d2]: sampler scaled_basis(dim=3) has no exact law of S_n"),
        ("rate", "[run]\nseed = -1\n", "[run]: seed must be >= 0, got -1"),
        ("rate", "[rate_d1]\nscale = inf\n", "[rate_d1]: outcomes must be finite"),
        ("list", "[lower_d1]\nscale = inf\n", "[lower_d1]: outcomes must be finite"),
        # the checkers take no config: a [check] section, with any key, is unknown
        ("check", "[check]\nchain_grid_2d = 0\n", "unknown config section [check]"),
        ("check", "[check]\nchain_refine = 0.5\n", "unknown config section [check]"),
        ("all", "[check]\nchain_refine = 100\n", "unknown config section [check]"),
        ("check", "[run]\nworkers = 0\n", "[run]: workers must be >= 1, got 0"),
        ("check --workers 0", "", "bad command-line value: workers must be >= 1, got 0"),
        ("check --workers -3", "", "bad command-line value: workers must be >= 1, got -3"),
        ("rate", "[rate_d1]\noutcomes = 5 | -5\nprobs = 0.5 0.5\n",
         "[rate_d1]: sampler 'rademacher_product' takes no outcomes or probs"),
        ("check --only naive-w2", "[run]\nout =\n",
         "[run]: the output directory (out, --out) must not be empty"),
        ("check --only naive-w2 --out ''", "",
         "bad command-line value: the output directory (out, --out) must not be empty"),
        # lattice_custom takes its scale from its outcomes: any other scale,
        # written or inherited from the leg's default sampler, is an error
        ("rate", "[rate_d1]\nsampler = lattice_custom\noutcomes = -1 | 1\n"
                 "probs = 0.5 0.5\nscale = 7\n",
         "[rate_d1]: lattice_custom takes its scale from its outcomes, got scale = 7.0"),
        ("rate", "[rate_d2]\nsampler = lattice_custom\n"
                 "outcomes = -1 -1 | 1 1 | -1 1 | 1 -1\nprobs = 0.25 0.25 0.25 0.25\n",
         "[rate_d2]: lattice_custom takes its scale from its outcomes, got scale = 1.4142135623730951"),
        # retired keys are unknown keys: every leg's W2 is exact, so no leg takes
        # an estimator, a replica count or a cloud size
        ("rate", "[rate_d2]\nestimator = exactt\n", "unknown key 'estimator' in section [rate_d2]"),
        ("rate", "[rate_d1]\nreplicas = 3\n", "unknown key 'replicas' in section [rate_d1]"),
        ("rate", "[rate_d2]\nm = 600\n", "unknown key 'm' in section [rate_d2]"),
        ("lower", "[lower_d1]\nm_w2 = 100000\n", "unknown key 'm_w2' in section [lower_d1]"),
        ("ci", "[ci_d2]\nw2_m = 600\n", "unknown key 'w2_m' in section [ci_d2]"),
        # every checker size is a constant in w2lab.checks (increment_ns = 3 would
        # also break the increment checker's hypothesis n >= 5 beta^2 / sigma^2 = 5)
        ("check", "[check]\nq_random_pairs = 0\n", "unknown config section [check]"),
        ("check", "[check]\not_instances = 0\n", "unknown config section [check]"),
        ("check", "[check]\nchain_radius = inf\n", "unknown config section [check]"),
        ("all", "[check]\nincrement_ns = 3\n", "unknown config section [check]"),
        ("check", "[check]\nl2_tables = 5\n", "unknown config section [check]"),
        ("check", "[check]\nremainder_pairs = 5\n", "unknown config section [check]"),
        ("check", "[check]\nsampler_validate_m = 0\n", "unknown config section [check]"),
    ])
    def test_bad_estimator_or_lattice_exits_2_before_compute(
            self, tmp_path, capsys, monkeypatch, subcommand, ini, message):
        def no_compute(*args, **kwargs):
            raise AssertionError("a job ran before the config error was reported")

        monkeypatch.setattr(cli, "execute", no_compute)
        out = tmp_path / "out"
        p = tmp_path / "bad.ini"
        p.write_text(ini)
        # the case's own arguments come last, so its --out is the one that holds
        argv = ["--config", str(p), "--out", str(out)] + shlex.split(subcommand)
        assert cli.main(argv) == 2
        # the message pins the rejection to the cause the case names
        assert message in capsys.readouterr().err
        assert not (out / "verdicts.json").exists()

    @pytest.mark.parametrize("leg", EXPERIMENT_JOBS)
    def test_continuous_sampler_exits_2_naming_the_kind(
            self, tmp_path, capsys, monkeypatch, leg):
        # every sampler is a finite law: a continuous kind is an unknown kind in any leg
        monkeypatch.setattr(cli, "execute", None)
        p = tmp_path / "sphere.ini"
        p.write_text(f"[{leg.replace(':', '_')}]\nsampler = sphere_uniform\n")
        kind = leg.partition(":")[0]
        assert cli.main([kind, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "unknown sampler kind 'sphere_uniform'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand,ini", [
        ("ci", "[ci_d1]\nn_grid = 64\n[ci_d2]\nn_grid = 64\n"),
        ("ci", "[ci_d2]\nn_grid = 256\n"),
        ("rate", "[rate_d1]\nn_grid = 64\n"),
        ("all", "[rate_d2]\nn_grid = 16\n"),
    ])
    def test_one_point_slope_grid_exits_2_naming_n_grid(
            self, tmp_path, capsys, monkeypatch, subcommand, ini):
        # a slope verdict on one point would read lstsq's minimum-norm answer
        monkeypatch.setattr(cli, "execute", None)
        p = tmp_path / "one.ini"
        p.write_text(ini)
        assert cli.main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "n_grid must hold at least 2 values" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # the lower legs fit no slope and keep one-point grids
        p.write_text("[lower_d1]\nn_grid = 64\n")
        assert load_settings(str(p)).lower_d1.n_grid == (64,)

    def test_check_records_carry_registry_labels(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["check", "--config", SMOKE, "--workers", "1", "--out", str(out)])
        assert rc == 0
        records = json.loads((out / "verdicts.json").read_text(),
                             parse_constant=refuse_constant)["verdicts"]
        anchors = {e.checker_id: e.anchor for e in REGISTRY}
        assert {r["job"] for r in records} == {f"check:{cid}" for cid in anchors}
        for r in records:
            cid = r["job"].removeprefix("check:")
            assert r["checker"] == cid, r
            assert r["anchor"] == anchors[cid], r
        assert_verdicts_follow_the_rule(records)

    @pytest.mark.parametrize("ini,subcommands,all_pass", [
        # grid wide enough for the slope window to apply meaningfully
        ("[rate_d1]\nn_grid = 16 64 256 1024\n[rate_d2]\nn_grid = 16 64\n", ("rate",), True),
        # a 2-d sampler in [rate_d1] and a 1-d one in [rate_d2]: the config, not
        # the leg name, decides the records
        ("[rate_d1]\nsampler = rademacher_product\ndim = 2\nscale = 1.0\nn_grid = 16 64 256\n"
         "[rate_d2]\nsampler = rademacher_product\ndim = 1\nscale = 1.0\n"
         "n_grid = 16 64 256 1024\n", ("rate",), True),
        # sizes too small for the verdicts to mean anything: only the schema counts
        (TINY_EXPERIMENTS, ("rate", "lower", "ci"), False),
    ], ids=["rate", "rate-legs-swapped", "all-experiments"])
    def test_rate_csv_schema(self, tmp_path, ini, subcommands, all_pass):
        p = tmp_path / "tiny.ini"
        p.write_text(ini)
        assert (len(TABLE_HEADERS), len(PLOT_NAMES)) == (6, 12)
        anchors = {"rate": cli.RATE_ANCHOR, "lower": cli.LOWER_ANCHOR, "ci": cli.CI_ANCHOR}
        for sub in subcommands:
            out = str(tmp_path / sub)
            rc = cli.main([sub, "--config", str(p), "--out", out])
            records = json.loads(open(os.path.join(out, "verdicts.json")).read())["verdicts"]
            assert rc == int(any(r["verdict"] == "fail" for r in records))
            assert rc == 0 or not all_pass
            settings = load_settings(str(p))
            assert {r["job"] for r in records} == set(jobs_for(sub, settings))
            # every rate leg gets the window, and each record reads its own leg's grid
            windows = {r["job"] for r in records if r["case"].startswith("log-log slope")}
            assert windows == {j for j in jobs_for(sub, settings) if j.startswith("rate:")}
            for r in records:
                if "n_grid" in r["inputs"]:
                    leg = getattr(settings, r["job"].replace(":", "_"))
                    assert r["inputs"]["n_grid"] == list(leg.n_grid), r
                assert r["checker"] == r["job"].replace(":", "-")
                assert r["anchor"] == anchors[sub]
            assert_verdicts_follow_the_rule(records)
        lines = open(os.path.join(tmp_path, "rate", "tables", "rate_d1.csv")).read().splitlines()
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == len(load_settings(str(p)).rate_d1.n_grid)
        headers = {}
        for path in tmp_path.glob("*/tables/*.csv"):
            rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
            headers[path.stem] = rows[0]
        assert headers == {name: header for name, header in TABLE_HEADERS.items()
                           if name.split("_")[0] in subcommands}
        dats = {path.stem: path for path in tmp_path.glob("*/plotdata/*.dat")}
        assert set(dats) == {name for name in PLOT_NAMES if name.split("_")[0] in subcommands}
        # every table and plot-data file is stamped with the config hash, the root
        # seed and its leg's sampler; the schema version is verdicts.json's alone
        for path in [*tmp_path.glob("*/tables/*.csv"), *dats.values()]:
            stamps = [l for l in path.read_text().splitlines() if l.startswith("#")]
            assert [l.partition("=")[0] for l in stamps] == [
                "# config_hash", "# root_seed", "# sampler"], path
        for sub in subcommands:
            payload = json.loads(open(os.path.join(tmp_path, sub, "verdicts.json")).read())
            assert payload["schema_version"] == cli.SCHEMA_VERSION
        for path in dats.values():
            # plotdata is two-column numeric
            rows = [l.split() for l in path.read_text().splitlines() if not l.startswith("#")]
            assert rows and all(len(r) == 2 for r in rows)
            np.array(rows, dtype=float)

    def test_failed_verdict_exits_1(self, tmp_path, capsys):
        s = RunSettings()
        bad = JobResult(
            job_id="check:fake", anchor="anchor",
            verdicts=[Verdict("case", 1.0, 0.0)],
        )
        rc = emit(
            s.__class__(**{**s.__dict__, "out_dir": str(tmp_path / "o")}),
            [bad], verbose=0,
        )
        assert rc == 1
        [rec] = json.loads((tmp_path / "o" / "verdicts.json").read_text())["verdicts"]
        assert (rec["checker"], rec["anchor"], rec["verdict"]) == ("fake", "anchor", "fail")

    def test_closed_stdout_loses_no_artifact(self, tmp_path, monkeypatch):
        # `w2lab all -vv | head -1`: the pipe closes while the records print
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        p = tmp_path / "tiny.ini"
        p.write_text(TINY_EXPERIMENTS)
        settings = load_settings(str(p))
        results = cli.execute(settings, ["check:r-of-n", "lower:d1"])
        trees = []
        for tag, verbose in (("plain", 0), ("piped", 2)):
            out = tmp_path / tag
            run = dataclasses.replace(settings, out_dir=str(out))
            if verbose:
                monkeypatch.setattr(sys, "stdout", ClosedPipe())
                with pytest.raises(BrokenPipeError):
                    emit(run, results, verbose)
            else:
                assert emit(run, results, verbose) == 0
            trees.append({f.relative_to(out): f.read_bytes()
                          for f in out.rglob("*") if f.is_file()})
        assert trees[0] == trees[1]
        assert {str(f) for f in trees[0]} >= {"verdicts.json", "tables/lower_d1.csv"}

    @staticmethod
    def _run_into_closed_pipe(args, unbuffered):
        """The CLI run with a stdout pipe whose read end is closed before it prints:
        buffered, the write fails at the final flush, unbuffered at the first line."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(w2lab.__file__)))
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "w2lab.cli", *args], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr and b"BrokenPipe" not in proc.stderr
        return proc

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["at-exit-flush", "in-print-loop"])
    def test_closed_stdout_pipe_exits_with_the_verdict_status(self, tmp_path, unbuffered):
        # `w2lab check -vv | head -0`
        out = tmp_path / "out"
        proc = self._run_into_closed_pipe(
            ["check", "--only", "r-of-n", "-vv", "--out", str(out)], unbuffered)
        assert proc.returncode == 0, proc.stderr
        assert (out / "verdicts.json").is_file()

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["at-exit-flush", "in-print-loop"])
    def test_list_into_closed_stdout_exits_0_quietly(self, unbuffered):
        # `w2lab list | head -0`: the registry lines print through the same guard
        proc = self._run_into_closed_pipe(["list"], unbuffered)
        assert proc.returncode == 0, proc.stderr

    def test_inconclusive_exits_0_with_warning(self, tmp_path, capsys):
        s = RunSettings()
        j = JobResult(
            job_id="check:fake", anchor="anchor",
            verdicts=[Verdict("case", (0.0, 2.0), 1.0)],  # straddles its bound
        )
        rc = emit(dataclasses.replace(s, out_dir=str(tmp_path / "o")), [j], verbose=1)
        assert rc == 0
        assert "warning" in capsys.readouterr().out
        [rec] = json.loads((tmp_path / "o" / "verdicts.json").read_text())["verdicts"]
        assert [rec[k] for k in ("lhs_lo", "lhs", "rhs", "rhs_hi", "margin", "verdict")] == [
            0.0, 2.0, 1.0, 1.0, -1.0, "inconclusive"]

    def test_non_finite_edges_are_written_as_null_and_fail(self, tmp_path):
        # an infinity and a NaN alike: on an edge, in the margin, the inputs or the fits
        j = JobResult(job_id="check:fake", anchor="anchor", verdicts=[
            Verdict("open above", (0.0, math.inf), 1.0),
            Verdict("open at both outer edges", (-math.inf, 0.5), (1.0, math.inf)),
            Verdict("a NaN grid point", np.float64(math.nan), 1.0, {"worst": np.float64(math.nan)}),
            Verdict("finite", 0.5, 1.0),
        ], fits={"fake": {"slope": math.nan, "intercept": 0.5}})
        out = tmp_path / "o"
        assert emit(dataclasses.replace(RunSettings(), out_dir=str(out)), [j], verbose=0) == 1
        payload = json.loads((out / "verdicts.json").read_text(), parse_constant=refuse_constant)
        assert payload["schema_version"] == 8
        assert [[r[k] for k in ("lhs_lo", "lhs", "rhs", "rhs_hi", "margin", "verdict")]
                for r in payload["verdicts"]] == [
            [0.0, None, 1.0, 1.0, None, "fail"], [None, 0.5, 1.0, None, 0.5, "fail"],
            [None, None, 1.0, 1.0, None, "fail"], [0.5, 0.5, 1.0, 1.0, 0.5, "pass"]]
        assert payload["verdicts"][2]["inputs"] == {"worst": None}
        assert payload["fits"] == {"fake": {"slope": None, "intercept": 0.5}}
        assert payload["summary"] == {"pass": 1, "fail": 3, "inconclusive": 0}
        # a null edge is a failing one: the file's verdicts follow from its edges
        assert_verdicts_follow_the_rule(payload["verdicts"])

    @pytest.mark.parametrize("workers, jobs", [(64, 2), (2, 3)])
    def test_worker_pool_is_capped_at_the_job_count(self, monkeypatch, workers, jobs):
        # the fork start method starts every worker at the first submit, so a pool
        # larger than the job list forks idle processes.  A fake pool records its
        # size and runs each job inline: no process starts
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "run_job", lambda settings, j: JobResult(job_id=j, anchor="a"))
        job_ids = [f"check:fake{i}" for i in reversed(range(jobs))]
        results = cli.execute(dataclasses.replace(RunSettings(), workers=workers), job_ids)
        assert sizes == [min(workers, jobs)]
        assert [r.job_id for r in results] == sorted(job_ids)

    def test_lower_target_and_ci_conversion_records_fail_when_they_fall_short(
            self, tmp_path, monkeypatch):
        # both sides are exact points: a floor short of the lower target, or a
        # conversion bound at the exact W2 below delta, fails its record
        p = tmp_path / "tiny.ini"
        p.write_text(TINY_EXPERIMENTS)
        settings = load_settings(str(p))
        lower, ci = experiments.lattice_lower_experiment, experiments.ci_halfspace_experiment

        def short_floor(cfg):
            *points, last = lower(cfg)
            return (*points, dataclasses.replace(last, sqrtn_floor=0.1))

        def low_conversion(cfg):
            return tuple(dataclasses.replace(q, conversion_rhs=0.5 * q.delta) for q in ci(cfg))

        monkeypatch.setattr(cli, "lattice_lower_experiment", short_floor)
        monkeypatch.setattr(cli, "ci_halfspace_experiment", low_conversion)
        reach = cli.run_job(settings, "lower:d1").verdicts[0]
        below = cli.run_job(settings, "ci:d1").verdicts[0]
        assert reach.case == "sqrt(n) x exact lattice floor at the largest n reaches the target"
        assert below.case == "exact delta below the conversion bound at every grid point"
        # the target sqrt(d) beta / 4 of the leg's law, against the short floor
        law = settings.lower_d1.law
        target = math.sqrt(law.dim) * law.bound / 4.0
        assert (reach.lhs_lo, reach.lhs, reach.rhs, reach.rhs_hi) == (target, target, 0.1, 0.1)
        assert (below.lhs_lo, below.rhs, below.rhs_hi) == (below.lhs, 0.0, 0.0)
        assert reach.lhs > reach.rhs and below.lhs > below.rhs
        assert reach.verdict == below.verdict == "fail"

    def test_ci_leg_on_a_product_law_off_beta_z_d_passes(self, tmp_path):
        # rademacher_product(2, sqrt 2) is off beta Z^2 = 2 Z^2, which the ci legs do
        # not require: its halfspace directions are lattice walks
        p = tmp_path / "ci.ini"
        p.write_text("[ci_d2]\nsampler = rademacher_product\nn_grid = 16 64 256\n")
        out = tmp_path / "out"
        assert cli.main(["ci", "--config", str(p), "--out", str(out)]) == 0
        records = json.loads((out / "verdicts.json").read_text(),
                             parse_constant=refuse_constant)["verdicts"]
        ci_d2 = [r for r in records if r["job"] == "ci:d2"]
        assert len(ci_d2) == 2 and all(r["verdict"] == "pass" for r in ci_d2)
        assert "# sampler=rademacher_product(dim=2,scale=1.4142135623730951)" in (
            out / "tables" / "ci_d2.csv").read_text()


class TestExactLegs:
    def test_default_legs_draw_nothing(self, monkeypatch):
        # every default sampler factorises into lattice walks: no leg derives a generator
        def no_generator(*args):
            raise AssertionError("an exact leg derived a generator")

        monkeypatch.setattr(cli, "rng_for", no_generator)
        settings = RunSettings()
        for job in cli.EXPERIMENT_JOBS:
            result = cli.run_job(settings, job)
            # no estimator, cloud size or replica count: none applies
            assert set(result.meta) == {"sampler"}, result.meta
            assert all(v.verdict == "pass" for v in result.verdicts), job

    @pytest.mark.parametrize("job", EXPERIMENT_JOBS)
    def test_a_leg_derives_its_lattice_factors_once(self, monkeypatch, job):
        # the config's validation and the experiment read one cached derivation
        calls = []
        real = experiments.lattice_factors
        monkeypatch.setattr(experiments, "lattice_factors",
                            lambda s: calls.append(s.kind) or real(s))
        field = job.replace(":", "_")
        settings = RunSettings()
        default = getattr(settings, field)
        calls.clear()
        cfg = dataclasses.replace(default, n_grid=default.n_grid[:3])
        result = cli.run_job(dataclasses.replace(settings, **{field: cfg}), job)
        assert cfg.factors and result.verdicts
        assert calls == [cfg.sampler.kind]

    @pytest.mark.parametrize("job", EXPERIMENT_JOBS)
    def test_a_leg_builds_its_sampler_once(self, monkeypatch, job):
        # from the config's construction through run_job: the validation, the
        # lattice factors, the experiment and the job's own records read one law
        calls = []
        real = experiments.SamplerSpec.build
        monkeypatch.setattr(experiments.SamplerSpec, "build",
                            lambda spec: calls.append(spec.kind) or real(spec))
        field = job.replace(":", "_")
        settings = RunSettings()
        default = getattr(settings, field)
        calls.clear()
        cfg = dataclasses.replace(default, n_grid=default.n_grid[:3])
        result = cli.run_job(dataclasses.replace(settings, **{field: cfg}), job)
        assert result.verdicts and calls == [cfg.sampler.kind]

    def test_exact_rate_records_say_what_they_rest_on(self):
        result = cli.run_job(RunSettings(), "rate:d2")
        assert [v.case for v in result.verdicts] == [
            "exact W2(S_n, Z) below the bound at every grid point",
            "log-log slope of exact W2 within [-0.65, -0.35]"]
        assert result.verdicts[0].inputs == {"n_grid": list(experiments.N_GRID_DEFAULT)}
        # one exact value per n: no replica table
        columns, rows = result.tables["rate_d2"]
        assert set(result.tables) == {"rate_d2"} and columns == ("n", "w2_hat", "bound")
        assert [r[0] for r in rows] == list(experiments.N_GRID_DEFAULT)

    @pytest.mark.parametrize("leg", ["lower:d1", "lower:d2"])
    def test_floor_below_exact_w2(self, leg):
        [record] = [v for v in cli.run_job(RunSettings(), leg).verdicts
                    if v.case == "exact lattice floor <= exact W2(S_n, Z) at every grid point"]
        assert record.verdict == "pass" and record.inputs == {"n_grid": [64, 256, 1024, 4096]}

    def test_a_three_dimensional_rate_leg_runs_on_its_exact_law(self, tmp_path):
        # a 3-d law that factorises: one exact value per n and the slope window,
        # with no replica table and no estimator line in the table's header
        p = tmp_path / "d3.ini"
        p.write_text("[rate_d2]\nsampler = rademacher_product\ndim = 3\nscale = 1.0\n"
                     "n_grid = 16 64 256 1024\n")
        out = tmp_path / "out"
        assert cli.main(["rate", "--config", str(p), "--out", str(out)]) == 0
        records = json.loads((out / "verdicts.json").read_text())["verdicts"]
        assert [(r["case"], r["verdict"]) for r in records if r["job"] == "rate:d2"] == [
            ("exact W2(S_n, Z) below the bound at every grid point", "pass"),
            ("log-log slope of exact W2 within [-0.65, -0.35]", "pass")]
        assert sorted(t.name for t in (out / "tables").iterdir()) == [
            "rate_d1.csv", "rate_d2.csv"]
        lines = (out / "tables" / "rate_d2.csv").read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert "# sampler=rademacher_product(dim=3,scale=1.0)" in meta
        assert not any("estimator" in l for l in meta)
        header, *rows = [l for l in lines if not l.startswith("#")]
        assert header == "n,w2_hat,bound"
        assert [int(r.split(",")[0]) for r in rows] == [16, 64, 256, 1024]

    def test_floor_below_exact_w2_on_a_custom_lattice_law(self):
        # the cross-check applies to every lower leg, not only the default laws:
        # here the lazy {-1, 0, 1} walk, a lattice_custom law
        lazy = experiments.SamplerSpec("lattice_custom", 1, outcomes=((-1.0,), (0.0,), (1.0,)),
                                       probs=(0.25, 0.5, 0.25))
        settings = RunSettings()
        cfg = dataclasses.replace(settings.lower_d1, sampler=lazy)
        result = cli.run_job(dataclasses.replace(settings, lower_d1=cfg), "lower:d1")
        [record] = [v for v in result.verdicts
                    if v.case == "exact lattice floor <= exact W2(S_n, Z) at every grid point"]
        assert record.verdict == "pass" and record.inputs == {"n_grid": list(cfg.n_grid)}
        assert result.meta == {"sampler": "lattice_custom(dim=1,scale=1.0)"}

    def test_floor_twice_too_high_fails_the_cross_check(self, monkeypatch):
        # scaled_basis(2, 1): sqrt(n) floor = sqrt(1/6) = 0.408, sqrt(n) W2 -> 0.577, so a
        # floor twice too high (0.816) breaks the theorem.  (For Rademacher in d = 1 the
        # exact value tends to twice the floor on Z / sqrt(n) from above, as S_n lives
        # on the coset 2Z / sqrt(n), so doubling it there breaks nothing.)
        floor = experiments.expected_lattice_distance
        monkeypatch.setattr(experiments, "expected_lattice_distance",
                            lambda cov, spacing: 2 * floor(cov, spacing))
        [record] = [v for v in cli.run_job(RunSettings(), "lower:d2").verdicts
                    if v.case.startswith("exact lattice floor <= exact W2")]
        assert record.verdict == "fail"
        assert record.lhs == pytest.approx(2 * math.sqrt(1 / 6) - 1 / math.sqrt(3), abs=1e-3)


@pytest.mark.parametrize("job, experiment, field, case", [
    ("rate:d1", "clt_rate_experiment", "bound",
     "exact W2(S_n, Z) below the bound at every grid point"),
    ("lower:d1", "lattice_lower_experiment", "sqrtn_bound",
     "exact lattice floor below the rate bound at every grid point"),
    ("lower:d1", "lattice_lower_experiment", "sqrtn_w2_hat",
     "exact lattice floor <= exact W2(S_n, Z) at every grid point"),
    ("ci:d1", "ci_halfspace_experiment", "conversion_rhs",
     "exact delta below the conversion bound at every grid point"),
])
def test_a_nan_grid_point_fails_its_record(monkeypatch, job, experiment, field, case):
    # the second grid point's NaN reaches the record's worst case, and fails it
    exact = getattr(cli, experiment)

    def with_nan(cfg):
        points = list(exact(cfg))
        points[1] = dataclasses.replace(points[1], **{field: math.nan})
        return tuple(points)

    monkeypatch.setattr(cli, experiment, with_nan)
    record = {v.case: v for v in cli.run_job(RunSettings(), job).verdicts}[case]
    assert math.isnan(record.lhs) and record.verdict == "fail"


def test_cli_and_experiments_leave_scipy_unloaded(tmp_path):
    # start-up cost: importing the CLI loads no SciPy module and no checker stack
    # (checks, densities, qstats), and neither does any experiment job, at the
    # default config or at smoke, nor `rate`, `lower` and `ci` run through main, nor
    # a rejected `rate --only`; only the registry's users (check, all, list, an
    # --only id) load the checkers, and no checker loads SciPy: `all` at smoke and
    # at the default config, in one worker so every job runs in this process.
    # Nothing loads numpy.ma (about 15 ms and 1.3 MB), which np.unique of a bare
    # array imports.  The experiments draw nothing, so they load no numpy.random
    # either; `all` does, as its checkers draw
    src = os.path.dirname(os.path.dirname(os.path.abspath(w2lab.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import os, sys, w2lab.cli as cli\n"
        "def loaded(): return [m for m in sys.modules if m.partition('.')[0] == 'scipy'\n"
        "                      or m.startswith('numpy.random') or m in (\n"
        "                          'numpy.ma', 'w2lab.checks', 'w2lab.densities', 'w2lab.qstats')]\n"
        "assert not loaded(), loaded()\n"
        "jobs = [j for j in cli.EXPERIMENT_JOBS if j.partition(':')[0] in ('rate', 'lower', 'ci')]\n"
        "assert len(jobs) == 6, jobs\n"
        "for settings in (cli.RunSettings(), cli.load_settings(sys.argv[1])):\n"
        "    for job in jobs:\n"
        "        cli.run_job(settings, job)\n"
        "        assert not loaded(), (job, loaded())\n"
        "for sub in ('rate', 'lower', 'ci'):\n"
        "    out = os.path.join(sys.argv[2], sub)\n"
        "    assert cli.main([sub, '--workers', '1', '--out', out]) == 0, sub\n"
        "    assert os.path.exists(os.path.join(out, 'verdicts.json')), sub\n"
        "    assert not loaded(), (sub, loaded())\n"
        "assert cli.main(['rate', '--only', 'r-of-n']) == 2\n"
        "assert not loaded(), loaded()\n"
        "assert cli.main(['check', '--only', 'bogus']) == 2\n"
        "assert 'w2lab.checks' in loaded()\n"
        "for name, config in (('smoke', ['--config', sys.argv[1]]), ('default', [])):\n"
        "    out = os.path.join(sys.argv[2], 'all-' + name)\n"
        "    assert cli.main(['all', *config, '--workers', '1', '--out', out]) == 0, name\n"
        "    assert os.path.exists(os.path.join(out, 'verdicts.json')), name\n"
        "    assert 'numpy.random' in loaded(), name\n"
        "    stray = [m for m in loaded() if not m.startswith(('w2lab.', 'numpy.random'))]\n"
        "    assert not stray, (name, stray)\n"
    )
    subprocess.run([sys.executable, "-c", code, SMOKE, str(tmp_path)], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)


class TestRegistryOnFirstUse:
    # the registry loads on first use; each of its users keeps its exit status and
    # its messages
    def test_list_prints_the_registry_in_order(self, capsys):
        assert cli.main(["list"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"{e.checker_id:24s} {e.anchor}" for e in REGISTRY]
        assert captured.err == ""

    def test_check_only_runs_one_checker(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        assert cli.main(["check", "--only", "r-of-n", "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"verdicts: 4 pass, 0 fail, 0 inconclusive -> {out}/verdicts.json\n"
        assert captured.err == ""

    @pytest.mark.parametrize("argv, message", [
        (["check", "--only", "bogus"], "unknown checker 'bogus'; run the list subcommand for ids"),
        (["rate", "--only", "r-of-n"], "--only applies to the check/all subcommands"),
    ])
    def test_bad_only_exits_2(self, tmp_path, capsys, argv, message):
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
