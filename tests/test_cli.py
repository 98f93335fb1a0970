import json
import os
import subprocess
import sys

import numpy as np
import pytest

import w2lab
from w2lab import cli, experiments, seeding
from w2lab.checks import REGISTRY, Verdict
from w2lab.cli import JobResult, emit, jobs_for
from w2lab.config import RunSettings, UsageError, load_settings


SMOKE = os.path.join(os.path.dirname(__file__), "..", "configs", "smoke.ini")


def assert_verdicts_follow_margins(records):
    """Every decided record passes exactly when its margin rhs - lhs is >= 0."""
    for r in records:
        assert r["margin"] == r["rhs"] - r["lhs"], r
        if r["verdict"] != "inconclusive":
            assert (r["verdict"] == "pass") == (r["margin"] >= 0), r


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


class TestConfig:
    def test_defaults_resolve(self):
        s = RunSettings(seed=1)
        assert s.seed == 1
        assert s.rate_d1.sampler.kind == "rademacher_product"
        assert s.rate_d2.estimator == "exact"

    def test_smoke_file_overrides(self):
        s = load_settings(SMOKE)
        assert s.check.l2_tables == 1000
        assert s.rate_d1.m == 20000
        assert s.rate_d1.n_grid == (16, 64, 256, 1024)

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

    def test_optional_int_coerced(self, tmp_path):
        p = tmp_path / "w2m.ini"
        p.write_text("[ci_d1]\nw2_m = 5000\n")
        s = load_settings(str(p))
        assert s.ci_d1.w2_m == 5000
        assert isinstance(s.ci_d1.w2_m, int)

    @pytest.mark.parametrize("ini", ["[rate_d1]\nroot_seed = 5\n",
                                     "[check]\nroot_seed = 9\n"])
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


class TestJobs:
    def test_job_lists(self):
        s = RunSettings()
        assert len(jobs_for("check", s)) == len(REGISTRY)
        assert jobs_for("rate", s) == ["rate:d1", "rate:d2"]
        assert set(jobs_for("all", s)) >= set(jobs_for("ci", s))

    def test_only_filter(self):
        s = RunSettings()
        assert jobs_for("check", s, only="r-of-n") == ["check:r-of-n"]
        with pytest.raises(UsageError):
            jobs_for("check", s, only="not-a-checker")
        with pytest.raises(UsageError):
            jobs_for("rate", s, only="r-of-n")


TINY_EXPERIMENTS = """
[run]
calibration_m = 1000
[rate_d1]
n_grid = 16 64
replicas = 3
m = 200
[rate_d2]
n_grid = 16 64
replicas = 3
m = 50
[lower_d1]
n_grid = 64
m_w2 = 200
m_proxy = 100000
[lower_d2]
n_grid = 64
m_w2 = 50
m_proxy = 100000
[ci_d1]
n_grid = 16 64
m = 500
directions = 2
[ci_d2]
n_grid = 16 64
m = 500
w2_m = 50
directions = 2
"""


class TestSeedPaths:
    def test_no_two_jobs_share_a_stream_across_consecutive_seeds(
            self, tmp_path, monkeypatch):
        keys = []

        def recording_rng_for(root, *path):
            keys.append((int(root), tuple(int(p) for p in path)))
            return seeding.rng_for(root, *path)

        for module in (cli, experiments):
            monkeypatch.setattr(module, "rng_for", recording_rng_for)
        p = tmp_path / "tiny.ini"
        p.write_text(TINY_EXPERIMENTS)
        owner = {}
        for seed in (20260810, 20260811):
            settings = load_settings(str(p), seed=seed)
            for job in [j for sub in ("rate", "lower", "ci")
                        for j in jobs_for(sub, settings)]:
                keys.clear()
                cli.run_job(settings, job)
                assert keys, job
                for key in set(keys):
                    assert owner.setdefault(key, (seed, job)) == (seed, job), (
                        f"{(seed, job)} reuses the stream {key} of {owner[key]}"
                    )
        assert len(set(owner.values())) == 2 * 7


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

    def test_estimator_dim_mismatch_exits_2(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[rate_d1]\nsampler = scaled_basis\ndim = 2\n")
        assert cli.main(["rate", "--config", str(p)]) == 2

    def test_exact_cap_exits_2_before_compute(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "cap.ini"
        p.write_text("[rate_d2]\nm = 6000\n")
        assert cli.main(["rate", "--config", str(p), "--out", str(out)]) == 2
        assert not (out / "verdicts.json").exists()

    @pytest.mark.parametrize("subcommand,ini", [
        ("rate", "[rate_d2]\nestimator = exactt\n"),
        ("lower", "[lower_d2]\nsampler = sphere_uniform\n"),
        ("lower", "[lower_d1]\nsampler = lattice_custom\ndim = 1\n"
                  "outcomes = -2 | 1\nprobs = 0.3333333333333333 0.6666666666666667\n"),
        ("lower", "[lower_d1]\nm_proxy = 50000\n"),
        ("rate", "[rate_d1]\nm = 0\n"),
        ("ci", "[run]\ncalibration_m = 0\n"),
        ("rate", "[run]\nseed = -1\n"),
        ("list", "[rate_d2]\nm = 6000\n"),
        ("check", "[check]\nsampler_validate_m = 0\n"),
        ("check", "[check]\nq_random_pairs = 0\n"),
        ("check", "[check]\not_instances = 0\n"),
        ("ci", "[ci_d1]\nw2_m = 0\n"),
        ("ci", "[ci_d2]\nw2_m = 0\n"),
        ("rate", "[rate_d1]\nscale = inf\n"),
        ("list", "[lower_d1]\nscale = inf\n"),
        ("check", "[check]\nchain_grid_2d = 0\n"),
        ("check", "[check]\nchain_radius = inf\n"),
        ("check", "[check]\nchain_radius = 0\n"),
        ("check", "[check]\nchain_refine = 0.5\n"),
        ("check", "[check]\nchain_refine = 1\n"),
        ("all", "[check]\nchain_refine = 100\n"),
        ("check", "[run]\nworkers = 0\n"),
        ("check --workers 0", ""),
        ("check --workers -3", ""),
    ])
    def test_bad_estimator_or_lattice_exits_2_before_compute(
            self, tmp_path, monkeypatch, subcommand, ini):
        def no_compute(*args, **kwargs):
            raise AssertionError("a job ran before the config error was reported")

        monkeypatch.setattr(cli, "execute", no_compute)
        out = tmp_path / "out"
        p = tmp_path / "bad.ini"
        p.write_text(ini)
        argv = subcommand.split() + ["--config", str(p), "--out", str(out)]
        assert cli.main(argv) == 2
        assert not (out / "verdicts.json").exists()

    def test_check_records_carry_registry_labels(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["check", "--config", SMOKE, "--workers", "1", "--out", str(out)])
        assert rc == 0
        records = json.loads((out / "verdicts.json").read_text())["verdicts"]
        anchors = {e.checker_id: e.anchor for e in REGISTRY}
        assert {r["job"] for r in records} == {f"check:{cid}" for cid in anchors}
        for r in records:
            cid = r["job"].removeprefix("check:")
            assert r["checker"] == cid, r
            assert r["anchor"] == anchors[cid], r
        assert_verdicts_follow_margins(records)

    def test_rate_csv_schema(self, tmp_path):
        out = str(tmp_path / "out")
        p = tmp_path / "tiny.ini"
        # grid wide enough for the slope window to apply meaningfully
        p.write_text(
            "[rate_d1]\nn_grid = 16 64 256 1024\nreplicas = 3\nm = 20000\n"
            "[rate_d2]\nn_grid = 16 64\nreplicas = 3\nm = 400\n"
        )
        rc = cli.main(["rate", "--config", str(p), "--out", out])
        assert rc == 0
        lines = open(os.path.join(out, "tables", "rate_d1.csv")).read().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("config_hash=" in l for l in meta)
        assert any("root_seed=" in l for l in meta)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "n,w2_hat,ci_lo,ci_hi,bound"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 4
        # plotdata is two-column numeric
        dat = open(os.path.join(out, "plotdata", "rate_d1.dat")).read().splitlines()
        rows = [l.split() for l in dat if not l.startswith("#")]
        assert all(len(r) == 2 for r in rows)
        np.array(rows, dtype=float)
        records = json.loads(open(os.path.join(out, "verdicts.json")).read())["verdicts"]
        assert {r["job"] for r in records} == {"rate:d1", "rate:d2"}
        for r in records:
            assert r["checker"] == r["job"].replace(":", "-")
            assert r["anchor"] == cli.RATE_ANCHOR
        assert_verdicts_follow_margins(records)

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

    def test_inconclusive_exits_0_with_warning(self, tmp_path, capsys):
        s = RunSettings()
        j = JobResult(
            job_id="check:fake", anchor="anchor",
            verdicts=[Verdict("case", 0.0, 0.0, inconclusive=True)],
        )
        import dataclasses

        rc = emit(dataclasses.replace(s, out_dir=str(tmp_path / "o")), [j], verbose=1)
        assert rc == 0
        assert "warning" in capsys.readouterr().out


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(w2lab.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, w2lab.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
