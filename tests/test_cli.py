import csv
import json
import os

import pytest

from healthmarkov import panel as panel_module
from healthmarkov.cli import REPORTS, main
from healthmarkov.panel import Panel

from conftest import collinear_cost_panel

HEADER = "person_id,sex,age,year,month,cost_yen\n"


def run(*argv):
    return main(list(argv))


def synth_args(out, n=400, seed=3, entry=20, exit_age=32, attrition=0.05):
    return [
        "--output-dir", str(out),
        "--set", f"synth.n_persons={n}",
        "--set", f"seed={seed}",
        "--set", f"synth.entry_age={entry}",
        "--set", f"synth.exit_age={exit_age}",
        "--set", f"synth.attrition={attrition}",
        "--set", "synth.cost_model=uniform",
        "synth",
    ]


@pytest.fixture
def pipeline(tmp_path):
    """synth -> ingest once per test that needs a panel cache."""
    out = tmp_path / "out"
    assert run(*synth_args(out)) == 0
    assert run(
        "--output-dir", str(out),
        "--set", f"input.claims={out / 'claims.csv'}",
        "ingest",
    ) == 0
    return out


class TestSynth:
    def test_writes_claims_and_truth(self, tmp_path):
        out = tmp_path / "o"
        assert run(*synth_args(out)) == 0
        assert (out / "claims.csv").exists()
        assert (out / "truth.json").exists()
        doc = json.loads((out / "truth.json").read_text())
        assert doc["rng"] == "pcg64"

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*synth_args(a)) == 0
        assert run(*synth_args(b)) == 0
        assert (a / "claims.csv").read_bytes() == (b / "claims.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()

    def test_zero_persons_is_usage_error(self, tmp_path):
        assert run("--output-dir", str(tmp_path), "--set", "synth.n_persons=0", "synth") == 2


class TestIngest:
    def test_cache_written(self, pipeline):
        assert (pipeline / "panel.csv").exists()
        panel = Panel.read_cache(pipeline / "panel.csv")
        assert panel.n_persons > 0

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run("--output-dir", str(tmp_path), "ingest") == 2
        assert run("--output-dir", str(tmp_path), "--set", "input.claims=/no/such.csv", "ingest") == 2

    def test_directory_as_input_is_usage_error(self, tmp_path, capsys):
        folder = tmp_path / "claims"
        folder.mkdir()
        assert run("--output-dir", str(tmp_path), "--set", f"input.claims={folder}", "ingest") == 2
        err = capsys.readouterr().err
        assert f"input.claims is a directory, not a file: {folder}" in err and "Traceback" not in err

    def test_duplicate_row_is_data_error(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text(HEADER + "a,M,40,2010,4,1\na,M,40,2010,4,1\n")
        assert run("--output-dir", str(tmp_path),
                   "--set", f"input.claims={path}", "ingest") == 3

    def test_malformed_month_is_data_error(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text(HEADER + "a,M,40,2010,13,1\n")
        assert run("--output-dir", str(tmp_path),
                   "--set", f"input.claims={path}", "ingest") == 3

    def test_summary_counts_every_claims_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*synth_args(out, n=60, attrition=0.2)) == 0
        synth = json.loads(capsys.readouterr().out)
        assert run("--output-dir", str(out), "--set", f"input.claims={out / 'claims.csv'}",
                   "--set", "cohort.age_max=25", "ingest") == 0
        ingest = json.loads(capsys.readouterr().out)
        # counted before the cohort filter, which here drops ages 26..32
        assert ingest["claims_rows"] == synth["claims_rows"] > 12 * ingest["person_years"]

    @pytest.mark.parametrize("row", [b"b\xff\xfe,M,40,2010,5,1", b"b," + b"9" * 200_000 + b",40,2010,5,1"],
                             ids=["not utf-8", "field past the csv limit"])
    def test_unreadable_row_is_data_error_at_its_line(self, tmp_path, capsys, row):
        path = tmp_path / "claims.csv"
        path.write_bytes(HEADER.encode() + b"a,M,40,2010,4,1\n" + row + b"\n")
        assert run("--output-dir", str(tmp_path), "--set", f"input.claims={path}", "ingest") == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: line 3: ") and "Traceback" not in err

    def test_empty_cohort_after_filter(self, tmp_path):
        path = tmp_path / "claims.csv"
        rows = "".join(f"a,F,40,2010,{m},100\n" for m in range(4, 13))
        path.write_text(HEADER + rows)
        code = run("--output-dir", str(tmp_path),
                   "--set", f"input.claims={path}", "ingest")  # default cohort is male
        assert code == 4


class TestEstimate:
    def test_directory_as_panel_is_usage_error(self, tmp_path, capsys):
        assert run("--output-dir", str(tmp_path), "--set", f"input.panel={tmp_path}", "estimate") == 2
        err = capsys.readouterr().err
        assert f"input.panel is a directory, not a file: {tmp_path}" in err and "Traceback" not in err

    def test_outputs_exist_and_are_stochastic(self, pipeline):
        assert run(
            "--output-dir", str(pipeline),
            "--set", f"input.panel={pipeline / 'panel.csv'}",
            "estimate",
        ) == 0
        with open(pipeline / "order1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_age_from = {}
        for row in rows:
            if row["prob"]:
                by_age_from.setdefault((row["age"], row["from_state"]), 0.0)
                by_age_from[(row["age"], row["from_state"])] += float(row["prob"])
        for total in by_age_from.values():
            assert abs(total - 1.0) < 1e-9
        assert (pipeline / "order2.csv").exists()
        assert (pipeline / "fractions.csv").exists()

    def test_no_unavailable_numbers_leak(self, pipeline):
        assert run(
            "--output-dir", str(pipeline),
            "--set", f"input.panel={pipeline / 'panel.csv'}",
            "estimate",
        ) == 0
        with open(pipeline / "order2.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["status"] == "unavailable":
                    assert row["prob"] == ""


class TestReport:
    def test_unknown_target_lists_valid_ids(self, pipeline, capsys):
        code = run(
            "--output-dir", str(pipeline),
            "--set", f"input.panel={pipeline / 'panel.csv'}",
            "report", "k99",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "k01" in err and "table8" in err

    @pytest.mark.parametrize("target", sorted(REPORTS))
    def test_every_target_runs(self, pipeline, target):
        code = run(
            "--output-dir", str(pipeline),
            "--set", f"input.panel={pipeline / 'panel.csv'}",
            "--set", "project.horizon=4",
            "--set", "project.start_ages=[25]",
            "report", target,
        )
        assert code == 0
        with open(pipeline / f"{target}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows and rows[0]  # documented header
        for row in rows[1:]:
            assert len(row) == len(rows[0])
            for cell in row:
                assert cell.lower() not in ("nan", "none", "inf", "-inf")

    @pytest.mark.parametrize("row, message", [
        (b"p\xff1,20,2000,12,100,Q1", "row holds bytes that are not UTF-8"),
        (b"p1,20,2000,12,-5,Q1", "negative cost -5"),
        (b"x" * 200_000 + b",20,2000,12,100,Q1", "unreadable CSV record: field larger than field limit"),
        (b"x" * 200_000 + b",20,2000,12,100, Q1", "unreadable CSV record: field larger than field limit"),
    ], ids=["not utf-8", "negative cost", "id over the csv field limit", "id over the limit, padded label"])
    def test_bad_cache_row_is_data_error_at_its_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"person_id,age,year,months_observed,annual_cost,state\n" + row + b"\n")
        assert run("--output-dir", str(tmp_path), "--set", f"input.panel={path}", "report", "k09") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: line 2: {message}") and "Traceback" not in err

    def test_reads_a_read_only_cache_directory_without_writing_there(self, pipeline, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        for name in ("panel.csv", "panel.csv.npy"):
            (cache / name).write_bytes((pipeline / name).read_bytes())
        before = {p.name: p.read_bytes() for p in cache.iterdir()}
        for p in (*cache.iterdir(), cache):
            p.chmod(0o555 if p.is_dir() else 0o444)
        try:
            code = run("--output-dir", str(tmp_path / "report"),
                       "--set", f"input.panel={cache / 'panel.csv'}", "report", "k09")
        finally:
            cache.chmod(0o755)
        assert code == 0
        assert {p.name: p.read_bytes() for p in cache.iterdir()} == before
        assert run("--output-dir", str(pipeline), "--set", f"input.panel={pipeline / 'panel.csv'}",
                   "report", "k09") == 0
        assert (tmp_path / "report" / "k09.csv").read_bytes() == (pipeline / "k09.csv").read_bytes()

    def test_degenerate_ar_age_is_a_marked_row(self, tmp_path):
        collinear_cost_panel().write_cache(tmp_path / "panel.csv")
        code = run(
            "--output-dir", str(tmp_path),
            "--set", f"input.panel={tmp_path / 'panel.csv'}",
            "report", "k15",
        )
        assert code == 0
        with open(tmp_path / "k15.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["age"], row["status"]) for row in rows] == [("41", "degenerate")]
        assert rows[0]["lag1_coef"] == rows[0]["intercept"] == ""

    def test_k05_categories_sum_to_one(self, pipeline):
        assert run(
            "--output-dir", str(pipeline),
            "--set", f"input.panel={pipeline / 'panel.csv'}",
            "report", "k05",
        ) == 0
        sums = {}
        with open(pipeline / "k05.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                sums.setdefault(row["age"], 0.0)
                sums[row["age"]] += float(row["share"])
        assert sums
        for total in sums.values():
            assert abs(total - 1.0) < 1e-9

    def test_f02_matches_library(self, pipeline):
        assert run(
            "--output-dir", str(pipeline),
            "--set", f"input.panel={pipeline / 'panel.csv'}",
            "--set", "project.horizon=4",
            "--set", "project.start_ages=[25]",
            "report", "f02",
        ) == 0
        from healthmarkov.estimate import estimate_order2_family
        from healthmarkov.lifted import lift_family, project_cumulative
        from healthmarkov.panel import filter_cohort
        from healthmarkov.states import CostVector, HealthState

        panel = filter_cohort(Panel.read_cache(pipeline / "panel.csv"), age_min=0, age_max=59)
        fam = lift_family(estimate_order2_family(panel))
        costs = CostVector.from_thresholds(q5_value=267_000)
        with open(pipeline / "f02.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            pair = tuple(HealthState[s] for s in row["start_pair"].split("->"))
            want = project_cumulative(fam, costs, 25, pair, 4).cumulative
            assert float(row["cumulative_cost"]) == pytest.approx(want, rel=1e-9)


class TestProject:
    def test_projection_json(self, pipeline):
        code = run(
            "--output-dir", str(pipeline),
            "--set", f"input.panel={pipeline / 'panel.csv'}",
            "--set", "project.q5_values=[267000, 1000000]",
            "--set", "project.horizon=4",
            "--set", "project.start_ages=[23, 25]",
            "project",
        )
        assert code == 0
        doc = json.loads((pipeline / "projections.json").read_text())
        assert len(doc["projections"]) == 2 * 2 * 2  # q5 values x start ages x start pairs
        for item in doc["projections"]:
            assert abs(sum(item["per_period"]) - item["cumulative"]) < 1e-6 * max(1, item["cumulative"])

    def test_empty_q5_list_is_usage_error(self, pipeline):
        assert run(
            "--output-dir", str(pipeline),
            "--set", f"input.panel={pipeline / 'panel.csv'}",
            "--set", "project.q5_values=[]",
            "project",
        ) == 2

    def test_horizon_beyond_data_is_support_error(self, pipeline):
        assert run(
            "--output-dir", str(pipeline),
            "--set", f"input.panel={pipeline / 'panel.csv'}",
            "--set", "project.horizon=30",
            "project",
        ) == 4


class TestUnobservedPairs:
    """Small panels on which a projection reaches a pair never observed at its age."""

    @pytest.mark.parametrize("n, seed", [(300, 401), (200, 7)])
    def test_projections_pool_like_the_difference_curves(self, tmp_path, n, seed):
        out = tmp_path / "out"
        assert run("--output-dir", str(out), "--set", f"synth.n_persons={n}", "--set", f"seed={seed}",
                   "synth") == 0
        assert run("--output-dir", str(out), "--set", f"input.claims={out / 'claims.csv'}", "ingest") == 0
        with_panel = ("--output-dir", str(out), "--set", f"input.panel={out / 'panel.csv'}")
        for command in (("report", "f02"), ("report", "f03"), ("report", "k14"), ("project",)):
            assert run(*with_panel, *command) == 0, command

        from healthmarkov.estimate import estimate_order2_family
        from healthmarkov.lifted import MASS_EPS, current_cost_weights, lift_family
        from healthmarkov.panel import filter_cohort
        from healthmarkov.persistency import iterate_forward
        from healthmarkov.states import CostVector

        fam = lift_family(estimate_order2_family(filter_cohort(Panel.read_cache(out / "panel.csv"),
                                                               age_min=0, age_max=59)))
        doc = json.loads((out / "projections.json").read_text())
        pooled = False
        for item in doc["projections"]:
            weights = current_cost_weights(CostVector.from_thresholds(q5_value=item["q5_value"]))
            fc = iterate_forward(fam, item["start_age"], tuple(item["start_pair"]), doc["horizon"])
            # the values of the difference curves' stepper over the whole family, bit for bit,
            # weighted by the projection's one fixed-order sum per period
            assert item["per_period"] == (weights * fc.distributions[1:]).sum(axis=1).tolist()
            pooled |= any(((v > MASS_EPS) & ~fam[age].supported).any()
                          for age, v in zip(fc.ages[1:], fc.distributions))
        assert pooled


class TestConfigPlumbing:
    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"synth.n_persons": 10, "seed": 9,
                                   "synth.entry_age": 30, "synth.exit_age": 33}))
        out = tmp_path / "o"
        assert run("--config", str(cfg), "--output-dir", str(out), "synth") == 0
        summary = json.loads((out / "truth.json").read_text())
        assert summary["seed"] == 9

    def test_unknown_key_rejected(self, tmp_path):
        assert run("--output-dir", str(tmp_path), "--set", "nope=1", "synth") == 2

    def test_lift_formula_is_not_a_key(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("--set", "lift.formula=summed", *synth_args(out, n=5)) == 2
        assert "unknown config key 'lift.formula'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pair", [
        "project.horizon=2.5",
        "estimate.min_count=true",
        "project.q5_values=[267000.9, 500000]",
        "cohort.age_max=59.99",
        "project.start_ages=[25, false]",
        "project.horizon=1e400",
    ])
    def test_non_integer_value_for_integer_key_is_usage_error(self, tmp_path, capsys, pair):
        out = tmp_path / "o"
        assert run("--set", pair, *synth_args(out, n=5)) == 2
        assert "expected an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pair, message", [
        ("synth.alpha=nan", "expected a finite number"),
        ("synth.alpha=inf", "expected a finite number"),
        ("synth.alpha=-Infinity", "expected a finite number"),
        ("synth.attrition=NaN", "expected a finite number"),
        ("synth.alpha=true", "expected a number, got true"),
        ("synth.attrition=false", "expected a number, got false"),
    ])
    def test_boolean_or_non_finite_value_for_float_key_is_usage_error(self, tmp_path, capsys,
                                                                      pair, message):
        out = tmp_path / "o"
        # last, so that synth_args' own attrition does not override it
        assert run(*synth_args(out, n=5)[:-1], "--set", pair, "synth") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_integral_values_and_integer_strings_parse(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("--output-dir", str(out), "--set", "synth.n_persons=7.0", "--set", 'seed="3"',
                   "--set", "project.horizon=4.0", "--set", 'project.q5_values="267000, 500000"',
                   "synth") == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["persons"], summary["seed"]) == (7, 3)

    def test_output_dir_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run("--output-dir", str(taken), *synth_args(tmp_path, n=5)[2:]) == 2
        assert f"cannot create output directory {str(taken)!r}" in capsys.readouterr().err

    def test_empty_output_dir_is_usage_error(self, tmp_path, capsys):
        assert run("--set", "output.dir=", *synth_args(tmp_path, n=5)[2:]) == 2
        assert "cannot create output directory ''" in capsys.readouterr().err

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("HEALTHMARKOV_OUTPUT_DIR", str(env_out))
        assert run("--output-dir", str(tmp_path / "flag_out"), *synth_args(tmp_path / "x")[2:]) == 0
        assert (env_out / "claims.csv").exists()


class TestSelftest:
    def test_small_run_passes(self, capsys):
        assert run("selftest", "--chains", "3") == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    @pytest.mark.parametrize("chains", ["0", "-3"])
    def test_no_chains_is_usage_error(self, chains, capsys):
        # a run that checks nothing must not report PASS
        assert run("selftest", "--chains", chains) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert f"--chains must be at least 1, got {chains}" in err

    def test_writes_nothing_in_a_fresh_directory(self, tmp_path, monkeypatch):
        # selftest writes no file, so it creates no output directory either
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("HEALTHMARKOV_OUTPUT_DIR", raising=False)
        assert run("selftest", "--chains", "1") == 0
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_that_is_a_file_is_not_read(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run("--output-dir", str(taken), "selftest", "--chains", "1") == 0


class TestCacheTraffic:
    def test_every_cache_read_of_a_session_takes_the_memo(self, tmp_path, monkeypatch):
        # the CSV parse behind the memo is the slow path; a session that sends a read there fails here
        def session(out):
            panel_args = ["--output-dir", str(out), "--set", f"input.panel={out / 'panel.csv'}",
                          "--set", "project.horizon=4", "--set", "project.start_ages=[25]"]
            for argv in (
                synth_args(out, n=200, seed=11),
                ["--output-dir", str(out), "--set", f"input.claims={out / 'claims.csv'}", "ingest"],
                [*panel_args, "estimate"],
                *([*panel_args, "report", target] for target in REPORTS),
                [*panel_args, "--set", "project.q5_values=[267000, 1000000]", "project"],
            ):
                assert run(*argv) == 0, argv
            return {p.name: p.read_bytes() for p in out.iterdir()}

        want = session(tmp_path / "parsing allowed")

        def no_parse(raw):
            raise AssertionError("a cache read parsed panel.csv")

        monkeypatch.setattr(panel_module, "_cache_cells", no_parse)
        got = session(tmp_path / "memo only")
        assert len(want) == len(REPORTS) + 8  # claims, truth, cache and memo, 3 estimate tables, projections
        assert got == want


class TestCrossProcess:
    def test_pipeline_bytes_identical_across_hash_seeds(self, tmp_path):
        # string hashing is salted per process; no output may depend on it
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = {}
        for hash_seed in ("1", "2"):
            out = tmp_path / f"seed{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
            for argv in (
                synth_args(out, n=120, seed=5),
                ["--output-dir", str(out), "--set", f"input.claims={out / 'claims.csv'}", "ingest"],
                ["--output-dir", str(out), "--set", f"input.panel={out / 'panel.csv'}",
                 "--set", "project.horizon=4", "--set", "project.start_ages=[25]", "report", "f02"],
            ):
                proc = subprocess.run([sys.executable, "-m", "healthmarkov.cli", *argv],
                                      env=env, capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
            outputs[hash_seed] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(outputs["1"]) == ["claims.csv", "f02.csv", "panel.csv", "panel.csv.npy", "truth.json"]
        assert outputs["1"] == outputs["2"]


class TestDeterminism:
    def test_full_pipeline_twice_is_byte_identical(self, tmp_path):
        outputs = {}
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(*synth_args(out, n=300, seed=11)) == 0
            assert run("--output-dir", str(out),
                       "--set", f"input.claims={out / 'claims.csv'}", "ingest") == 0
            assert run("--output-dir", str(out),
                       "--set", f"input.panel={out / 'panel.csv'}", "estimate") == 0
            for target in ("f02", "k12", "k13", "k14"):
                assert run("--output-dir", str(out),
                           "--set", f"input.panel={out / 'panel.csv'}",
                           "--set", "project.horizon=4", "--set", "project.start_ages=[25]",
                           "report", target) == 0
            assert run("--output-dir", str(out),
                       "--set", f"input.panel={out / 'panel.csv'}",
                       "--set", "project.horizon=4", "--set", "project.start_ages=[25]",
                       "--set", "project.q5_values=[267000, 1000000]", "project") == 0
            outputs[name] = {
                p.name: p.read_bytes() for p in out.iterdir() if p.suffix in (".csv", ".json")
            }
        assert outputs["r1"].keys() == outputs["r2"].keys()
        assert {"k12.csv", "k13.csv", "k14.csv", "projections.json"} <= outputs["r1"].keys()
        for key in outputs["r1"]:
            assert outputs["r1"][key] == outputs["r2"][key], key
