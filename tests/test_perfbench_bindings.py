"""The benchmark's tracer still finds every program name it binds to.

perfbench/tracing.py wraps functions by module and attribute name, and
perfbench/run.py writes ``kernels.backend()`` into every run record.  A
rename of either would otherwise surface only in the benchmark's own
smoke run.  The benchmark also counts one ``project_cumulative`` span per
f02/f03 row, takes ``synthetic.claims_rows`` from the return value of
``write_claims``, times each panel's counting kernels under their own
names, once per panel and width, inside the first estimator that reads
the count, times the cohort simulator as one ``simulate_paths``
span per simulated panel, counts ``ingest.rows`` as the records one
``parse_claims`` generator yields per ``ingest`` and
``ingest.person_years`` as the length of the table
``aggregate_person_years`` returns, times each panel-cache read's
assembly as a ``build_panel`` span inside it, counts one
``persistency_difference`` curve per difference-curve start age, and
times the frequency, retention and cost-summary estimators by name, one
span per call from the k02, k03, k06, k08 and table8 reports, and
counts one ``ar_regression`` span per ``ok`` or ``unavailable`` row of
k15 and k16, each a child of its report's span, as many as
``workloads.report_counts`` derives from the tables; the tests below
hold the program to these.
These tests read perfbench and change nothing in it.
"""

import csv
import importlib
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)
        sys.modules.pop("tracing", None)


def test_tracer_binds_every_target_and_restores_them(tracing):
    import healthmarkov.cli as cli
    import healthmarkov.estimate as estimate
    import healthmarkov.kernels as kernels

    originals = (estimate.ar_regression, cli.ar_regression, dict(cli.REPORTS))
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        assert estimate.ar_regression is not originals[0]
    finally:
        tracer.uninstall()
    assert (estimate.ar_regression, cli.ar_regression, cli.REPORTS) == originals
    assert callable(kernels.backend)


def test_one_projection_span_per_f03_row(tracing):
    # perfbench counts one project_cumulative span per f02/f03 row; the
    # forward-pass memo below that call must not merge or split them
    import healthmarkov.cli as cli
    from healthmarkov.config import RunConfig
    from healthmarkov.synthetic import generate_panel

    from conftest import sticky_top_chain

    panel = generate_panel(sticky_top_chain(entry_age=20, exit_age=36, seed=3), 400)
    cfg = RunConfig(q5_values=(267_000, 500_000, 1_000_000), start_ages=(22, 23, 25))
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        header, rows = cli.REPORTS["f03"][0](cfg, panel)
    finally:
        tracer.uninstall()
    spans = [r for r in tracer.records() if "lifted.projections" in r["counts"]]
    assert len(rows) == 3 * 3 * 2
    assert len(spans) == len(rows)
    assert all(r["metric"] == "lifted.project_s" for r in spans)
    assert all(r["counts"] == {"lifted.projections": 1, "lifted.matvecs": cfg.horizon} for r in spans)


def test_one_write_claims_span_counts_every_claims_row(tracing, tmp_path, capsys):
    # perfbench counts claims rows from write_claims' return value, once per synth
    import healthmarkov.cli as cli

    out = tmp_path / "out"
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        assert cli.main(["--output-dir", str(out), "--set", "synth.n_persons=30", "--set", "seed=4",
                         "--set", "synth.attrition=0.2", "synth"]) == 0
    finally:
        tracer.uninstall()
    summary = json.loads(capsys.readouterr().out)
    spans = [r for r in tracer.records() if r["metric"] == "synthetic.write_claims_s"]
    assert len(spans) == 1
    with open(out / "claims.csv", newline="", encoding="utf-8") as fh:
        data_lines = sum(1 for _ in csv.reader(fh)) - 1
    assert spans[0]["counts"] == {"synthetic.claims_rows": summary["claims_rows"]}
    assert summary["claims_rows"] == data_lines > 0


def test_one_parse_span_counts_every_claims_row_of_an_ingest(tracing, tmp_path, capsys):
    # perfbench counts ingest.rows as next() calls on parse_claims, which
    # load_claims_panel must keep calling, with aggregate and build, once each
    import healthmarkov.cli as cli
    from healthmarkov.ingest import load_claims_panel

    out = tmp_path / "out"
    assert cli.main(["--output-dir", str(out), "--set", "synth.n_persons=30", "--set", "seed=4",
                     "--set", "synth.attrition=0.2", "synth"]) == 0
    capsys.readouterr()
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        assert cli.main(["--output-dir", str(out), "--set", f"input.claims={out / 'claims.csv'}",
                         "ingest"]) == 0
    finally:
        tracer.uninstall()
    summary = json.loads(capsys.readouterr().out)
    with open(out / "claims.csv", newline="", encoding="utf-8") as fh:
        data_lines = sum(1 for _ in csv.reader(fh)) - 1
    spans = {}
    for r in tracer.records():
        spans.setdefault(r["metric"], []).append(r)
    assert [r["counts"] for r in spans["ingest.parse_s"]] == [{"ingest.rows": data_lines}]
    [aggregate] = spans["ingest.aggregate_s"]
    unfiltered = load_claims_panel(out / "claims.csv").summary()["person_years"]
    assert aggregate["counts"]["ingest.person_years"] == unfiltered >= summary["person_years"] > 0
    assert len(spans["panel.build_s"]) == 1
    assert summary["claims_rows"] == data_lines > 0


def test_each_cache_read_builds_its_panel_under_its_own_span(tracing, tmp_path, capsys):
    # a cache read assembles its panel through build_panel, which the tracer times apart
    import healthmarkov.cli as cli

    out = tmp_path / "out"
    for command in (["synth"], ["--set", f"input.claims={out / 'claims.csv'}", "ingest"]):
        assert cli.main(["--output-dir", str(out), "--set", "synth.n_persons=30",
                         "--set", "seed=4", *command]) == 0
    capsys.readouterr()
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        assert cli.main(["--output-dir", str(out), "--set", f"input.panel={out / 'panel.csv'}",
                         "report", "k09"]) == 0
    finally:
        tracer.uninstall()
    records = tracer.records()
    reads = [r for r in records if r["metric"] == "panel.read_cache_s"]
    builds = [r for r in records if r["metric"] == "panel.build_s"]
    assert len(reads) == 1
    assert [b["parent"] for b in builds] == [r["id"] for r in reads]


def test_one_simulate_paths_span_per_generated_panel(tracing):
    # generate_panel calls the simulator through the kernels module, once per panel
    import healthmarkov.synthetic as synthetic

    from conftest import sticky_top_chain

    truth = sticky_top_chain(entry_age=20, exit_age=36, seed=3)
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        panel = synthetic.generate_panel(truth, 9_000)
    finally:
        tracer.uninstall()
    records = tracer.records()
    spans = [r for r in records if r["metric"] == "kernels.simulate_paths_s"]
    assert panel.n_ages > 2  # at least one simulated step
    assert len(spans) == 1
    by_id = {r["id"]: r for r in records}
    assert by_id[spans[0]["parent"]]["metric"] == "synthetic.generate_panel_s"


def test_counting_kernels_and_k12_curves_are_traced(tracing):
    # a panel counts through the kernels module, where the tracer binds it, once per width
    import healthmarkov.cli as cli
    import healthmarkov.estimate as estimate
    from healthmarkov.config import RunConfig
    from healthmarkov.synthetic import generate_panel

    from conftest import sticky_top_chain

    panel, fresh = (generate_panel(sticky_top_chain(entry_age=20, exit_age=36, seed=3), 400) for _ in range(2))
    cfg = RunConfig(start_ages=(22, 23, 25))
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        estimate.estimate_order1_family(panel)
        estimate.estimate_order2_family(panel)
        family_spans = tracer.records()
        header, rows = cli.REPORTS["k12"][0](cfg, panel)
        report_spans = tracer.records()[len(family_spans):]
        assert cli.REPORTS["k12"][0](cfg, fresh) == (header, rows)
        fresh_spans = tracer.records()[len(family_spans) + len(report_spans):]
    finally:
        tracer.uninstall()

    kernel_spans = [r for r in family_spans if r["metric"].startswith("kernels.")]
    assert sorted(r["metric"] for r in kernel_spans) == ["kernels.pair_counts_s", "kernels.triple_counts_s"]
    by_id = {r["id"]: r for r in family_spans}
    for r in kernel_spans:
        assert by_id[r["parent"]]["metric"] == "estimate.family_s"
        assert r["counts"] == {"kernels.cells": panel.states.size}

    start_ages = {row[0] for row in rows}
    curves = sum(r["counts"].get("persistency.curves", 0) for r in report_spans)
    steps = sum(r["counts"].get("persistency.steps", 0) for r in report_spans)
    assert start_ages == set(cfg.start_ages)
    assert curves == len(start_ages)
    assert steps == 2 * curves * cfg.horizon
    # k12 reads the pair tally its panel already holds; a fresh panel counts it once
    assert [r["metric"] for r in report_spans if r["metric"].startswith("kernels.")] == []
    assert [r["metric"] for r in fresh_spans if r["metric"].startswith("kernels.")] == ["kernels.pair_counts_s"]


def test_estimator_reports_keep_their_work_under_the_traced_estimators(tracing):
    # perfbench times the frequency, retention and cost-summary estimators by
    # name; each report's counting runs inside one span per estimator call.
    # The first frequency curve of each lag on a fresh panel counts its
    # tally, one kernel span under its estimator span; later reports count nothing.
    import healthmarkov.cli as cli
    from healthmarkov.config import RunConfig
    from healthmarkov.estimate import five_year_groups
    from healthmarkov.synthetic import generate_panel

    from conftest import sticky_top_chain

    panel = generate_panel(sticky_top_chain(entry_age=20, exit_age=36, seed=3), 400)
    cfg = RunConfig()
    expected = {
        "k06": {"estimate.frequency_s": 1},
        "k08": {"estimate.frequency_s": 1},
        "k02": {"estimate.retention_s": 6},
        "k03": {"estimate.cost_summary_s": len(five_year_groups(panel.age_min, panel.age_max))},
        "table8": {"estimate.cost_summary_s": 1},
    }
    # k06 conditions on one earlier age, k08 on two
    first_counts = {"k06": ["kernels.pair_counts_s"], "k08": ["kernels.triple_counts_s"]}
    for first_pass in (True, False):
        for rid, spans in expected.items():
            tracer = tracing.Tracer("t")
            try:
                tracer.install()
                header, rows = cli.REPORTS[rid][0](cfg, panel)
            finally:
                tracer.uninstall()
            records = tracer.records()
            [report] = [r for r in records if r["parent"] is None]
            assert report["metric"] == "cli.self_s", rid
            counting = [r for r in records if r["metric"].startswith("kernels.")]
            children = [r for r in records if r is not report and r not in counting]
            assert {r["metric"] for r in children} == set(spans), rid
            assert len(children) == sum(spans.values()), rid
            assert all(r["parent"] == report["id"] for r in children), rid
            assert [r["metric"] for r in counting] == (first_counts.get(rid, []) if first_pass else []), rid
            frequency = [r["id"] for r in children if r["metric"] == "estimate.frequency_s"]
            assert all([r["parent"]] == frequency for r in counting), rid
            assert rows, rid


def test_one_ar_span_per_k15_and_k16_row_under_the_report(tracing):
    # perfbench counts estimate.ar_fits and estimate.ar_unavailable from the
    # ar_regression spans and cross-checks them against the tables' rows
    import healthmarkov.cli as cli
    from healthmarkov.config import RunConfig
    from healthmarkov.synthetic import generate_panel

    from conftest import sticky_top_chain

    workloads = importlib.import_module("workloads")
    try:
        report_counts = workloads.report_counts
    finally:
        for name in ("workloads", "checks"):
            sys.modules.pop(name, None)
    panel = generate_panel(sticky_top_chain(entry_age=20, exit_age=36, seed=3), 400)
    cfg = RunConfig(start_ages=(22, 23, 25))
    ar_keys = ("estimate.ar_fits", "estimate.ar_unavailable")
    for rid in ("k15", "k16", "f02"):
        tracer = tracing.Tracer("t")
        try:
            tracer.install()
            header, rows = cli.REPORTS[rid][0](cfg, panel)
        finally:
            tracer.uninstall()
        records = tracer.records()
        [report] = [r for r in records if r["parent"] is None]
        assert report["metric"] == "cli.self_s", rid
        want = report_counts({rid: (header, rows)})
        if rid == "f02":
            spans = [r for r in records if r["metric"] == "lifted.project_s"]
            assert len(spans) == len(rows) == want["lifted.projections"] > 0
            assert all(r["parent"] == report["id"] for r in spans)
            continue
        status = [row[list(header).index("status")] for row in rows]
        spans = [r for r in records if r["metric"] == "estimate.ar_s"]
        assert set(status) <= {"ok", "unavailable"} and "ok" in status, rid
        assert len(spans) == len(rows), rid
        assert all(r["parent"] == report["id"] for r in spans), rid
        got = {key: sum(r["counts"].get(key, 0) for r in spans) for key in ar_keys}
        assert got == {key: want[key] for key in ar_keys}, rid
        assert got["estimate.ar_fits"] == status.count("ok"), rid
