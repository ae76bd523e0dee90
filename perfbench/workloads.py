"""The benchmark workloads.

Each workload has a set-up that builds its inputs from the seed, a pass that
runs the timed work and checks its outputs, and a traced variant of the
pass.  Every program call, CLI command and output check is one operation
in a Ledger; an exception, a non-zero exit or a failed check is a failure.

- cli_pipeline: the README's session, one ``python -m healthmarkov.cli``
  process per command, plus ``selftest`` outside the timed pass.  Per-row
  CSV I/O in ingest and in every panel-cache read dominates; compute
  layers are a few percent.
- analysis_inmem: a library session on a 100,000-person in-memory panel,
  with f03 swept over 200 Q5 values and the difference curves at every
  feasible start age.  Estimation, counting kernels, AR fits and the
  lifted projector do the work; there is no file I/O, so an I/O change
  must leave it flat.
"""

import csv
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
IMPORT_PROBES = 3
PROCESS_TIMEOUT_S = 150

AGE_MAX = 59
PROJECT_Q5 = (267_000, 500_000, 1_000_000)
Q5_START, Q5_STEP = 267_000, 10_000
SELFTEST_TOLERANCE = 1e-10

#: Reports whose bytes come from integer counts and single divisions only,
#: so their digests do not depend on BLAS or on summation order.
EXACT_REPORTS = ("k01", "k02", "k05", "k06", "k07", "k08", "k09", "k10", "k11", "table6", "table8")
EXACT_FILES = ("claims.csv", "panel.csv", "order1.csv", "order2.csv", "fractions.csv") + tuple(
    f"{rid}.csv" for rid in EXACT_REPORTS)

SIZES = {
    "cli_pipeline": {"persons": 2000, "chains": 100},
    "analysis_inmem": {"persons": 100_000, "q5_values": 200},
}


class Ledger:
    """Attempted and failed operations of one run, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def call(self, name, func, *args, **kwargs):
        self.attempted += 1
        try:
            return func(*args, **kwargs)
        except Exception as exc:  # a failed program call is a measured outcome
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name, ok) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(f"check failed: {name}")

    def verify(self, name, check, *args) -> None:
        """One output check; an exception inside it is a failed check."""
        try:
            ok = check(*args)
        except Exception as exc:  # a missing or malformed output fails its check
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        self.check(name, ok)


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    env.pop("HEALTHMARKOV_OUTPUT_DIR", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def run_process(argv, cwd, env, log_name):
    """Run one process to completion; returns (exit code, seconds, stdout)."""
    out_path = os.path.join(cwd, f"{log_name}.out")
    with open(out_path, "w", encoding="utf-8") as out, \
            open(os.path.join(cwd, f"{log_name}.err"), "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
        seconds = time.perf_counter() - t0
    with open(out_path, encoding="utf-8") as fh:
        return code, seconds, fh.read()


def import_seconds(workdir) -> float:
    """Median wall time of a bare ``import healthmarkov.cli`` process."""
    times = []
    for k in range(IMPORT_PROBES):
        code, seconds, _ = run_process([sys.executable, "-c", "import healthmarkov.cli"],
                                       workdir, child_env(), f"import{k}")
        if code != 0:
            raise RuntimeError("import healthmarkov.cli failed")
        times.append(seconds)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of every child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def report_counts(tables: dict) -> dict:
    """Counts that the report tables imply, to compare with the trace's counts."""
    counts = {"lifted.projections": 0, "estimate.ar_fits": 0, "estimate.ar_unavailable": 0,
              "persistency.curves": 0}
    for rid, (header, rows) in tables.items():
        if rid in ("f02", "f03"):
            counts["lifted.projections"] += len(rows)
        elif rid in ("k15", "k16"):
            status = list(header).index("status")
            for row in rows:
                key = "estimate.ar_fits" if row[status] == "ok" else "estimate.ar_unavailable"
                counts[key] += 1
        elif rid in ("k12", "k13", "k14"):
            counts["persistency.curves"] += len({str(row[0]) for row in rows})
    return counts


def _cfg(**fields):
    from healthmarkov.config import RunConfig

    return RunConfig(**fields)


class Workload:
    """State of one workload run; subclasses define setup, reference and run_pass."""

    name = ""
    #: True when the program runs in this process, so the tracer binds here.
    in_process = True
    #: Layer time metrics that a traced run of this workload must reach.
    active: tuple = ()

    def __init__(self, seed, workdir, sizes, ledger):
        self.seed = seed
        self.workdir = workdir
        self.size_args = sizes
        self.ledger = ledger
        self.tracer = None
        self.span_dir = None
        self.sizes = {}
        self.digests = {}
        self.digest_status = None

    def _cli(self, args, cwd, log_name):
        """One CLI command as its own process; returns (seconds, JSON summary or None).

        Untraced it is ``python -m healthmarkov.cli``; traced it starts through
        cli_entry.py inside a bench.command span, whose id becomes the parent
        of the child's spans.  A non-zero exit is a failed operation.
        """
        if self.tracer is None:
            code, seconds, stdout = run_process(
                [sys.executable, "-m", "healthmarkov.cli"] + args, cwd, child_env(), log_name)
        else:
            with self.tracer.span("bench.command") as span:
                env = child_env({tracing.RUN_ID_ENV: self.tracer.run_id,
                                 tracing.PARENT_ENV: span.id, tracing.SPAN_DIR_ENV: self.span_dir})
                code, seconds, stdout = run_process(
                    [sys.executable, os.path.join(HERE, "cli_entry.py")] + args, cwd, env, log_name)
        self.ledger.attempted += 1
        if code != 0:
            self.ledger.errors.append(f"command {' '.join(args)} exited {code}")
            return seconds, None
        return seconds, json.loads(stdout.strip().splitlines()[-1])

    def selftest(self) -> float | None:
        """Seconds of the workload's untimed oracle run; None when it has none."""
        return None


# ---------------------------------------------------------------------------
# cli_pipeline


class CliPipeline(Workload):
    name = "cli_pipeline"
    in_process = False
    active = tracing.TIME_METRICS

    def __init__(self, seed, workdir, sizes, ledger):
        super().__init__(seed, workdir, sizes, ledger)
        self.persons = sizes["persons"]
        self.inputs = os.path.join(workdir, "inputs")
        self.out = os.path.join(workdir, "out")
        self.claims_rows = None

    def setup(self):
        shutil.rmtree(self.inputs, ignore_errors=True)
        os.makedirs(self.inputs)
        _, summary = self._cli(
            ["--output-dir", ".", "--set", f"synth.n_persons={self.persons}",
             "--set", f"seed={self.seed}", "synth"], self.inputs, "synth")
        if summary is not None:
            self.claims_rows = summary["claims_rows"]

    def reference(self):
        """The panel synth generated, rebuilt in this process from the same config."""
        import healthmarkov as hm

        cfg = _cfg(seed=self.seed, synth_n_persons=self.persons)
        truth = hm.random_chain(seed=cfg.seed, entry_age=cfg.synth_entry_age,
                                exit_age=cfg.synth_exit_age, alpha=cfg.synth_alpha,
                                attrition=cfg.synth_attrition, cost_model=cfg.synth_cost_model,
                                entry_year=cfg.synth_entry_year)
        self.ref_panel = hm.generate_panel(truth, cfg.synth_n_persons)
        window = AGE_MAX - self.ref_panel.age_min + 1
        self.ref_pairs, self.ref_triples = checks.reference_counts(self.ref_panel.states[:, :window])

    def run_pass(self) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        claims = os.path.join(self.inputs, "claims.csv")
        panel_arg = ["--set", "input.panel=panel.csv"]
        ingest_s, ingest = self._cli(["--output-dir", ".", "--set", f"input.claims={claims}",
                                          "ingest"], self.out, "ingest")
        self._cli(["--output-dir", "."] + panel_arg + ["estimate"], self.out, "estimate")
        import healthmarkov.cli as cli

        latencies = []
        for rid in cli.REPORTS:
            seconds, _ = self._cli(["--output-dir", "."] + panel_arg + ["report", rid],
                                       self.out, f"report-{rid}")
            latencies.append(seconds)
        q5 = json.dumps(list(PROJECT_Q5))
        _, project = self._cli(["--output-dir", "."] + panel_arg
                                   + ["--set", f"project.q5_values={q5}", "project"],
                                   self.out, "project")
        counts = self.check_outputs(cli.REPORTS, ingest, project)
        return {"report_latencies": latencies, "counts": counts,
                "ingest_rows_per_s": (self.claims_rows or 0) / ingest_s}

    def selftest(self) -> float:
        """The selftest command as its own process; returns its wall time."""
        args = ["selftest", "--chains", str(self.size_args["chains"])]
        seconds, summary = self._cli(args, self.workdir, "selftest")
        if summary is not None:
            self.ledger.check("selftest passed within 1e-10",
                              summary["passed"] and summary["worst_rel_error"] <= SELFTEST_TOLERANCE)
        return seconds

    def _out(self, name):
        return os.path.join(self.out, name)

    def check_outputs(self, report_ids, ingest, project) -> dict:
        ref = self.ref_panel
        window = AGE_MAX - ref.age_min + 1
        led = self.ledger
        led.verify("panel cache equals the generated panel", checks.panel_cache_matches,
                   self._out("panel.csv"), ref.person_ids, ref.birth_years, ref.age_min,
                   ref.states[:, :window], ref.costs[:, :window], ref.months[:, :window])
        led.verify("order1.csv counts", checks.csv_counts_match, self._out("order1.csv"),
                   self.ref_pairs, ref.age_min + 1)
        led.verify("order2.csv counts", checks.csv_counts_match, self._out("order2.csv"),
                   self.ref_triples, ref.age_min + 2)
        tables = {rid: self._read_table(f"{rid}.csv") for rid in report_ids}
        if project is not None:
            led.verify("projections affine in the Q5 value", self._projections_affine)
        paths = {name: os.path.join(self.inputs if name == "claims.csv" else self.out, name)
                 for name in EXACT_FILES}
        self.digests = {name: checks.file_digest(path) for name, path in paths.items()
                        if os.path.exists(path)}
        counts = report_counts({rid: t for rid, t in tables.items() if t is not None})
        counts["lifted.projections"] += project["projections"] if project else 0
        counts["panel.cache_rows"] = ingest["cache_rows"] if ingest else 0
        counts["ingest.rows"] = self.claims_rows or 0
        counts["cli.output_bytes"] = sum(
            os.path.getsize(self._out(f)) for f in os.listdir(self.out)
            if f.endswith((".csv", ".json")) and f != "panel.csv")
        self.sizes = {"claims_rows": self.claims_rows, "cache_rows": counts["panel.cache_rows"],
                      "person_age_cells": ref.n_persons * window,
                      "projections": counts["lifted.projections"]}
        return counts

    def _projections_affine(self) -> bool:
        with open(self._out("projections.json"), encoding="utf-8") as fh:
            projections = json.load(fh)["projections"]
        return checks.affine_in_q5(
            [(p["start_age"], "->".join(p["start_pair"]), p["q5_value"], p["cumulative"])
             for p in projections])

    def _read_table(self, name):
        path = self._out(name)
        if not os.path.exists(path):
            return None
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# analysis_inmem


class AnalysisInMem(Workload):
    name = "analysis_inmem"
    active = ("synthetic.generate_panel_s", "kernels.simulate_paths_s", "panel.filter_s",
              "kernels.pair_counts_s", "kernels.triple_counts_s", "estimate.family_s",
              "estimate.frequency_s", "estimate.retention_s", "estimate.cost_summary_s",
              "estimate.ar_s", "lifted.lift_s", "lifted.project_s", "persistency.difference_s",
              "cli.self_s")

    def setup(self):
        import healthmarkov as hm

        truth = self.ledger.call("random_chain", hm.random_chain, seed=self.seed,
                                 attrition=_cfg().synth_attrition)
        self.raw = self.ledger.call("generate_panel", hm.generate_panel, truth,
                                    self.size_args["persons"])

    def reference(self):
        window = AGE_MAX - self.raw.age_min + 1
        self.ref_pairs, self.ref_triples = checks.reference_counts(self.raw.states[:, :window])

    def run_pass(self) -> dict:
        import healthmarkov as hm
        import healthmarkov.cli as cli

        led = self.ledger
        panel = led.call("filter_cohort", hm.filter_cohort, self.raw, age_max=AGE_MAX)
        order1 = led.call("estimate_order1_family", hm.estimate_order1_family, panel)
        order2 = led.call("estimate_order2_family", hm.estimate_order2_family, panel)
        horizon = _cfg().horizon
        # every start age whose two prior ages and whole horizon lie in the panel
        start_ages = tuple(range(self.raw.age_min + 2, AGE_MAX - horizon + 1))
        sweep = tuple(Q5_START + Q5_STEP * k for k in range(self.size_args["q5_values"]))
        cfg = _cfg(q5_values=sweep, start_ages=start_ages)
        tables, latencies = {}, []
        for rid, (func, _) in cli.REPORTS.items():
            t0 = time.perf_counter()
            table = led.call(f"report {rid}", func, cfg, panel)
            latencies.append(time.perf_counter() - t0)
            if table is not None:
                tables[rid] = table
        led.verify("order-1 family counts", checks.family_counts_match, order1,
                   self.ref_pairs, self.raw.age_min + 1)
        led.verify("order-2 family counts", checks.family_counts_match, order2,
                   self.ref_triples, self.raw.age_min + 2)
        led.verify("f03 rows affine in the Q5 value", lambda: checks.affine_in_q5(tables["f03"][1]))
        self.digests = {rid: checks.table_digest(*tables[rid]) for rid in EXACT_REPORTS
                        if rid in tables}
        counts = report_counts(tables)
        self.sizes = {"person_age_cells": int(panel.states.size) if panel is not None else 0,
                      "projections": counts["lifted.projections"]}
        return {"report_latencies": latencies, "counts": counts}


WORKLOADS = {w.name: w for w in (CliPipeline, AnalysisInMem)}
