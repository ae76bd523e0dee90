"""Batch command-line front end.

Subcommands wire the library end to end: ``synth`` writes a seeded claims
file plus its generating chain, ``ingest`` turns claims into a panel
cache, ``estimate`` emits per-age transition tables, ``report`` produces
one plot-ready CSV per replication target, ``project`` emits cumulative
cost projections as JSON, and ``selftest`` runs the oracle-equivalence
suite.  No command draws figures; outputs are data files.

Exit codes: 0 success, 2 usage/configuration, 3 data error, 4 insufficient
support (empty cohort, unsupported cells, horizon past the data).
"""

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from .config import OUTPUT_DIR_ENV, RunConfig, load_config, validate_config
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateFitError,
    EmptyCohortError,
    HealthMarkovError,
    InvalidInputError,
    UnsupportedCellError,
)
from .estimate import (
    ar_regression,
    conditional_cost_quantiles,
    estimate_order1_family,
    estimate_order2_family,
    exceedance_proportions,
    five_year_groups,
    group_label,
    multi_year_state_frequency,
    shock_frequency,
    state_fractions,
)
from .ingest import load_claims_panel
from .lifted import SHOCK_STARTS, lift_family, project_cumulative
from .panel import Panel, filter_cohort
from .persistency import persistency_difference
from .states import CostVector, HealthState, MISSING, STATE_LABELS
from .synthetic import enumerate_expectation, generate_panel, random_chain, write_claims

DEFAULT_DIFF_START_AGES = (5, 15, 25, 35, 45, 55)

TABLE8_THRESHOLDS = (500_000, 1_000_000)


def _fmt(x) -> str:
    """Deterministic cell formatting; unavailable values become empty cells."""
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return f"{x:.12g}"
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _load_panel(cfg: RunConfig) -> Panel:
    panel = Panel.read_cache(cfg.panel_path)
    return filter_cohort(panel, sex=None, age_min=cfg.age_min, age_max=cfg.age_max)


def _feasible_start_ages(family_ages, horizon: int) -> list[int]:
    ages = set(family_ages)
    return [a for a in sorted(ages) if all(a + k in ages for k in range(1, horizon + 1))]


def _status(n: int, min_count: int) -> str:
    if n == 0:
        return "unavailable"
    return "low_support" if n < min_count else "ok"


# ---------------------------------------------------------------------------
# report targets


def _report_retention_all(cfg, panel):
    paths = multi_year_state_frequency(panel, (HealthState.Q5,), {HealthState.Q5}, cfg.horizon)
    rows = []
    for group in sorted(paths):
        path = paths[group]
        for k, value, n in zip(path.years, path.values, path.denominators):
            rows.append([group_label(group), k, None if n == 0 else float(value), int(n)])
    return ("age_group", "years_after", "share", "n"), rows


def _report_retention_by_prior(cfg, panel):
    rows = []
    conditions = [("all", (HealthState.Q5,))] + [
        (s.name, (s, HealthState.Q5)) for s in HealthState
    ]
    for name, start in conditions:
        paths = multi_year_state_frequency(panel, start, {HealthState.Q5}, cfg.horizon)
        for group in sorted(paths):
            path = paths[group]
            for k, value, n in zip(path.years, path.values, path.denominators):
                rows.append([group_label(group), name, k, None if n == 0 else float(value), int(n)])
    return ("age_group", "prior_state", "years_after", "share", "n"), rows


_BOX_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def _report_cost_box(cfg, panel):
    rows = []
    for group in five_year_groups(panel.age_min, panel.age_max):
        s = conditional_cost_quantiles(panel, group, HealthState.Q1, _BOX_QUANTILES)
        rows.append(
            [group_label(group), s.n, s.mean, s.sd, s.minimum]
            + [s.quantiles.get(q) for q in _BOX_QUANTILES]
            + [s.maximum, _status(s.n, cfg.min_count)]
        )
    header = ("age_group", "n", "mean", "sd", "min", "p5", "p25", "median", "p75", "p95", "max", "status")
    return header, rows


def _report_cost_log_cdf(cfg, panel):
    rows = []
    for group in five_year_groups(panel.age_min, panel.age_max):
        s = conditional_cost_quantiles(panel, group, HealthState.Q1, (0.5,), want_log_cdf=True)
        if not s.available:
            continue
        for x, f in s.log_cdf:
            rows.append([group_label(group), x, f])
    return ("age_group", "log10_cost", "cdf"), rows


def _freq_breakdown_report(prior):
    def run(cfg, panel):
        curve = shock_frequency(panel, prior, {HealthState.Q5})
        rows = []
        for idx, age in enumerate(curve.ages):
            for label in STATE_LABELS + (MISSING,):
                rows.append([age, label, float(curve.breakdown[label][idx]), int(curve.denominators[idx])])
        return ("age", "category", "share", "n"), rows

    return run


def _freq_target_report(prior, target):
    def run(cfg, panel):
        curve = shock_frequency(panel, prior, target)
        rows = [
            [age, float(v), int(n)]
            for age, v, n in zip(curve.ages, curve.values, curve.denominators)
        ]
        return ("age", "share", "n"), rows

    return run


def _diff_start_ages(cfg, family_ages) -> list[int]:
    wanted = cfg.start_ages if cfg.start_ages else DEFAULT_DIFF_START_AGES
    feasible = set(_feasible_start_ages(family_ages, cfg.horizon))
    picked = [a for a in wanted if a in feasible]
    if not picked:
        raise UnsupportedCellError(
            f"no requested start age supports a {cfg.horizon}-year difference curve; "
            f"feasible start ages: {sorted(feasible)}"
        )
    return picked


_DIFF_HEADER = (
    "start_age", "years_after", "target_set", "model_order",
    "difference", "worse_share", "better_share",
)


def _order1_family(cfg, panel):
    return estimate_order1_family(panel)


def _lifted_family(cfg, panel):
    return lift_family(estimate_order2_family(panel))


def _diff_report(build_family, target):
    def run(cfg, panel):
        family = build_family(cfg, panel)
        rows = []
        for start_age in _diff_start_ages(cfg, family):
            curve = persistency_difference(family, start_age, cfg.horizon, target)
            label = "+".join(curve.target)
            for k, diff, worse, better in zip(
                curve.years, curve.differences, curve.worse_mass, curve.better_mass
            ):
                rows.append([start_age, k, label, curve.order,
                             float(diff), float(worse), float(better)])
        return _DIFF_HEADER, rows

    return run


def _ar_report(order):
    def run(cfg, panel):
        rows = []
        for age in range(panel.age_min + order, panel.age_max + 1):
            try:
                fit = ar_regression(panel, age, order=order)
            except DegenerateFitError:
                # one collinear age leaves its row blank, not the whole report
                rows.append([age, None] + [None, None] * order + [None, "degenerate"])
                continue
            base = [age, fit.n]
            coefs = []
            for k in range(order):
                if fit.available:
                    coefs += [fit.lag_coefficients[k], fit.lag_se[k]]
                else:
                    coefs += [None, None]
            rows.append(base + coefs + [fit.intercept if fit.available else None,
                                        "ok" if fit.available else "unavailable"])
        header = ["age", "n"]
        for k in range(1, order + 1):
            header += [f"lag{k}_coef", f"lag{k}_se"]
        header += ["intercept", "status"]
        return tuple(header), rows

    return run


def _projection_rows(cfg, panel, q5_values):
    family = _lifted_family(cfg, panel)
    start_ages = cfg.start_ages or _feasible_start_ages(family, cfg.horizon)
    if not start_ages:
        raise UnsupportedCellError(
            f"no start age supports a {cfg.horizon}-period projection "
            f"(estimated ages {min(family)}..{max(family)})"
        )
    results = []
    for q5 in q5_values:
        costs = CostVector.from_thresholds(q5_value=q5, thresholds=cfg.thresholds)
        for start_age in start_ages:
            for start in SHOCK_STARTS:
                results.append(project_cumulative(family, costs, start_age, start, cfg.horizon))
    return results


def _projection_report(q5_slice):
    def run(cfg, panel):
        results = _projection_rows(cfg, panel, cfg.q5_values[q5_slice])
        labels = {start: "->".join(s.name for s in start) for start in SHOCK_STARTS}
        rows = [[r.start_age, labels[r.start_pair], r.q5_value, r.cumulative] for r in results]
        return ("start_age", "start_pair", "q5_value", "cumulative_cost"), rows

    return run


def _report_fractions(cfg, panel):
    rows = []
    for group in five_year_groups(panel.age_min, panel.age_max):
        try:
            fractions, n = state_fractions(panel, group)
        except EmptyCohortError:
            continue
        for label, value in zip(STATE_LABELS, fractions):
            rows.append([group_label(group), label, float(value), n])
    return ("age_group", "state", "fraction", "n"), rows


def _report_path_costs(cfg, panel):
    paths = [
        ("Q1->Q5", HealthState.Q1, HealthState.Q5),
        ("Q5->Q5", HealthState.Q5, HealthState.Q5),
    ]
    rows = []
    for group in five_year_groups(panel.age_min, panel.age_max):
        for name, prior, current in paths:
            s = conditional_cost_quantiles(panel, group, prior, (0.5,), current_state=current)
            rows.append([
                group_label(group), name, s.n, s.mean, s.sd,
                s.quantiles.get(0.5), s.minimum, s.maximum, _status(s.n, cfg.min_count),
            ])
    header = ("age_group", "path", "n", "mean", "sd", "median", "min", "max", "status")
    return header, rows


def _report_exceedance(cfg, panel):
    rows = []
    for entry in exceedance_proportions(
        panel, (HealthState.Q1, HealthState.Q5), TABLE8_THRESHOLDS,
        state_thresholds=cfg.thresholds,
    ):
        for thr in TABLE8_THRESHOLDS:
            rows.append([
                group_label(entry.age_group), entry.n, thr,
                entry.proportions.get(thr), _status(entry.n, cfg.min_count),
            ])
    return ("age_group", "n", "threshold_yen", "proportion", "status"), rows


REPORTS = {
    "k01": (_report_retention_all, "multi-year top-state retention by age group"),
    "k02": (_report_retention_by_prior, "top-state retention split by the state one year earlier"),
    "k03": (_report_cost_box, "cost distribution after a bottom-state year, box-plot stats"),
    "k04": (_report_cost_log_cdf, "log10-cost CDF after a bottom-state year"),
    "k05": (_freq_breakdown_report((("Q1",),)), "per-age outcome shares after a bottom-state year"),
    "k06": (_freq_target_report((("Q1",),), ("Q5",)), "per-age top-state frequency after a bottom-state year"),
    "k07": (_freq_target_report((("Q1",),), ("Q4", "Q5")), "per-age high-cost frequency after a bottom-state year"),
    "k08": (_freq_target_report((("Q1",), ("Q1",)), ("Q5",)), "top-state frequency after two bottom-state years"),
    "k09": (_freq_target_report((("Q5",),), ("Q5",)), "per-age top-state retention one year on"),
    "k10": (_freq_target_report((("Q5",),), ("Q4", "Q5")), "per-age high-cost retention one year on"),
    "k11": (_freq_target_report((("Q1",), ("Q5",)), ("Q5",)), "top-state retention after a fresh arrival"),
    "k12": (_diff_report(_order1_family, ("Q5",)), "first-order start-state difference curves, top state"),
    "k13": (_diff_report(_order1_family, ("Q4", "Q5")), "first-order start-state difference curves, high-cost states"),
    "k14": (_diff_report(_lifted_family, ("Q5",)), "pair-state start difference curves, top state"),
    "k15": (_ar_report(1), "per-age cost autoregression, one lag"),
    "k16": (_ar_report(2), "per-age cost autoregression, two lags"),
    "f02": (_projection_report(slice(1)), "cumulative projected cost, base top-state cost"),
    "f03": (_projection_report(slice(None)), "cumulative projected cost across top-state costs"),
    "table6": (_report_fractions, "state shares by 5-year age group"),
    "table7": (_report_path_costs, "arrival-year cost summaries for two transition paths"),
    "table8": (_report_exceedance, "share of fresh top-state arrivals above cost thresholds"),
}


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(cfg: RunConfig, out_dir: str) -> dict:
    truth = random_chain(
        seed=cfg.seed,
        entry_age=cfg.synth_entry_age,
        exit_age=cfg.synth_exit_age,
        alpha=cfg.synth_alpha,
        attrition=cfg.synth_attrition,
        cost_model=cfg.synth_cost_model,
        entry_year=cfg.synth_entry_year,
    )
    panel = generate_panel(truth, cfg.synth_n_persons)
    claims_path = os.path.join(out_dir, "claims.csv")
    truth_path = os.path.join(out_dir, "truth.json")
    n_rows = write_claims(panel, claims_path, year_convention=cfg.year_convention)
    truth.to_json(truth_path)
    summary = panel.summary()
    summary.update({"claims_rows": n_rows, "claims": claims_path, "truth": truth_path,
                    "seed": cfg.seed})
    return summary


def _cmd_ingest(cfg: RunConfig, out_dir: str) -> dict:
    panel = load_claims_panel(
        cfg.claims_path, thresholds=cfg.thresholds, year_convention=cfg.year_convention
    )
    # every claims row is one observed month of one person-year
    claims_rows = int(panel.months.sum(dtype=np.int64))
    panel = filter_cohort(panel, sex=cfg.sex, age_min=cfg.age_min, age_max=cfg.age_max)
    cache_path = os.path.join(out_dir, "panel.csv")
    rows = panel.write_cache(cache_path)
    summary = panel.summary()
    summary.update({"cache_rows": rows, "claims_rows": claims_rows, "panel": cache_path})
    return summary


def _cmd_estimate(cfg: RunConfig, out_dir: str) -> dict:
    panel = _load_panel(cfg)
    order1 = estimate_order1_family(panel)
    order2 = estimate_order2_family(panel)
    if not order1:
        raise EmptyCohortError("no consecutive observed ages; nothing to estimate")

    tables = (
        ("order1.csv", ("age", "from_state", "to_state", "count", "prob", "status"), order1),
        ("order2.csv", ("age", "state_t_minus_2", "state_t_minus_1", "to_state", "count", "prob", "status"),
         order2),
    )
    for name, header, family in tables:
        rows = []
        for age in sorted(family):
            est = family[age]
            for cell in np.ndindex(est.counts.shape):
                n = int(est.totals[cell[:-1]])
                rows.append([age, *(STATE_LABELS[s] for s in cell), int(est.counts[cell]),
                             float(est.probs[cell]) if n else None, _status(n, cfg.min_count)])
        _write_csv(os.path.join(out_dir, name), header, rows)

    header, rows = _report_fractions(cfg, panel)
    _write_csv(os.path.join(out_dir, "fractions.csv"), header, rows)

    return {
        "panel": cfg.panel_path,
        "ages_order1": len(order1),
        "ages_order2": len(order2),
        "outputs": [os.path.join(out_dir, f) for f in ("order1.csv", "order2.csv", "fractions.csv")],
    }


def _cmd_report(cfg: RunConfig, out_dir: str, figure_id: str) -> dict:
    if figure_id not in REPORTS:
        valid = ", ".join(sorted(REPORTS))
        raise ConfigError(f"unknown report target {figure_id!r}; valid targets: {valid}")
    panel = _load_panel(cfg)
    func, _ = REPORTS[figure_id]
    header, rows = func(cfg, panel)
    path = os.path.join(out_dir, f"{figure_id}.csv")
    _write_csv(path, header, rows)
    return {"target": figure_id, "rows": len(rows), "output": path}


def _cmd_project(cfg: RunConfig, out_dir: str) -> dict:
    panel = _load_panel(cfg)
    results = _projection_rows(cfg, panel, cfg.q5_values)
    path = os.path.join(out_dir, "projections.json")
    doc = {"horizon": cfg.horizon, "projections": [r.to_dict() for r in results]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"projections": len(results), "output": path}


def _cmd_selftest(cfg: RunConfig, n_chains: int) -> dict:
    if n_chains < 1:
        raise InvalidInputError(f"--chains must be at least 1, got {n_chains}")
    t0 = time.perf_counter()
    worst = 0.0
    horizons = range(1, 6)
    for seed in range(n_chains):
        truth = random_chain(seed=seed, entry_age=20, exit_age=30)
        family = truth.lifted_family()
        costs = CostVector.from_thresholds(q5_value=267_000.0, thresholds=truth.thresholds)
        for op in family.values():
            op.validate(atol=1e-9)
        for start in ((HealthState.Q1, HealthState.Q1), (HealthState.Q1, HealthState.Q5),
                      (HealthState.Q3, HealthState.Q2)):
            for horizon in horizons:
                got = project_cumulative(family, costs, 21, start, horizon).cumulative
                want = enumerate_expectation(truth, costs, start, 21, horizon)
                rel = abs(got - want) / max(abs(want), 1.0)
                worst = max(worst, rel)
                if rel > 1e-10:
                    print(f"selftest FAIL seed={seed} start={start} horizon={horizon} rel={rel:.3e}")
                    return {"passed": False, "chains": n_chains, "worst_rel_error": worst}
    elapsed = time.perf_counter() - t0
    print(f"selftest PASS: {n_chains} chains, horizons 1-5, worst rel error {worst:.3e}, {elapsed:.1f}s")
    return {"passed": True, "chains": n_chains, "worst_rel_error": worst, "seconds": elapsed}


# ---------------------------------------------------------------------------
# argument handling


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="healthmarkov",
        description="Estimate and project age-dependent annual-cost state chains from claims panels.",
    )
    parser.add_argument("--config", help="flat JSON config file (dotted keys)")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable); values parsed as JSON when possible",
    )
    parser.add_argument("--output-dir", help=f"output directory (env {OUTPUT_DIR_ENV} wins)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate a seeded claims file and its generating chain")
    sub.add_parser("ingest", help="parse claims, annualize, cache the panel")
    sub.add_parser("estimate", help="emit per-age transition and fraction tables")
    p_report = sub.add_parser("report", help="emit one replication target as CSV")
    p_report.add_argument("figure_id", help=f"one of: {', '.join(sorted(REPORTS))}")
    sub.add_parser("project", help="emit cumulative cost projections as JSON")
    p_self = sub.add_parser("selftest", help="run the oracle-equivalence suite")
    p_self.add_argument("--chains", type=int, default=100, help="number of random chains")
    return parser


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key.strip()] = value
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _parse_overrides(args.set)
        if args.output_dir:
            overrides["output.dir"] = args.output_dir
        cfg = load_config(args.config, overrides)
        validate_config(cfg, args.command)
        if args.command == "selftest":
            summary = _cmd_selftest(cfg, args.chains)
            print(json.dumps(summary, sort_keys=True))
            return 0 if summary["passed"] else 1
        # every other command writes its outputs there
        out_dir = cfg.output_dir
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir!r}: {exc.strerror}") from None

        if args.command == "synth":
            summary = _cmd_synth(cfg, out_dir)
        elif args.command == "ingest":
            summary = _cmd_ingest(cfg, out_dir)
        elif args.command == "estimate":
            summary = _cmd_estimate(cfg, out_dir)
        elif args.command == "report":
            summary = _cmd_report(cfg, out_dir, args.figure_id)
        elif args.command == "project":
            summary = _cmd_project(cfg, out_dir)
        else:  # pragma: no cover - argparse enforces choices
            raise ConfigError(f"unknown command {args.command!r}")
        print(json.dumps(summary, sort_keys=True))
        return 0
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (EmptyCohortError, UnsupportedCellError, DegenerateFitError) as exc:
        print(f"insufficient support: {exc}", file=sys.stderr)
        return 4
    except HealthMarkovError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
