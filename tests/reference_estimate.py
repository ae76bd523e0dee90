"""Estimators as they were before their per-age rewrites, kept as a test reference.

``reference_shock_frequency``, ``reference_multi_year_state_frequency`` and
``reference_ar_regression`` are the implementations of ``shock_frequency``,
``multi_year_state_frequency`` and ``ar_regression`` before their masks were
built from code lookup tables and whole column blocks; ``reference_min_year``
is the panel's earliest observed year as the package's former
``Panel.min_year`` computed it, taking the panel as its ``self``.  They are
unchanged apart from their names, the AR fit reading
``reference_min_year(panel)`` in place of ``panel.min_year`` and reporting
the effective base, the earliest sampled year, as its ``base_year`` (and,
like ``ar_regression``, leaving a panel with no observed cell unavailable
rather than raising), the retention reference rejecting an inverted age
group (lo > hi) with the InvalidInputError the estimators raise for it, the
AR fit rejecting a bool or non-integer ``age`` or ``order`` with the
InvalidInputError ``ar_regression`` raises for it, and the AR fit without
the ``log_transform`` option that ``ar_regression`` no longer has.

``reference_joint_code_shock_frequency`` is ``shock_frequency`` from
before it read the panel's tallies: per age it codes each person's cells
over the ages t-lag..t as one base-7 number and counts the codes with
one ``bincount``.  It is unchanged apart from its name.

``reference_conditional_cost_quantiles`` and
``reference_exceedance_proportions`` are ``conditional_cost_quantiles`` and
``exceedance_proportions`` before the cost summaries selected costs column
first and took their quantiles in one call, unchanged apart from their
names; they do not check the order of an age group.

The differential tests in test_estimate_differential.py hold the rewritten
estimators to them bit for bit, apart from the AR fit.  ``ar_regression``
no longer calls BLAS or LAPACK, and ``reference_ar_regression``'s
``lstsq`` path, whose bits depend on OpenBLAS's CPU kernel and thread
count, is the body it replaced; the fits are held to it within a stated
bound.  ``reference_exact_ar_fit`` solves the same design in exact
rational arithmetic, the tight oracle for the new fit."""

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from healthmarkov.errors import DegenerateFitError, EmptyCohortError, InvalidInputError
from healthmarkov.estimate import (
    _MISSING_IDX,
    ARFit,
    CostSummary,
    DecayPath,
    ExceedanceRow,
    FrequencyCurve,
    _target_codes,
    five_year_groups,
)
from healthmarkov.panel import Panel
from healthmarkov.states import (
    CATEGORY_LABELS,
    DEFAULT_THRESHOLDS,
    MISSING,
    N_STATES,
    HealthState,
    StateThresholds,
    _state_code,
)


def reference_min_year(self) -> int:
    """Earliest observed year; base level for year dummies."""
    observed = self.states >= 0
    if not observed.any():
        raise EmptyCohortError("panel has no observations")
    years = self.birth_years[:, None] + (self.age_min + np.arange(self.n_ages))[None, :]
    return int(years[observed].min())


def _base_and_levels(panel: Panel, years) -> tuple[int | None, list[int]]:
    """The base year of an AR fit over the sampled ``years``, and its dummy levels.

    The base is the panel's earliest observed year, and the earliest
    sampled year takes its place when it is absent from the sample.
    """
    sampled = set(years)
    if not sampled:
        return None, []
    base_year = reference_min_year(panel)
    levels = sorted(sampled - {base_year})
    if base_year not in sampled:
        base_year, *levels = levels  # earliest sampled year becomes the effective base
    return base_year, levels


def reference_shock_frequency(
    panel: Panel,
    prior_condition: Sequence,
    target,
    ages: Iterable[int] | None = None,
) -> FrequencyCurve:
    """Frequency, per age t, of landing in ``target`` given prior states.

    prior_condition is a sequence of 1 or 2 state sets in chronological
    order: the last entry conditions age t-1, a first entry conditions age
    t-2.  Ages whose conditioning set is empty are omitted from the curve.
    """
    if not 1 <= len(prior_condition) <= 2:
        raise InvalidInputError("prior condition must cover one or two previous ages")
    cond_codes = []
    for entry in prior_condition:
        codes, missing = _target_codes(entry)
        if missing or not codes:
            raise InvalidInputError("prior conditions must be non-empty sets of health states")
        cond_codes.append(codes)

    target_codes, target_missing = _target_codes(target)
    lag = len(cond_codes)
    if ages is None:
        ages = range(panel.age_min + lag, panel.age_max + 1)

    kept_ages: list[int] = []
    values: list[float] = []
    denoms: list[int] = []
    shares: list[np.ndarray] = []
    for age in ages:
        if not (panel.has_age(age) and panel.has_age(age - lag)):
            continue
        c = panel.column(age)
        mask = np.ones(panel.n_persons, dtype=bool)
        for offset, codes in enumerate(reversed(cond_codes), start=1):
            col = panel.states[:, c - offset]
            mask &= np.isin(col, list(codes)) & (col >= 0)
        now = panel.states[:, c]
        mask &= now >= -1  # in-panel at t: observed or attrition marker
        denom = int(mask.sum())
        if denom == 0:
            continue
        cat = np.where(now[mask] >= 0, now[mask], _MISSING_IDX).astype(np.int64)
        counts = np.bincount(cat, minlength=N_STATES + 1)
        share = counts / denom
        hit = share[list(target_codes)].sum() if target_codes else 0.0
        if target_missing:
            hit += share[_MISSING_IDX]
        kept_ages.append(age)
        values.append(float(hit))
        denoms.append(denom)
        shares.append(share)

    if not kept_ages:
        raise EmptyCohortError("prior condition never satisfied in the panel")
    share_mat = np.vstack(shares)
    breakdown = {label: share_mat[:, i] for i, label in enumerate(CATEGORY_LABELS)}
    target_labels = tuple(
        sorted(HealthState(code + 1).name for code in target_codes)
        + ([MISSING] if target_missing else [])
    )
    return FrequencyCurve(
        ages=kept_ages,
        values=np.asarray(values),
        denominators=np.asarray(denoms, dtype=np.int64),
        breakdown=breakdown,
        target=target_labels,
    )


def reference_joint_code_shock_frequency(panel: Panel, prior_condition: Sequence, target) -> FrequencyCurve:
    """Frequency, per age t, of landing in ``target`` given prior states.

    prior_condition is a sequence of 1 or 2 state sets in chronological
    order: the last entry conditions age t-1, a first entry conditions age
    t-2.  Ages whose conditioning set is empty are omitted from the curve.
    """
    if not 1 <= len(prior_condition) <= 2:
        raise InvalidInputError("prior condition must cover one or two previous ages")
    cond_codes = []
    for entry in prior_condition:
        codes, missing = _target_codes(entry)
        if missing or not codes:
            raise InvalidInputError("prior conditions must be non-empty sets of health states")
        cond_codes.append(codes)

    target_codes, target_missing = _target_codes(target)
    lag = len(cond_codes)
    width = N_STATES + 2  # cell code + 2: 0 absent, 1 missing, 2..6 Q1..Q5
    # axis positions of each condition set, earliest age first
    picks = [np.array(sorted(codes), dtype=np.intp) + 2 for codes in cond_codes]
    # the +2 of every digit of the joint code, added once
    shift = 2 * sum(width ** k for k in range(lag + 1))

    kept_ages: list[int] = []
    values: list[float] = []
    denoms: list[int] = []
    shares: list[np.ndarray] = []
    for age in range(panel.age_min + lag, panel.age_max + 1):
        c = panel.column(age)
        # one base-7 code per person over the contiguous columns t-lag..t
        joint = panel.states[:, c - lag].astype(np.intp)
        for col in range(c - lag + 1, c + 1):
            joint *= width
            joint += panel.states[:, col]
        joint += shift
        tally = np.bincount(joint, minlength=width ** (lag + 1)).reshape((width,) * (lag + 1))
        for pick in picks:
            tally = tally[pick].sum(axis=0)
        # in-panel at t: observed or attrition marker, codes -1..4
        denom = int(tally[1:].sum())
        if denom == 0:
            continue
        # the attrition category comes last
        share = np.append(tally[2:], tally[1]) / denom
        hit = share[list(target_codes)].sum() if target_codes else 0.0
        if target_missing:
            hit += share[_MISSING_IDX]
        kept_ages.append(age)
        values.append(float(hit))
        denoms.append(denom)
        shares.append(share)

    if not kept_ages:
        raise EmptyCohortError("prior condition never satisfied in the panel")
    share_mat = np.vstack(shares)
    breakdown = {label: share_mat[:, i] for i, label in enumerate(CATEGORY_LABELS)}
    target_labels = tuple(
        sorted(HealthState(code + 1).name for code in target_codes)
        + ([MISSING] if target_missing else [])
    )
    return FrequencyCurve(
        ages=kept_ages,
        values=np.asarray(values),
        denominators=np.asarray(denoms, dtype=np.int64),
        breakdown=breakdown,
        target=target_labels,
    )


def reference_multi_year_state_frequency(
    panel: Panel,
    start_condition: Sequence,
    target,
    horizon: int,
    age_groups: Iterable[tuple[int, int]] | None = None,
) -> dict[tuple[int, int], DecayPath]:
    """Observed retention paths: P(state in target at t+k | start condition at t).

    start_condition is one or two states in chronological order; the last
    conditions age t, a first entry conditions age t-1.  Denominators at
    each k count only subjects still observed then (no attrition in the
    denominator); a k with nobody left is unavailable, not zero.
    """
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    if not 1 <= len(start_condition) <= 2:
        raise InvalidInputError("start condition must name one or two states")
    start_codes = [_state_code(s) for s in start_condition]
    target_codes, target_missing = _target_codes(target)
    if target_missing:
        raise InvalidInputError("retention targets are health states; attrition is excluded by design")
    target_list = sorted(target_codes)
    lag = len(start_codes) - 1
    if age_groups is None:
        age_groups = five_year_groups(panel.age_min, panel.age_max)

    out: dict[tuple[int, int], DecayPath] = {}
    for group in age_groups:
        lo, hi = group
        if lo > hi:
            raise InvalidInputError(f"age group {group} is empty")
        hits = np.zeros(horizon, dtype=np.int64)
        totals = np.zeros(horizon, dtype=np.int64)
        for age in range(max(lo, panel.age_min + lag), min(hi, panel.age_max) + 1):
            c = panel.column(age)
            mask = panel.states[:, c] == start_codes[-1]
            if lag:
                mask &= panel.states[:, c - 1] == start_codes[0]
            if not mask.any():
                continue
            for k in range(1, horizon + 1):
                if age + k > panel.age_max:
                    break
                future = panel.states[mask, c + k]
                alive = future >= 0
                totals[k - 1] += int(alive.sum())
                hits[k - 1] += int(np.isin(future[alive], target_list).sum())
        values = np.full(horizon, np.nan)
        np.divide(hits, totals, out=values, where=totals > 0)
        out[group] = DecayPath(
            age_group=group,
            years=list(range(1, horizon + 1)),
            values=values,
            denominators=totals,
        )
    return out


def reference_conditional_cost_quantiles(
    panel: Panel,
    age_group: tuple[int, int],
    prior_state,
    quantiles: Sequence[float] = (0.25, 0.5, 0.75),
    current_state=None,
    want_log_cdf: bool = False,
) -> CostSummary:
    """Empirical cost distribution at age t given the state at t-1.

    ``current_state`` restricts to one transition path (e.g. the costs of
    subjects newly arrived in the top state).  ``want_log_cdf`` adds
    empirical CDF points of log10 cost over the positive costs; the CDF
    values still count zero-cost subjects, so the curve starts at their
    share.  An empty cell yields an unavailable summary, never zeros.
    """
    qs = [float(q) for q in quantiles]
    if any(not 0 < q < 1 for q in qs):
        raise InvalidInputError("quantiles must lie strictly between 0 and 1")
    prior = _state_code(prior_state)
    current = None if current_state is None else _state_code(current_state)
    lo, hi = age_group

    pooled: list[np.ndarray] = []
    for age in range(max(lo, panel.age_min + 1), min(hi, panel.age_max) + 1):
        c = panel.column(age)
        mask = (panel.states[:, c - 1] == prior) & (panel.states[:, c] >= 0)
        if current is not None:
            mask &= panel.states[:, c] == current
        if mask.any():
            pooled.append(panel.costs[mask, c])
    cur_state = None if current is None else HealthState(current + 1)
    if not pooled:
        return CostSummary(age_group=age_group, prior_state=HealthState(prior + 1),
                           current_state=cur_state, n=0)
    costs = np.concatenate(pooled)
    n = int(costs.size)
    summary = CostSummary(
        age_group=age_group,
        prior_state=HealthState(prior + 1),
        current_state=cur_state,
        n=n,
        mean=float(costs.mean()),
        sd=float(costs.std(ddof=1)) if n > 1 else 0.0,
        minimum=int(costs.min()),
        maximum=int(costs.max()),
        quantiles={q: float(np.quantile(costs, q)) for q in qs},
    )
    if want_log_cdf:
        positive = np.sort(costs[costs > 0])
        uniq, last_idx = np.unique(positive, return_index=True)
        # rank of the last occurrence of each distinct cost, counting zeros
        counts_below = np.searchsorted(positive, uniq, side="right") + (n - positive.size)
        summary.log_cdf = [
            (float(np.log10(v)), float(k / n)) for v, k in zip(uniq, counts_below)
        ]
    return summary


def reference_exceedance_proportions(
    panel: Panel,
    path: tuple,
    thresholds_yen: Sequence[int],
    age_groups: Iterable[tuple[int, int]] | None = None,
    state_thresholds: StateThresholds = DEFAULT_THRESHOLDS,
) -> list[ExceedanceRow]:
    """Among from->to transitions, the share with arrival cost >= each threshold."""
    from_state, to_state = (_state_code(path[0]), _state_code(path[1]))
    thr = [int(t) for t in thresholds_yen]
    if to_state == N_STATES - 1:
        floor = state_thresholds.top_lower_bound
        bad = [t for t in thr if t < floor]
        if bad:
            raise InvalidInputError(
                f"thresholds {bad} fall below the top band's lower edge {floor}"
            )
    if age_groups is None:
        age_groups = five_year_groups(panel.age_min, panel.age_max)

    rows = []
    for group in age_groups:
        lo, hi = group
        pooled = []
        for age in range(max(lo, panel.age_min + 1), min(hi, panel.age_max) + 1):
            c = panel.column(age)
            mask = (panel.states[:, c - 1] == from_state) & (panel.states[:, c] == to_state)
            if mask.any():
                pooled.append(panel.costs[mask, c])
        if pooled:
            costs = np.concatenate(pooled)
            rows.append(ExceedanceRow(
                age_group=group,
                n=int(costs.size),
                proportions={t: float((costs >= t).mean()) for t in thr},
            ))
        else:
            rows.append(ExceedanceRow(age_group=group, n=0, proportions={}))
    return rows


def reference_ar_regression(panel: Panel, age: int, order: int = 1) -> ARFit:
    """Regress cost at ``age`` on cost at the previous ``order`` ages.

    Year dummies use the panel's earliest observed year as base level;
    dummy levels absent from the estimation sample are dropped, and when
    the base year itself is absent the earliest sampled year takes its
    place.  Fewer complete cases than parameters + 1 yields
    an unavailable fit; an exactly collinear design raises
    DegenerateFitError.
    """
    for name, value in (("age", age), ("order", order)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if order not in (1, 2):
        raise InvalidInputError(f"order must be 1 or 2, got {order}")
    if not (panel.has_age(age) and panel.has_age(age - order)):
        return ARFit(age=age, order=order, available=False, n=0)
    c = panel.column(age)
    cols = panel.states[:, c - order : c + 1]
    complete = (cols >= 0).all(axis=1)
    n = int(complete.sum())

    y = panel.costs[complete, c].astype(np.float64)
    lags = [panel.costs[complete, c - k].astype(np.float64) for k in range(1, order + 1)]

    years = panel.birth_years[complete] + age
    base_year, levels = _base_and_levels(panel, years.tolist())
    dummies = [(years == lvl).astype(np.float64) for lvl in levels]

    n_params = 1 + order + len(dummies)
    if n < n_params + 1:
        return ARFit(age=age, order=order, available=False, n=n)

    X = np.column_stack([np.ones(n)] + lags + dummies)
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise DegenerateFitError(f"design matrix at age {age} has rank {rank} < {X.shape[1]}")
    resid = y - X @ beta
    dof = n - X.shape[1]
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))

    return ARFit(
        age=age,
        order=order,
        available=True,
        n=n,
        lag_coefficients=tuple(float(b) for b in beta[1 : 1 + order]),
        lag_se=tuple(float(s) for s in se[1 : 1 + order]),
        intercept=float(beta[0]),
        year_effects={lvl: float(b) for lvl, b in zip(levels, beta[1 + order :])},
        base_year=base_year,
    )


def reference_exact_ar_fit(panel: Panel, age: int, order: int = 1) -> ARFit:
    """``reference_ar_regression``'s design solved in exact rational arithmetic.

    Costs are integers, so the Gram matrix and ``X'y`` are exact Python
    integers and Gaussian elimination over ``Fraction`` gives the OLS
    solution, the residual sum and ``(X'X)^-1`` without rounding.  Each
    reported value is the exact one rounded once to float64 (a standard
    error is the square root of its rounded variance).  An exactly
    dependent design raises the DegenerateFitError of ``ar_regression``,
    with the exact rank.
    """
    for name, value in (("age", age), ("order", order)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if order not in (1, 2):
        raise InvalidInputError(f"order must be 1 or 2, got {order}")
    if not (panel.has_age(age) and panel.has_age(age - order)):
        return ARFit(age=age, order=order, available=False, n=0)
    c = panel.column(age)
    complete = (panel.states[:, c - order : c + 1] >= 0).all(axis=1)
    n = int(complete.sum())
    y = panel.costs[complete, c].tolist()
    lags = [panel.costs[complete, c - k].tolist() for k in range(1, order + 1)]
    years = (panel.birth_years[complete] + age).tolist()
    base_year, levels = _base_and_levels(panel, years)
    if n < 1 + order + len(levels) + 1:
        return ARFit(age=age, order=order, available=False, n=n)
    X = [[1] + [lag[i] for lag in lags] + [int(years[i] == lvl) for lvl in levels] for i in range(n)]
    p = len(X[0])
    gram = [[sum(row[a] * row[b] for row in X) for b in range(p)] + [sum(row[a] * v for row, v in zip(X, y))]
            for a in range(p)]
    # [X'X | X'y | I], reduced to [I | beta | (X'X)^-1]
    m = [[Fraction(v) for v in gram[a]] + [Fraction(int(a == b)) for b in range(p)] for a in range(p)]
    rank = 0
    for col in range(p):
        pivot = next((r for r in range(rank, p) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        m[rank] = [v / lead for v in m[rank]]
        for r in range(p):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    if rank < p:
        raise DegenerateFitError(f"design matrix at age {age} has rank {rank} < {p}")
    beta = [m[a][p] for a in range(p)]
    rss = sum(v * v for v in y) - sum(b * g[p] for b, g in zip(beta, gram))
    sigma2 = rss / (n - p)
    se = [math.sqrt(float(sigma2 * m[a][p + 1 + a])) for a in range(1, 1 + order)]
    return ARFit(
        age=age,
        order=order,
        available=True,
        n=n,
        lag_coefficients=tuple(float(b) for b in beta[1 : 1 + order]),
        lag_se=tuple(se),
        intercept=float(beta[0]),
        year_effects={lvl: float(b) for lvl, b in zip(levels, beta[1 + order :])},
        base_year=base_year,
    )
