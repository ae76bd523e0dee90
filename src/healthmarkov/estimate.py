"""Empirical estimators over a Panel.

Everything here is a counting exercise over the dense state matrix:
transition matrices and pair-conditional tensors per single age, state
fractions and cost summaries per 5-year age group, per-age frequency
curves with attrition as an explicit category, multi-year retention paths
among panel survivors, and per-age autoregressions of annual cost.

Probabilities are always formed from pooled counts, never by averaging
probabilities; cells with zero support carry an explicit flag instead of
a sentinel value.

The per-age estimators read whole age columns, which the panel stores
contiguously, and count with ``np.bincount``.  A frequency curve codes
each person's cells over the ages it conditions on and the age itself as
one base-7 number (cell code + 2 per digit, earliest age first) and counts
those codes once per age; its condition sets then select and sum axes of
that count table.  A retention path takes the indices of the persons
meeting its start condition once per start age and counts their cell
codes in each later column.  A cost summary slices an age's cost column
first and selects from it, never gathering rows across the column-major
matrices.

The chain order is a value, not a fork: one counting, estimating and
pooling body serves order one (``TransitionMatrix``, counted over pairs of
ages) and order two (``TransitionTensor``, over triples), on one base type.
"""

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .errors import (
    DegenerateFitError,
    EmptyCohortError,
    InvalidInputError,
)
from .panel import Panel
from .states import (
    CATEGORY_LABELS,
    MISSING,
    N_STATES,
    HealthState,
    StateThresholds,
    DEFAULT_THRESHOLDS,
    _state_code,
)

#: Index used for the attrition category in per-age breakdowns.
_MISSING_IDX = N_STATES


def _target_codes(target) -> tuple[set[int], bool]:
    """Normalize a category set to 0-based codes; returns (codes, includes_missing).

    A single state (any form ``_state_code`` accepts) or MISSING, in any
    case, stands for the set holding only it.
    """
    if isinstance(target, (str, bytes)) or not isinstance(target, Iterable):
        target = [target]
    codes: set[int] = set()
    missing = False
    for item in target:
        if isinstance(item, str) and item.upper() == MISSING:
            missing = True
        else:
            codes.add(_state_code(item))
    return codes, missing


def _check_group(group) -> tuple[int, int]:
    """``group`` as (lo, hi); an inverted group is a caller error, not an empty cell."""
    lo, hi = group
    if lo > hi:
        raise InvalidInputError(f"age group {group} is empty")
    return lo, hi


def five_year_groups(age_min: int, age_max: int) -> list[tuple[int, int]]:
    """Standard 5-year bins intersecting [age_min, age_max]."""
    lo = (age_min // 5) * 5
    return [(a, a + 4) for a in range(lo, age_max + 1, 5)]


def group_label(group: tuple[int, int]) -> str:
    return f"{group[0]}-{group[1]}"


# ---------------------------------------------------------------------------
# transition estimates


@dataclass
class _TransitionEstimate:
    """Transition counts into one age and their probabilities, for either chain order.

    The last axis is the state at ``age``, the leading axes the conditioning
    states, oldest first; ``totals`` sums counts over the last axis.
    """

    age: int
    probs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.totals = self.counts.sum(axis=-1)

    @property
    def supported(self) -> np.ndarray:
        return self.totals > 0


class TransitionMatrix(_TransitionEstimate):
    """First-order estimate at one age: rows = state at age-1, cols = state at age."""


class TransitionTensor(_TransitionEstimate):
    """Second-order estimate at one age: probs[i, j, k] = p(state k at age | i at age-2, j at age-1)."""


#: Estimate type and what it counts, per chain order.
_ORDERS = {1: (TransitionMatrix, "pairs"), 2: (TransitionTensor, "triples")}


def _normalize_counts(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=-1, keepdims=True)
    probs = np.zeros_like(counts, dtype=np.float64)
    np.divide(counts, totals, out=probs, where=totals > 0)
    return probs


def _transition_counts(states: np.ndarray, order: int) -> np.ndarray:
    # looked up per call, so the kernel bound to the module at call time runs
    count = kernels.pair_counts if order == 1 else kernels.triple_counts
    return count(states)


def _estimate(panel: Panel, age: int, order: int) -> _TransitionEstimate:
    kind, noun = _ORDERS[order]
    if not (panel.has_age(age) and panel.has_age(age - order)):
        raise EmptyCohortError(f"panel covers {panel.age_min}..{panel.age_max}, no {noun} into age {age}")
    c = panel.column(age)
    counts = _transition_counts(panel.states[:, c - order : c + 1], order)[0]
    if counts.sum() == 0:
        raise EmptyCohortError(f"no observed {noun} into age {age}")
    return kind(age=age, probs=_normalize_counts(counts), counts=counts)


def _estimate_family(panel: Panel, order: int) -> dict:
    kind, _ = _ORDERS[order]
    out = {}
    # count row k holds the transitions into age age_min + order + k
    for age, counts in enumerate(_transition_counts(panel.states, order), panel.age_min + order):
        if counts.sum() > 0:
            out[age] = kind(age=age, probs=_normalize_counts(counts), counts=counts)
    return out


def estimate_order1(panel: Panel, age: int) -> TransitionMatrix:
    """Estimate the transition matrix into ``age`` from observed (age-1, age) pairs."""
    return _estimate(panel, age, 1)


def estimate_order2(panel: Panel, age: int) -> TransitionTensor:
    """Estimate the pair-conditional tensor into ``age`` from observed triples."""
    return _estimate(panel, age, 2)


def estimate_order1_family(panel: Panel) -> dict[int, TransitionMatrix]:
    """Per-age matrices for every age with data (one counting pass)."""
    return _estimate_family(panel, 1)


def estimate_order2_family(panel: Panel) -> dict[int, TransitionTensor]:
    """Per-age tensors for every age with data (one counting pass)."""
    return _estimate_family(panel, 2)


def pool_order1(family: Mapping[int, TransitionMatrix], ages: Iterable[int], age: int | None = None) -> TransitionMatrix:
    """Pool counts (not probabilities) over several single-age estimates."""
    ages = list(ages)  # read twice: to pick counts and to name the ages in the error
    picked = [family[a].counts for a in ages if a in family]
    if not picked:
        raise EmptyCohortError(f"no estimates among ages {ages}")
    counts = np.sum(picked, axis=0)
    return TransitionMatrix(age=age if age is not None else -1, probs=_normalize_counts(counts), counts=counts)


# ---------------------------------------------------------------------------
# fractions and frequency curves


def state_fractions(panel: Panel, age_group: tuple[int, int]) -> tuple[np.ndarray, int]:
    """Share of each state among observed person-years in the age group."""
    lo, hi = _check_group(age_group)
    lo = max(lo, panel.age_min)
    hi = min(hi, panel.age_max)
    if hi < lo:
        raise EmptyCohortError(f"panel does not cover ages {age_group}")
    block = panel.states[:, lo - panel.age_min : hi - panel.age_min + 1]
    # one pass per code over the int8 cells, in storage order; a bincount
    # would first widen every cell to intp
    cells = block.ravel(order="K")
    counts = np.array([np.count_nonzero(cells == code) for code in range(N_STATES)])
    n_observed = int(counts.sum())
    if n_observed == 0:
        raise EmptyCohortError(f"no observations in ages {age_group}")
    return counts / n_observed, n_observed


@dataclass
class FrequencyCurve:
    """Per-age share of a target category set among conditioned subjects.

    The denominator at age t counts persons satisfying the prior condition
    whose age-t cell lies inside the panel (observed or attrition marker);
    attrition appears as its own MISSING category so that the per-age
    breakdown always sums to one.
    """

    ages: list[int]
    values: np.ndarray
    denominators: np.ndarray
    breakdown: dict[str, np.ndarray]
    target: tuple[str, ...]


def shock_frequency(panel: Panel, prior_condition: Sequence, target) -> FrequencyCurve:
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


# ---------------------------------------------------------------------------
# conditional cost summaries


@dataclass
class CostSummary:
    """Distribution summary of annual cost at age t under a prior-state condition."""

    age_group: tuple[int, int]
    prior_state: HealthState
    current_state: HealthState | None
    n: int
    mean: float | None = None
    sd: float | None = None
    minimum: int | None = None
    maximum: int | None = None
    quantiles: dict[float, float] = field(default_factory=dict)
    log_cdf: list[tuple[float, float]] | None = None

    @property
    def available(self) -> bool:
        return self.n > 0


def conditional_cost_quantiles(
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
    lo, hi = _check_group(age_group)

    pooled: list[np.ndarray] = []
    for age in range(max(lo, panel.age_min + 1), min(hi, panel.age_max) + 1):
        c = panel.column(age)
        now = panel.states[:, c]
        mask = now >= 0 if current is None else now == current
        mask &= panel.states[:, c - 1] == prior
        if mask.any():
            # the age's cost column first, so the mask selects from contiguous memory
            pooled.append(panel.costs[:, c][mask])
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
        quantiles={q: float(v) for q, v in zip(qs, np.quantile(costs, qs))},
    )
    if want_log_cdf:
        positive = np.sort(costs[costs > 0])
        # the last cell of each run of equal costs; its rank, counting zeros, is the CDF there
        last = np.ones(positive.size, dtype=bool)
        np.not_equal(positive[1:], positive[:-1], out=last[:-1])
        ranks = np.flatnonzero(last) + 1 + (n - positive.size)
        summary.log_cdf = [
            (float(np.log10(v)), float(k / n)) for v, k in zip(positive[last], ranks)
        ]
    return summary


@dataclass
class ExceedanceRow:
    """Share of path transitions whose arrival-year cost clears each threshold."""

    age_group: tuple[int, int]
    n: int
    proportions: dict[int, float]

    @property
    def available(self) -> bool:
        return self.n > 0


def exceedance_proportions(
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
        lo, hi = _check_group(group)
        pooled = []
        for age in range(max(lo, panel.age_min + 1), min(hi, panel.age_max) + 1):
            c = panel.column(age)
            mask = panel.states[:, c] == to_state
            mask &= panel.states[:, c - 1] == from_state
            if mask.any():
                pooled.append(panel.costs[:, c][mask])
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


# ---------------------------------------------------------------------------
# multi-year retention among survivors


@dataclass
class DecayPath:
    """Share in a target set k years after conditioning, among panel survivors."""

    age_group: tuple[int, int]
    years: list[int]
    values: np.ndarray
    denominators: np.ndarray

    @property
    def available(self) -> np.ndarray:
        return self.denominators > 0


def multi_year_state_frequency(
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
    in_target = np.array(sorted(target_codes), dtype=np.intp) + 2
    lag = len(start_codes) - 1
    if age_groups is None:
        age_groups = five_year_groups(panel.age_min, panel.age_max)

    out: dict[tuple[int, int], DecayPath] = {}
    for group in age_groups:
        lo, hi = _check_group(group)
        hits = np.zeros(horizon, dtype=np.int64)
        totals = np.zeros(horizon, dtype=np.int64)
        for age in range(max(lo, panel.age_min + lag), min(hi, panel.age_max) + 1):
            reach = min(horizon, panel.age_max - age)
            if reach < 1:
                continue
            c = panel.column(age)
            mask = panel.states[:, c] == start_codes[-1]
            if lag:
                mask &= panel.states[:, c - 1] == start_codes[0]
            persons = np.flatnonzero(mask)
            if not persons.size:
                continue
            for k in range(reach):
                # cell code + 2 of the persons k + 1 years on: 0 absent, 1 missing, 2..6 Q1..Q5
                tally = np.bincount(panel.states[:, c + 1 + k].take(persons) + 2,
                                    minlength=N_STATES + 2)
                totals[k] += tally[2:].sum()
                hits[k] += tally[in_target].sum()
        values = np.full(horizon, np.nan)
        np.divide(hits, totals, out=values, where=totals > 0)
        out[group] = DecayPath(
            age_group=group,
            years=list(range(1, horizon + 1)),
            values=values,
            denominators=totals,
        )
    return out


# ---------------------------------------------------------------------------
# per-age autoregression


@dataclass
class ARFit:
    """OLS fit of annual cost at one age on its lags plus year dummies."""

    age: int
    order: int
    available: bool
    n: int
    lag_coefficients: tuple[float, ...] = ()
    lag_se: tuple[float, ...] = ()
    intercept: float | None = None
    year_effects: dict[int, float] = field(default_factory=dict)
    base_year: int | None = None


def ar_regression(panel: Panel, age: int, order: int = 1) -> ARFit:
    """Regress cost at ``age`` on cost at the previous ``order`` ages.

    Year dummies use the panel's earliest observed year as base level;
    dummy levels absent from the estimation sample are dropped, and when
    the base year itself is absent the earliest sampled year takes its
    place.  Fewer complete cases than parameters + 1 yields
    an unavailable fit; an exactly collinear design raises
    DegenerateFitError.  ``age`` and ``order`` must be integers (numpy
    integers included, bools not).

    The complete cases are the persons observed at every age of the
    contiguous column block ``age - order .. age``; their costs in that
    block are gathered once.  The design matrix is allocated once in C
    order and filled in place: a column of ones, lag 1 .. ``order``, then
    one 0/1 column per dummy level.  A panel of one birth cohort has one
    calendar year per age and so no dummies.
    """
    for name, value in (("age", age), ("order", order)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if order not in (1, 2):
        raise InvalidInputError(f"order must be 1 or 2, got {order}")
    if not (panel.has_age(age) and panel.has_age(age - order)):
        return ARFit(age=age, order=order, available=False, n=0)
    c = panel.column(age)
    block = slice(c - order, c + 1)
    rows = np.flatnonzero((panel.states[:, block] >= 0).all(axis=1))
    n = rows.size

    # at one age, calendar year and birth cohort determine each other
    births, cohort_of = panel.cohort_index
    years = births + age
    base_year = panel.min_year
    levels = []
    if births.size > 1:
        cohort = cohort_of.take(rows)
        sampled = np.flatnonzero(np.bincount(cohort, minlength=births.size))
        levels = [k for k in sampled if years[k] != base_year]
        if base_year not in years[sampled] and levels:
            levels = levels[1:]  # earliest sampled year becomes the effective base

    n_params = 1 + order + len(levels)
    if n < n_params + 1:
        return ARFit(age=age, order=order, available=False, n=n)

    # the transposed block is C-contiguous; its row order - k holds lag k
    costs = panel.costs[:, block].T.take(rows, axis=1)
    y = costs[order].astype(np.float64)
    X = np.empty((n, n_params))
    X[:, 0] = 1.0
    for k in range(1, order + 1):
        X[:, k] = costs[order - k]
    for j, k in enumerate(levels, 1 + order):
        X[:, j] = cohort == k

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
        year_effects={int(years[k]): float(b) for k, b in zip(levels, beta[1 + order :])},
        base_year=base_year,
    )
