"""Empirical estimators over a Panel.

Everything here is a counting exercise over the dense state matrix:
transition matrices and pair-conditional tensors per single age, state
fractions and cost summaries per 5-year age group, per-age frequency
curves with attrition as an explicit category, multi-year retention paths
among panel survivors, and per-age autoregressions of annual cost.

Probabilities are always formed from pooled counts, never by averaging
probabilities; cells with zero support carry an explicit flag instead of
a sentinel value.

The transition estimates and the frequency curves read the panel's
transition tallies, ``Panel.pair_tally`` and ``Panel.triple_tally``: per
age, the persons counted by their cell letters (cell code + 2: absent,
missing, Q1..Q5) over two or three consecutive ages, counted once per
panel.  A transition estimate takes the observed block, letters 2..6 on
every axis; a frequency curve's condition sets select and sum the axes of
the earlier ages.  The other per-age estimators read whole age columns,
which the panel stores contiguously.  A retention path takes the indices
of the persons meeting its start condition once per start age and counts
their cell codes in each later column.  A cost summary slices an age's
cost column first and selects from it, never gathering rows across the
column-major matrices.

The chain order is a value, not a fork: one counting, estimating and
pooling body serves order one (``TransitionMatrix``, counted over pairs of
ages) and order two (``TransitionTensor``, over triples), on one base type.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    EmptyCohortError,
    InvalidInputError,
)
from .panel import Panel, _read_only
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


def _group_ages(panel: Panel, group, lag: int) -> range:
    """Ages of ``group`` the panel holds with the ``lag`` ages before; lo > hi raises."""
    lo, hi = group
    if lo > hi:
        raise InvalidInputError(f"age group {group} is empty")
    return range(max(lo, panel.age_min + lag), min(hi, panel.age_max) + 1)


def _bin_ages(age: int) -> range:
    """The standard 5-year age bin holding ``age``."""
    lo = (age // 5) * 5
    return range(lo, lo + 5)


def five_year_groups(age_min: int, age_max: int) -> list[tuple[int, int]]:
    """Standard 5-year bins intersecting [age_min, age_max]."""
    return [(a, a + 4) for a in range(_bin_ages(age_min).start, age_max + 1, 5)]


def group_label(group: tuple[int, int]) -> str:
    return f"{group[0]}-{group[1]}"


# ---------------------------------------------------------------------------
# transition estimates


def _freeze(operator, *names) -> None:
    """Set each named array of a frozen dataclass to a read-only copy; the caller's array stays writable."""
    for name in names:
        if (values := getattr(operator, name)) is not None:
            object.__setattr__(operator, name, _read_only(np.array(values)))


@dataclass(frozen=True, eq=False)
class _TransitionEstimate:
    """Transition counts into one age and their probabilities, for either chain order.

    The last axis is the state at ``age``, the leading axes the conditioning
    states, oldest first; ``totals`` sums counts over the last axis.
    Immutable, like a lifted operator: read-only arrays, identity hashing.
    """

    age: int
    probs: np.ndarray
    counts: np.ndarray
    totals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "totals", self.counts.sum(axis=-1))
        _freeze(self, "probs", "counts", "totals")

    @property
    def supported(self) -> np.ndarray:
        return self.totals > 0


class TransitionMatrix(_TransitionEstimate):
    """First-order estimate at one age: rows = state at age-1, cols = state at age."""


class TransitionTensor(_TransitionEstimate):
    """Second-order estimate at one age: probs[i, j, k] = p(state k at age | i at age-2, j at age-1)."""


#: Estimate type per chain order.
_ORDERS = {1: TransitionMatrix, 2: TransitionTensor}

#: Tally letters of the observed states Q1..Q5; 0 is absent, 1 missing.
_OBSERVED = slice(2, None)


def _normalize_counts(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=-1, keepdims=True)
    probs = np.zeros_like(counts, dtype=np.float64)
    np.divide(counts, totals, out=probs, where=totals > 0)
    return probs


def _tally(panel: Panel, lag: int) -> np.ndarray:
    """The panel's tally over ``lag`` + 1 consecutive ages; row k ends at age age_min + lag + k."""
    return panel.pair_tally if lag == 1 else panel.triple_tally


def _observed_counts(panel: Panel, order: int) -> np.ndarray:
    """Per-age observed transition counts: the Q1..Q5 block of the panel's tally."""
    return _tally(panel, order)[(slice(None),) + (_OBSERVED,) * (order + 1)]


def _estimate_family(panel: Panel, order: int) -> dict:
    kind = _ORDERS[order]
    out = {}
    # count row k holds the transitions into age age_min + order + k
    for age, counts in enumerate(_observed_counts(panel, order), panel.age_min + order):
        if counts.sum() > 0:
            out[age] = kind(age=age, probs=_normalize_counts(counts), counts=counts)
    return out


def estimate_order1_family(panel: Panel) -> dict[int, TransitionMatrix]:
    """Per-age matrices for every age with data (one counting pass)."""
    return _estimate_family(panel, 1)


def estimate_order2_family(panel: Panel) -> dict[int, TransitionTensor]:
    """Per-age tensors for every age with data (one counting pass)."""
    return _estimate_family(panel, 2)


# ---------------------------------------------------------------------------
# fractions and frequency curves


def state_fractions(panel: Panel, age_group: tuple[int, int]) -> tuple[np.ndarray, int]:
    """Share of each state among observed person-years in the age group."""
    ages = _group_ages(panel, age_group, 0)
    if not ages:
        raise EmptyCohortError(f"panel does not cover ages {age_group}")
    block = panel.states[:, ages.start - panel.age_min : ages.stop - panel.age_min]
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

    Per age t, the panel's pair (one condition) or triple tally (two)
    counts the persons by their letters at t-lag..t; each condition set
    selects and sums the axis of its age, leaving the letters at t.
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
    # tally letters of each condition set, earliest age first
    picks = [np.array(sorted(codes), dtype=np.intp) + 2 for codes in cond_codes]

    kept_ages: list[int] = []
    values: list[float] = []
    denoms: list[int] = []
    shares: list[np.ndarray] = []
    for age, tally in enumerate(_tally(panel, lag), panel.age_min + lag):
        for pick in picks:
            tally = tally[pick].sum(axis=0)
        # in-panel at t: an attrition marker or observed, letters 1..6
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


def _arrival_costs(panel: Panel, ages: range, prior: int, current: int | None) -> np.ndarray:
    """Pooled costs at ``ages`` of persons in ``prior`` a year before and in ``current`` (None: observed)."""
    pooled = [np.empty(0, dtype=np.int64)]
    for age in ages:
        c = panel.column(age)
        now = panel.states[:, c]
        mask = now >= 0 if current is None else now == current
        mask &= panel.states[:, c - 1] == prior
        if mask.any():
            # the age's cost column first, so the mask selects from contiguous memory
            pooled.append(panel.costs[:, c][mask])
    return np.concatenate(pooled)


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
    costs = _arrival_costs(panel, _group_ages(panel, age_group, 1), prior, current)
    cur_state = None if current is None else HealthState(current + 1)
    n = int(costs.size)
    if not n:
        return CostSummary(age_group=age_group, prior_state=HealthState(prior + 1),
                           current_state=cur_state, n=0)
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
        costs = _arrival_costs(panel, _group_ages(panel, group, 1), from_state, to_state)
        if costs.size:
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
        hits = np.zeros(horizon, dtype=np.int64)
        totals = np.zeros(horizon, dtype=np.int64)
        for age in _group_ages(panel, group, lag):
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
    """OLS fit of annual cost at one age on its lags plus year dummies.

    ``base_year`` is the earliest calendar year in the fit's sample: the
    base level that ``intercept`` holds and ``year_effects`` are measured
    from.  An unavailable fit has none.  ``ar_regression`` fits without
    BLAS or LAPACK, so the fields are the same bits on every CPU and
    thread count.  The test suite holds them to
    an exact rational OLS within a relative 1e-12 of each value plus the
    value that would move the fit by the size of the cost vector.
    """

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

    Year dummies take the earliest sampled year as base level and one
    level for each later sampled year.  The panel's earliest observed year
    is never sampled: a complete case was observed a year before the year
    it is sampled in.  Fewer complete cases than parameters + 1 yields
    an unavailable fit; an exactly collinear design raises
    DegenerateFitError.  ``age`` and ``order`` must be integers (numpy
    integers included, bools not).

    The complete cases are the persons observed at every age of the
    contiguous column block ``age - order .. age``; their costs are
    gathered once, column by column.  At one age, calendar year and birth
    cohort determine each other, so the intercept and the dummies span the
    indicators of the sampled cohorts, which are orthogonal.  The fit
    therefore splits (Frisch-Waugh-Lovell): cohort means, summed exactly
    by ``np.bincount`` over integer costs, remove that block from the cost
    and lag columns; modified Gram-Schmidt on the demeaned lags and cost,
    in column order, gives the lag coefficients, the residual sum and the
    lag standard errors; the intercept and year effects are the cohort
    means minus the fitted lag terms.  A panel of one birth cohort has one
    calendar year per age, so no dummies, and one mean per column.

    Every float sum is an ``np.add.reduce`` over elementwise products or a
    ``np.bincount`` with weights, so it runs in one fixed order.  Unlike
    normal equations, Gram-Schmidt on the augmented matrix does not square
    the condition number (Bjorck, BIT 7, 1967; Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 20).  The rank rule
    is ``lstsq``'s with ``rcond=None``: a lag column counts as dependent
    when its residual norm after the cohort block and the earlier lags is
    at most eps * max(n, parameters) times the design's largest column
    norm.
    """
    for name, value in (("age", age), ("order", order)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if order not in (1, 2):
        raise InvalidInputError(f"order must be 1 or 2, got {order}")
    if not (panel.has_age(age) and panel.has_age(age - order)):
        return ARFit(age=age, order=order, available=False, n=0)
    c = panel.column(age)
    rows = np.flatnonzero((panel.states[:, c - order : c + 1] >= 0).all(axis=1))
    n = rows.size

    births, cohort_of = panel.cohort_index
    years = births + age
    levels = []
    ref = 0  # cohort of the base level
    if births.size > 1 and n:
        cohort = cohort_of.take(rows)
        sizes = np.bincount(cohort, minlength=births.size)
        # the earliest sampled cohort, and so year, is the base
        ref, *levels = np.flatnonzero(sizes).tolist()

    n_params = 1 + order + len(levels)
    if n < n_params + 1:
        return ARFit(age=age, order=order, available=False, n=n)

    # rows in Gram-Schmidt order: lag 1 .. order, then the cost at age, each
    # gathered from its own contiguous column
    x = np.empty((order + 1, n))
    for row, col in enumerate([*range(c - 1, c - order - 1, -1), c]):
        x[row] = panel.costs[:, col].take(rows)
    if births.size > 1:
        sums = np.array([np.bincount(cohort, weights=col, minlength=births.size) for col in x])
        means = sums / np.maximum(sizes, 1)
        w = x - means.take(cohort, axis=1)
    else:
        means = np.add.reduce(x, axis=1, keepdims=True) / n
        w = x - means
    largest = max(float(n), *np.add.reduce(x[:order] * x[:order], axis=1).tolist())
    floor = (float(np.finfo(np.float64).eps) * max(n, n_params)) ** 2 * largest
    rank = 1 + len(levels)
    sq = [0.0] * order  # squared residual norm of each lag column
    mult = [[0.0] * (order + 1) for _ in range(order)]  # unit upper-triangular factor
    for j in range(order):
        dots = np.add.reduce(w[j:] * w[j], axis=1).tolist()
        if dots[0] <= floor:
            continue
        rank += 1
        sq[j] = dots[0]
        for k, product in enumerate(dots[1:], j + 1):
            mult[j][k] = product / dots[0]
        w[j + 1 :] -= np.array(mult[j][j + 1 :])[:, None] * w[j]
    if rank < n_params:
        raise DegenerateFitError(f"design matrix at age {age} has rank {rank} < {n_params}")

    beta = [0.0] * order
    for j in reversed(range(order)):
        beta[j] = mult[j][order] - sum(mult[j][k] * beta[k] for k in range(j + 1, order))
    sigma2 = float(np.add.reduce(w[order] * w[order])) / (n - n_params)
    # the lag block of (X'X)^-1 is U^-1 diag(1 / sq) U^-T; row j of U^-1 gives its diagonal entry j
    se = []
    for j in range(order):
        inv = {j: 1.0}
        for k in range(j + 1, order):
            inv[k] = -sum(inv[m] * mult[m][k] for m in range(j, k))
        se.append(math.sqrt(sigma2 * sum(v * v / sq[k] for k, v in inv.items())))
    # each cohort's own intercept: its mean cost less the fitted lag terms
    alpha = means[order] - sum(b * m for b, m in zip(beta, means))

    return ARFit(
        age=age,
        order=order,
        available=True,
        n=n,
        lag_coefficients=tuple(beta),
        lag_se=tuple(se),
        intercept=float(alpha[ref]),
        year_effects={int(years[k]): float(alpha[k] - alpha[ref]) for k in levels},
        base_year=int(years[ref]),
    )
