"""Seeded synthetic cohorts from a fully known pair-conditional chain.

A GroundTruthChain pins down everything the estimators try to recover:
per-age conditional tensors, the pair distribution at entry, per-age
attrition, and a per-state cost sampler whose draws always classify back
to their state.  Panels generated from it make every estimator and
projector testable without any real claims data, and the path-enumeration
oracle here is the independent check for the lifted-chain algebra: it sums
probability-weighted costs over every explicit state path and never
touches a matrix product.

Randomness is numpy's PCG64 via default_rng; the generator name is part of
the serialized chain so test vectors stay stable.
"""

import csv
import itertools
import json
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import kernels
from .errors import ConfigError, HorizonError, InvalidInputError
from .ingest import CLAIMS_COLUMNS
from .lifted import LiftedMatrix, lift
from .panel import Panel
from .states import (
    DEFAULT_THRESHOLDS,
    N_STATES,
    CostVector,
    HealthState,
    StateThresholds,
    _state_code,
)

RNG_NAME = "pcg64"

COST_MODELS = ("midpoint", "uniform", "lognormal")


@dataclass
class GroundTruthChain:
    """A known age-dependent pair-conditional process over the five states.

    tensors[s] governs the transition into age entry_age + 2 + s:
    tensors[s][i, j, k] = p(state k | state i two years back, state j one
    year back).  initial_pairs is the previous-major 25-vector over the
    (entry_age, entry_age + 1) pair.  attrition[s] is the probability of
    leaving the data at age entry_age + 1 + s given presence the year
    before; dropout is independent of state.
    """

    entry_age: int
    exit_age: int
    tensors: np.ndarray
    initial_pairs: np.ndarray
    attrition: np.ndarray
    seed: int = 0
    cost_model: str = "midpoint"
    q5_upper: int = 1_000_000
    lognormal_sigma: float = 1.0
    entry_year: int = 2005
    thresholds: StateThresholds = field(default_factory=StateThresholds)

    def __post_init__(self):
        self.tensors = np.asarray(self.tensors, dtype=np.float64)
        self.initial_pairs = np.asarray(self.initial_pairs, dtype=np.float64)
        self.attrition = np.asarray(self.attrition, dtype=np.float64)
        span = self.exit_age - self.entry_age
        if span < 1:
            raise ConfigError("exit_age must be at least entry_age + 1")
        if self.tensors.shape != (span - 1, N_STATES, N_STATES, N_STATES):
            raise ConfigError(
                f"expected tensors of shape ({span - 1}, 5, 5, 5), got {self.tensors.shape}"
            )
        if self.initial_pairs.shape != (N_STATES * N_STATES,):
            raise ConfigError("initial_pairs must be a 25-vector")
        if self.attrition.shape != (span,):
            raise ConfigError(f"expected {span} attrition probabilities, got {self.attrition.shape}")
        # each check is written so that a NaN fails it
        if not (abs(self.initial_pairs.sum() - 1.0) <= 1e-9 and (self.initial_pairs >= 0).all()):
            raise ConfigError("initial_pairs must be a probability distribution")
        sums = self.tensors.sum(axis=3)
        if not ((np.abs(sums - 1.0) <= 1e-9).all() and (self.tensors >= 0).all()):
            raise ConfigError("every tensor slice must be a probability distribution")
        if not ((self.attrition >= 0) & (self.attrition <= 1)).all():
            raise ConfigError("attrition probabilities must lie in [0, 1]")
        if self.cost_model not in COST_MODELS:
            raise ConfigError(f"cost_model must be one of {COST_MODELS}")
        if self.q5_upper < self.thresholds.top_lower_bound:
            raise ConfigError("q5_upper must not undercut the top band's lower edge")

    # -- geometry ------------------------------------------------------------

    @property
    def n_steps(self) -> int:
        return self.tensors.shape[0]

    @property
    def target_ages(self) -> range:
        """Ages whose transition the tensors govern."""
        return range(self.entry_age + 2, self.exit_age + 1)

    def tensor_at(self, age: int) -> np.ndarray:
        if age not in self.target_ages:
            raise HorizonError(
                f"chain covers transitions into ages {self.target_ages.start}.."
                f"{self.target_ages.stop - 1}, not {age}"
            )
        return self.tensors[age - self.entry_age - 2]

    def lifted_family(self) -> dict[int, LiftedMatrix]:
        """The chain's exact per-age pair-state operators."""
        return {age: lift(self.tensor_at(age), age=age) for age in self.target_ages}

    # -- serialization ---------------------------------------------------------

    def to_json(self, path=None) -> str:
        doc = {
            "rng": RNG_NAME,
            "seed": self.seed,
            "entry_age": self.entry_age,
            "exit_age": self.exit_age,
            "entry_year": self.entry_year,
            "cost_model": self.cost_model,
            "q5_upper": self.q5_upper,
            "lognormal_sigma": self.lognormal_sigma,
            "upper_bounds": list(self.thresholds.upper_bounds),
            "initial_pairs": self.initial_pairs.tolist(),
            "attrition": self.attrition.tolist(),
            "tensors": self.tensors.tolist(),
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, source) -> "GroundTruthChain":
        if hasattr(source, "read"):
            doc = json.load(source)
        elif isinstance(source, str) and source.lstrip().startswith("{"):
            doc = json.loads(source)
        else:
            with open(source, encoding="utf-8") as fh:
                doc = json.load(fh)
        if doc.get("rng", RNG_NAME) != RNG_NAME:
            raise ConfigError(f"unsupported rng {doc.get('rng')!r}; this build pins {RNG_NAME}")
        return cls(
            entry_age=doc["entry_age"],
            exit_age=doc["exit_age"],
            tensors=np.asarray(doc["tensors"]),
            initial_pairs=np.asarray(doc["initial_pairs"]),
            attrition=np.asarray(doc["attrition"]),
            seed=doc.get("seed", 0),
            cost_model=doc.get("cost_model", "midpoint"),
            q5_upper=doc.get("q5_upper", 1_000_000),
            lognormal_sigma=doc.get("lognormal_sigma", 1.0),
            entry_year=doc.get("entry_year", 2005),
            thresholds=StateThresholds(tuple(doc.get("upper_bounds", DEFAULT_THRESHOLDS.upper_bounds))),
        )


def random_chain(
    seed: int,
    entry_age: int = 20,
    exit_age: int = 60,
    alpha: float = 1.0,
    attrition: float = 0.0,
    cost_model: str = "midpoint",
    entry_year: int = 2005,
) -> GroundTruthChain:
    """Draw a chain with Dirichlet(alpha) slices; fully determined by seed."""
    rng = np.random.default_rng(seed)
    span = exit_age - entry_age
    tensors = rng.dirichlet([alpha] * N_STATES, size=(span - 1, N_STATES, N_STATES))
    initial = rng.dirichlet([1.0] * (N_STATES * N_STATES))
    return GroundTruthChain(
        entry_age=entry_age,
        exit_age=exit_age,
        tensors=tensors,
        initial_pairs=initial,
        attrition=np.full(span, float(attrition)),
        seed=seed,
        cost_model=cost_model,
        entry_year=entry_year,
    )


def order1_consistent_chain(
    seed: int,
    entry_age: int = 20,
    exit_age: int = 60,
    alpha: float = 1.0,
    attrition: float = 0.0,
) -> GroundTruthChain:
    """A chain whose tensors ignore the older conditioning state."""
    rng = np.random.default_rng(seed)
    span = exit_age - entry_age
    rows = rng.dirichlet([alpha] * N_STATES, size=(span - 1, N_STATES))
    tensors = np.repeat(rows[:, None, :, :], N_STATES, axis=1)
    initial = rng.dirichlet([1.0] * (N_STATES * N_STATES))
    return GroundTruthChain(
        entry_age=entry_age,
        exit_age=exit_age,
        tensors=tensors,
        initial_pairs=initial,
        attrition=np.full(span, float(attrition)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# panel generation


def _representative_ints(thresholds: StateThresholds, q5_upper: int) -> np.ndarray:
    """Integer midpoint cost per state (top band: midpoint of [edge, q5_upper])."""
    reps = []
    for state in HealthState:
        lo, hi = thresholds.interval(state)
        if hi is None:
            hi = q5_upper
        reps.append((lo + hi + 1) // 2)
    return np.asarray(reps, dtype=np.int64)


def _sample_costs(truth: GroundTruthChain, states: np.ndarray, rng) -> np.ndarray:
    """Costs for observed cells; every draw classifies back to its state."""
    reps = _representative_ints(truth.thresholds, truth.q5_upper)
    if truth.cost_model == "midpoint":
        # looked up by code + 2, so that the unobserved codes -2 and -1 cost 0
        return np.append([0, 0], reps)[states + 2]
    costs = np.zeros(states.shape, dtype=np.int64, order="F")
    for code in range(N_STATES):
        cells = states == code
        n = int(cells.sum())
        if n == 0:
            continue
        lo, hi = truth.thresholds.interval(HealthState(code + 1))
        if hi is None:
            hi = truth.q5_upper
        if truth.cost_model == "uniform":
            draws = rng.integers(lo, hi + 1, size=n, dtype=np.int64)
        else:  # lognormal, clipped into the band
            mu = np.log(max((hi - lo) / 8.0, 1.0))
            raw = np.floor(rng.lognormal(mu, truth.lognormal_sigma, size=n)).astype(np.int64)
            draws = lo + np.minimum(raw, hi - lo)
        costs[cells] = draws  # fills cells in person-major order whatever the storage order
    return costs


def _person_ids(numbers: range) -> np.ndarray:
    """Object array of the ids f"p{k:07d}", formatted in one pass over ``numbers``."""
    return np.array(("p%07d\n" * len(numbers) % tuple(numbers)).split("\n")[:-1], dtype=object)


def generate_panel(truth: GroundTruthChain, n_persons: int) -> Panel:
    """Simulate a panel of ``n_persons`` trajectories over the chain's ages; deterministic given seed.

    Dropout at some age leaves missing markers through the chain's
    exit_age.  Monthly records derived from this panel (write_claims)
    annualize back to exactly the costs sampled here.
    """
    if n_persons < 1:
        raise InvalidInputError(f"n_persons must be >= 1, got {n_persons}")

    rng = np.random.default_rng(truth.seed)
    n_steps = truth.n_steps

    # draw order is pinned: entry pairs, transitions, attrition, costs
    cum_init = np.cumsum(truth.initial_pairs)
    cum_init[-1] = 1.0
    pair_codes = np.searchsorted(cum_init, rng.random(n_persons), side="right").astype(np.int64)
    first = (pair_codes // N_STATES).astype(np.int8)
    second = (pair_codes % N_STATES).astype(np.int8)

    if n_steps > 0:
        u = rng.random((n_persons, n_steps))
        cdf = np.cumsum(truth.tensors.reshape(n_steps, 25, N_STATES), axis=2)
        states = kernels.simulate_paths(first, second, cdf, u)
    else:
        u = rng.random((n_persons, 0))
        states = np.stack([first, second], axis=1)

    n_ages = truth.exit_age - truth.entry_age + 1
    drop_u = rng.random((n_persons, n_ages - 1))
    dropped = drop_u < truth.attrition[None, :]
    # first dropout age wins; everything from there on is a missing marker
    any_drop = dropped.any(axis=1)
    first_drop = np.where(any_drop, dropped.argmax(axis=1), n_ages - 1)
    col_idx = np.arange(n_ages)[None, :]
    marker = any_drop[:, None] & (col_idx >= (first_drop + 1)[:, None])
    states[marker] = -1

    costs = _sample_costs(truth, states, rng)
    months = (states >= 0) * np.int8(12)

    ids = _person_ids(range(n_persons))
    births = np.full(n_persons, truth.entry_year - truth.entry_age, dtype=np.int32)
    sex = np.array(["M"] * n_persons, dtype=object)
    return Panel(ids, births, truth.entry_age, states, costs, months, sex=sex)


#: Panel cells (persons x ages, person-major) per write_claims block.  A
#: block's rows are formatted and written together, so memory stays bounded
#: by the block, not by the file; a block may end inside one person.
_CLAIMS_BLOCK_CELLS = 1 << 12


def _claims_sexes(panel: Panel, sex_default) -> list[str]:
    """Each person's sex as written to claims; rejects what ingest would."""
    if panel.sex is None:
        if str(sex_default) not in ("M", "F"):
            raise InvalidInputError(f"sex_default must be 'M' or 'F', got {sex_default!r}")
        return [str(sex_default)] * panel.n_persons
    sexes = [str(s) for s in panel.sex]
    for p, text in enumerate(sexes):
        if text not in ("M", "F"):
            raise InvalidInputError(
                f"person {str(panel.person_ids[p])!r} has sex {panel.sex[p]!r}; claims need 'M' or 'F'"
            )
    return sexes


def _month_templates(year_convention: str) -> np.ndarray:
    """The 12 claims rows of one person-year, one template per cost remainder.

    Template ``r`` takes the row heads ``person_id,sex,age,year,`` for the
    person-year's year and the next one, then the costs base and base + 1;
    its first ``r`` months cost base + 1, the rest base.
    """
    if year_convention == "fiscal":
        calendar = [(0, m) for m in range(4, 13)] + [(1, m) for m in range(1, 4)]
    else:
        calendar = [(0, m) for m in range(1, 13)]
    return np.array(
        [
            "".join(
                f"{{{shift}}}{month},{{{3 if k < extra else 2}}}\r\n"
                for k, (shift, month) in enumerate(calendar)
            )
            for extra in range(12)
        ],
        dtype=object,
    )


def _row_prefixes(person_ids, sexes) -> np.ndarray:
    """``person_id,sex,`` per person, quoted exactly as csv.writer quotes them."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows(zip(map(str, person_ids), sexes))
    return np.array([line[:-2] + "," for line in lines], dtype=object)


def write_claims(panel: Panel, path, sex_default: str = "M", year_convention: str = "fiscal") -> int:
    """Write the panel as monthly claims rows; returns rows written.

    Each observed person-year becomes 12 monthly rows whose costs sum to
    the annual cost (remainder spread over the first months), aligned with
    the grouping convention so ingestion reassembles the exact same
    person-years.  Missing markers produce no rows.  Rows are always 12
    per person-year, whatever ``months_observed`` says, so a panel with
    fewer observed months comes back from ingest with 12.

    Every sex value (``panel.sex``, or ``sex_default`` when the panel has
    none) must be "M" or "F"; otherwise InvalidInputError is raised and no
    file is created.  Rows are formatted from the panel's arrays, one block
    of ``_CLAIMS_BLOCK_CELLS`` (person, age) cells at a time, so memory is
    bounded by the block and not by the file.
    """
    if year_convention not in ("fiscal", "calendar"):
        raise InvalidInputError(f"unknown year convention {year_convention!r}")
    sexes = _claims_sexes(panel, sex_default)
    templates = _month_templates(year_convention)
    head = "{}{},{},".format  # person_id,sex, prefix, age and year -> head of a row
    cells = panel.states.reshape(-1)  # person-major: one int8 copy of the column-major matrix
    n_rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(CLAIMS_COLUMNS)
        for start in range(0, cells.size, _CLAIMS_BLOCK_CELLS):
            flat = start + np.flatnonzero(cells[start : start + _CLAIMS_BLOCK_CELLS] >= 0)
            if flat.size == 0:
                continue
            persons, cols = np.divmod(flat, panel.n_ages)
            first, last = int(persons[0]), int(persons[-1]) + 1
            prefixes = _row_prefixes(panel.person_ids[first:last], sexes[first:last])
            prefixes = prefixes[persons - first].tolist()
            ages = panel.age_min + cols
            years = panel.birth_years[persons] + ages
            base, extra = np.divmod(panel.costs[persons, cols], 12)
            fh.writelines(map(
                str.format,
                templates[extra].tolist(),
                map(head, prefixes, ages.tolist(), years.tolist()),
                map(head, prefixes, ages.tolist(), (years + 1).tolist()),
                base.tolist(),
                (base + 1).tolist(),
            ))
            n_rows += 12 * flat.size
    return n_rows


# ---------------------------------------------------------------------------
# exhaustive oracle

MAX_ENUM_HORIZON = 8


def enumerate_expectation(
    truth: GroundTruthChain,
    costs: CostVector,
    start,
    start_age: int,
    horizon: int,
) -> float:
    """Exact expected cumulative representative cost by brute-force paths.

    Sums probability * cumulative-cost over all 5**horizon state paths
    using the raw tensors only; the deliberate independence from the
    lifted-chain algebra is what makes this the oracle.  Bounded at
    horizon 8 (390,625 paths); beyond that use the lifted projector.
    """
    if horizon < 1:
        raise InvalidInputError(f"horizon must be >= 1, got {horizon}")
    if horizon > MAX_ENUM_HORIZON:
        raise InvalidInputError(
            f"horizon {horizon} enumerates 5**{horizon} paths; use the lifted-chain projector"
        )
    steps = []
    for k in range(1, horizon + 1):
        steps.append(truth.tensor_at(start_age + k))
    m = costs.as_array()
    i0, j0 = _state_code(start[0]), _state_code(start[1])

    total = 0.0
    for path in itertools.product(range(N_STATES), repeat=horizon):
        prob = 1.0
        cum = 0.0
        i, j = i0, j0
        for tensor, nxt in zip(steps, path):
            prob *= tensor[i, j, nxt]
            if prob == 0.0:
                break
            cum += m[nxt]
            i, j = j, nxt
        else:
            total += prob * cum
    return total
