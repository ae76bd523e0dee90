import numpy as np
import pytest

from healthmarkov import ingest
from healthmarkov.panel import MISSING_CODE, Panel
from healthmarkov.states import classify_costs


def make_panel(states, entry_age=30, entry_year=2000, costs=None, months=None, sex=None):
    """Build a Panel straight from a 0-based state-code matrix.

    states: (n_persons, n_ages) ints with -1 missing marker, -2 absent.
    costs default to a distinct positive value inside no particular band.
    """
    states = np.asarray(states, dtype=np.int8)
    n, n_ages = states.shape
    if costs is None:
        # midpoint-ish costs consistent with the coded state
        reps = np.array([3_900, 15_901, 39_001, 160_500, 500_000], dtype=np.int64)
        costs = np.where(states >= 0, reps[np.clip(states, 0, 4).astype(np.int64)], 0)
    costs = np.asarray(costs, dtype=np.int64)
    if months is None:
        months = np.where(states >= 0, 12, 0)
    ids = [f"p{k:04d}" for k in range(n)]
    births = np.full(n, entry_year - entry_age, dtype=np.int32)
    return Panel(ids, births, entry_age, states, costs, np.asarray(months, dtype=np.int8), sex=sex)


def assert_same_cells(got, want):
    """Same persons, birth years and ages; same observed and missing cells; same values where observed."""
    assert list(got.person_ids) == list(want.person_ids)
    np.testing.assert_array_equal(got.birth_years, want.birth_years)
    assert got.ages == want.ages
    observed = want.states >= 0
    np.testing.assert_array_equal(got.states >= 0, observed)
    np.testing.assert_array_equal(got.states == MISSING_CODE, want.states == MISSING_CODE)
    for name in ("states", "costs", "months"):
        np.testing.assert_array_equal(getattr(got, name)[observed], getattr(want, name)[observed], err_msg=name)


def observed_ages(panel, p=0) -> list[int]:
    """Ages of person row ``p``'s observed cells."""
    return (panel.age_min + np.flatnonzero(panel.states[p] >= 0)).tolist()


def panel_from_costs(costs, entry_age=30, entry_year=2000, sex=None):
    """Panel whose states are derived by classification of the given costs."""
    costs = np.asarray(costs, dtype=np.int64)
    states = classify_costs(costs)
    return make_panel(states, entry_age=entry_age, entry_year=entry_year, costs=costs, sex=sex)


def collinear_cost_panel():
    """Two ages at which every person has the same cost, so an AR(1) design is collinear."""
    return panel_from_costs(np.full((50, 2), 10_000, dtype=np.int64), entry_age=40)


def sticky_top_chain(
    entry_age=20,
    exit_age=60,
    stay=0.839,
    reentry=1.0 / 3.0,
    inflow=0.02,
    seed=7,
    attrition=0.0,
):
    """Homogeneous pair-conditional chain with a sticky top state.

    From any pair currently in the top state, staying depends on the past:
    ``stay`` when the past was also the top state, ``reentry`` otherwise.
    From every other pair the top state is entered with ``inflow``.  The
    remaining mass spreads over the lower states so all 25 pairs occur.
    """
    from healthmarkov.synthetic import GroundTruthChain

    t = np.zeros((5, 5, 5))
    low_split = np.array([0.6, 0.25, 0.1, 0.05])
    entry_split = np.array([0.55, 0.25, 0.15, 0.05])
    for i in range(5):
        for j in range(5):
            if j == 4:
                p5 = stay if i == 4 else reentry
                t[i, j, 4] = p5
                t[i, j, :4] = (1.0 - p5) * low_split
            else:
                t[i, j, 4] = inflow
                t[i, j, :4] = (1.0 - inflow) * entry_split
    span = exit_age - entry_age
    tensors = np.broadcast_to(t, (span - 1, 5, 5, 5)).copy()
    initial = np.zeros(25)
    initial[24] = 0.06   # top state both entry years
    initial[4] = 0.02    # fresh arrival in the top state
    initial[0] = 0.92    # bottom state both entry years
    return GroundTruthChain(
        entry_age=entry_age,
        exit_age=exit_age,
        tensors=tensors,
        initial_pairs=initial,
        attrition=np.full(span, float(attrition)),
        seed=seed,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def plain_blocks(monkeypatch):
    """(lines, whether they took the plain path) of every block the claims reader reads, in order."""
    blocks = []
    plain_block = ingest._plain_block

    def recorded(lines):
        records = plain_block(lines)
        blocks.append((lines, records is not None))
        return records

    monkeypatch.setattr(ingest, "_plain_block", recorded)
    return blocks
