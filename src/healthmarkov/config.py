"""Run configuration: one flat document of dotted keys, CLI flags override.

Example config file (JSON, flat):

    {
      "input.claims": "claims.csv",
      "cohort.sex": "M",
      "cohort.age_max": 59,
      "project.q5_values": [267000, 500000, 1000000]
    }
"""

import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .ingest import YEAR_CONVENTIONS
from .states import DEFAULT_UPPER_BOUNDS, StateThresholds

OUTPUT_DIR_ENV = "HEALTHMARKOV_OUTPUT_DIR"


def _as_int(v):
    # int() would truncate 2.5 to 2 and read true as 1
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"expected an integer, got {json.dumps(v)}")
    return int(v)


def _as_float(v):
    # float() would read true as 1.0 and accept nan and inf
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {json.dumps(v)}")
    value = float(v)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {v!r}")
    return value


def _as_str(v):
    return str(v)


def _as_opt_str(v):
    return None if v is None or v == "" else str(v)


def _as_int_list(v):
    if isinstance(v, str):
        v = [p for p in v.replace(",", " ").split() if p]
    return tuple(_as_int(x) for x in v)


def _as_opt_int_list(v):
    if v is None or v == "":
        return None
    return _as_int_list(v)


@dataclass
class RunConfig:
    """Everything a CLI run needs; field defaults reproduce the standard pipeline."""

    claims_path: str | None = None
    panel_path: str | None = None
    output_dir: str = "out"
    upper_bounds: tuple = DEFAULT_UPPER_BOUNDS
    sex: str | None = "M"
    age_min: int = 0
    age_max: int = 59
    q5_values: tuple = (267_000,)
    horizon: int = 10
    start_ages: tuple | None = None
    min_count: int = 30
    year_convention: str = "fiscal"
    seed: int = 0
    synth_n_persons: int = 10_000
    synth_entry_age: int = 20
    synth_exit_age: int = 60
    synth_entry_year: int = 2005
    synth_attrition: float = 0.02
    synth_cost_model: str = "midpoint"
    synth_alpha: float = 1.0

    @property
    def thresholds(self) -> StateThresholds:
        return StateThresholds(self.upper_bounds)


#: dotted config key -> (RunConfig field, parser)
CONFIG_KEYS = {
    "input.claims": ("claims_path", _as_opt_str),
    "input.panel": ("panel_path", _as_opt_str),
    "output.dir": ("output_dir", _as_str),
    "states.upper_bounds": ("upper_bounds", _as_int_list),
    "cohort.sex": ("sex", _as_opt_str),
    "cohort.age_min": ("age_min", _as_int),
    "cohort.age_max": ("age_max", _as_int),
    "project.q5_values": ("q5_values", _as_int_list),
    "project.horizon": ("horizon", _as_int),
    "project.start_ages": ("start_ages", _as_opt_int_list),
    "estimate.min_count": ("min_count", _as_int),
    "ingest.year_convention": ("year_convention", _as_str),
    "seed": ("seed", _as_int),
    "synth.n_persons": ("synth_n_persons", _as_int),
    "synth.entry_age": ("synth_entry_age", _as_int),
    "synth.exit_age": ("synth_exit_age", _as_int),
    "synth.entry_year": ("synth_entry_year", _as_int),
    "synth.attrition": ("synth_attrition", _as_float),
    "synth.cost_model": ("synth_cost_model", _as_str),
    "synth.alpha": ("synth_alpha", _as_float),
}


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional flat JSON file plus overrides.

    Unknown keys are rejected; the HEALTHMARKOV_OUTPUT_DIR environment
    variable, when set, wins over both file and flags for the output dir.
    """
    merged: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold one flat JSON object")
        merged.update(doc)
    if overrides:
        merged.update(overrides)

    cfg = RunConfig()
    for key, value in merged.items():
        if key not in CONFIG_KEYS:
            known = ", ".join(sorted(CONFIG_KEYS))
            raise ConfigError(f"unknown config key {key!r}; known keys: {known}")
        attr, parse = CONFIG_KEYS[key]
        try:
            setattr(cfg, attr, parse(value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None

    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        cfg.output_dir = env_out
    return cfg


def validate_config(cfg: RunConfig, command: str) -> None:
    """Command-specific checks: referenced paths exist, lists are usable."""
    if cfg.year_convention not in YEAR_CONVENTIONS:
        raise ConfigError(f"ingest.year_convention must be {' or '.join(YEAR_CONVENTIONS)}, got {cfg.year_convention!r}")
    if cfg.sex not in (None, "M", "F"):
        raise ConfigError(f"cohort.sex must be M, F or null, got {cfg.sex!r}")
    if cfg.age_min > cfg.age_max:
        raise ConfigError(f"cohort.age_min {cfg.age_min} exceeds cohort.age_max {cfg.age_max}")
    StateThresholds(cfg.upper_bounds)  # raises ConfigError when inconsistent

    if command == "ingest":
        if not cfg.claims_path:
            raise ConfigError("ingest needs input.claims")
        _require_file("input.claims", cfg.claims_path)
    if command in ("estimate", "report", "project"):
        if not cfg.panel_path:
            raise ConfigError(f"{command} needs input.panel (a panel cache file)")
        _require_file("input.panel", cfg.panel_path)
    if command in ("project", "report"):
        if not cfg.q5_values:
            raise ConfigError("project.q5_values must be non-empty")
    if command == "synth":
        if cfg.synth_n_persons < 1:
            raise ConfigError("synth.n_persons must be >= 1")
        if not cfg.synth_entry_age < cfg.synth_exit_age:
            raise ConfigError("synth.entry_age must be below synth.exit_age")
        if not 0.0 <= cfg.synth_attrition <= 1.0:
            raise ConfigError("synth.attrition must lie in [0, 1]")


def _require_file(key: str, path: str) -> None:
    if not os.path.exists(path):
        raise ConfigError(f"{key} does not exist: {path}")
    if os.path.isdir(path):
        raise ConfigError(f"{key} is a directory, not a file: {path}")
