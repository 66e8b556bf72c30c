"""Experiment configuration, the family wire format and the versioned
threshold defaults.

Every pass/fail number used by the report lives in DEFAULT_THRESHOLDS so runs
are auditable; individual values can be overridden from the command line.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

from .dynamics import MAX_ITER, MAX_RESOLUTION, MAX_SAMPLES, pixel_centers
from .errors import ConfigError
from .exceptional import DarbouxData, make_darboux_data, make_x1_preset
from .jacobi import JacobiParams
from .poly import Poly

SCHEMA_VERSION = 1

# Desk-scale acceptance thresholds.  The limit theorems carry no rates, so
# these are artifact policy: absolute caps at the largest n plus
# monotone-trend requirements across the configured n list.
DEFAULT_THRESHOLDS = {
    "schema_version": SCHEMA_VERSION,
    "lead_root_gap_max": 0.15,     # |gamma_e^(1/n) - 2| at the largest n
    "green_gap_max": 0.1,          # nth-root growth vs Green function, largest n
    "ks_max": 0.05,                # KS(regular zeros, arcsine) at the largest n
    "moment_max": 0.1,             # max |T_k moment|, k = 1..6, at the largest n
    "p2_growth_allowance": 1,      # late-n preimage counts may exceed early by this
    "p2_region": [1.5, 2.5, -0.5, 0.5],
    "p2_targets": 20,              # boundary/e sample targets per n
    "green_test_points": [[2.0, 0.0], [1.0, 1.0], [-3.0, 0.0], [0.5, 2.0]],
}

_GRID_DEFAULTS = {
    "center_re": 0.0,
    "center_im": 0.0,
    "half_width": 2.0,
    "resolution": 512,
    "max_iter": 100,
}


@dataclass
class ExperimentConfig:
    """One resolved experiment: family + schedule + output location."""

    family: dict
    n_list: list
    samples: int = 20000
    burn_in: int = 100
    seed: int = 0
    grid: dict = field(default_factory=lambda: dict(_GRID_DEFAULTS))
    output_dir: Path = Path("out")
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))

    @property
    def is_raw(self) -> bool:
        return "raw_poly" in self.family


def is_number(v) -> bool:
    """A finite JSON number; Python's json module also parses NaN and Infinity."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return not isinstance(v, float) or math.isfinite(v)


def _require_number(obj, key, lo=None, hi=None, integer=False, label=None):
    v = obj[key]
    label = label or key
    if not is_number(v):
        raise ConfigError(label, "must be a finite number")
    if integer and int(v) != v:
        raise ConfigError(label, "must be an integer")
    if lo is not None and v < lo:
        raise ConfigError(label, f"must be >= {lo}")
    if hi is not None and v > hi:
        raise ConfigError(label, f"must be <= {hi}")
    return int(v) if integer else float(v)


def _require_schema_version(obj, label):
    version = obj.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(label, f"must be {SCHEMA_VERSION}")


def _validate_thresholds(thr: dict):
    """Check each threshold against the shape of its default, in place."""
    _require_schema_version(thr, "thresholds.schema_version")
    for key in thr:
        if key.endswith("_max"):
            thr[key] = _require_number(thr, key, label=f"thresholds.{key}")
    thr["p2_growth_allowance"] = _require_number(
        thr, "p2_growth_allowance", lo=0, integer=True, label="thresholds.p2_growth_allowance")
    thr["p2_targets"] = _require_number(
        thr, "p2_targets", lo=1, integer=True, label="thresholds.p2_targets")

    region = thr["p2_region"]
    if not isinstance(region, list) or len(region) != 4 or not all(map(is_number, region)):
        raise ConfigError("thresholds.p2_region",
                          "must be 4 finite numbers [re_lo, re_hi, im_lo, im_hi]")
    re_lo, re_hi, im_lo, im_hi = region
    if re_lo > re_hi or im_lo > im_hi:
        raise ConfigError("thresholds.p2_region", "needs re_lo <= re_hi and im_lo <= im_hi")
    if im_lo <= 0.0 <= im_hi and re_lo <= 1.0 and re_hi >= -1.0:
        raise ConfigError("thresholds.p2_region", "must have positive distance from [-1, 1]")

    points = thr["green_test_points"]
    if (not isinstance(points, list) or not points
            or not all(isinstance(pt, list) and len(pt) == 2 and all(map(is_number, pt))
                       for pt in points)):
        raise ConfigError("thresholds.green_test_points",
                          "must be a nonempty list of finite [re, im] pairs")


def validate_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config", "top level must be a JSON object")
    known = {"schema_version", "family", "n_list", "samples", "burn_in", "seed",
             "grid", "output_dir", "thresholds"}
    for key in obj:
        if key not in known:
            raise ConfigError(key, "unknown field")
    _require_schema_version(obj, "schema_version")
    family = obj.get("family")
    if not isinstance(family, dict):
        raise ConfigError("family", "must be an object (preset, Darboux data, or raw_poly)")
    if "raw_poly" in family:
        rp = family["raw_poly"]
        if (not isinstance(rp, list) or not rp or not all(map(is_number, rp))
                or Poly(rp).degree < 2):
            raise ConfigError("raw_poly", "must be a finite coefficient list of degree >= 2")

    n_list = obj.get("n_list", [])
    if not isinstance(n_list, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in n_list):
        raise ConfigError("n_list", "must be a list of integers")
    if any(v < 0 for v in n_list):
        raise ConfigError("n_list", "entries must be nonnegative")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list", "must be strictly ascending")

    cfg = ExperimentConfig(family=family, n_list=list(n_list))
    if "samples" in obj:
        cfg.samples = _require_number(obj, "samples", lo=1, hi=MAX_SAMPLES, integer=True)
    if "burn_in" in obj:
        cfg.burn_in = _require_number(obj, "burn_in", lo=1, hi=10 ** 5, integer=True)
    if "seed" in obj:
        cfg.seed = _require_number(obj, "seed", lo=0, hi=2 ** 64 - 1, integer=True)
    grid = dict(_GRID_DEFAULTS)
    if "grid" in obj:
        if not isinstance(obj["grid"], dict):
            raise ConfigError("grid", "must be an object")
        for key in obj["grid"]:
            if key not in _GRID_DEFAULTS:
                raise ConfigError(f"grid.{key}", "unknown field")
        grid.update(obj["grid"])
        grid["resolution"] = _require_number(grid, "resolution", lo=1, hi=MAX_RESOLUTION,
                                            integer=True)
        grid["max_iter"] = _require_number(grid, "max_iter", lo=1, hi=MAX_ITER, integer=True)
        grid["half_width"] = _require_number(grid, "half_width", lo=1e-9)
        grid["center_re"] = _require_number(grid, "center_re")
        grid["center_im"] = _require_number(grid, "center_im")
        center = complex(grid["center_re"], grid["center_im"])
        try:
            pixel_centers(center, grid["half_width"], grid["resolution"])
        except ValueError as err:
            raise ConfigError("grid", f"{err}; shrink center or half_width") from None
    cfg.grid = grid
    if "output_dir" in obj:
        if not isinstance(obj["output_dir"], str) or not obj["output_dir"]:
            raise ConfigError("output_dir", "must be a nonempty string")
        cfg.output_dir = Path(obj["output_dir"])
    thresholds = dict(DEFAULT_THRESHOLDS)
    if "thresholds" in obj:
        if not isinstance(obj["thresholds"], dict):
            raise ConfigError("thresholds", "must be an object")
        for key in obj["thresholds"]:
            if key not in DEFAULT_THRESHOLDS:
                raise ConfigError(f"thresholds.{key}", "unknown threshold")
        thresholds.update(obj["thresholds"])
    _validate_thresholds(thresholds)
    cfg.thresholds = thresholds
    return cfg


# ---------------------------------------------------------------------------
# JSON wire format

def from_json(obj: dict) -> DarbouxData:
    """Family from the wire schema.

    {"alpha": num, "beta": num, "eps1": +-1, "eps2": +-1, "b": [...],
     "bw": [...], "lambda_tilde": num, "preset": "x1"?}  -- coefficient lists
    ascending.  When "preset" is present the polynomial fields are ignored and
    (alpha, beta) are the preset's weight exponents.
    """
    if not isinstance(obj, dict):
        raise ConfigError("family", "must be a JSON object")
    for key in ("alpha", "beta"):
        if key not in obj:
            raise ConfigError(key, "missing")
        if not is_number(obj[key]):
            raise ConfigError(key, "must be a finite number")
    try:
        params = JacobiParams(float(obj["alpha"]), float(obj["beta"]))
    except ValueError as exc:
        raise ConfigError("alpha/beta", str(exc)) from exc
    preset = obj.get("preset")
    if preset is not None:
        if preset != "x1":
            raise ConfigError("preset", f"unknown preset {preset!r}")
        return make_x1_preset(params)
    for key in ("eps1", "eps2", "b", "bw", "lambda_tilde"):
        if key not in obj:
            raise ConfigError(key, "missing (required without a preset)")
    # the integers only: true == 1 and 1.0 == 1 in Python
    if not all(type(obj[key]) is int and obj[key] in (-1, 1) for key in ("eps1", "eps2")):
        raise ConfigError("eps1/eps2", "must be the integer +1 or -1")
    for key in ("b", "bw"):
        if not isinstance(obj[key], list) or not obj[key] or not all(map(is_number, obj[key])):
            raise ConfigError(key, "must be a nonempty list of finite numbers (ascending degree)")
    if not is_number(obj["lambda_tilde"]):
        raise ConfigError("lambda_tilde", "must be a finite number")
    return make_darboux_data(params, Poly(obj["b"]), Poly(obj["bw"]),
                             obj["eps1"], obj["eps2"],
                             float(obj["lambda_tilde"]))
