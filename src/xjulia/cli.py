"""Command-line surface: family configuration in, artifacts out.

Subcommands: zeros (classified zeros + KS diagnostics), julia (escape-time
PGM rasters), brolin (inverse-iteration samples + moment diagnostics), and
report (aggregated convergence tables with pass/fail verdicts).

Exit codes: 0 success, 1 numerical-contract failure, 2 configuration error.
Errors are emitted as one JSON object on stderr, and nothing else is: numpy's
floating-point warnings are off, and an artifact value that JSON cannot hold
(NaN or infinity) is a numerical failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dynamics, exceptional, measures
from .config import (DEFAULT_THRESHOLDS, SCHEMA_VERSION, ExperimentConfig, from_json,
                     is_number, validate_config)
from .errors import ConfigError, ValidationError, XjuliaError
from .jacobi import DEGREE_CAP
from .poly import Poly

GREEN_TEST_KEY = "green_test_points"

# Stock preset exponents: the pole of the weight sits close enough to [-1, 1]
# that the balanced-measure moments stay small at desk-scale n, yet far enough
# that the normalization constant does not drag the n-th-root asymptotics.
DEFAULT_ALPHA = 0.02
DEFAULT_BETA = 1.2

# (argparse attribute, config field) of each value flag; "grid.x" is x in grid
_VALUE_FLAGS = (("samples", "samples"), ("burn_in", "burn_in"), ("seed", "seed"),
                ("out", "output_dir"), ("resolution", "grid.resolution"),
                ("max_iter", "grid.max_iter"), ("half_width", "grid.half_width"))


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ConfigError, so they reach
    stderr as one JSON object like every other error; subparsers inherit it."""

    def error(self, message):
        raise ConfigError("argv", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xjulia",
        description="Exceptional Jacobi families, their Julia sets, and "
                    "equilibrium-measure diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("zeros", "classify zeros and compare against the arcsine law"),
            ("julia", "render escape-time rasters (binary PGM)"),
            ("brolin", "sample the balanced measure by inverse iteration"),
            ("report", "aggregate prior outputs into one verdict table")):
        p = sub.add_parser(name, help=help_text)
        _add_flags(p)
    return parser


def _add_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON experiment config path")
    family = p.add_mutually_exclusive_group()
    family.add_argument("--preset", help="named family preset (x1)")
    family.add_argument("--raw-poly", help="comma-separated monomial coefficients, ascending")
    p.add_argument("--alpha", type=float, help="preset weight exponent alpha")
    p.add_argument("--beta", type=float, help="preset weight exponent beta")
    indices = p.add_mutually_exclusive_group()
    indices.add_argument("--n", type=int, help="single family index (shorthand for --n-list N)")
    indices.add_argument("--n-list", help="comma-separated ascending family indices")
    p.add_argument("--samples", type=int, help="inverse-iteration sample count")
    p.add_argument("--burn-in", type=int, help="inverse-iteration burn-in steps")
    p.add_argument("--seed", type=int, help="64-bit RNG seed")
    p.add_argument("--resolution", type=int, help="raster pixels per side")
    p.add_argument("--max-iter", type=int, help="raster iteration budget")
    p.add_argument("--half-width", type=float, help="raster window half-width")
    p.add_argument("--out", help="output directory")
    p.add_argument("--threshold", action="append", default=[],
                   metavar="KEY=VALUE", help="override one report threshold")


def resolve_config(args) -> ExperimentConfig:
    obj = {}
    if args.config:
        try:
            obj = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"malformed JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("config", "top level must be a JSON object")

    if args.raw_poly is not None:
        try:
            coeffs = [float(tok) for tok in args.raw_poly.split(",")]
        except ValueError as exc:
            raise ConfigError("raw_poly", f"bad coefficient list: {exc}") from exc
        obj["family"] = {"raw_poly": coeffs}
    if args.preset is not None:
        fam = {"preset": args.preset,
               "alpha": args.alpha if args.alpha is not None else DEFAULT_ALPHA,
               "beta": args.beta if args.beta is not None else DEFAULT_BETA}
        obj["family"] = fam
    elif args.alpha is not None or args.beta is not None:
        fam = obj.get("family")
        if isinstance(fam, dict) and "preset" in fam:
            if args.alpha is not None:
                fam["alpha"] = args.alpha
            if args.beta is not None:
                fam["beta"] = args.beta
        else:
            raise ConfigError("alpha/beta", "only meaningful with --preset (or a preset family)")
    if "family" not in obj:
        raise ConfigError("family", "missing: provide --config, --preset, or --raw-poly")

    if args.n_list is not None:
        try:
            obj["n_list"] = [int(tok) for tok in args.n_list.split(",") if tok]
        except ValueError as exc:
            raise ConfigError("n_list", f"bad integer list: {exc}") from exc
    elif args.n is not None:
        obj["n_list"] = [args.n]
    obj.setdefault("n_list", [])

    overrides = [(path, getattr(args, attr)) for attr, path in _VALUE_FLAGS
                 if getattr(args, attr) is not None]
    for spec in args.threshold:
        if "=" not in spec:
            raise ConfigError("threshold", f"expected KEY=VALUE, got {spec!r}")
        key, _, raw = spec.partition("=")
        if key not in DEFAULT_THRESHOLDS:
            raise ConfigError("threshold", f"unknown threshold {key!r}")
        try:
            overrides.append((f"thresholds.{key}", json.loads(raw)))
        except json.JSONDecodeError as exc:
            raise ConfigError("threshold", f"bad value for {key}: {exc}") from exc
    for path, val in overrides:
        *outer, key = path.split(".")
        target = obj.setdefault(outer[0], {}) if outer else obj
        if isinstance(target, dict):    # validate_config refuses another grid or thresholds
            target[key] = val
    return validate_config(obj)


def _family_data(cfg: ExperimentConfig, min_degree: int):
    """The Darboux family, once every member P_n, n in cfg.n_list, is within the
    degree cap and of degree >= min_degree."""
    if cfg.is_raw:
        raise ConfigError("family", "this command needs a Darboux family, not raw_poly")
    data = from_json(cfg.family)
    for n in cfg.n_list:
        if n + data.m > DEGREE_CAP:
            raise ConfigError("n_list", f"n + m = {n + data.m} exceeds the degree cap {DEGREE_CAP}")
        if exceptional.exceptional_degree(data, n) < min_degree:
            raise ConfigError("n_list", f"P_{n} has degree < {min_degree}; "
                                        f"this command needs degree >= {min_degree}")
    return data


def _poly_schedule(cfg: ExperimentConfig):
    """[(label, n or None, Poly)] to run dynamics over."""
    if cfg.is_raw:
        return [("raw", None, Poly(cfg.family["raw_poly"]))]
    data = _family_data(cfg, 2)
    return [(f"n{n}", n, exceptional.monomial_coeffs(data, n)) for n in cfg.n_list]


def _write(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload)
    print(path)


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"an artifact value is not finite: {exc}") from exc


def _write_member(path: Path, payload, record: dict):
    """One family member's data file and, beside it with suffix .json, its
    record, serialized before either is written: a record that JSON cannot
    hold raises ValidationError and leaves neither file."""
    text = _json_text(record)
    _write(path, payload)
    _write(path.with_suffix(".json"), text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_zeros(cfg: ExperimentConfig) -> int:
    data = _family_data(cfg, 1)
    for n in cfg.n_list:
        zc = exceptional.classify_zeros(data, n)
        mu = exceptional.zero_counting_measure(zc)
        ks = measures.ks_distance_real(mu, measures.arcsine_cdf)
        exc_dist = float(zc.exceptional_dist[-1]) if len(zc.exceptional_dist) else None
        _write_member(cfg.output_dir / f"zeros_n{n}.csv", exceptional.classification_to_csv(zc), {
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "ks": ks,
            "exc_dist": exc_dist,
        })
    return 0


def cmd_julia(cfg: ExperimentConfig) -> int:
    grid = cfg.grid
    center = complex(grid["center_re"], grid["center_im"])
    for label, n, poly in _poly_schedule(cfg):
        e = dynamics.escape_radius(poly)
        raster = dynamics.escape_raster(e, center=center, half_width=grid["half_width"],
                                        resolution=grid["resolution"],
                                        max_iter=grid["max_iter"])
        _write_member(cfg.output_dir / f"julia_{label}.pgm", dynamics.raster_to_pgm(raster), {
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "R_p": e.r_escape,
        })
    return 0


def cmd_brolin(cfg: ExperimentConfig) -> int:
    schedule = _poly_schedule(cfg)
    if not schedule:
        return 0
    datas = dynamics.batch_escape_data([poly for _, _, poly in schedule])
    max_moms, mean_ims, bounds = [], [], []
    for (label, n, _), e in zip(schedule, datas):
        sample = dynamics.brolin_sample(e, cfg.samples, burn_in=cfg.burn_in,
                                        seed=cfg.seed)
        mu = sample.to_measure()
        moments = measures.chebyshev_moments(mu, 6)[1:]
        max_abs = float(np.max(np.abs(moments)))
        mean_im = float(np.mean(np.abs(sample.points.imag)))
        bound = float(np.max(np.abs(sample.points)))
        max_moms.append(max_abs)
        mean_ims.append(mean_im)
        bounds.append(bound)
        _write_member(cfg.output_dir / f"brolin_{label}.csv", mu.to_csv(), {
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "moments": [[m.real, m.imag] for m in moments],
            "max_abs_moment": max_abs,
            "mean_abs_im": mean_im,
            "bound": bound,
            "R_p": e.r_escape,
        })
    if not cfg.is_raw:
        _write(cfg.output_dir / "brolin_summary.json", _json_text({
            "schema_version": SCHEMA_VERSION,
            "n_list": cfg.n_list,
            "max_abs_moment": max_moms,
            "mean_abs_im": mean_ims,
            "bound": bounds,
            "r_uniform": datas[0].r_uniform,
            "moment_trend_decreasing": _strictly_decreasing(max_moms),
            "im_trend_decreasing": _strictly_decreasing(mean_ims),
        }))
    return 0


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


# what report reads from the prior outputs, with a check of each value
_ZEROS_FIELDS = {"ks": is_number, "exc_dist": lambda v: v is None or is_number(v)}
_BROLIN_FIELDS = {"max_abs_moment": is_number, "mean_abs_im": is_number,
                  "moments": lambda v: isinstance(v, list)}


def _read_prior(path: Path, parse):
    """parse(text) of a prior output; a ConfigError on output_dir when the file
    cannot be read or parsed."""
    try:
        return parse(path.read_text())
    except (OSError, ValueError, XjuliaError) as exc:
        raise ConfigError("output_dir", f"cannot read {path}: {exc}") from exc


def _load_json(path: Path, fields):
    """A prior output's JSON object, or None when the file is missing."""
    if not path.exists():
        return None
    obj = _read_prior(path, json.loads)
    if not (isinstance(obj, dict) and all(k in obj and ok(obj[k]) for k, ok in fields.items())):
        raise ConfigError("output_dir", f"{path} is not an object with valid {', '.join(fields)}")
    return obj


def cmd_report(cfg: ExperimentConfig) -> int:
    data = _family_data(cfg, 1)
    thr = cfg.thresholds
    n_list = cfg.n_list
    if not n_list or n_list[0] < 1:
        raise ConfigError("n_list", "report needs a nonempty n_list of indices >= 1")

    zeros_diag = [_load_json(cfg.output_dir / f"zeros_n{n}.json", _ZEROS_FIELDS) for n in n_list]
    brolin_diag = [_load_json(cfg.output_dir / f"brolin_n{n}.json", _BROLIN_FIELDS)
                   for n in n_list]
    have_zeros = all(d is not None for d in zeros_diag)
    have_brolin = all(d is not None for d in brolin_diag)
    if not have_zeros and not have_brolin:
        raise ConfigError("output_dir",
                          "no prior outputs found; run the zeros command (and brolin) first")

    # leading-coefficient root table: computed directly, no files needed
    gaps = [abs(exceptional.leading_coeff_exceptional(data, n) ** (1.0 / n) - 2.0)
            for n in n_list]
    lead_section = {
        "n": n_list,
        "gap": gaps,
        "pass": bool(gaps[-1] <= thr["lead_root_gap_max"] and _strictly_decreasing(gaps)),
    }

    pts = [complex(re, im) for re, im in thr[GREEN_TEST_KEY]]
    green_rows = []
    green_ok = True
    for z in pts:
        g = measures.green_complement_interval(z)
        row = [abs(float(np.log(abs(exceptional.eval_exceptional(data, n, z)))) / n - g)
               for n in n_list]
        green_rows.append({"z": [z.real, z.imag], "gap": row})
        green_ok = green_ok and row[-1] <= thr["green_gap_max"] and _strictly_decreasing(row)
    green_section = {"points": green_rows, "pass": bool(green_ok)}
    worst_green = [max(r["gap"][i] for r in green_rows) for i in range(len(n_list))]

    zeros_section = brolin_section = p2_section = None
    if have_zeros:
        ks = [d["ks"] for d in zeros_diag]
        exc_dist = [d["exc_dist"] for d in zeros_diag]
        ok = (ks[-1] <= thr["ks_max"] and ks[-1] < ks[0]
              and all(d is not None for d in exc_dist)
              and _strictly_decreasing(exc_dist))
        zeros_section = {"n": n_list, "ks": ks, "exc_dist": exc_dist, "pass": bool(ok)}

    if have_brolin:
        moms = [d["max_abs_moment"] for d in brolin_diag]
        ims = [d["mean_abs_im"] for d in brolin_diag]
        ok = (moms[-1] <= thr["moment_max"] and _strictly_decreasing(moms)
              and _strictly_decreasing(ims))
        brolin_section = {"n": n_list, "max_abs_moment": moms, "mean_abs_im": ims,
                          "pass": bool(ok)}

        region = tuple(thr["p2_region"])
        counts = []
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        for n in n_list:
            # EmpiricalMeasure refuses an empty or non-finite sample
            pts_n = _read_prior(cfg.output_dir / f"brolin_n{n}.csv",
                                lambda text: measures.EmpiricalMeasure.from_csv(text).points)
            e = dynamics.escape_radius(exceptional.monomial_coeffs(data, n))
            targets = rng.choice(pts_n, size=min(thr["p2_targets"], len(pts_n)), replace=False)
            counts.append(max(dynamics.preimage_count_in_set(e, w, region) for w in targets))
        half = max(1, len(counts) // 2)
        ok = max(counts[half:] or counts) <= max(counts[:half]) + thr["p2_growth_allowance"]
        p2_section = {"n": n_list, "max_count": counts, "pass": bool(ok)}

    sections = {
        "leading_coeff_root": lead_section,
        "green_gap": green_section,
        "zero_counting": zeros_section,
        "brolin_moments": brolin_section,
        "preimage_counts": p2_section,
    }
    per_n = []
    for i, n in enumerate(n_list):
        per_n.append({
            "n": n,
            "ks": zeros_diag[i]["ks"] if have_zeros else None,
            "moments": brolin_diag[i]["moments"] if have_brolin else None,
            "green_gap": worst_green[i],
        })
    present = [s for s in sections.values() if s is not None]
    if len(present) < len(sections):
        overall = None
    else:
        overall = bool(all(s["pass"] for s in present))
    _write(cfg.output_dir / "report.json", _json_text({
        "schema_version": SCHEMA_VERSION,
        "n_list": n_list,
        "thresholds": thr,
        "per_n": per_n,
        "sections": sections,
        "pass": overall,
    }))
    return 0


# ---------------------------------------------------------------------------

_COMMANDS = {
    "zeros": cmd_zeros,
    "julia": cmd_julia,
    "brolin": cmd_brolin,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        # overflow on a huge raw polynomial is expected: what it leaves is
        # refused by the solvers' gates or by _json_text, not warned about
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        sys.stderr.write(_json_text({"error": "config", "field": exc.field,
                                     "message": exc.message}))
        return 2
    except XjuliaError as exc:
        sys.stderr.write(_json_text({"error": "numerical", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
