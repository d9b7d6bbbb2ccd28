"""Config-driven experiment runner.

Subcommands:
  validate   parse the config, build and validate the geometry, try holes
  run        hitting experiments per hole radius plus requested checks
  check      "cones" or "invariants" diagnostics only
  inducing   return-time tail CSV and the Kac defect

Configs are YAML with `version: 1`.  All randomness flows from the single
`run.seed`; CSV outputs are byte-identical for equal config + seed.
Exit codes: 0 done, 2 config/geometry validation failure, 3 threshold breach
under --enforce.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from . import __version__
from .cones import cone_invariance_scan
from .geometry import GeometryError, build_table, make_hole, validate_table
from .inducing import base_returns, kac_defect
from .measure import invariance_defect
from .openstats import (
    collect_hitting_family,
    count_statistics,
    ks_exp1,
    quasi_section_defect,
    short_return_fraction,
    survival_curve,
)

DEFAULT_THRESHOLDS = {
    "ks": 0.05,
    "tv": 0.05,
    "kac": 0.01,
    "invariance": 0.005,
    "cone_violations": 0,
}

CHECK_DEFAULTS = {
    "cone_points": 20000,
    "cone_vectors": 10,
    "kac_samples": 200000,
    "invariance_samples": 200000,
    "return_cap": 10000,
    "short_return_hits": 20000,
    "quasi_orbits": 2000,
}

DEFAULT_T_MAX = 50.0


class ConfigError(ValueError):
    pass


def load_config(path):
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as e:
        raise ConfigError(f"config is not valid YAML: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    if cfg.get("version") != 1:
        raise ConfigError("config must declare version: 1")
    return cfg


def build_from_config(cfg):
    table_spec = cfg.get("table")
    if not isinstance(table_spec, dict) or "class" not in table_spec:
        raise ConfigError("config needs table: {class: ..., <params>}")
    params = {k: v for k, v in table_spec.items() if k != "class"}
    try:
        return build_table(table_spec["class"], **params)
    except TypeError as e:
        raise ConfigError(f"bad table parameters: {e}") from e


def _config_errors(cfg):
    """Schema-level problems, as human-readable strings."""
    errors = []
    hole = cfg.get("hole")
    if hole is not None:
        if not isinstance(hole, dict) or "center_s" not in hole \
                or "radii" not in hole:
            errors.append("hole needs center_s and radii")
        else:
            radii = hole["radii"]
            if not _is_number(hole["center_s"]):
                errors.append("hole.center_s must be a number")
            if not isinstance(radii, (list, tuple)) or not radii:
                errors.append("hole.radii must be a non-empty list")
            elif not all(_is_number(r) for r in radii):
                errors.append("hole radii must be numbers")
            elif any(r <= 0 for r in radii):
                errors.append("hole radii must be positive")
            elif list(radii) != sorted(radii, reverse=True) \
                    or len(set(radii)) != len(radii):
                errors.append("hole.radii must be strictly decreasing")
    run = cfg.get("run")
    if run is not None:
        if "seed" not in run:
            errors.append("run.seed is required (no wall-clock default)")
        elif _seed_error(run["seed"]):
            errors.append(_seed_error(run["seed"]))
        if run.get("n_orbits", 1) < 1:
            errors.append("run.n_orbits must be >= 1")
        t_max = run.get("t_max", DEFAULT_T_MAX)
        for pair in run.get("intervals", []):
            if len(pair) != 2 or not (0 <= pair[0] < pair[1]):
                errors.append(f"bad interval {pair}")
            elif _is_number(t_max) and pair[1] > t_max:
                errors.append(f"interval {pair} ends past run.t_max {t_max}")
    return errors


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _seed_error(seed):
    """Why seed cannot key the Philox generator, or None."""
    if not (isinstance(seed, int) and not isinstance(seed, bool)
            and 0 <= seed < 2 ** 64):
        return f"run.seed must be an integer in [0, 2**64), got {seed!r}"


def _hole_errors(table, cfg):
    errors = []
    hole = cfg.get("hole")
    # a malformed hole section is already reported by _config_errors
    if hole is not None and not _config_errors({"hole": hole}):
        for r in hole["radii"]:
            try:
                make_hole(table, float(hole["center_s"]), float(r))
            except GeometryError as e:
                errors.append(f"hole r={r}: {e}")
    return errors


def _validated_table(cfg):
    """The table of cfg, or None after reporting every schema, geometry and
    hole problem on stderr."""
    errors, violations, table = _config_errors(cfg), [], None
    try:
        table = build_from_config(cfg)
    except (ConfigError, GeometryError) as e:
        errors.append(f"table: {e}")
    if table is not None:
        violations = validate_table(table)
        errors.extend(_hole_errors(table, cfg))
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return None if errors or violations else table


def cmd_validate(args):
    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if _validated_table(cfg) is None:
        return 2
    print("ok")
    return 0


def _out_dir(cfg, args):
    out = args.out or cfg.get("out", "results")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e}") from e
    return path


def _fmt(x):
    """Full-precision, locale-independent float text for CSV cells."""
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _manifest(path, cfg, table, seed):
    _write_json(path / "manifest.json", {
        "config": cfg,
        "resolved_seed": seed,
        "table_class": table.class_tag,
        "perimeter": table.perimeter,
        "package_version": __version__,
    })


def _seed_of(cfg, args):
    run = cfg.get("run", {})
    seed = args.seed if args.seed is not None else run.get("seed")
    if seed is None:
        raise ConfigError("run.seed is required (or pass --seed)")
    if _seed_error(seed):
        raise ConfigError(_seed_error(seed))
    return seed


def _cones_result(table, n_points, n_vectors, seed):
    rep = cone_invariance_scan(table, n_points, n_vectors, seed)
    return {
        "n_pairs": rep.n_pairs, "violations": rep.n_violations,
        "worst_margin": rep.worst_margin,
        "vertical_min_margin": rep.vertical_min_margin,
        "transversality_violations": rep.transversality_violations,
        "censored_fraction": rep.censored_fraction,
    }


def _invariants_result(table, n_samples, seed):
    rep = invariance_defect(table, n_samples, seed)
    return {"ks_phi": rep.ks_phi, "ks_s": rep.ks_s, "n": rep.n,
            "censored_fraction": rep.censored_fraction}


def _kac_result(table, n_samples, cap, seed):
    rep = kac_defect(table, n_samples, cap, seed)
    return {"defect": rep.defect, "mu_x": rep.mu_x, "mean_R": rep.mean_R,
            "censored_fraction": rep.censored_fraction}


def cmd_run(args):
    cfg = load_config(args.config)
    table = _validated_table(cfg)
    if table is None:
        return 2
    seed, out = _seed_of(cfg, args), _out_dir(cfg, args)

    run = cfg.get("run", {})
    checks = cfg.get("checks", {})
    budgets = {**CHECK_DEFAULTS, **cfg.get("budgets", {})}
    thresholds = {**DEFAULT_THRESHOLDS, **cfg.get("thresholds", {})}
    n_orbits = int(run.get("n_orbits", 1000))
    t_max = float(run.get("t_max", DEFAULT_T_MAX))
    intervals = [tuple(map(float, p)) for p in run.get("intervals", [])]

    _manifest(out, cfg, table, seed)
    summary = {"table_class": table.class_tag, "seed": seed, "radii": [],
               "per_radius": {}, "checks": {}}

    hole_spec = cfg.get("hole")
    if hole_spec:
        center = float(hole_spec["center_s"])
        radii = [float(r) for r in hole_spec["radii"]]
        holes = [make_hole(table, center, r) for r in radii]
        t0 = perf_counter()
        family = collect_hitting_family(table, holes, n_orbits, t_max, seed)
        summary["march_s"] = perf_counter() - t0
        for r, hole, data in zip(radii, holes, family):
            t0 = perf_counter()
            tag = f"r_{r:g}"
            rdir = out / tag
            rdir.mkdir(exist_ok=True)
            fh = data.first_hits()
            eligible = ~data.censored_before_first_hit()
            finite = fh[eligible][np.isfinite(fh[eligible])]
            ks = ks_exp1(finite) if finite.size else None

            grid = np.linspace(0.0, min(5.0, t_max), 101)
            sc = survival_curve(data, grid)
            _write_csv(rdir / "hits.csv",
                       ["orbit", "index", "normalized_time"],
                       zip(data.hit_orbit, data.hit_index,
                           (_fmt(v) for v in data.normalized_times)))
            _write_csv(rdir / "survival.csv",
                       ["t", "empirical", "exponential"],
                       zip((_fmt(v) for v in sc.t),
                           (_fmt(v) for v in sc.empirical),
                           (_fmt(v) for v in sc.exponential)))
            entry = {
                "mu": hole.measure, "ks_exp1": ks,
                "survival_at_1": float(sc.empirical[np.argmin(np.abs(grid - 1.0))]),
                "censored_fraction": data.censored_fraction,
                "excluded_before_first_hit": sc.excluded_fraction,
                "n_orbits": n_orbits,
            }
            if intervals:
                cr = count_statistics(data, intervals)
                rows = [(i, k, int(cr.counts[i, k]))
                        for i in range(cr.counts.shape[0])
                        for k in range(len(cr.intervals))]
                _write_csv(rdir / "counts.csv",
                           ["orbit", "interval", "count"], rows)
                entry["tv"] = [float(v) for v in cr.tv]
                entry["count_means"] = [float(v) for v in cr.means]
                if len(cr.intervals) > 1:
                    entry["count_correlation"] = float(cr.correlations[0, 1])
            diag = {"censoring": entry["censored_fraction"]}
            if checks.get("short_returns"):
                srr = short_return_fraction(
                    table, hole, n_hits=budgets["short_return_hits"],
                    seed=seed)
                entry["short_return_fraction"] = srr.fraction
                diag["short_return"] = {
                    "fraction": srr.fraction, "p": srr.p,
                    "n_pairs": srr.n_pairs,
                }
            if checks.get("quasi_section"):
                q = quasi_section_defect(
                    table, hole, budgets["quasi_orbits"], seed)
                entry["quasi_section_defect"] = q.defect
                diag["quasi_section"] = {
                    "defect": q.defect, "host_kind": q.host_kind,
                    "n_excursions": q.n_excursions_with_hit,
                }
            _write_json(rdir / "diagnostics.json", diag)
            entry["runtime_s"] = perf_counter() - t0
            summary["radii"].append(r)
            summary["per_radius"][tag] = entry

    for name, result, *budget in (
            ("cones", _cones_result, "cone_points", "cone_vectors"),
            ("invariance", _invariants_result, "invariance_samples"),
            ("kac", _kac_result, "kac_samples", "return_cap")):
        if checks.get(name):
            t0 = perf_counter()
            entry = result(table, *(budgets[b] for b in budget), seed)
            entry["runtime_s"] = perf_counter() - t0
            summary["checks"][name] = entry

    _write_json(out / "summary.json", summary)

    if args.enforce:
        breaches = _enforce(summary, thresholds)
        if breaches:
            for b in breaches:
                print(f"threshold breach: {b}", file=sys.stderr)
            return 3
    return 0


def _enforce(summary, thresholds):
    """Threshold checks at the smallest radius plus global checks."""
    breaches = []
    if summary["radii"]:
        tag = f"r_{min(summary['radii']):g}"
        entry = summary["per_radius"][tag]
        if entry.get("ks_exp1") is not None \
                and entry["ks_exp1"] >= thresholds["ks"]:
            breaches.append(f"{tag}: ks_exp1 {entry['ks_exp1']:.4f} "
                            f">= {thresholds['ks']}")
        for v in entry.get("tv", []):
            if v >= thresholds["tv"]:
                breaches.append(f"{tag}: tv {v:.4f} >= {thresholds['tv']}")
    cones = summary["checks"].get("cones")
    if cones and cones["violations"] > thresholds["cone_violations"]:
        breaches.append(f"cone violations {cones['violations']}")
    inv = summary["checks"].get("invariance")
    if inv and max(inv["ks_phi"], inv["ks_s"]) >= thresholds["invariance"]:
        breaches.append("invariance KS above threshold")
    kac = summary["checks"].get("kac")
    if kac and kac["defect"] >= thresholds["kac"]:
        breaches.append(f"kac defect {kac['defect']:.4f}")
    return breaches


def cmd_check(args):
    cfg = load_config(args.config)
    table = build_from_config(cfg)
    seed, out = _seed_of(cfg, args), _out_dir(cfg, args)
    budgets = {**CHECK_DEFAULTS, **cfg.get("budgets", {})}
    thresholds = {**DEFAULT_THRESHOLDS, **cfg.get("thresholds", {})}
    if args.what == "cones":
        result = _cones_result(
            table, args.points or budgets["cone_points"],
            args.vectors or budgets["cone_vectors"], seed)
        breach = result["violations"] > thresholds["cone_violations"]
    else:
        result = _invariants_result(
            table, args.samples or budgets["invariance_samples"], seed)
        breach = max(result["ks_phi"], result["ks_s"]) \
            >= thresholds["invariance"]
    _write_json(out / f"{args.what}.json", result)
    print(json.dumps(result, sort_keys=True))
    return 3 if args.enforce and breach else 0


def cmd_inducing(args):
    cfg = load_config(args.config)
    table = build_from_config(cfg)
    seed, out = _seed_of(cfg, args), _out_dir(cfg, args)
    budgets = {**CHECK_DEFAULTS, **cfg.get("budgets", {})}
    samples = args.samples or budgets["kac_samples"]
    cap = args.cap or budgets["return_cap"]
    returns = base_returns(table, samples, cap, seed)
    tail, kac = returns.tail(), returns.kac()
    _write_csv(out / "return_tail.csv", ["n", "survival", "count"],
               zip(tail.n, (_fmt(v) for v in tail.survival), tail.count))
    result = {
        "kac_defect": kac.defect, "mu_x": kac.mu_x, "mean_R": kac.mean_R,
        "n_base": kac.n_base, "censored_fraction": kac.censored_fraction,
        "tail_max_n": int(tail.n[-1]) if tail.n.size else 0,
        "cap_fraction": tail.cap_fraction,
    }
    _write_json(out / "inducing.json", result)
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="billiards",
        description="billiard-table experiments: hitting statistics, "
                    "cone checks, inducing diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="YAML config (version: 1)")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--enforce", action="store_true",
                       help="exit 3 when thresholds are breached")

    p_val = sub.add_parser("validate", help="check config and geometry only")
    p_val.add_argument("config")

    p_run = sub.add_parser("run", help="hitting experiments plus checks")
    common(p_run)

    p_chk = sub.add_parser("check", help="single diagnostic")
    p_chk.add_argument("what", choices=["cones", "invariants"])
    common(p_chk)
    p_chk.add_argument("--points", type=int)
    p_chk.add_argument("--vectors", type=int)
    p_chk.add_argument("--samples", type=int)

    p_ind = sub.add_parser("inducing", help="return-time tail and Kac defect")
    common(p_ind)
    p_ind.add_argument("--samples", type=int)
    p_ind.add_argument("--cap", type=int)

    args = parser.parse_args(argv)
    command = {"validate": cmd_validate, "run": cmd_run, "check": cmd_check,
               "inducing": cmd_inducing}[args.command]
    try:
        return command(args)
    except (ConfigError, GeometryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
