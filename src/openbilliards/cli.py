"""Config-driven experiment runner.

Subcommands:
  validate   parse the config, build and validate the geometry, try holes
  run        hitting experiments per hole radius plus requested checks
  check      "cones" or "invariants" diagnostics only
  inducing   return-time tail CSV and the Kac defect

Configs are YAML with `version: 1`.  All randomness flows from the single
`run.seed`; CSV outputs are byte-identical for equal config + seed.  JSON
outputs are strict (RFC 8259): an undefined statistic is written as null.
Exit codes: 0 done, 2 config/geometry validation failure, 3 threshold breach
under --enforce (an enforced statistic that is undefined breaches too).
"""

from __future__ import annotations

import argparse
import csv
import difflib
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from . import __version__
from .cones import cone_invariance_scan
from .geometry import (GeometryError, _is_real, build_table, make_hole,
                       validate_table)
from .inducing import base_returns
from .measure import invariance_defect
from .openstats import (
    CHECK_T_MAX,
    collect_hitting_family,
    count_statistics,
    short_return_orbits,
    survival_curve,
)


class ConfigError(ValueError):
    """A rejected config; each argument is one problem."""


def _is_radii(r):
    return isinstance(r, list) and r != [] and all(map(_is_real, r)) \
        and r[-1] > 0 and all(a > b for a, b in zip(r, r[1:]))


def _is_intervals(pairs):
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_real, p))
            and 0 <= p[0] < p[1] for p in pairs)):
        return False
    srt = sorted(pairs)     # any overlap shows up between neighbours
    return all(b0 <= a1 for (_, b0), (a1, _) in zip(srt, srt[1:]))


_COUNT = (lambda x: type(x) is int and x >= 1, "an integer >= 1")
_LEVEL = (lambda x: _is_real(x) and x >= 0, "a finite number >= 0")
_FLAG = (lambda x: isinstance(x, bool), "true or false")

# section -> key -> ((test, what a value must be), default); a default of
# ... marks a required key.
SCHEMA = {
    "hole": {
        "center_s": ((_is_real, "a finite number"), ...),
        "radii": ((_is_radii, "numbers, positive and strictly decreasing"),
                  ...),
    },
    "run": {
        "seed": ((lambda x: type(x) is int and 0 <= x < 2 ** 64,
                  "an integer in [0, 2**64)"), ...),
        "n_orbits": (_COUNT, 1000),
        "t_max": ((lambda x: _is_real(x) and x > 0, "a finite number > 0"),
                  50.0),
        "intervals": ((_is_intervals, "disjoint [a, b] with 0 <= a < b"),
                      []),
    },
    "checks": dict.fromkeys(("cones", "invariance", "kac", "short_returns",
                             "quasi_section"), (_FLAG, False)),
    "budgets": {
        "cone_points": (_COUNT, 20000),
        "cone_vectors": (_COUNT, 10),
        "kac_samples": (_COUNT, 200000),
        "invariance_samples": (_COUNT, 200000),
        "return_cap": (_COUNT, 10000),
        "short_return_hits": (_COUNT, 20000),
        "quasi_orbits": (_COUNT, 2000),
    },
    "thresholds": {
        "ks": (_LEVEL, 0.05),
        "tv": (_LEVEL, 0.05),
        "kac": (_LEVEL, 0.01),
        "invariance": (_LEVEL, 0.005),
        "cone_violations": ((lambda x: type(x) is int and x >= 0,
                             "an integer >= 0"), 0),
    },
}


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
    if type(cfg.get("version")) is not int or cfg["version"] != 1:
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


def _unknown_keys(given, known, prefix):
    for key in given:
        if key not in known:
            close = difflib.get_close_matches(str(key), known, n=1)
            hint = f" (did you mean {prefix}{close[0]}?)" if close else ""
            yield f"unknown key {prefix}{key}{hint}"


def _resolve(cfg, overrides):
    """(cfg with every default applied, a list of its problems).

    A key takes its value from overrides (by dotted path; None is not
    given), else from cfg, else from SCHEMA.  A section with a problem
    resolves to None, and so does an absent hole section: no hole runs.
    """
    problems = [*_unknown_keys(cfg, ("version", "table", "out", *SCHEMA), "")]
    out = overrides.get("out")
    conf = {"version": cfg["version"], "table": cfg.get("table"),
            "out": cfg.get("out", "results") if out is None else out}
    if not isinstance(conf["out"], str):
        problems.append(f"out must be a string, got {conf['out']!r}")
    for name, keys in SCHEMA.items():
        given, conf[name] = cfg.get(name), None
        if given is None and name == "hole":
            continue
        given = {} if given is None else given
        if not isinstance(given, dict):
            problems.append(f"{name} must be a mapping, got {given!r}")
            continue
        problems += _unknown_keys(given, keys, name + ".")
        section = {}
        for key, ((test, wants), default) in keys.items():
            path = f"{name}.{key}"
            value = overrides.get(path)
            value = given.get(key, default) if value is None else value
            if value is ...:
                problems.append(f"{path} is required")
            elif not test(value):
                problems.append(f"{path} must be {wants}, got {value!r}")
            else:
                section[key] = value
        conf[name] = section if len(section) == len(keys) else None
    run = conf["run"]
    for pair in run["intervals"] if run else ():
        if pair[1] > run["t_max"]:
            problems.append(
                f"interval {pair} ends past run.t_max {run['t_max']}")
    return conf, problems


def _prepare(args, place_holes):
    """Every command's preamble: the resolved config, table and holes.

    Raises ConfigError naming every problem.  Only place_holes rejects
    every table violation and places the holes; `check` and `inducing`
    reject only crossing components, so they run on tables that break the
    separated focusing condition (the negative control of `check cones`).
    """
    cfg = load_config(args.config)
    conf, problems = _resolve(cfg, vars(args))
    table, holes = None, []
    try:
        table = build_from_config(cfg)
    except (ConfigError, GeometryError) as e:
        problems.append(f"table: {e}")
    if table is not None:
        problems += [f"table violation {v}" for v in validate_table(table)
                     if place_holes or v.kind == "components_intersect"]
    if place_holes and table is not None:
        hole, run, checks = conf["hole"], conf["run"], conf["checks"]
        # the longest normalized horizon any march of a hole runs to
        t = run["t_max"] if run else 0.0
        if checks and (checks["short_returns"] or checks["quasi_section"]):
            t = max(t, CHECK_T_MAX)
        for r in hole["radii"] if hole else ():
            try:
                holes.append(make_hole(table, hole["center_s"], r))
            except GeometryError as e:
                problems.append(f"hole r={r}: {e}")
        # ceil(t / mu) collisions must fit an int64; mu = 0 fails too
        problems += [f"hole r={h.radius}: horizon {t:g} / mu {h.measure:g} "
                     "is past 2**63 collisions"
                     for h in holes if t >= 2 ** 63 * h.measure]
    if problems:
        raise ConfigError(*problems)
    return conf, table, holes


def cmd_validate(args):
    _prepare(args, place_holes=True)
    print("ok")
    return 0


def _out_dir(conf):
    path = Path(conf["out"])
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e
    return path


def _fmt(x):
    """Full-precision, locale-independent float text for CSV cells; a value
    that is not finite is an empty cell, the CSV form of JSON null."""
    return repr(float(x)) if math.isfinite(x) else ""


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _json(obj, indent=None):
    """Strict JSON text of obj (RFC 8259): NaN and infinities become null."""
    plain = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(plain, indent=indent, sort_keys=True, allow_nan=False)


def _write_json(path, obj):
    Path(path).write_text(_json(obj, indent=2) + "\n")


def _check_result(name, table, budgets, seed):
    """The report of check `name`: "cones", "invariance" or "kac"."""
    if name == "cones":
        rep = cone_invariance_scan(table, budgets["cone_points"],
                                   budgets["cone_vectors"], seed)
        return {
            "n_pairs": rep.n_pairs, "violations": rep.n_violations,
            "worst_margin": rep.worst_margin,
            "vertical_min_margin": rep.vertical_min_margin,
            "transversality_violations": rep.transversality_violations,
            "censored_fraction": rep.censored_fraction,
        }
    if name == "invariance":
        rep = invariance_defect(table, budgets["invariance_samples"], seed)
        return {"ks_phi": rep.ks_phi, "ks_s": rep.ks_s, "n": rep.n,
                "censored_fraction": rep.censored_fraction}
    rep = base_returns(table, budgets["kac_samples"], budgets["return_cap"],
                       seed).kac()
    return {"defect": rep.defect, "mu_x": rep.mu_x, "mean_R": rep.mean_R,
            "censored_fraction": rep.censored_fraction}


def cmd_run(args):
    conf, table, holes = _prepare(args, place_holes=True)
    out = _out_dir(conf)
    run, checks, budgets = conf["run"], conf["checks"], conf["budgets"]
    seed, n_orbits, t_max = run["seed"], run["n_orbits"], float(run["t_max"])
    intervals = [tuple(map(float, p)) for p in run["intervals"]]

    _write_json(out / "manifest.json", {
        "config": conf, "resolved_seed": seed, "table_class": table.class_tag,
        "perimeter": table.perimeter, "package_version": __version__})
    summary = {"table_class": table.class_tag, "seed": seed, "radii": [],
               "per_radius": {}, "checks": {}}

    if holes:
        # per hole: the hitting run, then the marches its checks reduce
        shapes = [(n_orbits, t_max)]
        if checks["short_returns"]:
            shapes.append((short_return_orbits(budgets["short_return_hits"],
                                               CHECK_T_MAX), CHECK_T_MAX))
        if checks["quasi_section"]:
            shapes.append((budgets["quasi_orbits"], CHECK_T_MAX))
        t0 = perf_counter()
        family = iter(collect_hitting_family(
            table, [(hole, n, t) for hole in holes for n, t in shapes], seed))
        summary["march_s"] = perf_counter() - t0
        for hole in holes:
            data = next(family)
            t0 = perf_counter()
            tag = f"r_{hole.radius:g}"
            rdir = out / tag
            rdir.mkdir(exist_ok=True)
            grid = np.linspace(0.0, min(5.0, t_max), 101)
            sc = survival_curve(data, grid)
            _write_csv(rdir / "hits.csv",
                       ["orbit", "index", "normalized_time"],
                       zip(data.hit_orbit, data.hit_index,
                           (_fmt(v) for v in data.normalized_times)))
            _write_csv(rdir / "survival.csv",
                       ["t", "empirical", "exponential"],
                       (map(_fmt, row) for row in
                        zip(sc.t, sc.empirical, sc.exponential)))
            entry = {
                "mu": hole.measure, "window_ks": data.window_ks(),
                # a survival curve stops at t_max: no S(1) below t_max = 1
                "survival_at_1": float(survival_curve(data, [1.0])
                                       .empirical[0]) if t_max >= 1.0 else None,
                "censored_fraction": data.censored_fraction,
                "excluded_before_first_hit": sc.excluded_fraction,
                "n_orbits": n_orbits,
            }
            if intervals:
                cr = count_statistics(data, intervals)
                _write_csv(rdir / "counts.csv",
                           ["orbit", "interval", "count"],
                           ((i, k, int(c))
                            for (i, k), c in np.ndenumerate(cr.counts)))
                entry["tv"] = [float(v) for v in cr.tv]
                entry["count_means"] = [float(v) for v in cr.means]
                if len(cr.intervals) > 1:
                    entry["count_correlation"] = float(cr.correlations[0, 1])
            diag = {"censoring": entry["censored_fraction"]}
            if checks["short_returns"]:
                sr = next(family).short_returns()
                entry["short_return_fraction"] = sr.fraction
                diag["short_return"] = {"fraction": sr.fraction, "p": sr.p,
                                        "n_pairs": sr.n_pairs}
            if checks["quasi_section"]:
                q = next(family).quasi_section()
                entry["quasi_section_defect"] = q.defect
                diag["quasi_section"] = {
                    "defect": q.defect,
                    "host_kind": table.components[hole.component].kind,
                    "n_excursions": q.n_excursions_with_hit}
            _write_json(rdir / "diagnostics.json", diag)
            entry["runtime_s"] = perf_counter() - t0
            summary["radii"].append(hole.radius)
            summary["per_radius"][tag] = entry

    for name in ("cones", "invariance", "kac"):
        if checks[name]:
            t0 = perf_counter()
            entry = _check_result(name, table, budgets, seed)
            entry["runtime_s"] = perf_counter() - t0
            summary["checks"][name] = entry

    _write_json(out / "summary.json", summary)
    return _enforce(args, summary, conf["thresholds"])


def _enforce(args, summary, thresholds):
    """3 under --enforce after printing each breached threshold (the hitting
    ones at the smallest radius), else 0.  An undefined (not finite)
    statistic breaches: nothing shows that its threshold holds."""
    enforced = []       # (label, value, threshold) per enforced statistic
    if summary["radii"]:
        tag = f"r_{min(summary['radii']):g}"
        entry = summary["per_radius"][tag]
        enforced.append((f"{tag}: window_ks", entry["window_ks"],
                         thresholds["ks"]))
        enforced += [(f"{tag}: tv", v, thresholds["tv"])
                     for v in entry.get("tv", [])]
    checks = summary["checks"]
    if "invariance" in checks:
        enforced += [(f"invariance {k}", checks["invariance"][k],
                      thresholds["invariance"]) for k in ("ks_phi", "ks_s")]
    if "kac" in checks:
        enforced.append(("kac defect", checks["kac"]["defect"],
                         thresholds["kac"]))
    breaches = []
    for label, value, limit in enforced:
        if not math.isfinite(value):
            breaches.append(f"{label} undefined")
        elif value >= limit:
            breaches.append(f"{label} {value:.4f} >= {limit}")
    cones = checks.get("cones")
    if cones and cones["violations"] > thresholds["cone_violations"]:
        breaches.append(f"cone violations {cones['violations']}")
    for b in breaches if args.enforce else ():
        print(f"threshold breach: {b}", file=sys.stderr)
    return 3 if args.enforce and breaches else 0


def cmd_check(args):
    conf, table, _ = _prepare(args, place_holes=False)
    out = _out_dir(conf)
    name = "cones" if args.what == "cones" else "invariance"
    result = _check_result(name, table, conf["budgets"], conf["run"]["seed"])
    _write_json(out / f"{args.what}.json", result)
    print(_json(result))
    return _enforce(args, {"radii": [], "checks": {name: result}},
                    conf["thresholds"])


def cmd_inducing(args):
    conf, table, _ = _prepare(args, place_holes=False)
    out, budgets = _out_dir(conf), conf["budgets"]
    returns = base_returns(table, budgets["kac_samples"],
                           budgets["return_cap"], conf["run"]["seed"])
    tail, kac = returns.tail(), returns.kac()
    _write_csv(out / "return_tail.csv", ["n", "survival", "count"],
               zip(tail.n, (_fmt(v) for v in tail.survival), tail.count))
    result = {
        "kac_defect": kac.defect, "mu_x": kac.mu_x, "mean_R": kac.mean_R,
        "n_base": kac.n_base, "censored_fraction": kac.censored_fraction,
        "tail_max_n": int(tail.n[-1]) if tail.n.size else None,
        "cap_fraction": tail.cap_fraction,
    }
    _write_json(out / "inducing.json", result)
    print(_json(result))
    summary = {"radii": [], "checks": {"kac": {"defect": kac.defect}}}
    return _enforce(args, summary, conf["thresholds"])


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="billiards",
        description="billiard-table experiments: hitting statistics, "
                    "cone checks, inducing diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    # an override flag's dest is the dotted path of the key it replaces
    def common(p):
        p.add_argument("config", help="YAML config (version: 1)")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--seed", type=int, dest="run.seed")
        p.add_argument("--enforce", action="store_true",
                       help="exit 3 when thresholds are breached")

    p_val = sub.add_parser("validate", help="check config and geometry only")
    p_val.add_argument("config")

    p_run = sub.add_parser("run", help="hitting experiments plus checks")
    common(p_run)

    p_chk = sub.add_parser("check", help="single diagnostic")
    p_chk.add_argument("what", choices=["cones", "invariants"])
    common(p_chk)
    p_chk.add_argument("--points", type=int, dest="budgets.cone_points")
    p_chk.add_argument("--vectors", type=int, dest="budgets.cone_vectors")
    p_chk.add_argument("--samples", type=int,
                       dest="budgets.invariance_samples")

    p_ind = sub.add_parser("inducing", help="return-time tail and Kac defect")
    common(p_ind)
    p_ind.add_argument("--samples", type=int, dest="budgets.kac_samples")
    p_ind.add_argument("--cap", type=int, dest="budgets.return_cap")

    args = parser.parse_args(argv)
    command = {"validate": cmd_validate, "run": cmd_run, "check": cmd_check,
               "inducing": cmd_inducing}[args.command]
    try:
        return command(args)
    except (ConfigError, GeometryError) as e:
        for problem in e.args:
            print(f"error: {problem}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
