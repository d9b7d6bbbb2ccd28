import copy
import csv
import json
import math
import re
from pathlib import Path

import pytest
import yaml

from openbilliards import build_table, dynamics, inducing, make_hole, openstats
from openbilliards.cli import SCHEMA, main
from openbilliards.geometry import cut_stadium_components

SINAI_CFG = {
    "version": 1,
    "table": {"class": "sinai_torus", "centers": [[0.5, 0.5]],
              "radii": [0.2]},
    "hole": {"center_s": 0.3, "radii": [0.05, 0.02]},
    "run": {"n_orbits": 300, "t_max": 3.0, "seed": 11,
            "intervals": [[0.0, 1.0], [1.0, 2.0]]},
    "checks": {"cones": True, "invariance": True, "kac": True},
    "budgets": {"cone_points": 1000, "cone_vectors": 4,
                "kac_samples": 5000, "invariance_samples": 5000},
}


def write_cfg(path, cfg):
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


@pytest.fixture()
def sinai_cfg(tmp_path):
    return write_cfg(tmp_path / "sinai.yaml", SINAI_CFG)


def test_validate_ok(sinai_cfg, capsys):
    assert main(["validate", sinai_cfg]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_bad_version(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml", {"version": 2})
    assert main(["validate", cfg]) == 2


def test_validate_rejects_unknown_class(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1, "table": {"class": "hexagon"}})
    assert main(["validate", cfg]) == 2
    assert "unknown table class" in capsys.readouterr().err


def test_validate_rejects_bad_radii_order(tmp_path, capsys):
    bad = dict(SINAI_CFG, hole={"center_s": 0.3, "radii": [0.02, 0.05]})
    cfg = write_cfg(tmp_path / "c.yaml", bad)
    assert main(["validate", cfg]) == 2
    assert "strictly decreasing" in capsys.readouterr().err


def test_validate_rejects_hole_at_junction(tmp_path, capsys):
    bad = {"version": 1,
           "table": {"class": "stadium", "flat_length": 2.0},
           "hole": {"center_s": 2.0, "radii": [0.05]},
           "run": {"seed": 1}}
    cfg = write_cfg(tmp_path / "c.yaml", bad)
    assert main(["validate", cfg]) == 2
    assert "junction" in capsys.readouterr().err


def test_validate_reports_geometry_violations(tmp_path, capsys):
    comps = []
    for c in cut_stadium_components(2.0, 0.75):
        if c.kind == "flat":
            comps.append({"kind": "flat", "p0": list(c.p0), "p1": list(c.p1)})
        else:
            comps.append({"kind": "arc", "center": list(c.center),
                          "radius": c.radius, "theta0": c.theta0,
                          "theta1": c.theta1, "dispersing": False})
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1,
                     "table": {"class": "flower", "components": comps},
                     "run": {"seed": 1}})
    assert main(["validate", cfg]) == 2
    assert "violation" in capsys.readouterr().err
    # run refuses the same geometry
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


def test_run_writes_outputs(sinai_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["run", sinai_cfg, "--out", str(out)]) == 0
    for tag in ("r_0.05", "r_0.02"):
        for f in ("hits.csv", "survival.csv", "counts.csv",
                  "diagnostics.json"):
            assert (out / tag / f).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run"]["seed"] == 11
    assert manifest["table_class"] == "sinai_torus"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["radii"] == [0.05, 0.02]
    entry = summary["per_radius"]["r_0.02"]
    assert 0.0 <= entry["ks_exp1"] <= 1.0
    assert summary["checks"]["kac"]["defect"] == 0.0
    assert summary["checks"]["cones"]["violations"] == 0
    hits = (out / "r_0.05" / "hits.csv").read_text().splitlines()
    assert hits[0] == "orbit,index,normalized_time"
    assert len(hits) > 10


def test_run_is_byte_deterministic(sinai_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", sinai_cfg, "--out", str(a)]) == 0
    assert main(["run", sinai_cfg, "--out", str(b)]) == 0
    for tag in ("r_0.05", "r_0.02"):
        for f in ("hits.csv", "survival.csv", "counts.csv"):
            assert (a / tag / f).read_bytes() == (b / tag / f).read_bytes()


def test_run_seed_override_changes_hits(sinai_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", sinai_cfg, "--out", str(a)]) == 0
    assert main(["run", sinai_cfg, "--out", str(b), "--seed", "99"]) == 0
    assert (a / "r_0.05" / "hits.csv").read_bytes() \
        != (b / "r_0.05" / "hits.csv").read_bytes()
    manifest = json.loads((b / "manifest.json").read_text())
    assert manifest["resolved_seed"] == 99
    assert manifest["config"]["run"]["seed"] == 99


def test_run_requires_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1,
                     "table": {"class": "stadium", "flat_length": 2.0},
                     "run": {"n_orbits": 10}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err


def test_check_cones_clean_and_enforced(sinai_cfg, tmp_path):
    out = tmp_path / "o"
    assert main(["check", "cones", sinai_cfg, "--out", str(out),
                 "--enforce"]) == 0
    result = json.loads((out / "cones.json").read_text())
    assert result["violations"] == 0


def test_check_cones_breach_exits_3(tmp_path):
    comps = []
    for c in cut_stadium_components(2.0, 0.75):
        if c.kind == "flat":
            comps.append({"kind": "flat", "p0": list(c.p0), "p1": list(c.p1)})
        else:
            comps.append({"kind": "arc", "center": list(c.center),
                          "radius": c.radius, "theta0": c.theta0,
                          "theta1": c.theta1, "dispersing": False})
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1,
                     "table": {"class": "flower", "components": comps},
                     "run": {"seed": 5},
                     "budgets": {"cone_points": 1000, "cone_vectors": 4}})
    out = str(tmp_path / "o")
    assert main(["check", "cones", cfg, "--out", out]) == 0
    assert main(["check", "cones", cfg, "--out", out, "--enforce"]) == 3


def test_check_invariants(sinai_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["check", "invariants", sinai_cfg, "--out", str(out)]) == 0
    result = json.loads((out / "invariants.json").read_text())
    assert result["ks_phi"] < 0.05


def test_inducing_outputs(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1,
                     "table": {"class": "stadium", "flat_length": 2.0},
                     "run": {"seed": 4},
                     "budgets": {"kac_samples": 5000, "return_cap": 2000}})
    out = tmp_path / "o"
    assert main(["inducing", cfg, "--out", str(out)]) == 0
    tail = (out / "return_tail.csv").read_text().splitlines()
    assert tail[0] == "n,survival,count"
    assert len(tail) > 5
    result = json.loads((out / "inducing.json").read_text())
    assert result["kac_defect"] < 0.1


def test_inducing_marches_once_and_matches_separate_calls(tmp_path,
                                                         monkeypatch):
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1,
                     "table": {"class": "stadium", "flat_length": 2.0},
                     "run": {"seed": 4},
                     "budgets": {"kac_samples": 5000, "return_cap": 2000}})
    calls = []
    sample = inducing.sample_base_points
    monkeypatch.setattr(inducing, "sample_base_points",
                        lambda *a, **k: calls.append(a) or sample(*a, **k))
    out = tmp_path / "o"
    assert main(["inducing", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()

    table = build_table("stadium", flat_length=2.0)
    tail = inducing.return_tail(table, 5000, 2000, 4)
    kac = inducing.kac_defect(table, 5000, 2000, 4)
    with open(out / "return_tail.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows == [["n", "survival", "count"]] + [
        [str(n), repr(float(v)), str(c)]
        for n, v, c in zip(tail.n, tail.survival, tail.count)]
    assert json.loads((out / "inducing.json").read_text()) == {
        "kac_defect": kac.defect, "mu_x": kac.mu_x, "mean_R": kac.mean_R,
        "n_base": kac.n_base, "censored_fraction": kac.censored_fraction,
        "tail_max_n": int(tail.n[-1]), "cap_fraction": tail.cap_fraction}


def test_run_marches_once_and_matches_separate_calls(tmp_path, monkeypatch):
    cfg = {**SINAI_CFG, "checks": {"short_returns": True,
                                   "quasi_section": True},
           "budgets": {"short_return_hits": 2000, "quasi_orbits": 500}}
    calls = []
    march = dynamics.march

    def counted(*args, **kwargs):
        calls.append(args[3])
        return march(*args, **kwargs)

    for module in (dynamics, openstats, inducing):
        if getattr(module, "march", None) is march:
            monkeypatch.setattr(module, "march", counted)
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path / "c.yaml", cfg),
                 "--out", str(out)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()

    plain = tmp_path / "plain"
    assert main(["run", write_cfg(tmp_path / "p.yaml", SINAI_CFG),
                 "--out", str(plain)]) == 0
    table = build_table("sinai_torus", centers=[(0.5, 0.5)], radii=[0.2])
    for r in (0.05, 0.02):
        hole = make_hole(table, 0.3, r)
        data = openstats.collect_hitting(table, hole, 300, 3.0, 11)
        srr = openstats.short_return_fraction(table, hole, n_hits=2000,
                                              seed=11)
        q = openstats.quasi_section_defect(table, hole, 500, 11)
        rdir = f"r_{r:g}"
        assert json.loads((out / rdir / "diagnostics.json").read_text()) \
            == {"censoring": data.censored_fraction,
                "short_return": {"fraction": srr.fraction, "p": srr.p,
                                 "n_pairs": srr.n_pairs},
                "quasi_section": {"defect": q.defect,
                                  "host_kind": q.host_kind,
                                  "n_excursions": q.n_excursions_with_hit}}
        for f in ("hits.csv", "survival.csv", "counts.csv"):
            assert (out / rdir / f).read_bytes() \
                == (plain / rdir / f).read_bytes()


def test_run_survival_at_1_is_null_below_t_max_1(tmp_path):
    cfg = {"version": 1, "table": {"class": "stadium", "flat_length": 2.0},
           "hole": {"center_s": 1.0, "radii": [0.5]},
           "run": {"seed": 2, "n_orbits": 200, "t_max": 0.5}}
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path / "c.yaml", cfg),
                 "--out", str(out)]) == 0
    entry = json.loads((out / "summary.json").read_text())["per_radius"]
    assert entry["r_0.5"]["survival_at_1"] is None
    survival = (out / "r_0.5" / "survival.csv").read_text().splitlines()
    assert survival[-1].startswith("0.5,")


STADIUM = {"class": "stadium", "flat_length": 2.0}


@pytest.mark.parametrize("change, message", [
    ({"run": {**SINAI_CFG["run"], "intervals": [[0.0, 1.0], [1.0, 4.0]]}},
     "past run.t_max"),
    ({"run": {**SINAI_CFG["run"], "seed": -1}}, "run.seed must be"),
    ({"hole": {"center_s": 0.3, "radii": ["a"]}}, "radii must be numbers"),
    ({"run": [1, 2]}, "run must be a mapping"),
    ({"run": {**SINAI_CFG["run"], "n_orbits": "many"}},
     "run.n_orbits must be"),
    ({"run": {**SINAI_CFG["run"], "n_orbits": 2.5}}, "run.n_orbits must be"),
    ({"run": {**SINAI_CFG["run"], "t_max": -1}}, "run.t_max must be"),
    ({"run": {"n_orbit": 300, "seed": 11}},
     "unknown key run.n_orbit (did you mean run.n_orbits?)"),
    ({"run": {**SINAI_CFG["run"], "intervals": [[0, "a"]]}},
     "run.intervals must be"),
    ({"chekcs": {"cones": True}}, "unknown key chekcs (did you mean checks?)"),
    ({"checks": ["cones"]}, "checks must be a mapping"),
    ({"budgets": {"cone_points": -5}}, "budgets.cone_points must be"),
    ({"budgets": [1]}, "budgets must be a mapping"),
    ({"thresholds": {"ks": "x"}}, "thresholds.ks must be"),
    ({"out": 5}, "out must be a string"),
    ({"table": {**STADIUM, "flat_length": "two"}}, "flat_length must be"),
    ({"table": {**STADIUM, "flat_length": math.nan}}, "flat_length must be"),
    ({"table": {**STADIUM, "flat_length": math.inf}}, "flat_length must be"),
    ({"table": {"class": "squash", "r1": 0.6, "r2": "x",
                "center_distance": 2.0}}, "r2 must be"),
    ({"table": {"class": "diamond", "square_side": math.nan,
                "corner_radius": 0.2}}, "square_side must be"),
    ({"table": {"class": "sinai_torus", "centers": [[0.5]],
                "radii": [0.2]}}, "centers[0] must be"),
    ({"table": {"class": "flower", "components": [1]}},
     "component 0 must be"),
    ({"table": {"class": "flower", "components": [{"kind": "flat"}]}},
     "component 0 p0 must be"),
    ({"version": True}, "config must declare version: 1"),
])
def test_run_rejects_bad_config_before_marching(change, message, tmp_path,
                                                capsys, monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected config was marched")

    monkeypatch.setattr(dynamics, "step_batch", no_march)
    monkeypatch.chdir(tmp_path)       # where `out` would put the outputs
    cfg = write_cfg(tmp_path / "c.yaml", {**SINAI_CFG, **change})
    commands = (["validate"], ["run"], ["check", "cones"], ["inducing"])
    for command in commands:
        assert main([*command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == len(commands)
    assert err.count(message) == len(commands)
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("argv, message", [
    (["check", "cones", "--points", "0"], "budgets.cone_points must be"),
    (["check", "cones", "--points", "-5"], "budgets.cone_points must be"),
    (["check", "cones", "--vectors", "0"], "budgets.cone_vectors must be"),
    (["check", "invariants", "--samples", "0"],
     "budgets.invariance_samples must be"),
    (["inducing", "--samples", "0"], "budgets.kac_samples must be"),
    (["inducing", "--cap", "0"], "budgets.return_cap must be"),
    (["run", "--seed", "-1"], "run.seed must be"),
])
def test_overrides_are_checked_like_their_keys(argv, message, sinai_cfg,
                                               tmp_path, capsys,
                                               monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected override was marched")

    monkeypatch.setattr(dynamics, "step_batch", no_march)
    assert main([*argv, sinai_cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and message in err


def test_manifest_echoes_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1, "table": STADIUM, "run": {"seed": 1}})
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--seed", "5"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    config = manifest["config"]
    assert config["table"] == STADIUM and config["hole"] is None
    assert config["run"] == {"seed": 5, "n_orbits": 1000, "t_max": 50.0,
                             "intervals": []}
    assert config["budgets"]["cone_points"] == 20000
    assert config["thresholds"]["ks"] == 0.05
    assert config["out"] == str(out)
    assert manifest["resolved_seed"] == 5


def test_readme_config_example_validates(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for section, keys in SCHEMA.items():
        for key in keys:
            assert f"| `{section}.{key}` |" in readme
    example, = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(example)
    assert main(["validate", str(cfg)]) == 0, capsys.readouterr().err


# a tiny valid config with every check on and every budget small
TINY_CFG = {
    "version": 1,
    "table": STADIUM,
    "hole": {"center_s": 1.0, "radii": [0.9, 0.6]},     # short horizons
    "run": {"seed": 3, "n_orbits": 10, "t_max": 2.0,
            "intervals": [[0.0, 1.0], [1.0, 2.0]]},
    "checks": {"cones": True, "invariance": True, "kac": True,
               "short_returns": True, "quasi_section": True},
    "budgets": {"cone_points": 20, "cone_vectors": 2, "kac_samples": 100,
                "invariance_samples": 100, "return_cap": 50,
                "short_return_hits": 10, "quasi_orbits": 10},
    "thresholds": {"ks": 0.05, "tv": 0.05, "kac": 0.01, "invariance": 0.005,
                   "cone_violations": 0},
    "out": "results",
}
POOL = (None, "x", [], {}, -1, 0, 0.5, math.nan, math.inf, True)


def _paths(node, path=()):
    """Every (path, value) below node, through mappings and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _mutations():
    """Every single-key change to TINY_CFG, in a fixed order."""
    for path, value in _paths(TINY_CFG):
        in_budgets = path[0] == "budgets"
        if not isinstance(value, dict) or not in_budgets:
            for v in POOL:
                yield path, "set", v
        if isinstance(path[-1], str) and not in_budgets:
            yield path, "delete", None
        if isinstance(value, dict):
            yield path + ("bogus",), "set", 1
    yield ("bogus",), "set", 1


def test_no_config_mutation_crashes_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = (["validate"], ["run"], ["check", "cones"],
                ["check", "invariants"], ["inducing"])
    failures, outcomes = [], {}
    for i, (path, action, value) in enumerate(_mutations()):
        cfg = copy.deepcopy(TINY_CFG)
        *head, last = path
        node = cfg
        for key in head:
            node = node[key]
        if action == "delete":
            del node[last]
        else:
            node[last] = value
        cfg_path = write_cfg(tmp_path / f"m{i}.yaml", cfg)
        for command in commands:
            try:
                code = main([*command, cfg_path])
            except Exception as e:      # any exception is a crash
                code = f"{type(e).__name__}: {e}"
            outcomes[code] = outcomes.get(code, 0) + 1
            if code not in (0, 2, 3):
                failures.append((path, action, value, command, code))
        capsys.readouterr()
    assert not failures, failures[:10]
    assert outcomes.get(0) and outcomes.get(2)   # both paths were taken


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit):
        main([])
