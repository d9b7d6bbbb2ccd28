import csv
import json

import pytest
import yaml

from openbilliards import build_table, dynamics, inducing
from openbilliards.cli import main
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


@pytest.mark.parametrize("change, message", [
    ({"run": {**SINAI_CFG["run"], "intervals": [[0.0, 1.0], [1.0, 4.0]]}},
     "past run.t_max"),
    ({"run": {**SINAI_CFG["run"], "seed": -1}}, "run.seed must be"),
    ({"hole": {"center_s": 0.3, "radii": ["a"]}}, "radii must be numbers"),
])
def test_run_rejects_bad_config_before_marching(change, message, tmp_path,
                                                capsys, monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected config was marched")

    monkeypatch.setattr(dynamics, "step_batch", no_march)
    cfg = write_cfg(tmp_path / "c.yaml", {**SINAI_CFG, **change})
    assert main(["validate", cfg]) == 2
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: ") == 2 and message in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit):
        main([])
