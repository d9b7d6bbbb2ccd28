import copy
import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from openbilliards import (build_table, cli, dynamics, inducing, make_hole,
                           openstats)
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


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def strict_json(text):
    """json.loads that raises on the NaN and Infinity tokens, which are not
    JSON (RFC 8259)."""
    return json.loads(text, parse_constant=_reject_constant)


def read_json(path):
    """A JSON output file, parsed strictly."""
    return strict_json(Path(path).read_text())


def strict_csv(path):
    """The rows of a CSV output; raises on a nan or inf cell, which the
    writer leaves empty (the CSV form of JSON null)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    for row in rows:
        for cell in row:
            if cell.lower().lstrip("+-") in ("nan", "inf", "infinity"):
                raise ValueError(f"{cell} in {path} is not a number")
    return rows


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
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["run"]["seed"] == 11
    assert manifest["table_class"] == "sinai_torus"
    summary = read_json(out / "summary.json")
    assert summary["radii"] == [0.05, 0.02]
    entry = summary["per_radius"]["r_0.02"]
    assert 0.0 <= entry["window_ks"] <= 1.0
    assert summary["checks"]["kac"]["defect"] == 0.0
    assert summary["checks"]["cones"]["violations"] == 0
    hits = strict_csv(out / "r_0.05" / "hits.csv")
    assert hits[0] == ["orbit", "index", "normalized_time"]
    assert len(hits) > 10
    for tag in ("r_0.05", "r_0.02"):
        assert strict_csv(out / tag / "survival.csv")[0] \
            == ["t", "empirical", "exponential"]
        assert strict_csv(out / tag / "counts.csv")[0] \
            == ["orbit", "interval", "count"]


def test_run_is_byte_deterministic(sinai_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", sinai_cfg, "--out", str(a)]) == 0
    assert main(["run", sinai_cfg, "--out", str(b)]) == 0
    for tag in ("r_0.05", "r_0.02"):
        for f in ("hits.csv", "survival.csv", "counts.csv"):
            assert (a / tag / f).read_bytes() == (b / tag / f).read_bytes()


# sha256 of every CSV `run` writes for SINAI_CFG
SINAI_DIGESTS = {
    "r_0.02/counts.csv":
        "bd745c1ca4e8fd048d5047121c860b5dda3aed0bb97ea60a9c59a177c4d0a230",
    "r_0.02/hits.csv":
        "fe78a0f1c6f85c377ea5ba1e175fc82abc0da98fee3b5f6cc7197eddd77113b0",
    "r_0.02/survival.csv":
        "9b479d754b835ee8d79210ccf498672a9b6df02bb3fe0fa17b0b81e6f8728a34",
    "r_0.05/counts.csv":
        "4aced87f01f9c7b9d08a0fedc6fc18e424f0023b3a239abf33309601ff7b9aeb",
    "r_0.05/hits.csv":
        "c2440835619452e13b009c2dcb8c9db7046e1d2503551ee7c4a16c226b3a69e9",
    "r_0.05/survival.csv":
        "9ce928f20ad1f10377a9cde20c5fd488ee7d9cd01a29321e891ff4b0232e9d31",
}


def test_run_csv_digests_are_pinned(sinai_cfg, tmp_path):
    """The infinite-horizon torus CSVs, byte for byte.

    Kernel changes that keep the arithmetic (the unit-cell walk's
    scheduling, batching, refactors) must leave these digests as they are.
    A change that moves the last bits of impacts on purpose, such as the
    planned foot-of-perpendicular form of the long-flight ray-circle test,
    moves them, and replaces them here with its new digests.
    """
    out = tmp_path / "o"
    assert main(["run", sinai_cfg, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in SINAI_DIGESTS}
    assert got == SINAI_DIGESTS


# SINAI_CFG's run on the stadium, hole on a flat: sha256 of every CSV
STADIUM_CFG = {"version": 1, "table": {"class": "stadium", "flat_length": 2.0},
               "hole": {"center_s": 1.0, "radii": [0.05, 0.02]},
               "run": SINAI_CFG["run"]}
STADIUM_DIGESTS = {
    "r_0.02/counts.csv":
        "2fcbf63c0e2d3c9e328c1684150db5b900e6e26a5a1bf2b82a25bd0f3de2d4c5",
    "r_0.02/hits.csv":
        "0991a55e64578caab23c30e77d60f99aec2c5aabf149ab378652f15dafe39253",
    "r_0.02/survival.csv":
        "38e878e0e1f015566d3a962bbf10ad72138562c5a059927d61ebaf536730c632",
    "r_0.05/counts.csv":
        "83131de78b2465a586461c7ba67e042cebae94663dc49f16e0e4ee3b5ac8fff2",
    "r_0.05/hits.csv":
        "2bc9203245ac960c257e866a6bce67f8766010817e0436198bec5c3395d5ce25",
    "r_0.05/survival.csv":
        "1fe48433ce2e351ee61c2e89beadd02701b032db1d57a1c8b1679e81729d2dfd",
}
# sha256 of the squash's `inducing` and `check invariants` outputs at
# 20000 samples and seed 11
SQUASH_CFG = {"version": 1, "table": {"class": "squash", "r1": 0.6, "r2": 1.0,
                                      "center_distance": 2.0},
              "run": {"seed": 11}}
SQUASH_DIGESTS = {
    "inducing.json":
        "263aa4fc60188f1827dafb821fb022e8253d15367e376c47700408f83ef14b89",
    "invariants.json":
        "7a417191e7881584109a3b03272edc1f3870bbca188c128ec2b3f7b8e5799f87",
    "return_tail.csv":
        "65608293ec4bf751d95f48573fec93ae795ffb99ab45006561658f466601c741",
}


def test_bounded_table_digests_are_pinned(tmp_path):
    """Bounded-table outputs, byte for byte: flats, arcs with ends, corner
    flags and the stadium-like base masks.  Refactors that keep the
    arithmetic must leave these digests as they are."""
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path / "s.yaml", STADIUM_CFG),
                 "--out", str(out)]) == 0
    squash = write_cfg(tmp_path / "q.yaml", SQUASH_CFG)
    for command in (["inducing"], ["check", "invariants"]):
        assert main(command + [squash, "--out", str(out),
                               "--samples", "20000"]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in {**STADIUM_DIGESTS, **SQUASH_DIGESTS}}
    assert got == {**STADIUM_DIGESTS, **SQUASH_DIGESTS}


def test_run_seed_override_changes_hits(sinai_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", sinai_cfg, "--out", str(a)]) == 0
    assert main(["run", sinai_cfg, "--out", str(b), "--seed", "99"]) == 0
    assert (a / "r_0.05" / "hits.csv").read_bytes() \
        != (b / "r_0.05" / "hits.csv").read_bytes()
    manifest = read_json(b / "manifest.json")
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
    result = read_json(out / "cones.json")
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


@pytest.mark.parametrize("command", [["check", "invariants"], ["inducing"]])
def test_check_and_inducing_reject_crossing_components(command, tmp_path,
                                                       capsys, monkeypatch):
    # the scatterer cuts the bottom wall, so the boundary leaks orbits
    def no_march(*args, **kwargs):
        raise AssertionError("a table with crossing components was marched")

    monkeypatch.setattr(dynamics, "step_batch", no_march)
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1,
                     "table": {"class": "semi_dispersing", "width": 2.0,
                               "height": 1.0, "centers": [[1.0, 0.1]],
                               "radii": [0.3]},
                     "run": {"seed": 1}})
    assert main([*command, cfg, "--out", str(tmp_path / "o"),
                 "--samples", "2000"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1
    assert "error: table violation [components_intersect]" in err
    assert not (tmp_path / "o").exists()


def test_check_invariants(sinai_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["check", "invariants", sinai_cfg, "--out", str(out)]) == 0
    result = read_json(out / "invariants.json")
    assert result["ks_phi"] < 0.05


def test_inducing_outputs(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1,
                     "table": {"class": "stadium", "flat_length": 2.0},
                     "run": {"seed": 4},
                     "budgets": {"kac_samples": 5000, "return_cap": 2000}})
    out = tmp_path / "o"
    assert main(["inducing", cfg, "--out", str(out)]) == 0
    tail = strict_csv(out / "return_tail.csv")
    assert tail[0] == ["n", "survival", "count"]
    assert len(tail) > 5
    result = read_json(out / "inducing.json")
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
    returns = inducing.base_returns(table, 5000, 2000, 4)
    tail, kac = returns.tail(), returns.kac()
    assert strict_csv(out / "return_tail.csv") == [["n", "survival", "count"]] + [
        [str(n), repr(float(v)), str(c)]
        for n, v, c in zip(tail.n, tail.survival, tail.count)]
    assert read_json(out / "inducing.json") == {
        "kac_defect": kac.defect, "mu_x": kac.mu_x, "mean_R": kac.mean_R,
        "n_base": kac.n_base, "censored_fraction": kac.censored_fraction,
        "tail_max_n": int(tail.n[-1]), "cap_fraction": tail.cap_fraction}


def test_inducing_enforces_kac_threshold(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"version": 1,
                     "table": {"class": "squash", "r1": 0.6, "r2": 1.0,
                               "center_distance": 2.0},
                     "run": {"seed": 1}, "thresholds": {"kac": 0.0}})
    argv = ["inducing", cfg, "--out", str(tmp_path / "o"), "--samples", "2000"]
    assert main(argv) == 0
    assert "threshold breach" not in capsys.readouterr().err
    assert main(argv + ["--enforce"]) == 3
    assert "threshold breach: kac defect" in capsys.readouterr().err


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
        assert read_json(out / rdir / "diagnostics.json") \
            == {"censoring": data.censored_fraction,
                "short_return": {"fraction": srr.fraction, "p": srr.p,
                                 "n_pairs": srr.n_pairs},
                "quasi_section": {"defect": q.defect,
                                  "host_kind": "arc",
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
    entry = read_json(out / "summary.json")["per_radius"]
    assert entry["r_0.5"]["survival_at_1"] is None
    survival = strict_csv(out / "r_0.5" / "survival.csv")
    assert survival[-1][0] == "0.5"


def test_run_reads_ks_and_s1_from_the_first_hit_sample(tmp_path, monkeypatch):
    """An exact Exp(1) first-hit sample cut off at t_max 3: orbit i first
    hits at index ceil(q_i / mu), q_i the Exp(1) quantile at (i - 1/2) / N,
    and the 50 orbits with q_i > 3 never hit.  `run` tests it against Exp(1)
    on the observed window, survivors counted, and reads S at t = 1."""
    n, mu, t_max = 1000, 1e-4, 3.0
    horizon = math.ceil(t_max / mu)
    index = np.ceil(-np.log(1.0 - (np.arange(1, n + 1) - 0.5) / n) / mu)
    index = index.astype(np.int64)
    hit = index <= horizon
    assert n - hit.sum() == 50
    data = openstats.HittingData(
        mu=mu, n_orbits=n, horizon=horizon, t_max=t_max,
        hit_orbit=np.flatnonzero(hit), hit_index=index[hit],
        censor_step=np.full(n, horizon + 1),
        censor_kind=np.zeros(n, dtype=np.int8), hit_induced=index[hit],
        final_induced=np.full(n, horizon))
    monkeypatch.setattr(cli, "collect_hitting_family", lambda *args: [data])
    cfg = {"version": 1, "table": STADIUM,
           "hole": {"center_s": 1.0, "radii": [0.05]},
           "run": {"seed": 1, "n_orbits": n, "t_max": t_max}}
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path / "c.yaml", cfg),
                 "--out", str(out)]) == 0
    entry = read_json(out / "summary.json")["per_radius"]["r_0.05"]
    assert entry["window_ks"] <= 1 / n
    assert abs(entry["survival_at_1"] - math.exp(-1.0)) <= 1 / n


STADIUM = {"class": "stadium", "flat_length": 2.0}
# statistics left undefined: at seed 1 one SRB sample finds no base point,
# and three orbits of 0.2 normalized time never hit the hole
UNDEFINED_INDUCING = {"version": 1, "table": STADIUM, "run": {"seed": 1}}
UNDEFINED_RUN = {"version": 1, "table": STADIUM,
                 "hole": {"center_s": 1.0, "radii": [0.05]},
                 "run": {"seed": 1, "n_orbits": 3, "t_max": 0.2}}


# a disk of radius 1e-9: at seed 1 every lane is censored at its first
# step (grazing, or an overflow of the torus walk before it meets the disk)
ALL_CENSORED = {
    "version": 1,
    "table": {"class": "sinai_torus", "centers": [[0.5, 0.5]],
              "radii": [1.0e-9]},
    "run": {"seed": 1}, "checks": {"invariance": True},
    "budgets": {"invariance_samples": 100, "kac_samples": 100}}


def test_undefined_statistics_are_json_null(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path / "i.yaml", UNDEFINED_INDUCING)
    assert main(["inducing", cfg, "--out", str(out), "--samples", "1"]) == 0
    printed = strict_json(capsys.readouterr().out)
    assert printed == read_json(out / "inducing.json")
    assert printed["n_base"] == 0
    assert printed["kac_defect"] is None and printed["mean_R"] is None
    cfg = copy.deepcopy(UNDEFINED_RUN)
    cfg["run"]["intervals"] = [[0, 0.1], [0.1, 0.2]]
    assert main(["run", write_cfg(tmp_path / "r.yaml", cfg),
                 "--out", str(out)]) == 0
    entry = read_json(out / "summary.json")["per_radius"]["r_0.05"]
    assert entry["window_ks"] is None and entry["count_correlation"] is None

    # every lane censored: no invariance KS, no mu(X), no base point
    cfg = write_cfg(tmp_path / "t.yaml", ALL_CENSORED)
    capsys.readouterr()
    invariance = {"ks_phi": None, "ks_s": None, "n": 0,
                  "censored_fraction": 1.0}
    assert main(["check", "invariants", cfg, "--out", str(out)]) == 0
    assert strict_json(capsys.readouterr().out) == invariance
    assert main(["run", cfg, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")["checks"]["invariance"]
    assert {k: summary[k] for k in invariance} == invariance
    assert main(["inducing", cfg, "--out", str(out)]) == 0
    printed = strict_json(capsys.readouterr().out)
    assert printed["n_base"] == 0
    for key in ("mu_x", "censored_fraction", "cap_fraction"):
        assert printed[key] is None, key


# a disk of radius 0.001: at seeds 1-3 the one orbit overflows the torus
# walk (UNFOLD_MAX_CELLS) before it meets the hole, so it is eligible for
# no statistic
NO_ELIGIBLE_RUN = {
    "version": 1,
    "table": {"class": "sinai_torus", "centers": [[0.5, 0.5]],
              "radii": [0.001]},
    "hole": {"center_s": 0.003, "radii": [0.0001]},
    "run": {"seed": 1, "n_orbits": 1, "t_max": 2.0}}


def test_short_returns_without_a_hit_pair_are_null(tmp_path, capsys):
    cfg = {**NO_ELIGIBLE_RUN,
           "checks": {"short_returns": True, "quasi_section": True},
           "budgets": {"short_return_hits": 1, "quasi_orbits": 1}}
    argv = ["run", write_cfg(tmp_path / "c.yaml", cfg),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    rdir = tmp_path / "o" / "r_0.0001"
    # p = ceil(mu^-0.9) is defined without a pair
    assert read_json(rdir / "diagnostics.json")["short_return"] \
        == {"fraction": None, "p": 23, "n_pairs": 0}
    entry = read_json(tmp_path / "o" / "summary.json")["per_radius"]
    assert entry["r_0.0001"]["short_return_fraction"] is None
    capsys.readouterr()
    main(argv + ["--enforce"])      # the check has no threshold
    assert "short_return" not in capsys.readouterr().err


def test_quasi_section_without_an_excursion_is_null(tmp_path, capsys):
    cfg = {**NO_ELIGIBLE_RUN, "checks": {"quasi_section": True},
           "budgets": {"quasi_orbits": 1}}
    argv = ["run", write_cfg(tmp_path / "c.yaml", cfg),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    rdir = tmp_path / "o" / "r_0.0001"
    assert read_json(rdir / "diagnostics.json")["quasi_section"] \
        == {"defect": None, "host_kind": "arc", "n_excursions": 0}
    entry = read_json(tmp_path / "o" / "summary.json")["per_radius"]
    assert entry["r_0.0001"]["quasi_section_defect"] is None
    capsys.readouterr()
    main(argv + ["--enforce"])      # the check has no threshold
    assert "quasi_section" not in capsys.readouterr().err


def test_quasi_section_names_a_flat_host(tmp_path):
    # the hole sits on the stadium's bottom flat; the kind is written from
    # the table, beside the statistic
    cfg = {"version": 1, "table": STADIUM,
           "hole": {"center_s": 1.0, "radii": [0.6]},
           "run": {"seed": 3, "n_orbits": 10, "t_max": 2.0},
           "checks": {"quasi_section": True}, "budgets": {"quasi_orbits": 10}}
    assert main(["run", write_cfg(tmp_path / "c.yaml", cfg),
                 "--out", str(tmp_path / "o")]) == 0
    quasi = read_json(tmp_path / "o" / "r_0.6" / "diagnostics.json")[
        "quasi_section"]
    assert quasi["host_kind"] == "flat"
    assert quasi["n_excursions"] > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_survival_of_no_eligible_orbit_is_empty(seed, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", write_cfg(tmp_path / "c.yaml", NO_ELIGIBLE_RUN),
                 "--out", str(out), "--seed", str(seed)]) == 0
    assert capsys.readouterr().err == ""
    rows = strict_csv(out / "r_0.0001" / "survival.csv")
    assert len(rows) == 102
    assert all(empirical == "" and float(exponential) > 0.0
               for _, empirical, exponential in rows[1:])
    entry = read_json(out / "summary.json")["per_radius"]["r_0.0001"]
    assert entry["excluded_before_first_hit"] == 1.0
    assert entry["survival_at_1"] is None


def test_statistics_of_no_data_are_undefined(tmp_path, capsys):
    out = tmp_path / "i"
    cfg = write_cfg(tmp_path / "i.yaml", UNDEFINED_INDUCING)
    assert main(["inducing", cfg, "--out", str(out), "--samples", "1"]) == 0
    assert strict_csv(out / "return_tail.csv") == [["n", "survival", "count"]]
    assert read_json(out / "inducing.json")["tail_max_n"] is None

    # one eligible orbit: no correlation
    cfg = copy.deepcopy(UNDEFINED_RUN)
    cfg["run"].update(n_orbits=1, intervals=[[0, 0.1], [0.1, 0.2]])
    out = tmp_path / "one"
    assert main(["run", write_cfg(tmp_path / "one.yaml", cfg),
                 "--out", str(out)]) == 0
    entry = read_json(out / "summary.json")["per_radius"]["r_0.05"]
    assert len(strict_csv(out / "r_0.05" / "counts.csv")) == 3
    assert entry["count_correlation"] is None
    assert None not in entry["tv"] + entry["count_means"]

    # no eligible orbit: no TV and no mean either, and --enforce breaches
    cfg = {**NO_ELIGIBLE_RUN,
           "run": {**NO_ELIGIBLE_RUN["run"], "intervals": [[0, 1], [1, 2]]}}
    argv = ["run", write_cfg(tmp_path / "none.yaml", cfg),
            "--out", str(tmp_path / "none")]
    capsys.readouterr()
    assert main(argv) == 0
    rdir = tmp_path / "none" / "r_0.0001"
    assert strict_csv(rdir / "counts.csv") == [["orbit", "interval", "count"]]
    entry = read_json(tmp_path / "none" / "summary.json")["per_radius"]
    assert entry["r_0.0001"]["tv"] == [None, None]
    assert entry["r_0.0001"]["count_means"] == [None, None]
    assert entry["r_0.0001"]["count_correlation"] is None
    assert main(argv + ["--enforce"]) == 3
    assert capsys.readouterr().err.count("r_0.0001: tv undefined") == 2

    # every lane censored: both invariance KS values breach
    cfg = write_cfg(tmp_path / "t.yaml", ALL_CENSORED)
    for command in (["check", "invariants"], ["run"]):
        assert main([*command, cfg, "--out", str(tmp_path / "t"),
                     "--enforce"]) == 3
        err = capsys.readouterr().err
        assert "threshold breach: invariance ks_phi undefined" in err
        assert "threshold breach: invariance ks_s undefined" in err


@pytest.mark.parametrize("command, cfg, statistic", [
    (["inducing", "--samples", "1"], UNDEFINED_INDUCING, "kac defect"),
    (["run"], UNDEFINED_RUN, "r_0.05: window_ks"),
])
def test_enforce_fails_closed_on_undefined_statistics(command, cfg, statistic,
                                                      tmp_path, capsys):
    name, *options = command
    argv = [name, write_cfg(tmp_path / "c.yaml", cfg),
            "--out", str(tmp_path / "o"), *options]
    assert main(argv) == 0
    assert "threshold breach" not in capsys.readouterr().err
    assert main(argv + ["--enforce"]) == 3
    err = capsys.readouterr().err
    assert f"threshold breach: {statistic} undefined" in err
    assert err.count("threshold breach") == 1


def polygon(*verts):
    return [{"kind": "flat", "p0": list(p), "p1": list(q)}
            for p, q in zip(verts, verts[1:] + verts[:1])]


# flats 0 and 4 overlap on y = 0 between x = 1 and 2, where orbits leak out
SLIT = {"class": "flower", "components": polygon(
    (0, 0), (3, 0), (3, 1), (2, 1), (2, 0), (1, 0), (1, 1), (0, 1))}
# the slit with one side tilted by 1e-13
TILTED_SLIT = {"class": "flower", "components": polygon(
    (0, 0), (3, 0), (3, 1), (2, 1), (2, 1e-13), (1, 0), (1, 1), (0, 1))}
# two copies of one scatterer loop: the second is never hit, yet sampled
TWIN_LOOPS = {"class": "flower", "components": polygon(
    (0, 0), (2, 0), (2, 1), (0, 1)) + 2 * [
        {"kind": "arc", "center": [1.0, 0.5], "radius": 0.3, "theta0": 0.0,
         "theta1": 2 * math.pi, "dispersing": True}]}


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
    # a quoted "false" is a string, and a non-empty string is truthy
    ({"table": {"class": "flower", "components": [
        {"kind": "arc", "center": [0.0, 0.0], "radius": 1.0, "theta0": 0.0,
         "theta1": 2 * math.pi, "dispersing": "false"}]}},
     "component 0 dispersing must be true or false"),
    ({"table": SLIT}, "[components_intersect] components (0,4)"),
    ({"table": TWIN_LOOPS}, "[components_intersect] components (4,5)"),
    ({"table": TILTED_SLIT}, "[components_intersect] components (0,4)"),
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


# a horizon is checked where holes are placed, so `check` and `inducing`
# accept these configs
@pytest.mark.parametrize("change", [
    {"run": {**SINAI_CFG["run"], "t_max": 1.0e30}},
    {"hole": {"center_s": 0.3, "radii": [5e-324]}},     # mu = 0
    # 2**63 mu = 14.7: t_max 3 fits, the checks' horizon 20 does not
    {"hole": {"center_s": 0.3, "radii": [1.0e-18]},
     "checks": {"short_returns": True}},
    {"hole": {"center_s": 0.3, "radii": [1.0e-18]},
     "checks": {"quasi_section": True}},
])
def test_horizons_past_int64_are_rejected_before_marching(change, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected config was marched")

    monkeypatch.setattr(dynamics, "step_batch", no_march)
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path / "c.yaml", {**SINAI_CFG, **change})
    assert main(["validate", cfg]) == 2
    assert main(["run", cfg]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors and all("past 2**63 collisions" in e for e in errors)
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
    manifest = read_json(out / "manifest.json")
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
# 1e300 overflows a squared table size or a horizon; 5e-324 gives a hole
# of measure 0
POOL = (None, "x", [], {}, -1, 0, 0.5, math.nan, math.inf, True, 1e300,
        5e-324)


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
