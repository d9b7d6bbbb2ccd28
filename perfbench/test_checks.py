"""Negative controls for the benchmark's output checks, and tracer tests.

Each check first passes on real (small) program output, then rejects the
same output with one corruption.  Run from the repository root:

    python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import openbilliards  # noqa: E402
from openbilliards import build_table, cli, make_hole  # noqa: E402
from openbilliards.cones import cone_invariance_scan  # noqa: E402
from openbilliards.geometry import cut_stadium_components  # noqa: E402
from openbilliards.measure import invariance_defect  # noqa: E402
from openbilliards.openstats import (  # noqa: E402
    collect_hitting, quasi_section_defect, short_return_fraction)


def run_cli(tmp, cfg, *argv):
    path = tmp / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.main([argv[0], *argv[1:], str(path), "--out", str(tmp)]) == 0


# ---------------------------------------------------------------------------
# stadium_sweep

L, R, T_MAX, N_ORBITS = 2.0, 0.05, 2.0, 300
INTERVALS = ((0.0, 1.0), (1.0, 2.0))
PERIMETER = checks.stadium_perimeter(L)
MU = 2.0 * R / PERIMETER


@pytest.fixture(scope="module")
def stadium(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stadium")
    run_cli(tmp, {"version": 1,
                  "table": {"class": "stadium", "flat_length": L},
                  "hole": {"center_s": 1.0, "radii": [R]},
                  "run": {"n_orbits": N_ORBITS, "t_max": T_MAX, "seed": 3,
                          "intervals": [list(iv) for iv in INTERVALS]}},
            "run")
    rdir = tmp / f"r_{R:g}"
    entry = checks.read_json(tmp / "summary.json")["per_radius"][f"r_{R:g}"]
    return {"hits": checks.read_hits(rdir / "hits.csv"),
            "counts": checks.read_table(rdir / "counts.csv", int),
            "survival": checks.read_table(rdir / "survival.csv", float),
            "excluded": entry["excluded_before_first_hit"]}


def hits_problems(hits, perimeter=PERIMETER):
    return checks.check_hits(hits, R, perimeter, T_MAX, N_ORBITS)


def counts_problems(hits, rows):
    return checks.check_counts(
        rows, checks.recount(hits, INTERVALS, N_ORBITS), max_excluded=0)


def copy_hits(hits):
    return {k: v.copy() for k, v in hits.items()}


def test_stadium_outputs_pass(stadium):
    assert stadium["hits"]["index"].size > N_ORBITS
    assert hits_problems(stadium["hits"]) == []
    assert counts_problems(stadium["hits"], stadium["counts"]) == []
    table = stadium["counts"][:, 2].reshape(-1, len(INTERVALS))
    assert checks.check_count_means(table, INTERVALS, MU) == []
    assert checks.check_survival(stadium["survival"], stadium["hits"],
                                 N_ORBITS, stadium["excluded"]) == []


def test_shifted_normalized_time_is_rejected(stadium):
    hits = copy_hits(stadium["hits"])
    hits["normalized_time"] += MU
    assert hits_problems(hits)


def test_wrong_perimeter_is_rejected(stadium):
    assert hits_problems(stadium["hits"], perimeter=2.0 * L + math.pi)


def test_index_out_of_range_is_rejected(stadium):
    hits = copy_hits(stadium["hits"])
    hits["index"][0] = 0
    hits["normalized_time"][0] = 0.0
    assert hits_problems(hits)


def test_unsorted_hits_are_rejected(stadium):
    hits = copy_hits(stadium["hits"])
    for col in hits.values():
        col[[0, 1]] = col[[1, 0]]
    assert hits_problems(hits)


def test_edited_counts_row_is_rejected(stadium):
    rows = stadium["counts"].copy()
    rows[7, 2] += 1
    assert counts_problems(stadium["hits"], rows)


def test_counts_skipping_an_orbit_need_a_censored_orbit(stadium):
    rows = stadium["counts"][len(INTERVALS):].copy()
    rows[:, 0] -= 1
    recounted = checks.recount(stadium["hits"], INTERVALS, N_ORBITS)
    assert checks.check_counts(rows, recounted, max_excluded=1) == []
    assert checks.check_counts(rows, recounted, max_excluded=0)


def test_biased_count_means_are_rejected(stadium):
    table = stadium["counts"][:, 2].reshape(-1, len(INTERVALS))
    assert checks.check_count_means(table + 1, INTERVALS, MU)


def test_wrong_exponential_column_is_rejected(stadium):
    surv = stadium["survival"].copy()
    surv[5, 2] *= 1.001
    assert checks.check_survival(surv, stadium["hits"], N_ORBITS,
                                 stadium["excluded"])


def test_wrong_empirical_survival_is_rejected(stadium):
    surv = stadium["survival"].copy()
    surv[20, 1] += 1.0 / N_ORBITS
    assert checks.check_survival(surv, stadium["hits"], N_ORBITS,
                                 stadium["excluded"])


# ---------------------------------------------------------------------------
# sinai_narrow

DISK, SINAI_R, EPS = 0.2, 0.02, 0.1


@pytest.fixture(scope="module")
def sinai():
    table = build_table("sinai_torus", centers=[(0.5, 0.5)], radii=[DISK])
    hole = make_hole(table, 0.3, SINAI_R)
    rep = short_return_fraction(table, hole, EPS, n_hits=300, seed=5,
                                t_max=4.0)
    data = collect_hitting(table, hole, rep.n_orbits, 4.0, 5)
    quasi = quasi_section_defect(table, hole, rep.n_orbits, 5, t_max=4.0)
    return rep, data, quasi


def short_problems(rep, data, mu=checks.sinai_hole_measure(SINAI_R, DISK)):
    return checks.check_short_returns(rep, data.hit_orbit, data.hit_index,
                                      mu, EPS)


def test_sinai_outputs_pass(sinai):
    rep, data, quasi = sinai
    assert short_problems(rep, data) == []
    assert checks.check_quasi_section(quasi) == []


def test_wrong_short_return_fraction_is_rejected(sinai):
    rep, data, _ = sinai
    assert short_problems(dataclasses.replace(rep, fraction=rep.fraction
                                              + 1.0 / rep.n_pairs), data)


def test_wrong_short_return_window_is_rejected(sinai):
    rep, data, _ = sinai
    assert short_problems(dataclasses.replace(rep, p=rep.p + 1), data)
    assert short_problems(rep, data, mu=2.0 * SINAI_R / (2.0 * math.pi))


def test_nonzero_quasi_section_defect_is_rejected(sinai):
    quasi = sinai[2]
    assert checks.check_quasi_section(
        dataclasses.replace(quasi, defect=1.0 / quasi.n_excursions_with_hit,
                            n_multi=1))


# ---------------------------------------------------------------------------
# squash_checks

SAMPLES = 20_000
SQUASH = {"class": "squash", "r1": 0.6, "r2": 1.0, "center_distance": 2.0}


@pytest.fixture(scope="module")
def squash(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("squash")
    cfg = {"version": 1, "table": SQUASH, "run": {"seed": 9}}
    run_cli(tmp, cfg, "inducing", "--samples", str(SAMPLES))
    run_cli(tmp, cfg, "check", "invariants", "--samples", str(SAMPLES))
    run_cli(tmp, cfg, "check", "cones", "--points", "2000")
    return {"tail": checks.read_table(tmp / "return_tail.csv", float),
            "inducing": checks.read_json(tmp / "inducing.json"),
            "invariants": checks.read_json(tmp / "invariants.json"),
            "cones": checks.read_json(tmp / "cones.json")}


def test_squash_outputs_pass(squash):
    assert checks.check_kac(squash["inducing"], squash["tail"], SAMPLES) == []
    assert checks.check_return_tail(squash["tail"]) == []
    assert checks.check_invariance(squash["invariants"]) == []
    assert checks.check_cones(squash["cones"]) == []


def test_kac_off_by_a_fifth_is_rejected(squash):
    inducing = dict(squash["inducing"], mean_R=squash["inducing"]["mean_R"]
                    * 1.2)
    assert checks.check_kac(inducing, squash["tail"], SAMPLES)


def test_increasing_return_tail_is_rejected(squash):
    tail = squash["tail"].copy()
    tail[[0, 1], 1] = tail[[1, 0], 1]
    assert checks.check_return_tail(tail)


def test_return_tail_off_its_histogram_is_rejected(squash):
    tail = squash["tail"].copy()
    tail[2, 1] -= 1e-6
    assert np.all(np.diff(tail[:, 1]) <= 0.0)
    assert checks.check_return_tail(tail)


def test_wrong_measure_fails_invariance():
    table = build_table("squash", r1=0.6, r2=1.0, center_distance=2.0)
    rep = invariance_defect(table, SAMPLES, 9, phi_mode="uniform")
    assert checks.check_invariance({"ks_phi": rep.ks_phi, "ks_s": rep.ks_s,
                                    "n": rep.n})


def test_broken_geometry_fails_cones():
    control = build_table("flower", components=cut_stadium_components(2.0,
                                                                      0.75))
    rep = cone_invariance_scan(control, 2000, 10, seed=41)
    assert checks.check_cones({"violations": rep.n_violations,
                               "transversality_violations":
                               rep.transversality_violations})


# ---------------------------------------------------------------------------
# tracing and the metric names


def test_tracer_wraps_callers_names_and_restores():
    from tracing import Tracer
    ob = openbilliards
    original = ob.openstats.step_batch
    table = build_table("stadium", flat_length=2.0)
    hole = make_hole(table, 1.0, 0.05)
    with Tracer(ob) as tracer:
        assert ob.openstats.step_batch is not original
        assert ob.dynamics.step_batch is ob.openstats.step_batch
        data = ob.openstats.collect_hitting(table, hole, 50, 0.5, 1)
    assert ob.openstats.step_batch is original
    summary = tracer.summary(0, len(tracer.spans))
    steps = summary["dynamics.step_batch"]
    assert steps["calls"] == data.horizon
    assert steps["amount"] == 50 * data.horizon
    assert summary["geometry.locate_batch"]["in_step_amount"] == steps["amount"]
    assert summary["geometry.Hole.contains"]["calls"] == data.horizon
    assert summary["openstats.collect_hitting"]["calls"] == 1
    assert "openstats.no_such_function" not in summary
    assert tracer.results["openstats.collect_hitting"] == [data]


def test_layer_metric_names_match_benchmark_json():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    micro = {k: {n: 1.0 for n in run.MICRO_SIZES}
             for k in ("dynamics.step_batch", "geometry.locate_batch")}
    wl = run.WORKLOADS["stadium_sweep"]
    metrics = run.layer_metrics(wl, openbilliards, {}, {}, 1, [], micro, 0.0)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert [n for n, _ in run.END_TO_END] == \
        [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in metrics.items())
    assert sorted(run.WORKLOADS) == sorted(w["name"]
                                           for w in spec["workloads"])
