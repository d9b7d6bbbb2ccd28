import math
import tracemalloc

import numpy as np
import pytest

from openbilliards import FLAG_GRAZING, build_table, dynamics
from openbilliards.cones import (
    ConeScanReport,
    _cone_edges,
    cone_invariance_scan,
)
from openbilliards.geometry import (
    cut_stadium_components,
    locate_batch,
    regular_flower_components,
)

SCAN_TABLES = {
    "sinai": lambda: build_table("sinai_torus", centers=[(0.5, 0.5)],
                                 radii=[0.2]),
    "stadium": lambda: build_table("stadium", flat_length=2.0),
    "squash": lambda: build_table("squash", r1=0.6, r2=1.0,
                                  center_distance=2.0),
    "diamond": lambda: build_table("diamond", square_side=2.0,
                                   corner_radius=0.5),
    "flower": lambda: build_table(
        "flower", components=regular_flower_components(4, 2.0)),
}


@pytest.fixture(scope="module")
def sinai():
    return SCAN_TABLES["sinai"]()


@pytest.fixture(scope="module")
def stadium():
    return SCAN_TABLES["stadium"]()


def host_curvature(table, s):
    return float(locate_batch(table, [s])["K"][0])


def test_cone_at_dispersing(sinai):
    # scatterer of radius 0.2: K = 5, unstable cone [5, inf]
    K = host_curvature(sinai, 0.1)
    assert K == 5.0
    assert _cone_edges(K) == (5.0, math.inf)
    assert _cone_edges(K, "stable") == (-math.inf, -5.0)


def test_cone_at_flat(stadium):
    K = host_curvature(stadium, 0.5)
    assert K == 0.0
    assert _cone_edges(K) == (0.0, math.inf)
    assert _cone_edges(K, "stable") == (-math.inf, 0.0)


def test_cone_at_focusing(stadium):
    # unit-radius cap: K = -1, unstable cone [-1, 0]
    K = host_curvature(stadium, 2.5)
    assert K == -1.0
    assert _cone_edges(K) == (-1.0, 0.0)
    assert _cone_edges(K, "stable") == (0.0, 1.0)


def test_cone_at_rejects_unknown_kind():
    with pytest.raises(ValueError):
        _cone_edges(5.0, "neutral")


@pytest.mark.parametrize("name", sorted(SCAN_TABLES))
def test_scan_clean(name):
    table = SCAN_TABLES[name]()
    rep = cone_invariance_scan(table, 3000, 5, seed=9)
    assert rep.clean, f"{name}: {rep.n_violations} violations"
    assert rep.worst_margin > -1e-9
    assert rep.vertical_min_margin > 0.0
    assert rep.transversality_violations == 0
    assert rep.censored_fraction < 0.01


def test_scan_semi_dispersing_clean():
    table = build_table("semi_dispersing", width=2.0, height=1.0,
                        centers=[(1.0, 0.5)], radii=[0.3])
    rep = cone_invariance_scan(table, 3000, 5, seed=9)
    assert rep.clean
    assert rep.vertical_min_margin > 0.0


def broken_focusing():
    return build_table("flower", components=cut_stadium_components(2.0, 0.75))


def test_scan_flags_broken_focusing_geometry():
    # flats only 1.5 apart between unit caps: the cap circles overlap the
    # opposite flat, so images of unstable vectors leave the cone family
    rep = cone_invariance_scan(broken_focusing(), 3000, 5, seed=9)
    assert rep.n_violations > 0
    assert not rep.clean
    assert rep.worst_margin < -1.0


# every field, recorded from the scan that built whole (n_vectors, n) arrays
PINNED_SCANS = {
    "squash": (SCAN_TABLES["squash"], 40_000, 10, 1, ConeScanReport(
        n_pairs=800000, n_violations=0, worst_margin=-2.2316570770929294e-14,
        vertical_min_margin=0.0050315671106656405,
        transversality_violations=0, censored_fraction=0.0)),
    "broken_focusing": (broken_focusing, 3000, 5, 9, ConeScanReport(
        n_pairs=30000, n_violations=477, worst_margin=-446.30357423675395,
        vertical_min_margin=-27.578722733157775,
        transversality_violations=0, censored_fraction=0.0)),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCANS))
def test_scan_report_is_pinned(name):
    make, n_points, n_vectors, seed, pinned = PINNED_SCANS[name]
    assert cone_invariance_scan(make(), n_points, n_vectors, seed) == pinned


def test_scan_working_set_per_point():
    """The scan tallies one vector row at a time: its traced peak stays
    under 500 bytes per point at 10 vectors (the whole-array scan held
    about 1040)."""
    table = SCAN_TABLES["squash"]()
    n_points = 200_000
    tracemalloc.start()
    try:
        cone_invariance_scan(table, n_points, 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n_points < 500, peak / n_points


def test_scan_deterministic(sinai):
    a = cone_invariance_scan(sinai, 2000, 4, seed=3)
    b = cone_invariance_scan(sinai, 2000, 4, seed=3)
    assert a == b


def test_censored_fraction_is_share_of_scanned_lanes(stadium, monkeypatch):
    """Each pass censors the impacts landing in a band of s; the reported
    fraction is the flagged lanes over all lanes both passes stepped."""
    step = dynamics.step_batch
    flags = []

    def flagged(table, s, phi):
        s1, phi1, tau, comp, flag = step(table, s, phi)
        band = (s1 * 977.0) % 1.0 < 0.1
        flag = np.where(band, np.int8(FLAG_GRAZING), flag)
        flags.append(flag)
        return s1, phi1, tau, comp, flag

    monkeypatch.setattr(dynamics, "step_batch", flagged)
    rep = cone_invariance_scan(stadium, 10_000, 3, seed=1)
    assert len(flags) == 2
    every = np.concatenate(flags)
    assert rep.censored_fraction == np.count_nonzero(every) / every.size
