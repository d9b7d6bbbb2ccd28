import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from openbilliards import FLAG_GRAZING, FLAG_OK, build_table, cones, dynamics
from openbilliards.cones import (
    ConeScanReport,
    _cone_edges,
    _scan_once,
    cone_invariance_scan,
)
from openbilliards.geometry import cut_stadium_components, locate_batch
from openbilliards.measure import SrbSampler

from helpers import make, tangent_map

# the scanned tables of the catalogue
SCAN_TABLES = ("diamond", "flower", "sinai", "squash", "stadium")


@pytest.fixture(scope="module")
def sinai():
    return make("sinai")


@pytest.fixture(scope="module")
def stadium():
    return make("stadium")


def host_curvature(table, s):
    return float(locate_batch(table, [s])["K"][0])


def stable_edges(K):
    """The stable cone: the unstable one mirrored, (-hi, -lo)."""
    lo, hi = _cone_edges(K)
    return -hi, -lo


def test_cone_at_dispersing(sinai):
    # scatterer of radius 0.2: K = 5, unstable cone [5, inf]
    K = host_curvature(sinai, 0.1)
    assert K == 5.0
    assert _cone_edges(K) == (5.0, math.inf)
    assert stable_edges(K) == (-math.inf, -5.0)


def test_cone_at_flat(stadium):
    K = host_curvature(stadium, 0.5)
    assert K == 0.0
    assert _cone_edges(K) == (0.0, math.inf)
    assert stable_edges(K) == (-math.inf, 0.0)


def test_cone_at_focusing(stadium):
    # unit-radius cap: K = -1, unstable cone [-1, 0]
    K = host_curvature(stadium, 2.5)
    assert K == -1.0
    assert _cone_edges(K) == (-1.0, 0.0)
    assert stable_edges(K) == (0.0, 1.0)


@pytest.mark.parametrize("name", SCAN_TABLES)
def test_scan_clean(name):
    table = make(name)
    rep = cone_invariance_scan(table, 3000, 5, seed=9)
    assert rep.n_violations == 0, f"{name}: {rep.n_violations} violations"
    assert rep.worst_margin > -1e-9
    assert rep.vertical_min_margin > 0.0
    assert rep.transversality_violations == 0
    assert rep.censored_fraction < 0.01


def test_scan_semi_dispersing_clean():
    rep = cone_invariance_scan(make("semi"), 3000, 5, seed=9)
    assert rep.n_violations == 0
    assert rep.transversality_violations == 0
    assert rep.vertical_min_margin > 0.0


def broken_focusing():
    return build_table("flower", components=cut_stadium_components(2.0, 0.75))


def test_scan_flags_broken_focusing_geometry():
    # flats only 1.5 apart between unit caps: the cap circles overlap the
    # opposite flat, so images of unstable vectors leave the cone family
    rep = cone_invariance_scan(broken_focusing(), 3000, 5, seed=9)
    assert rep.n_violations > 0
    assert rep.worst_margin < -1.0


# every field recorded from the scan that built whole (n_vectors, n)
# arrays, except the squash's worst_margin, recorded from the one-step scan:
# the last digits of stable-half margins depend on how its maps are formed
PINNED_SCANS = {
    "squash": (partial(make, "squash"), 40_000, 10, 1, ConeScanReport(
        n_pairs=800000, n_violations=0, worst_margin=-1.755235903331541e-14,
        vertical_min_margin=0.0050315671106656405,
        transversality_violations=0, censored_fraction=0.0)),
    "broken_focusing": (broken_focusing, 3000, 5, 9, ConeScanReport(
        n_pairs=30000, n_violations=477, worst_margin=-446.30357423675395,
        vertical_min_margin=-27.578722733157775,
        transversality_violations=0, censored_fraction=0.0)),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCANS))
def test_scan_report_is_pinned(name):
    build, n_points, n_vectors, seed, pinned = PINNED_SCANS[name]
    assert cone_invariance_scan(build(), n_points, n_vectors, seed) == pinned


REVERSAL_TABLES = {
    **{name: partial(make, name) for name in SCAN_TABLES},
    "semi_dispersing": partial(make, "semi"),
    "broken_focusing": broken_focusing,
}


def second_step_stable_half(table, s, phi, n_vectors):
    """The stable tally as a second step takes it: the unstable check of
    the maps at the reflected images (s1, -phi1), stepped again.  Returns
    the tally, its lane count and whether the second step flagged none."""
    _, (s1, phi1, _, _, flag) = tangent_map(table, s, phi)
    ok = flag == FLAG_OK
    s1, phi1 = s1[ok], -phi1[ok]
    M, (_, phi2, tau, comp, flag) = tangent_map(table, s1, phi1)
    ok = flag == FLAG_OK
    tally = _scan_once(M[ok], table.K[table.component(s1[ok])],
                       table.K[comp[ok]], np.cos(phi2[ok]), tau[ok], n_vectors)
    return tally, int(ok.sum()), bool(ok.all())


@pytest.mark.parametrize("name", sorted(REVERSAL_TABLES))
def test_stable_half_matches_a_second_step(name, monkeypatch):
    """The scan steps its points once, and the stable tally it reads from
    that flight by time reversal agrees with re-stepping the reflected
    images: equal counts, margins within 1e-9 relative."""
    table = REVERSAL_TABLES[name]()
    n_points, n_vectors, seed = 20_000, 10, 41
    steps, halves = [], []
    step = dynamics.step_batch

    def counted(*args):
        steps.append(args)
        return step(*args)

    def recorded(M, K0, K1, c1, tau, n):
        halves.append((_scan_once(M, K0, K1, c1, tau, n), tau.size))
        return halves[-1][0]

    monkeypatch.setattr(dynamics, "step_batch", counted)
    monkeypatch.setattr(cones, "_scan_once", recorded)
    cone_invariance_scan(table, n_points, n_vectors, seed)
    assert len(steps) == 1 and len(halves) == 2
    monkeypatch.undo()

    stable, lanes = halves[1]
    s, phi = SrbSampler(table, seed).sample(n_points)
    ref, ref_lanes, unflagged = second_step_stable_half(table, s, phi,
                                                        n_vectors)
    violations, worst, vertical_min, trans = stable
    assert (violations, trans) == (ref[0], ref[3])
    for got, want in ((worst, ref[1]), (vertical_min, ref[2])):
        assert got == want or abs(got - want) <= 1e-9 * max(1.0, abs(want))
    if unflagged:
        assert lanes == ref_lanes


def test_scan_working_set_per_point():
    """The scan tallies one vector row at a time: its traced peak stays
    under 500 bytes per point at 10 vectors (the whole-array scan held
    about 1040)."""
    table = make("squash")
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
    """The one step censors the impacts landing in a band of s; the
    reported fraction is the flagged lanes over all lanes it stepped."""
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
    assert len(flags) == 1
    every = np.concatenate(flags)
    assert rep.censored_fraction == np.count_nonzero(every) / every.size
