"""The orbit-marching engine: scheduling independence, nested holes, censoring.

Censoring never happens naturally at these sizes, so the censoring tests
wrap the collision kernel and flag impacts themselves: either by where a
lane lands (the same lanes whatever the batching) or by step and position
in the batch.
"""

import math

import numpy as np
import pytest

from openbilliards import build_table, dynamics, make_hole, openstats
from openbilliards.dynamics import (
    FLAG_CORNER,
    FLAG_GRAZING,
    FLAG_LOST,
    FLAG_OK,
    FLAG_UNFOLD,
)
from openbilliards.geometry import locate_batch, regular_flower_components
from openbilliards.inducing import _returns_batch, base_mask
from openbilliards.measure import SrbSampler
from openbilliards.openstats import collect_hitting, collect_hitting_family

TABLES = {
    "stadium": lambda: build_table("stadium", flat_length=2.0),
    "sinai": lambda: build_table("sinai_torus", centers=[(0.5, 0.5)],
                                 radii=[0.2]),
    "flower": lambda: build_table(
        "flower", components=regular_flower_components(4, 2.0)),
    "semi_dispersing": lambda: build_table(
        "semi_dispersing", width=2.0, height=1.0, centers=[(1.0, 0.5)],
        radii=[0.3]),
}

FIELDS = ("hit_orbit", "hit_index", "hit_induced", "censor_step",
          "censor_kind", "final_induced")


def flag_by_landing(step):
    """Kernel wrapper that censors impacts landing in thin bands of s."""
    def flagged(table, s, phi, **kw):
        s1, phi1, tau, comp, flag = step(table, s, phi, **kw)
        band = (s1 * 977.0) % 1.0
        flag = flag.copy()
        for k, code in enumerate((FLAG_GRAZING, FLAG_CORNER, FLAG_LOST)):
            sel = (flag == FLAG_OK) & (band >= 0.002 * k) \
                & (band < 0.002 * (k + 1))
            flag[sel] = code
        return s1, phi1, tau, comp, flag
    return flagged


def flag_at(step, plan):
    """Kernel wrapper that flags batch positions at chosen steps; plan maps
    a step number (counted from the first call) to [(position, code)]."""
    calls = [0]

    def flagged(table, s, phi, **kw):
        s1, phi1, tau, comp, flag = step(table, s, phi, **kw)
        calls[0] += 1
        flag = flag.copy()
        for pos, code in plan.get(calls[0], ()):
            flag[pos] = code
        return s1, phi1, tau, comp, flag
    return flagged


def holes_of(table):
    """Two nested holes centred on the middle of component 0."""
    lo, hi = table.offsets[0], table.offsets[1]
    c, w = 0.5 * (lo + hi), hi - lo
    return [make_hole(table, c, 0.2 * w), make_hole(table, c, 0.1 * w)]


def offset_sampler(s, phi):
    """Stand-in for SrbSampler whose seed is an offset into one fixed orbit
    set, so collect_hitting_family with n orbits and seed=lo marches lanes
    lo .. lo + n - 1 of it."""
    class Sampler:
        def __init__(self, table, seed):
            self.lo = seed

        def sample(self, n):
            return s[self.lo:self.lo + n], phi[self.lo:self.lo + n]
    return Sampler


def chunked(table, holes, t_max, n, size):
    """Per-hole records of lanes 0 .. n - 1 marched size lanes at a time,
    orbit ids shifted back to the whole set."""
    out = [{f: [] for f in FIELDS} for _ in holes]
    for lo in range(0, n, size):
        part = collect_hitting_family(
            table, [(h, min(size, n - lo), t_max) for h in holes], lo)
        for rec, data in zip(out, part):
            for f in FIELDS:
                shift = lo if f == "hit_orbit" else 0
                rec[f].append(getattr(data, f) + shift)
    return [{f: np.concatenate(v) for f, v in rec.items()} for rec in out]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_chunked_march_matches_whole(name, monkeypatch):
    table = TABLES[name]()
    s, phi = SrbSampler(table, 3).sample(26)
    monkeypatch.setattr(openstats, "SrbSampler", offset_sampler(s, phi))
    monkeypatch.setattr(dynamics, "step_batch",
                        flag_by_landing(dynamics.step_batch))
    holes = holes_of(table)
    t_max = 100 * holes[0].measure        # horizons of about 100 and 200
    whole = collect_hitting_family(table, [(h, 26, t_max) for h in holes],
                                   0)
    assert np.count_nonzero(whole[1].censor_kind) > 0
    assert np.count_nonzero(whole[1].censor_kind == FLAG_OK) > 0
    assert whole[1].hit_orbit.size > 0
    for size in (1, 3, 5, 7, 13):
        parts = chunked(table, holes, t_max, 26, size)
        for data, part in zip(whole, parts):
            for f in FIELDS:
                a = getattr(data, f)
                assert np.array_equal(a, part[f]), (size, f)
                assert a.dtype == part[f].dtype, (size, f)


def assert_same(data, alone):
    assert (data.mu, data.n_orbits, data.horizon, data.t_max,
            data.seed) == (alone.mu, alone.n_orbits, alone.horizon,
                           alone.t_max, alone.seed)
    for f in FIELDS:
        a, b = getattr(data, f), getattr(alone, f)
        assert np.array_equal(a, b) and a.dtype == b.dtype, f


def test_nested_pass_equals_separate_calls(monkeypatch):
    table = TABLES["stadium"]()
    holes = [make_hole(table, 1.0, r) for r in (0.05, 0.02, 0.01)]
    h0 = math.ceil(1.0 / holes[0].measure)
    h1 = math.ceil(1.0 / holes[1].measure)
    # censor around the first two horizons: at h0 a lane still counts for
    # every hole, at h0 + 1 it is already past the first hole's record
    plan = {50: [(2, FLAG_LOST)], h0: [(0, FLAG_CORNER), (5, FLAG_CORNER)],
            h0 + 1: [(1, FLAG_GRAZING)], h1: [(3, FLAG_UNFOLD)]}
    real = dynamics.step_batch

    def run(fn, *args):
        monkeypatch.setattr(dynamics, "step_batch", flag_at(real, plan))
        return fn(*args, 4)

    family = run(collect_hitting_family, table,
                 [(h, 100, 1.0) for h in holes])
    for hole, data in zip(holes, family):
        assert_same(data, run(collect_hitting, table, hole, 100, 1.0))
    kinds = [np.count_nonzero(d.censor_kind) for d in family]
    assert kinds == [3, 5, 5]
    assert family[0].censor_step.max() == family[0].horizon + 1
    assert np.count_nonzero(family[0].censor_step == h0) == 2


def test_unequal_requests_equal_separate_calls(monkeypatch):
    # requests with their own orbit prefixes and horizons, censored by
    # landing (position plans shift with the batch width); the widest
    # request is short, so lanes past the narrower ones retire early
    table = TABLES["stadium"]()
    big, small = make_hole(table, 1.0, 0.05), make_hole(table, 1.0, 0.02)
    requests = [(big, 60, 0.5), (small, 25, 2.0), (big, 40, 3.0),
                (small, 7, 1.0), (big, 25, 0.0)]
    monkeypatch.setattr(dynamics, "step_batch",
                        flag_by_landing(dynamics.step_batch))
    steps = []
    march = dynamics.march

    def counted(table, s, phi, horizon, observe, comp=None):
        def seen(j, lanes, *rest):
            steps.append(lanes.size)
            return observe(j, lanes, *rest)
        return march(table, s, phi, horizon, seen, comp)

    monkeypatch.setattr(openstats, "march", counted)
    family = collect_hitting_family(table, requests, 5)
    n_steps, marched = len(steps), sum(steps)
    for (hole, n, t_max), data in zip(requests, family):
        assert_same(data, collect_hitting(table, hole, n, t_max, 5))
    censored = [np.count_nonzero(d.censor_kind) for d in family]
    assert censored[0] > 0 and censored[2] > censored[0]
    assert family[1].hit_orbit.size > 0 and family[4].horizon == 0
    # a lane is observed until its censoring or the longest horizon that
    # covers it: lanes 0 .. 24 that of the second request, lanes 25 .. 39
    # the third's, lanes 40 .. 59 the first's
    assert n_steps == family[1].horizon == max(d.horizon for d in family)
    assert marched == sum(int((d.censor_step[lo:] - 1).sum()) for d, lo in
                          ((family[1], 0), (family[2], 25), (family[0], 40)))


@pytest.mark.parametrize("name", ["stadium", "sinai"])
def test_family_matches_scalar_orbits(name):
    # an independent reference: each orbit replayed alone by one-lane
    # steps, to each hole's own horizon, its hits read off the hole and
    # its induced counter rebuilt from its components
    table = TABLES[name]()
    center = {"stadium": 1.0, "sinai": 0.3}[name]
    holes = [make_hole(table, center, r) for r in (0.05, 0.02)]
    family = collect_hitting_family(table, [(h, 8, 1.0) for h in holes], 2)
    s, phi = SrbSampler(table, 2).sample(8)
    comp0 = locate_batch(table, s)["component"]
    for hole, data in zip(holes, family):
        for i in range(8):
            lane, prev = (s[i:i + 1], phi[i:i + 1]), comp0[i:i + 1]
            entries, hits = 0, []
            for j in range(1, data.horizon + 1):
                *lane, _, now, flag = dynamics.step_batch(table, *lane)
                assert flag[0] == FLAG_OK
                entries += int(base_mask(table, now, prev)[0])
                if hole.contains(lane[0][0]):
                    hits.append((j, entries))
                prev = now
            sel = data.hit_orbit == i
            got = zip(data.hit_index[sel], data.hit_induced[sel])
            assert list(got) == hits
            assert data.final_induced[i] == entries
            assert data.censor_step[i] == data.horizon + 1
        assert data.hit_orbit.size > 0


def observed(table, s0, phi0, horizon):
    """One lane marched: (j, s, phi, component) at each observed collision,
    then the lane's censor step and kind."""
    seen = []

    def observe(j, lanes, s, phi, comp, prev):
        seen.append((j, float(s[0]), float(phi[0]), int(comp[0])))

    step, kind, _ = dynamics.march(table, [s0], [phi0], horizon, observe)
    return seen, int(step[0]), int(kind[0])


def test_orbit_censored_at_injected_step(monkeypatch):
    table = TABLES["stadium"]()
    clean, step, _ = observed(table, 0.3, 0.2, 40)
    assert step == 41
    real = dynamics.step_batch
    for code in (FLAG_CORNER, FLAG_UNFOLD):
        monkeypatch.setattr(dynamics, "step_batch",
                            flag_at(real, {12: [(0, code)]}))
        seen, step, kind = observed(table, 0.3, 0.2, 40)
        assert (step, kind) == (12, code)
        assert seen == clean[:11]


def test_return_time_censored_at_injected_step(monkeypatch):
    table = TABLES["stadium"]()
    # component 1 of the stadium is an arc: arriving from a flat is an entry
    s, phi, comp = np.array([3.0]), np.array([0.2]), np.array([1])
    assert table.components[1].kind == "arc"
    assert base_mask(table, comp, [0])[0]
    R, cap_hit, flagged = _returns_batch(table, s, phi, comp, 100_000)
    assert not (cap_hit[0] or flagged[0]) and R[0] >= 1
    monkeypatch.setattr(dynamics, "step_batch", flag_at(
        dynamics.step_batch, {int(R[0]): [(0, FLAG_GRAZING)]}))
    cut, cap_hit, flagged = _returns_batch(table, s, phi, comp, 100_000)
    assert flagged[0] and not cap_hit[0] and cut[0] == 0
