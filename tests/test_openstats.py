import math

import numpy as np
import pytest

from openbilliards import build_table, ks_statistic, make_hole
from openbilliards.openstats import (
    HittingData,
    collect_hitting,
    count_statistics,
    poisson_pmf,
    quasi_section_defect,
    short_return_fraction,
    survival_curve,
)


@pytest.fixture(scope="module")
def sinai():
    return build_table("sinai_torus", centers=[(0.5, 0.5)], radii=[0.2])


@pytest.fixture(scope="module")
def stadium():
    return build_table("stadium", flat_length=2.0)


def synth(mu, n_orbits, t_max, hits, censor_step=None, final_induced=None):
    """Hand-built HittingData from (orbit, index, induced counter) triples
    plus the final induced counters, or from (orbit, index) pairs on a table
    where every collision enters the base: induced time is the index, and an
    orbit's final counter is the last collision of its record."""
    horizon = int(math.ceil(t_max / mu))
    hits = sorted(hits)
    orb = np.array([h[0] for h in hits], dtype=np.int64)
    idx = np.array([h[1] for h in hits], dtype=np.int64)
    if censor_step is None:
        censor_step = np.full(n_orbits, horizon + 1, dtype=np.int64)
    censor_step = np.asarray(censor_step, dtype=np.int64)
    induced = idx
    if final_induced is None:
        final_induced = np.minimum(censor_step - 1, horizon)
    else:
        induced = np.array([h[2] for h in hits], dtype=np.int64)
    return HittingData(
        mu=mu, n_orbits=n_orbits, horizon=horizon, t_max=t_max,
        hit_orbit=orb, hit_index=idx, censor_step=censor_step,
        censor_kind=np.zeros(n_orbits, dtype=np.int8), hit_induced=induced,
        final_induced=np.asarray(final_induced, dtype=np.int64),
    )


def test_normalized_time_scaling():
    data = synth(0.01, 1, 5.0, [(0, 250)])
    assert data.normalized_times.tolist() == [2.5]


def test_first_hits_and_series():
    data = synth(0.1, 3, 4.0, [(0, 3), (0, 7), (2, 20)])
    fh, excluded = data.first_hit_sample()
    assert fh[0] == pytest.approx(0.3)
    assert fh[1] == math.inf
    assert fh[2] == pytest.approx(2.0)
    assert excluded == 0.0
    assert np.allclose(data.normalized_times[data.hit_orbit == 0], [0.3, 0.7])
    assert not np.any(data.hit_orbit == 1)


def test_censored_before_first_hit():
    data = synth(0.1, 3, 4.0, [(0, 3)], censor_step=[41, 12, 41])
    fh, excluded = data.first_hit_sample()
    # orbit 1 is left out; orbit 2 survives the horizon
    assert fh.tolist() == [pytest.approx(0.3), math.inf]
    assert excluded == pytest.approx(1 / 3)


def test_collect_hitting_basics(sinai):
    hole = make_hole(sinai, 0.3, 0.05)
    data = collect_hitting(sinai, hole, 300, 3.0, seed=5)
    assert data.horizon == math.ceil(3.0 / hole.measure)
    assert np.all(data.hit_index >= 1)
    assert np.all(data.hit_index <= data.horizon)
    # sorted by (orbit, index) with strictly increasing times per orbit
    key = data.hit_orbit * (data.horizon + 1) + data.hit_index
    assert np.all(np.diff(key) > 0)
    assert np.allclose(data.normalized_times, data.hit_index * hole.measure)
    again = collect_hitting(sinai, hole, 300, 3.0, seed=5)
    assert np.array_equal(data.hit_orbit, again.hit_orbit)
    assert np.array_equal(data.hit_index, again.hit_index)


def test_collect_hitting_zero_horizon(sinai):
    hole = make_hole(sinai, 0.3, 0.05)
    data = collect_hitting(sinai, hole, 10, 0.0, seed=5)
    assert data.horizon == 0
    assert data.hit_orbit.size == 0
    assert np.all(data.censor_step == 1)


def test_collect_tracks_induced_on_dispersing(sinai):
    # every sinai collision enters the base, so the induced counter is
    # just the collision index
    hole = make_hole(sinai, 0.3, 0.05)
    data = collect_hitting(sinai, hole, 100, 2.0, seed=6)
    assert np.array_equal(data.hit_induced, data.hit_index)
    assert np.array_equal(data.final_induced,
                          np.minimum(data.censor_step - 1, data.horizon))


def test_ks_exp1_quantiles():
    n = 10
    x = -np.log(1.0 - (np.arange(n) + 0.5) / n)
    assert ks_statistic(x, 1.0 - np.exp(-x)) == pytest.approx(1.0 / (2 * n))


def test_ks_exp1_point_masses():
    for x, ks in ((np.array([math.log(2.0)]), 0.5), (np.zeros(5), 1.0)):
        assert ks_statistic(x, 1.0 - np.exp(-x)) == pytest.approx(ks)
    assert math.isnan(ks_statistic(np.array([]), np.array([])))


def test_window_ks_without_survivors_is_ks_exp1():
    # every eligible orbit hits within the horizon, so the window's end adds
    # nothing; the orbit censored before any hit stays out of the sample
    mu, t_max = 1 / 128, 2.0
    index = np.random.default_rng(3).integers(1, 257, size=200)
    censor_step = np.full(201, 257)
    censor_step[200] = 5
    data = synth(mu, 201, t_max, list(enumerate(index.tolist())),
                 censor_step=censor_step)
    fh, excluded = data.first_hit_sample()
    assert fh.size == 200 and np.isfinite(fh).all()
    assert excluded == 1 / 201
    x = np.sort(fh)
    assert data.window_ks() == ks_statistic(x, 1.0 - np.exp(-x))


def test_window_ks_counts_survivors_to_the_window_end():
    # one hit at t = 0.1 among 4 orbits, window [0, 1]: the largest gap is
    # at the window's end, F(1) - 1/4
    data = synth(0.1, 4, 1.0, [(0, 1)])
    assert data.window_ks() == pytest.approx(1.0 - math.exp(-1.0) - 0.25)
    assert math.isnan(synth(0.1, 2, 1.0, []).window_ks())


def test_survival_curve_synthetic():
    data = synth(0.1, 4, 4.0, [(0, 5), (1, 15), (2, 35)])
    sc = survival_curve(data, np.array([0.0, 1.0, 2.0, 4.0]))
    # first hits: 0.5, 1.5, 3.5, never
    assert sc.empirical.tolist() == [1.0, 0.75, 0.5, 0.25]
    assert np.allclose(sc.exponential, np.exp(-sc.t))
    assert sc.excluded_fraction == 0.0
    assert sc.n_orbits == 4


def test_survival_curve_excludes_censored():
    data = synth(0.1, 4, 4.0, [(0, 5)], censor_step=[41, 2, 41, 41])
    sc = survival_curve(data, np.array([0.0, 1.0]))
    assert sc.n_orbits == 3
    assert sc.excluded_fraction == pytest.approx(0.25)


def test_survival_curve_of_no_eligible_orbit_is_nan():
    data = synth(0.1, 2, 4.0, [], censor_step=[3, 5])
    sc = survival_curve(data, np.array([0.0, 1.0]))
    assert np.isnan(sc.empirical).all() and sc.n_orbits == 0
    assert sc.excluded_fraction == 1.0


def test_survival_curve_grid_validation():
    data = synth(0.1, 2, 4.0, [])
    with pytest.raises(ValueError, match="horizon"):
        survival_curve(data, np.array([0.0, 4.5]))


def test_poisson_pmf_normalizes():
    pmf = poisson_pmf(1.0, 20)
    assert pmf[0] == pytest.approx(math.exp(-1.0))
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_counts_all_zero_tv():
    data = synth(0.01, 200, 3.0, [])
    rep = count_statistics(data, [(0.0, 1.0)])
    assert np.all(rep.counts == 0)
    assert rep.tv[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert rep.means[0] == 0.0


def poisson_quantile_counts(lam, n):
    """Counts of n orbits at the Poisson(lam) quantiles (i + 1/2) / n."""
    cdf = np.cumsum(poisson_pmf(lam, 10 * int(lam) + 20))
    return np.searchsorted(cdf, (np.arange(n) + 0.5) / n)


def counts_data(counts, t_max):
    """Orbit i hits counts[i] times, all early in (0, t_max]."""
    hits = [(i, j + 1) for i, c in enumerate(counts) for j in range(c)]
    return synth(0.01, len(counts), t_max, hits)


def test_counts_tv_is_exact_on_long_intervals():
    """On an interval of length 40 the TV tells hits that come in pairs,
    counts 2 * Poisson(20), from Poisson(40) counts: a tail lumped at a
    fixed count would hide most of both laws' mass there."""
    paired = counts_data(2 * poisson_quantile_counts(20.0, 4000), 40.0)
    poisson = counts_data(poisson_quantile_counts(40.0, 4000), 40.0)
    assert count_statistics(paired, [(0.0, 40.0)]).tv[0] >= 0.4
    assert count_statistics(poisson, [(0.0, 40.0)]).tv[0] <= 0.01


def test_counts_exact_poisson_draws():
    rng = np.random.default_rng(1)
    n = 50000
    draws = rng.poisson(1.0, n)
    hits = [(i, j + 1) for i in range(n) for j in range(draws[i])]
    data = synth(0.01, n, 1.0, hits)
    rep = count_statistics(data, [(0.0, 1.0)])
    assert rep.tv[0] < 0.02
    assert rep.means[0] == pytest.approx(1.0, abs=0.02)


def test_counts_membership_is_half_open():
    # index 100 at mu=0.01 lands exactly on t=1: counts in (0,1], not (1,2]
    data = synth(0.01, 1, 3.0, [(0, 100), (0, 150)])
    rep = count_statistics(data, [(0.0, 1.0), (1.0, 2.0)])
    assert rep.counts.tolist() == [[1, 1]]


def test_counts_interval_validation():
    data = synth(0.1, 2, 4.0, [])
    with pytest.raises(ValueError, match="overlap"):
        count_statistics(data, [(0.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError):
        count_statistics(data, [(-1.0, 1.0)])
    with pytest.raises(ValueError, match="horizon"):
        count_statistics(data, [(0.0, 5.0)])
    with pytest.raises(ValueError):
        count_statistics(data, [])


def test_counts_eligibility_by_censor_time():
    # orbit 1 censored at t = 1.5: usable for (0,1], not for (1,2]
    data = synth(0.1, 2, 4.0, [(0, 5), (1, 5)], censor_step=[41, 15])
    early = count_statistics(data, [(0.0, 1.0)])
    assert early.counts.shape == (2, 1)
    late = count_statistics(data, [(1.0, 2.0)])
    assert late.counts.shape == (1, 1)
    assert late.excluded_fraction == pytest.approx(0.5)


def test_counts_correlation_matrix():
    data = synth(0.1, 3, 4.0, [(0, 5), (0, 15), (1, 5), (2, 15)])
    rep = count_statistics(data, [(0.0, 1.0), (1.0, 2.0)])
    assert rep.correlations.shape == (2, 2)
    assert rep.correlations[0, 0] == pytest.approx(1.0)
    assert abs(rep.correlations[0, 1]) <= 1.0


def test_counts_of_too_few_orbits_are_nan():
    iv = [(0.0, 1.0), (1.0, 2.0)]
    one = count_statistics(synth(0.1, 1, 4.0, [(0, 5), (0, 15)]), iv)
    assert one.counts.tolist() == [[1, 1]] and one.means.tolist() == [1, 1]
    assert np.isfinite(one.tv).all() and np.isnan(one.correlations).all()
    # both orbits censored before t = 2
    none = count_statistics(synth(0.01, 2, 3.0, [], censor_step=[3, 5]), iv)
    assert none.counts.shape == (0, 2) and none.excluded_fraction == 1.0
    for stat in (none.tv, none.means, none.correlations):
        assert np.isnan(stat).all()


def test_short_returns_reduction():
    # p = ceil(0.25^-0.5) = 2; gaps per orbit: 2, 1 (orbit 0) and 5 (orbit
    # 1); the pair 4 -> 5 across the orbit boundary is no gap
    data = synth(0.25, 3, 4.0, [(0, 1, 1), (0, 2, 3), (0, 3, 4), (1, 2, 5),
                                (1, 9, 10), (2, 4, 7)],
                 final_induced=[9, 12, 8])
    rep = data.short_returns(epsilon=0.5)
    assert (rep.p, rep.n_pairs, rep.n_orbits) == (2, 3, 3)
    assert rep.fraction == pytest.approx(2 / 3)


def test_short_returns_without_a_pair_are_nan():
    # no hit at all, then one hit in each of two orbits: no pair either way
    none = synth(0.25, 2, 4.0, [], final_induced=[0, 0]).short_returns()
    lone = synth(0.25, 2, 4.0, [(0, 1, 1), (1, 3, 2)],
                 final_induced=[3, 3]).short_returns()
    for rep in (none, lone):
        assert math.isnan(rep.fraction)
        assert (rep.p, rep.n_pairs) == (math.ceil(0.25 ** -0.9), 0)


def test_quasi_section_reduction():
    # excursions hit: (0, 2) twice and (0, 5) once, complete; (1, 3) twice
    # but orbit 1 never re-enters the base after it; (2, 1) once
    data = synth(0.1, 3, 4.0, [(0, 4, 2), (0, 6, 2), (0, 20, 5), (1, 7, 3),
                               (1, 8, 3), (2, 9, 1)],
                 final_induced=[6, 3, 4])
    rep = data.quasi_section()
    assert (rep.n_excursions_with_hit, rep.n_multi) == (3, 1)
    assert rep.defect == pytest.approx(1 / 3)
    only_open = synth(0.1, 2, 4.0, [(1, 7, 3), (1, 8, 3)],
                      final_induced=[0, 3])
    rep = only_open.quasi_section()
    assert math.isnan(rep.defect)       # no complete excursion, no defect
    assert (rep.n_excursions_with_hit, rep.n_multi) == (0, 0)


def test_short_return_sinai(sinai):
    hole = make_hole(sinai, 0.3, 0.05)
    rep = short_return_fraction(sinai, hole, n_hits=3000, seed=2, t_max=10.0)
    assert rep.p == math.ceil(hole.measure ** -0.9)
    assert rep.n_pairs > 1000
    # memoryless hits at rate mu: P(gap <= p) near 1 - (1 - mu)^p
    rough = 1.0 - (1.0 - hole.measure) ** rep.p
    assert rep.fraction == pytest.approx(rough, abs=0.15)


def test_short_return_degenerate_control(stadium):
    # a hole covering most of one flat: bouncing orbits rack up hits without
    # entering the base, so induced gaps collapse to zero
    hole = make_hole(stadium, 1.0, 0.45)
    rep = short_return_fraction(stadium, hole, n_hits=3000, seed=2,
                                t_max=10.0)
    assert rep.fraction > 0.8


def test_short_return_without_hits_is_nan(sinai):
    hole = make_hole(sinai, 0.3, 0.05)
    rep = short_return_fraction(sinai, hole, n_hits=100, seed=2, t_max=0.0)
    assert math.isnan(rep.fraction) and rep.n_pairs == 0


def test_quasi_section_dispersing_is_exact_zero(sinai):
    hole = make_hole(sinai, 0.3, 0.05)
    rep = quasi_section_defect(sinai, hole, 400, seed=3, t_max=10.0)
    assert rep.defect == 0.0
    assert rep.n_multi == 0
    assert rep.n_excursions_with_hit > 1000


def test_quasi_section_flat_host_positive(stadium):
    hole = make_hole(stadium, 1.0, 0.05)
    rep = quasi_section_defect(stadium, hole, 1500, seed=2)
    assert 0.0 < rep.defect < 0.05
    assert rep.n_multi >= 10


def test_collect_rejects_empty(sinai):
    hole = make_hole(sinai, 0.3, 0.05)
    with pytest.raises(ValueError):
        collect_hitting(sinai, hole, 0, 1.0, seed=0)
