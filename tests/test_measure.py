import math

import numpy as np
import pytest

from openbilliards import build_table
from openbilliards.measure import (
    SrbSampler,
    invariance_defect,
    ks_statistic,
)


@pytest.fixture(scope="module")
def sinai():
    return build_table("sinai_torus", centers=[(0.5, 0.5)], radii=[0.2])


@pytest.fixture(scope="module")
def stadium():
    return build_table("stadium", flat_length=2.0)


def test_sampler_pinned_first_draws(sinai):
    # Philox is counter-based and version-stable; freeze the stream head
    samp = SrbSampler(sinai, seed=0)
    u = samp.uniforms(2)
    assert u.tolist() == [0.011546754286331562, 0.24154919656271812,
                          0.11142585551493822, 0.5644146216071337]
    s, phi = samp.sample(2)
    assert s.tolist() == [0.014510079375498275, 0.14002185964227506]
    assert phi.tolist() == [-0.5432275503136189, 0.12918829395007708]


def test_sampler_deterministic(sinai):
    a = SrbSampler(sinai, seed=42).sample(1000)
    b = SrbSampler(sinai, seed=42).sample(1000)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_sampler_prefix_stable(sinai):
    samp = SrbSampler(sinai, seed=7)
    s5, phi5 = samp.sample(5)
    s9, phi9 = samp.sample(9)
    assert np.array_equal(s5, s9[:5])
    assert np.array_equal(phi5, phi9[:5])


def test_seed_and_stream_decorrelate(sinai):
    base = SrbSampler(sinai, seed=1).sample(100)
    other_seed = SrbSampler(sinai, seed=2).sample(100)
    other_stream = SrbSampler(sinai, seed=1, stream=1).sample(100)
    assert not np.array_equal(base[0], other_seed[0])
    assert not np.array_equal(base[0], other_stream[0])


def test_phi_marginal_moments(sinai):
    _, phi = SrbSampler(sinai, seed=3).sample(200000)
    assert np.all(np.abs(phi) < np.pi / 2)
    # density cos(phi)/2: E sin = 0, E sin^2 = 1/3
    assert abs(np.sin(phi).mean()) < 0.005
    assert abs((np.sin(phi) ** 2).mean() - 1.0 / 3.0) < 0.005


def test_s_marginal_uniform(sinai):
    s, _ = SrbSampler(sinai, seed=4).sample(200000)
    assert np.all((s >= 0) & (s < sinai.perimeter))
    x = np.sort(s) / sinai.perimeter
    assert ks_statistic(x, x) < 0.01
    lo, hi = 0.2 * sinai.perimeter, 0.5 * sinai.perimeter
    frac = ((s >= lo) & (s < hi)).mean()
    assert abs(frac - 0.3) < 0.01


def test_uniform_control_mode(sinai):
    _, phi = SrbSampler(sinai, seed=5, phi_mode="uniform").sample(200000)
    assert np.all(np.abs(phi) < np.pi / 2)
    # uniform angle has E sin^2 = 1/2, distinguishably above 1/3
    assert abs((np.sin(phi) ** 2).mean() - 0.5) < 0.005


def test_sampler_rejects_bad_input(sinai):
    with pytest.raises(ValueError):
        SrbSampler(sinai, seed=0, phi_mode="gauss").sample(10)
    with pytest.raises(ValueError):
        SrbSampler(sinai, seed=0).sample(0)


def test_ks_statistic_exact_quantiles():
    for n in (1, 4, 100):
        x = (np.arange(n) + 0.5) / n
        assert ks_statistic(x, x) == pytest.approx(1.0 / (2 * n))


def test_ks_statistic_extremes():
    # model mass entirely to the right of the sample
    assert ks_statistic(np.zeros(5), np.zeros(5)) == pytest.approx(1.0)
    # a statistic of no data is undefined
    assert math.isnan(ks_statistic(np.array([]), np.array([])))


def test_invariance_positive(sinai):
    rep = invariance_defect(sinai, 200000, seed=1)
    assert rep.ks_phi < 0.01
    assert rep.ks_s < 0.01
    assert rep.censored_fraction < 1e-3
    assert rep.n > 199000


def test_invariance_negative_control(stadium):
    # seeding with a uniform angle law leaves a visible one-step defect
    rep = invariance_defect(stadium, 200000, seed=1, phi_mode="uniform")
    assert rep.ks_phi > 0.05


def test_invariance_rejects_empty(sinai):
    with pytest.raises(ValueError):
        invariance_defect(sinai, 0, seed=0)
