import numpy as np
import pytest

from openbilliards import build_table
from openbilliards.dynamics import step_batch
from openbilliards.geometry import regular_flower_components
from openbilliards.inducing import (
    BaseReturns,
    _returns_batch,
    base_mask,
    base_returns,
    sample_base_points,
)


@pytest.fixture(scope="module")
def sinai():
    return build_table("sinai_torus", centers=[(0.5, 0.5)], radii=[0.2])


@pytest.fixture(scope="module")
def stadium():
    # components: 0 bottom flat, 1 right cap, 2 top flat, 3 left cap
    return build_table("stadium", flat_length=2.0)


@pytest.fixture(scope="module")
def flower():
    return build_table("flower",
                       components=regular_flower_components(4, 2.0))


@pytest.fixture(scope="module")
def semi():
    return build_table("semi_dispersing", width=2.0, height=1.0,
                       centers=[(1.0, 0.5)], radii=[0.3])


def members(table, pairs):
    """base_mask over (current, previous) component pairs; a previous
    component of -1 means no history."""
    now, prev = np.array(pairs).T
    return base_mask(table, now, prev).tolist()


def test_in_base_stadium(stadium):
    assert members(stadium, [
        (1, 0),      # cap entered from flat
        (1, 3),      # from the other cap
        (1, -1),     # no history counts
        (1, 1),      # sliding along one cap
        (0, 1),      # flats never in X
        (0, -1),
    ]) == [True, True, True, False, False, False]


def test_in_base_sinai(sinai):
    assert members(sinai, [(0, 0), (0, -1)]) == [True, True]


def test_in_base_flower(flower):
    # all petals are focusing: only fresh entries count
    assert members(flower, [(0, 1), (0, 0)]) == [True, False]


def test_in_base_semi(semi):
    # 0..3 are walls, 4 is the scatterer
    assert members(semi, [(4, 0), (4, 4), (0, 4)]) == [True, True, False]


def test_base_mask_fresh_history(stadium):
    mask = base_mask(stadium, np.array([1, 1, 0]), np.array([-1, 1, -1]))
    assert mask.tolist() == [True, False, False]


def test_return_time_replay(stadium):
    (s, phi, comp), _, _ = sample_base_points(stadium, 200, seed=12)
    assert s.size > 10
    R, cap_hit, flagged = _returns_batch(stadium, s[:5], phi[:5], comp[:5],
                                         100_000)
    assert not (cap_hit.any() or flagged.any())
    assert np.all(R >= 1)
    for i in range(5):
        # replay: intermediate collisions are outside X, step R lands in it
        cs, cphi, prev = s[i:i + 1], phi[i:i + 1], comp[i:i + 1]
        for j in range(1, R[i] + 1):
            cs, cphi, _, now, flag = step_batch(stadium, cs, cphi)
            assert flag[0] == 0
            assert base_mask(stadium, now, prev)[0] == (j == R[i])
            prev = now


def test_kac_exact_on_dispersing(sinai):
    rep = base_returns(sinai, 20000, cap=100, seed=3).kac()
    assert rep.defect == 0.0
    assert rep.mu_x == 1.0
    assert rep.mean_R == 1.0
    assert rep.censored_fraction == 0.0


@pytest.mark.parametrize("name", ["stadium", "flower", "semi"])
def test_kac_identity_small_defect(name, request):
    table = request.getfixturevalue(name)
    rep = base_returns(table, 100000, cap=20000, seed=3).kac()
    assert rep.defect < 0.03
    assert rep.censored_fraction < 0.01
    assert rep.n_base > 1000


def test_tail_sinai_degenerate(sinai):
    returns = base_returns(sinai, 5000, cap=50, seed=1)
    rep = returns.tail()
    assert rep.n.tolist() == [1]
    assert rep.survival.tolist() == [0.0]
    assert rep.count[0] == rep.n_base
    assert returns.kac().mean_R == 1.0
    assert rep.cap_fraction == 0.0


def test_tail_stadium_quadratic(stadium):
    rep = base_returns(stadium, 100000, cap=20000, seed=2).tail()
    assert np.all(np.diff(rep.survival) <= 0)
    assert np.all((rep.survival >= 0) & (rep.survival <= 1))
    assert rep.count.sum() == rep.n_base - round(rep.cap_fraction * rep.n_base)
    # inverse-square tail: log-log slope near -2 where counts are solid
    lo, hi = 10, min(100, rep.n.size)
    sel = (rep.n >= lo) & (rep.n <= hi) & (rep.survival > 0)
    slope = np.polyfit(np.log(rep.n[sel]),
                       np.log(rep.survival[sel]), 1)[0]
    assert -3.0 < slope < -1.0


def test_tail_semi_has_spread(semi):
    returns = base_returns(semi, 20000, cap=5000, seed=4)
    rep = returns.tail()
    assert rep.n.size > 3            # wall bounces stretch returns
    assert rep.survival[0] > 0.2
    assert returns.kac().mean_R > 1.5


def test_tail_cap_accounting(stadium):
    rep = base_returns(stadium, 20000, cap=3, seed=5).tail()
    assert rep.cap_fraction > 0.0
    assert rep.n.size <= 3
    # capped lanes sit above every tabulated n, so survival stays positive
    assert rep.survival[-1] >= rep.cap_fraction / 2


def test_tail_deterministic(stadium):
    a = base_returns(stadium, 5000, cap=1000, seed=6).tail()
    b = base_returns(stadium, 5000, cap=1000, seed=6).tail()
    assert np.array_equal(a.survival, b.survival)
    assert np.array_equal(a.count, b.count)


def test_tail_tabulates_only_measured_returns():
    none = np.zeros(0, dtype=np.int64)
    returns = BaseReturns(none, none.astype(bool), none.astype(bool), 0.0)
    rep = returns.tail()
    assert rep.n.size == rep.survival.size == rep.count.size == 0
    assert rep.n_base == 0 and np.isnan(returns.kac().mean_R)
    # fractions of no base point are undefined, not 0
    assert np.isnan([rep.censored_fraction, rep.cap_fraction,
                     returns.kac().censored_fraction]).all()
    # lanes past the cap are data: they survive past n = 1
    capped = BaseReturns(np.zeros(2, dtype=np.int64), np.ones(2, dtype=bool),
                         np.zeros(2, dtype=bool), 0.5).tail()
    assert capped.n.tolist() == [1] and capped.survival.tolist() == [1.0]


def test_sample_base_points_members(stadium):
    (s, phi, comp), mu_x, cens = sample_base_points(stadium, 5000, seed=7)
    assert 0.0 < mu_x < 1.0
    assert cens < 0.01
    assert np.all(stadium.is_arc[comp])
    # accepted fraction matches the reported conditional measure
    assert s.size == pytest.approx(mu_x * 5000, rel=0.05)


def test_rejects_empty(stadium):
    with pytest.raises(ValueError, match="n_samples"):
        base_returns(stadium, 0, cap=10, seed=0)
