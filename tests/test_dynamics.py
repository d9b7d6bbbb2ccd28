"""Collision map against a high-precision reference, plus tangent/curvature laws.

The FROZEN_* blocks were produced by tests/oracle.py (50-digit mpmath tracer,
brute-force image search on the torus).  Tolerances reflect one double
rounding per step amplified by the orbit's Lyapunov growth, with generous
headroom; component indices must match exactly.
"""

import hashlib
import math
import pickle
import sys
import threading
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from openbilliards import (
    FLAG_CORNER,
    FLAG_GRAZING,
    FLAG_LOST,
    FLAG_OK,
    FLAG_UNFOLD,
    build_table,
    dynamics,
    make_hole,
    step_batch,
    validate_table,
)
from openbilliards.geometry import Table, cut_stadium_components, locate_batch
from openbilliards.inducing import base_returns
from openbilliards.measure import SrbSampler, invariance_defect

import oracle
from helpers import CLASSES, make, observed, reference_family, tangent_map


SEEDS = {
    "sinai": (0.1, 0.3),
    "stadium": (0.3, 0.2),
    "squash": (0.5, -0.25),
    "diamond": (0.4, 0.35),
    "flower": (1.0, 0.15),
    "semi": (0.7, 0.1),
}

# (s, phi, tau, component) after each collision, frozen from the reference
FROZEN_TRACE = {
    "sinai": [
        (0.8270141597276788, 0.19347814504860056, 1.0267272188370526, 0),
        (0.082576072780433287, -0.77407592619503471, 1.8896689726896507, 0),
        (0.54095761821023483, -0.075609000245750963, 2.8173758077039205, 0),
        (1.2518917269044427, 0.48868689012699689, 1.8573910708953518, 0),
        (0.81573818686042636, 0.47213806324271476, 1.8813564446249174, 0),
        (0.18655342455618631, -0.47646922117412162, 4.739902256177218, 0),
        (0.64238085565216873, -0.38598627693575965, 1.872998102116011, 0),
        (1.0950678019837927, -0.49217164499591395, 2.8006720254691003, 0),
    ],
    "stadium": [
        (6.4361725825724481, -0.20000000000000001, 2.0406776898823854, 2),
        (1.11084014203469, 0.20000000000000001, 2.0406776898823854, 0),
        (5.6253324405377582, -0.20000000000000001, 2.0406776898823854, 2),
        (1.9216802840693799, 0.20000000000000001, 2.0406776898823854, 0),
        (4.8193778431298774, 0.12221481045991572, 1.9881673645615041, 1),
        (1.388768808342298, -0.44442962091983145, 2.158191663947815, 0),
        (6.7052303413429953, 0.44442962091983145, 2.2151925726231812, 2),
        (9.8027772951204065, 0.03597839113934842, 2.0898198031432986, 3),
    ],
    "squash": [
        (7.0311729835762587, -0.15271584158066154, 1.3638320271041412, 2),
        (0.98266925807449505, 0.55543168316132307, 1.5552264995325046, 0),
        (4.8533341876220633, -0.30758142296705062, 2.3178826383103508, 1),
        (2.3269043799663713, -0.30758142296705062, 1.9061371832697739, 1),
        (6.0973303708805375, 0.27217816712621786, 2.0757880588084405, 2),
        (1.2432498869310088, 0.13053767445444367, 1.7019035678155713, 0),
        (5.5872093317437215, -0.53325351603510521, 1.9035449229702629, 2),
        (3.3473722190852708, -0.45181106724296154, 1.8031647570048913, 1),
    ],
    "diamond": [
        (3.3446280989217477, 0.76845987104859913, 1.8964420360050962, 3),
        (4.1886213215148376, 1.254672911492595, 0.7029432468994782, 4),
        (4.7030245757517251, 0.58057991321595892, 0.42038887661199006, 5),
        (1.528993111088834, 0.21294981104805188, 1.9166204298424909, 1),
        (3.799770243382465, 0.29986029356917665, 1.637378886826923, 4),
        (0.15265972054041267, -0.29986029356917665, 2.0934127540290685, 0),
        (5.1734777408056115, -0.065573205204289759, 1.6046171332406413, 5),
        (0.38361901549854502, 0.43100670397775617, 1.6873291686510466, 0),
    ],
    "flower": [
        (5.5042153010470223, 0.058173679337667461, 3.3983430176175555, 1),
        (0.6019850927248104, 0.13166754859985468, 3.40197336896694, 0),
        (4.5767573763280677, 0.6059491481815778, 3.1579000383705852, 1),
        (8.1508058829524467, 0.53239132557873314, 3.0964137565735143, 2),
        (12.564312385848469, -0.23350884809006579, 3.0402327574951835, 3),
        (9.8897374284388075, -0.23350884809006579, 1.9457209285147484, 3),
        (2.3780892815639303, -0.10882463900954003, 3.3758183678367472, 0),
        (10.638205388042011, -0.29730983349405816, 3.352360492051339, 3),
    ],
    "semi": [
        (6.7942277080147877, 0.97662936658772923, 0.35950650380087261, 4),
        (5.2568706635397598, -0.48246240638056184, 0.83071229559791901, 3),
        (4.5095498318791329, -1.0883339204143348, 0.55364601072990967, 2),
        (7.3149950613208826, 0.75926181109925408, 0.465764988573102, 4),
        (3.9977931723344736, -0.43018970178417339, 0.23776035841359804, 2),
        (7.5180183919018411, 0.77786202773895439, 0.23979833236333757, 4),
        (3.4410848970457936, -1.1255343536937354, 0.50604219913667893, 2),
        (2.789503366981308, -0.44526197310116122, 0.48873788364940999, 1),
    ],
}

# single flights along infinite-horizon corridors, 100 < tau < 250, frozen
# from the reference: name -> (table, s0, phi0, (s, phi, tau, component))
LONG_FLIGHTS = {
    "sinai_long_a": ("sinai", 0.786306516989437, 1.564467927794842,
                     (0.18779037827825382, -1.4154559677609643,
                      173.20993928661345, 0)),
    "sinai_long_b": ("sinai", 0.9407816183629261, -1.5595633179671105,
                     (0.28178029090040958, 1.4061493342443214,
                      218.96689537007274, 0)),
    "two_long_a": ("two_scatterer", 0.3065558596635953, 1.5611405057142984,
                   (1.4715655568918432, -1.4555612822456747,
                    218.45101023466566, 1)),
    "two_long_b": ("two_scatterer", 0.5890996223675177, -1.568923507744069,
                   (0.098526678327355934, 1.4400298677327839,
                    184.5361427077406, 0)),
}

# one step's rounding amplified by a flight of up to 250
LONG_FLIGHT_TOL = 1e-9

# the unfolded ray-circle quadratic b^2 - (|p - c|^2 - rho^2) cancels about
# tau^2 of magnitude, so these impacts miss phi by 3.1e-9 and 1.7e-9; the
# foot-of-perpendicular form rho^2 - |(p - c) - b d|^2 brings tau within
# 3e-13 of the reference
_CANCELLATION = pytest.mark.xfail(
    strict=True, reason="long-flight cancellation in the ray-circle test")
LONG_FLIGHT_CASES = [
    pytest.param(name, marks=_CANCELLATION) if name.startswith("two") else name
    for name in LONG_FLIGHTS]

# collision-map Jacobian at the seed, frozen from high-precision central
# differences (step 1e-25)
FROZEN_DF = {
    "sinai": ((-6.2047443143699968, -1.0462487367653952),
              (-36.023721571849982, -6.2312436838269758)),
    "stadium": ((-1.0, -2.0821827169918545), (0.0, -1.0)),
    "squash": ((-0.98032181712950374, -1.3798917849661186), (0.0, -1.0)),
    "diamond": ((-1.3065316942851013, -2.637676816164651),
                (-2.6130633885702026, -6.275353632329302)),
    "flower": ((2.4136549056999214, -3.4041014342189959),
               (-1.4136549056999214, 2.4041014342189959)),
    "semi": ((-1.777368640632417, -0.64218383023605347),
             (-5.9245621354413901, -3.1406127674535116)),
}

# one double rounding per collision, amplified by each orbit's own growth;
# the dispersing torus stretches by ~20 per collision, so the bound is set
# by the last frozen step (earlier steps sit orders of magnitude tighter)
TRACE_TOL = {"sinai": 1e-4, "stadium": 1e-12, "squash": 1e-12,
             "diamond": 1e-9, "flower": 1e-10, "semi": 1e-10}


def tangent_at(table, s, phi):
    """Df at one uncensored phase point: tangent_map on one lane."""
    M, (_, _, _, _, flag) = tangent_map(table, [s], [phi])
    assert flag[0] == FLAG_OK
    return M[0]


@pytest.mark.parametrize("name", CLASSES)
def test_trace_matches_reference(name):
    table = make(name)
    s0, phi0 = SEEDS[name]
    s = np.array([s0])
    phi = np.array([phi0])
    for i, (rs, rphi, rtau, rcomp) in enumerate(FROZEN_TRACE[name]):
        s, phi, tau, comp, flag = step_batch(table, s, phi)
        assert int(flag[0]) == FLAG_OK, (name, i)
        assert int(comp[0]) == rcomp, (name, i)
        tol = TRACE_TOL[name]
        assert abs(float(s[0]) - rs) < tol, (name, i, float(s[0]) - rs)
        assert abs(float(phi[0]) - rphi) < tol, (name, i)
        assert abs(float(tau[0]) - rtau) < tol, (name, i)


@pytest.mark.parametrize("name", LONG_FLIGHT_CASES)
def test_long_flight_matches_reference(name):
    table_name, s0, phi0, (rs, rphi, rtau, rcomp) = LONG_FLIGHTS[name]
    s, phi, tau, comp, flag = step_batch(make(table_name), np.array([s0]),
                                         np.array([phi0]))
    assert int(flag[0]) == FLAG_OK
    assert int(comp[0]) == rcomp
    assert abs(float(s[0]) - rs) < LONG_FLIGHT_TOL, float(s[0]) - rs
    assert abs(float(phi[0]) - rphi) < LONG_FLIGHT_TOL, float(phi[0]) - rphi
    assert abs(float(tau[0]) - rtau) < LONG_FLIGHT_TOL, float(tau[0]) - rtau


@pytest.mark.parametrize("name", CLASSES)
def test_tangent_map_matches_reference(name):
    table = make(name)
    M = tangent_at(table, *SEEDS[name])
    assert_allclose(M, np.array(FROZEN_DF[name]), rtol=1e-11, atol=1e-12)


def test_kernel_matches_oracle_on_reference_family():
    """Every table of the seeded reference family that validates clean,
    stepped once through step_batch and through the mpmath oracle: 8 SRB
    lanes per table (seed 1, stream 2) hit the same component on every
    unflagged lane, with |ds|, |dphi| and |dtau| each <= 1e-11; the
    Jacobians of 2 lanes per table (stream 3) match oracle.tangent_map_fd
    within 1e-10 relative to ||M||.  Lost lanes are counted and printed but
    not asserted: the validator still accepts tables whose domain is
    unbounded, and the oracle's rays escape those too."""
    clean = [t for t in reference_family(seed=5, n_stars=1000, n_random=150)
             if not validate_table(t)]
    assert len(clean) >= 150
    worst = {"s": 0.0, "phi": 0.0, "tau": 0.0, "M": 0.0}
    n_step = n_jac = lost = lost_tables = 0
    for i, table in enumerate(clean):
        tab, per = oracle.from_table(table), table.perimeter
        s, phi = SrbSampler(table, seed=1, stream=2).sample(8)
        s1, phi1, tau, comp, flag = step_batch(table, s, phi)
        lost += int(np.count_nonzero(flag == FLAG_LOST))
        lost_tables += bool((flag == FLAG_LOST).any())
        for k in np.flatnonzero(flag == FLAG_OK):
            rs, rphi, rtau, rcomp = oracle.step(tab, mp.mpf(s[k]),
                                                mp.mpf(phi[k]))
            assert int(comp[k]) == rcomp, (i, k)
            ds = abs(float(rs - mp.mpf(s1[k])))
            ds = min(ds, per - ds)      # wrap-aware on the boundary circle
            for key, d in (("s", ds), ("phi", float(abs(rphi - phi1[k]))),
                           ("tau", float(abs(rtau - tau[k])))):
                assert d <= 1e-11, (i, k, key, d)
                worst[key] = max(worst[key], d)
            n_step += 1
        s, phi = SrbSampler(table, seed=1, stream=3).sample(2)
        M, (_, _, _, _, flag) = tangent_map(table, s, phi)
        for k in np.flatnonzero(flag == FLAG_OK):
            ref = np.array(oracle.tangent_map_fd(tab, s[k], phi[k]),
                           dtype=float)
            rel = float(np.abs(M[k] - ref).max() / np.sqrt((M[k] ** 2).sum()))
            assert rel <= 1e-10, (i, k, rel)
            worst["M"] = max(worst["M"], rel)
            n_jac += 1
    print(f"[oracle family] {len(clean)} clean tables, {n_step} unflagged "
          f"lanes: worst |ds|={worst['s']:.1e} |dphi|={worst['phi']:.1e} "
          f"|dtau|={worst['tau']:.1e} (<=1e-11); {n_jac} Jacobians: worst "
          f"rel={worst['M']:.1e} (<=1e-10); lost lanes {lost} on "
          f"{lost_tables} tables (not asserted)")


def test_sinai_symmetry_orbit_jacobian():
    """Head-on crossing of the unit cell: tau=0.6, K=5, phi=0."""
    table = make("sinai")
    M = tangent_at(table, 0.0, 0.0)
    assert_allclose(M, -np.array([[4.0, 0.6], [25.0, 4.0]]), atol=1e-12)
    assert_allclose(np.linalg.det(M), 1.0, atol=1e-12)


def test_stadium_flat_to_flat_shear():
    table = make("stadium")
    M = tangent_at(table, 1.0, 0.0)
    assert_allclose(M, -np.array([[1.0, 2.0], [0.0, 1.0]]), atol=1e-12)


@pytest.mark.parametrize("name", CLASSES)
def test_jacobian_determinant_is_cos_ratio(name):
    """det Df = cos(phi)/cos(phi') makes the map measure preserving."""
    table = make(name)
    rng = np.random.default_rng(11)
    s = rng.uniform(0, table.perimeter, size=400)
    phi = np.arcsin(rng.uniform(-1, 1, size=400))
    M, (s1, phi1, tau, comp, flag) = tangent_map(table, s, phi)
    ok = flag == FLAG_OK
    assert ok.mean() > 0.95
    det = M[ok, 0, 0] * M[ok, 1, 1] - M[ok, 0, 1] * M[ok, 1, 0]
    assert_allclose(det, np.cos(phi[ok]) / np.cos(phi1[ok]), rtol=1e-9)


@pytest.mark.parametrize("name", CLASSES)
def test_time_reversal_involution(name):
    """Running the image backwards ((s', -phi') forward) returns the start."""
    table = make(name)
    rng = np.random.default_rng(5)
    n = 300
    s = rng.uniform(0, table.perimeter, size=n)
    phi = np.arcsin(rng.uniform(-1, 1, size=n))
    s1, phi1, tau, comp, flag = step_batch(table, s, phi)
    ok = flag == FLAG_OK
    s2, phi2, tau2, comp2, flag2 = step_batch(table, s1[ok], -phi1[ok])
    good = flag2 == FLAG_OK
    # wrap-aware distance on the boundary circle
    ds = np.abs(s2[good] - s[ok][good])
    ds = np.minimum(ds, table.perimeter - ds)
    assert ds.max() < 1e-8
    assert np.abs(phi2[good] + phi[ok][good]).max() < 1e-8
    assert np.abs(tau2[good] - tau[ok][good]).max() < 1e-8
    assert good.mean() > 0.95


@pytest.mark.parametrize("name", CLASSES)
def test_batch_split_is_bit_identical(name):
    """Every class's kernel gives each lane the same bytes in one-lane and
    seven-lane calls as in one 64-lane call."""
    table = make(name)
    rng = np.random.default_rng(9)
    s = rng.uniform(0, table.perimeter, size=64)
    phi = np.arcsin(rng.uniform(-1, 1, size=64))
    whole = step_batch(table, s, phi)
    for width in (1, 7):
        parts = [step_batch(table, s[i:i + width], phi[i:i + width])
                 for i in range(0, 64, width)]
        merged = [np.concatenate(p) for p in zip(*parts)]
        assert _same_bytes(whole, merged), width


# sha256 of 4 chained step_batch calls on 2000 SRB lanes (seed 3, stream 1),
# the five arrays of each step in turn, flagged lanes dropped between steps
STEP_DIGESTS = {
    "sinai":
        "a0b3e65e860a9ca133419f50ab12fe605e687ec949286e020ae3dfa5c2e406fb",
    "stadium":
        "270c1696264ea0b049b997282c4010a3fbc0a2aa1829ccc71ede10204e1b1b95",
    "squash":
        "5677df24f541aa4e51c1b29fc6c5d74fbdb01845c2d14f76ae3391aa51af3ed6",
    "diamond":
        "ced0405679b67d6a0c70bcca97c942df13e78de6c6dfe14d9af2ec19d88ab1b5",
    "flower":
        "82baca5fe2c3a8136f8caf71373f65f35f999fc1533f71f374b1228244f01779",
    "semi":
        "c0d220918f53f9b4b63d7e69f192857d3e7cc726680b9170d2097aca365e0249",
    # cap circles that cross both flats: the span test rejects hits each step
    "cut_stadium":
        "1e02c9b383fda41b1259d1432e989a45be0995bb74da091b8eb416cfbf3a7774",
}


@pytest.mark.parametrize("name", list(STEP_DIGESTS))
def test_step_chain_digests_are_pinned(name):
    """Every class's kernel bytes over four collisions: flats, arcs with
    ends, the arc-span test and the corner flags.  Refactors that keep the
    arithmetic must leave these digests as they are."""
    table = (build_table("flower", components=cut_stadium_components(2.0, 0.75))
             if name == "cut_stadium" else make(name))
    s, phi = SrbSampler(table, 3, 1).sample(2000)
    digest = hashlib.sha256()
    for _ in range(4):
        step = step_batch(table, s, phi)
        for a in step:
            digest.update(a.tobytes())
        ok = step[4] == FLAG_OK
        s, phi = step[0][ok], step[1][ok]
    assert digest.hexdigest() == STEP_DIGESTS[name]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", ["squash", "open_sinai"])
def test_chunked_step_is_bit_identical(name, workers, monkeypatch):
    """A call wider than _CHUNK steps in pieces shared by `workers` threads;
    it equals, byte for byte, narrower calls laid end to end, flagged lanes
    included.  The threads switch often, so a piece that no thread takes
    would show in the bytes."""
    monkeypatch.setattr(dynamics, "UNFOLD_MAX_CELLS", 40)
    monkeypatch.setattr(dynamics, "_workers", lambda: workers)
    table = make(name)
    n = 2 * dynamics._CHUNK + 13
    s, phi = SrbSampler(table, 1).sample(n)
    phi[::997] = math.pi / 2 - 1e-9     # tangent take-offs: grazing lanes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        whole = step_batch(table, s, phi)
    finally:
        sys.setswitchinterval(interval)
    width = dynamics._CHUNK // 3
    parts = [step_batch(table, s[i:i + width], phi[i:i + width])
             for i in range(0, n, width)]
    assert _same_bytes(whole, [np.concatenate(p) for p in zip(*parts)])
    assert all(a.shape == (n,) for a in whole)
    flags = set(whole[4].tolist())
    assert FLAG_GRAZING in flags
    assert (FLAG_UNFOLD in flags) == table.lattice
    for k in (0, 1):
        few = step_batch(table, s[:k], phi[:k])
        assert [a.shape for a in few] == [(k,)] * 5
        assert _same_bytes(few, [a[:k] for a in whole])


def test_wide_checks_do_not_depend_on_the_worker_count(monkeypatch):
    """base_returns and invariance_defect over just more than two chunks
    give the same bytes stepped by one thread as by three."""
    table = make("squash")
    n = 2 * dynamics._CHUNK + 13
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(dynamics, "_workers", lambda: workers)
        ret = base_returns(table, n, cap=30, seed=5)
        inv = invariance_defect(table, n, seed=5)
        runs.append((ret.R, ret.cap_hit, ret.flagged, np.array(ret.mu_x),
                     np.array([inv.ks_phi, inv.ks_s, inv.n,
                               inv.censored_fraction])))
    assert _same_bytes(*runs)


def test_helper_failure_is_raised_in_the_caller(monkeypatch):
    """A piece that fails in a helper thread fails the call, once every
    helper has ended: here the helper fails after the caller ran out of
    pieces."""
    monkeypatch.setattr(dynamics, "_workers", lambda: 2)
    real_step = dynamics._step
    helper_took_a_piece = threading.Event()

    def failing_in_helpers(table, s, phi):
        if threading.current_thread() is threading.main_thread():
            helper_took_a_piece.wait(10.0)
            return real_step(table, s, phi)
        helper_took_a_piece.set()
        time.sleep(0.5)
        raise RuntimeWarning("piece failed in a helper")

    monkeypatch.setattr(dynamics, "_step", failing_in_helpers)
    table = make("squash")
    s, phi = SrbSampler(table, 1).sample(2 * dynamics._CHUNK + 1)
    before = threading.active_count()
    with pytest.raises(RuntimeWarning, match="in a helper"):
        step_batch(table, s, phi)
    assert helper_took_a_piece.is_set()
    assert threading.active_count() == before


@pytest.mark.parametrize("name", ["semi", "open_sinai"])
def test_step_never_writes_to_its_table(name, monkeypatch):
    """A step only reads its table: one call over just more than two chunks
    on three threads leaves every attribute the same object, bytes and
    all, and adds none."""
    monkeypatch.setattr(dynamics, "_workers", lambda: 3)
    table = make(name)
    s, phi = SrbSampler(table, 1).sample(2 * dynamics._CHUNK + 13)
    before = dict(vars(table))
    frozen = pickle.dumps(before)
    step_batch(table, s, phi)
    assert vars(table).keys() == before.keys()
    assert all(vars(table)[k] is v for k, v in before.items())
    assert pickle.dumps(vars(table)) == frozen


def _excess_peak(table, n):
    """Traced peak of one n-lane step_batch call beyond its outputs."""
    s, phi = SrbSampler(table, 1).sample(n)
    tracemalloc.start()
    try:
        out = step_batch(table, s, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in out)


def test_step_working_set_does_not_grow_with_width():
    """Beyond its outputs, a step holds one chunk's temporaries: as much at
    8 chunks as at 2 (a whole-batch step holds about 4 times more)."""
    table = make("squash")
    two = _excess_peak(table, 2 * dynamics._CHUNK)
    eight = _excess_peak(table, 8 * dynamics._CHUNK)
    assert eight <= 1.25 * two, (two, eight)


def test_torus_working_set_does_not_grow_with_flights():
    """A wide torus step holds one chunk's temporaries too, however far its
    corridor flights walk: at 8 chunks, the r = 0.01 torus (mean flight
    about 50) holds at most 1.25 times what the r = 0.2 torus (about 2.2)
    holds beyond its outputs."""
    sinai = _excess_peak(make("sinai"), 8 * dynamics._CHUNK)
    thin = _excess_peak(make("thin_sinai"), 8 * dynamics._CHUNK)
    assert thin <= 1.25 * sinai, (sinai, thin)


def _reference_unfold(table, px, py, dx, dy, guard, tau, comp):
    """The unit-cell walk one cell per iteration, as the kernel did it before
    the block walk, frozen here as its reference: the same Amanatides-Woo
    steps (a y step wins a tie), each cell tested on its own, and a lane
    still walking at UNFOLD_MAX_CELLS takes its last step untested."""
    n = px.size
    cellx = np.zeros(n)
    celly = np.zeros(n)
    overflow = np.zeros(n, dtype=bool)

    stepx = np.where(dx > 0, 1.0, -1.0)
    stepy = np.where(dy > 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tdx = np.where(dx != 0, np.abs(1.0 / dx), np.inf)
        tdy = np.where(dy != 0, np.abs(1.0 / dy), np.inf)
        tmaxx = np.where(dx != 0, (np.where(dx > 0, 1.0, 0.0) - px) / dx, np.inf)
        tmaxy = np.where(dy != 0, (np.where(dy > 0, 1.0, 0.0) - py) / dy, np.inf)

    active = np.flatnonzero(tau == np.inf)
    for cells in range(1, dynamics.UNFOLD_MAX_CELLS + 1):
        if active.size == 0:
            break
        mx = tmaxx[active] < tmaxy[active]
        ax = active[mx]
        ay = active[~mx]
        cellx[ax] += stepx[ax]
        tmaxx[ax] += tdx[ax]
        celly[ay] += stepy[ay]
        tmaxy[ay] += tdy[ay]
        if cells == dynamics.UNFOLD_MAX_CELLS:
            overflow[active] = True
            break
        t, k = table.nearest(px[active], py[active], dx[active], dy[active],
                             cellx[active], celly[active], guard)
        hit = t < np.inf
        tau[active[hit]] = t[hit]
        comp[active[hit]] = k[hit]
        active = active[~hit]
    return cellx, celly, overflow


def _reference_search(table, px, py, dx, dy, guard):
    """The torus search as the frozen walk did it: own cell, then the rest."""
    tau, comp = table.nearest(px, py, dx, dy, 0.0, 0.0, guard)
    ox, oy, overflow = _reference_unfold(table, px, py, dx, dy, guard, tau,
                                         comp)
    return tau, comp, ox, oy, np.flatnonzero(overflow)


def _walk_blocks(table, s, phi):
    """(b, walking lanes) of every block the torus walk takes in one
    step_batch call of lanes (s, phi), read off _dda_block's calls."""
    blocks = []
    dda_block = dynamics._dda_block

    def spy(b, tmaxx, *rest):
        blocks.append((b, tmaxx.size))
        return dda_block(b, tmaxx, *rest)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "_dda_block", spy)
        step_batch(table, s, phi)
    return blocks


def _same_bytes(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


def test_block_steps_follow_the_one_cell_walk():
    """_dda_block's steps and crossing times are the one-cell walk's, ties
    (a y step wins) and axis-parallel rays (no crossing on one axis)
    included; row 0 is the current cell."""
    rng = np.random.default_rng(2)
    tmaxx = np.concatenate([[0.5, 0.5, 0.25, np.inf, 0.3], rng.random(20)])
    tmaxy = np.concatenate([[0.5, 0.75, 0.25, 0.4, np.inf], rng.random(20)])
    tdx = np.concatenate([[1.0, 0.5, 1.0, np.inf, 1.5], 1 + 9 * rng.random(20)])
    tdy = np.concatenate([[1.0, 0.5, 0.5, 2.0, np.inf], 1 + 9 * rng.random(20)])
    b = 9
    nx, ny, xs, ys = dynamics._dda_block(b, tmaxx, tmaxy, tdx, tdy)
    for lane in range(tmaxx.size):
        tx, ty, cx, cy = tmaxx[lane], tmaxy[lane], 0, 0
        for j in range(b):
            if tx < ty:
                cx, tx = cx + 1, tx + tdx[lane]
            else:
                cy, ty = cy + 1, ty + tdy[lane]
            assert (nx[j + 1, lane], ny[j + 1, lane]) == (cx, cy), (lane, j)
            assert xs[cx, lane] == tx and ys[cy, lane] == ty, (lane, j)
    assert list(nx[1:5, 0]) == [0, 1, 1, 2]     # tie, x, tie, x
    assert not nx[0].any() and not ny[0].any()


@pytest.mark.parametrize("name", ["sinai", "two_scatterer", "thin_sinai"])
def test_block_walk_matches_reference_walk(name):
    """step_batch under the block walk and under the one-cell walk agree
    byte for byte, at every limit around the block ends the walk itself
    takes: lanes that hit, lanes that overflow and the offset their untested
    last step leaves.  20000 lanes walk blocks that the chunk bounds, 244
    lanes blocks that double freely."""
    table = make(name)
    for n in (20000, 244):
        s, phi = SrbSampler(table, 1, 1).sample(n)
        ends = np.cumsum([b for b, _ in _walk_blocks(table, s, phi)])
        # a limit of L tests L cells, the own one included, so L = end
        # stops right at a block's end and end - 1, end + 1 one cell short
        # of it and one past it
        limits = sorted({1, 2, 3, 1000} | {int(end) + d for end in ends
                                           for d in (-1, 0, 1)} - {0, 1001})
        overflowed = set()
        for limit in limits:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(dynamics, "UNFOLD_MAX_CELLS", limit)
                block = step_batch(table, s, phi)
                m.setattr(dynamics, "_unfold", _reference_search)
                reference = step_batch(table, s, phi)
            assert _same_bytes(block, reference), (n, limit)
            if np.any(block[4] == FLAG_UNFOLD):
                overflowed.add(limit)
        assert {1, 2, 3} <= overflowed, n


def test_walk_blocks_fit_one_chunk():
    """A walk block holds at most _CHUNK lane-cells however many lanes walk
    and however far: one 2e5-lane step of the r = 0.01 torus and one of the
    r = 0.2 torus.  244 walking lanes never fill a chunk, so their blocks
    double from 4 cells."""
    for name in ("thin_sinai", "sinai"):
        table = make(name)
        s, phi = SrbSampler(table, 5).sample(200_000)
        blocks = _walk_blocks(table, s, phi)
        assert max(b * lanes for b, lanes in blocks) <= dynamics._CHUNK, name
    table = make("sinai")
    s, phi = SrbSampler(table, 1, 1).sample(244)
    sizes = [b for b, _ in _walk_blocks(table, s, phi)]
    assert len(sizes) >= 5
    assert sizes == [4 * 2**k for k in range(len(sizes))], sizes


@pytest.mark.parametrize("name", ["sinai", "two_scatterer", "stadium"])
def test_short_flights_take_one_nearest_call(name, monkeypatch):
    """A step makes one nearest call when the torus walk's first block, own
    cell included, holds every lane's hit, as on a bounded table: a flight
    under 1 crosses at most one cell edge per axis, so meets at most 3
    cells."""
    table = make(name)
    s, phi = SrbSampler(table, 1, 1).sample(2000)
    short = step_batch(table, s, phi)[2] < 1.0
    calls = []
    nearest = Table.nearest
    monkeypatch.setattr(Table, "nearest",
                        lambda *a: calls.append(a) or nearest(*a))
    assert np.all(step_batch(table, s[short], phi[short])[4] == FLAG_OK)
    assert short.sum() > 100 and len(calls) == 1


@pytest.mark.parametrize("table_name", ["sinai", "two_scatterer"])
def test_long_flights_do_not_depend_on_their_batch(table_name):
    """Corridor flights (tau 170-220) walk hundreds of cells past the short
    ones in the same blocks; every lane still gets what it gets alone."""
    table = make(table_name)
    s, phi = SrbSampler(table, 3, 1).sample(400)
    short = step_batch(table, s, phi)[2] < 3.0
    s, phi = s[short][:60], phi[short][:60]
    starts = [(s0, phi0) for t, s0, phi0, _ in LONG_FLIGHTS.values()
              if t == table_name]
    # first lane, two neighbours, mid-batch and last lane
    for at, (s0, phi0) in zip((0, 17, 18, 45, 64), starts * 3):
        s, phi = np.insert(s, at, s0), np.insert(phi, at, phi0)
    batch = step_batch(table, s, phi)
    assert np.sum(batch[2] > 170.0) == 5
    for i in range(s.size):
        alone = step_batch(table, s[i:i + 1], phi[i:i + 1])
        assert _same_bytes([a[i:i + 1] for a in batch], alone), i


# ------------------------------------------------------- wavefront curvature
# The curvature law below is the reference the tangent maps are checked
# against; the package itself never propagates curvature.

class FocalPointError(ValueError):
    """Wavefront focuses exactly at the next collision; curvature undefined."""


def curvature_evolve(B_plus, tau, K_next, phi_next):
    """Propagate post-collisional wavefront curvature through one flight.

    Free flight acts on the inverse curvature, 1/B_in(next) = tau + 1/B_out,
    and the collision adds 2 K / cos(phi).  Returns (B_minus_next,
    B_plus_next).  math.inf encodes the flat-fiber limit 1/B = 0.
    """
    if tau <= 0.0:
        raise ValueError(f"flight time must be positive, got {tau}")
    inv_b = 0.0 if math.isinf(B_plus) else (math.inf if B_plus == 0.0 else 1.0 / B_plus)
    denom = tau + inv_b
    if denom == 0.0:
        raise FocalPointError("wavefront focuses exactly at the next collision")
    B_minus = 0.0 if math.isinf(denom) else 1.0 / denom
    B_plus_next = B_minus + 2.0 * K_next / math.cos(phi_next)
    return B_minus, B_plus_next


def expansion_factor(B_plus, tau):
    """Per-flight expansion |1 + tau * B_plus| in the p-metric cos(phi)|ds|."""
    if not (math.isfinite(B_plus) and math.isfinite(tau)):
        raise ValueError("expansion factor needs finite curvature and flight time")
    return abs(1.0 + tau * B_plus)


def test_curvature_evolution_from_flat_wavefront():
    b_minus, b_plus = curvature_evolve(math.inf, 0.5, 5.0, 0.0)
    assert b_minus == pytest.approx(2.0)
    assert b_plus == pytest.approx(12.0)


def test_curvature_evolution_second_example():
    _, b_plus = curvature_evolve(math.inf, 0.6, 5.0, 0.0)
    assert b_plus == pytest.approx(1 / 0.6 + 10, rel=1e-12)


def test_curvature_focal_point_raises():
    with pytest.raises(FocalPointError):
        curvature_evolve(-2.0, 0.5, 5.0, 0.0)


def test_expansion_factor_values():
    assert expansion_factor(12.0, 0.6) == pytest.approx(8.2)
    assert expansion_factor(0.0, 1.7) == 1.0
    with pytest.raises(ValueError):
        expansion_factor(math.inf, 0.5)


def test_expansion_matches_jacobian_growth_on_symmetry_orbit():
    """Per-step expansion at the curvature fixed point equals the top
    eigenvalue of the constant Jacobian along the cell-crossing orbit."""
    # B = 1/(0.6 + 1/B) + 10 has one positive root
    b = (6 + math.sqrt(60)) / 1.2
    assert b == pytest.approx(1 / (0.6 + 1 / b) + 10, rel=1e-12)
    lam = expansion_factor(b, 0.6)
    table = make("sinai")
    M = tangent_at(table, 0.0, 0.0)
    eigs = np.abs(np.linalg.eigvals(M))
    assert lam == pytest.approx(eigs.max(), rel=1e-12)
    assert lam == pytest.approx(4 + math.sqrt(15), rel=1e-12)


def test_slope_propagation_matches_jacobian_chain():
    """A tangent vector with slope B+ cos(phi) - K keeps satisfying the
    relation when the vector moves by Df and B by the curvature law."""
    table = make("sinai")
    s = np.array([0.1])
    phi = np.array([0.3])
    b_plus = 3.0
    K = float(locate_batch(table, s)["K"][0])
    v = np.array([1.0, b_plus * math.cos(phi[0]) - K])
    for _ in range(10):
        M, (s1, phi1, tau, comp, flag) = tangent_map(table, s, phi)
        assert int(flag[0]) == FLAG_OK
        v = M[0] @ v
        K1 = float(locate_batch(table, s1)["K"][0])
        _, b_plus = curvature_evolve(b_plus, float(tau[0]), K1, float(phi1[0]))
        slope = v[1] / v[0]
        expected = b_plus * math.cos(phi1[0]) - K1
        assert abs(slope - expected) < 1e-9 * max(1.0, abs(expected))
        s, phi = s1, phi1


# ------------------------------------------------------------ flags & orbits

def test_grazing_impact_flagged():
    table = make("sinai")
    flag = step_batch(table, [0.0], [math.pi / 2 - 1e-9])[4]
    assert flag[0] == FLAG_GRAZING


def test_corner_impact_flagged():
    table = make("stadium")
    # from the middle of the top flat straight at the (1,-1) junction
    phi = math.atan2(-1.0, 2.0)
    assert step_batch(table, [3.0 + math.pi], [phi])[4][0] == FLAG_CORNER


def test_loop_seam_impact_is_regular():
    """Along the normal from the right wall's middle, the ray meets the disk
    at its seam, s = 6, which is also where the wall chain closes at the
    (0, 0) corner: a regular hit on the disk, not a corner."""
    s1, phi1, tau, comp, flag = step_batch(make("semi"), [2.5], [0.0])
    assert flag[0] == FLAG_OK
    assert (s1[0], comp[0]) == (6.0, 4)
    assert tau[0] == pytest.approx(0.7) and phi1[0] == pytest.approx(0.0)


@pytest.mark.parametrize("name", ["stadium", "squash", "diamond", "flower"])
def test_rays_at_arc_ends(name):
    """From where the inward normal 0.05 rad inside an open arc's end lands,
    rays aimed at the arc's circle 1e-3 and 1e-6 rad inside the end hit the
    arc, one aimed at the end is a corner hit, and one aimed 1e-6 rad past
    the end hits another component."""
    table = make(name)
    for j, c in enumerate(table.components):
        if c.kind != "arc" or c.loop:
            continue
        for end, inward in ((c.theta0, 1.0), (c.theta1, -1.0)):
            th = end + inward * 0.05
            u = c.theta1 - th if c.dispersing else th - c.theta0
            start = step_batch(table, [table.offsets[j] + c.radius * u], [0.0])
            assert start[4][0] == FLAG_OK
            p = locate_batch(table, start[0])
            aim = end + inward * np.array([1e-3, 1e-6, 0.0, -1e-6])
            vx = c.center[0] + c.radius * np.cos(aim) - p["x"]
            vy = c.center[1] + c.radius * np.sin(aim) - p["y"]
            phi = np.arctan2(vx * p["ny"] - vy * p["nx"],
                             vx * p["nx"] + vy * p["ny"])
            _, _, _, comp, flag = step_batch(table, np.full(4, start[0]), phi)
            case = (j, end)
            assert list(flag) == [FLAG_OK, FLAG_OK, FLAG_CORNER, FLAG_OK], case
            assert list(comp[[0, 1, 3]] == j) == [True, True, False], case


def test_unfold_overflow_flagged(monkeypatch):
    table = make("sinai")
    monkeypatch.setattr(dynamics, "UNFOLD_MAX_CELLS", 1)
    assert step_batch(table, [0.1], [0.3])[4][0] == FLAG_UNFOLD
    assert observed(table, 0.1, 0.3, 10) == ([], 1, FLAG_UNFOLD)


def test_regular_step_is_ok_flag():
    table = make("stadium")
    assert step_batch(table, [1.0], [0.1])[4][0] == FLAG_OK


def test_orbit_seed_inside_hole_not_counted():
    """march observes collisions 1, 2, ...: the seed, inside the hole, is
    never seen as a hit."""
    table = make("sinai")
    hole = make_hole(table, 0.3, 0.05)
    assert hole.contains(0.3)
    seen, step, kind = observed(table, 0.3, 0.2, 50)
    assert [j for j, *_ in seen] == list(range(1, 51))
    assert (step, kind) == (51, FLAG_OK)


def test_orbit_censors_on_grazing():
    table = make("sinai")
    seen = observed(table, 0.0, math.pi / 2 - 1e-9, 50)
    assert seen == ([], 1, FLAG_GRAZING)


def test_orbit_component_tracking():
    table = make("stadium")
    seen, step, kind = observed(table, *SEEDS["stadium"], 8)
    assert [c for *_, c in seen] == [t[3] for t in FROZEN_TRACE["stadium"]]
    assert (step, kind) == (9, FLAG_OK)
