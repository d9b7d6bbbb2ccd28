"""End-to-end acceptance sweep.

One test per numbered criterion; `pytest -v` prints one pass/fail line per
criterion and each test prints its measured numbers next to the pinned
tolerance. Statistical targets use fixed seeds and declared noise bands.

Criteria 7-11 read the hitting laws of two tables, the infinite-horizon
Sinai torus and the stadium, each from one collect_hitting_family march at
seed 7 that holds every request of those criteria. SRB draws are
prefix-stable, so each request gets the bytes a separate march would give.
Criteria 7 and 8 read window_ks, the KS distance that `billiards run`
reports.

Criterion 10 (short returns) is a known red: the statistic's expected value
at the smallest feasible hole radius is ~0.5 (sinai) / ~0.75 (stadium), far
above the 0.02 pin, because the vanishing rate is mu^0.1. The test asserts
the target as stated and fails honestly; see the strict-decrease half,
which does hold.
"""

import math

import numpy as np
import pytest

from openbilliards import build_table, make_hole
from openbilliards.cones import cone_invariance_scan
from openbilliards.dynamics import FLAG_OK, step_batch
from openbilliards.geometry import cut_stadium_components
from openbilliards.inducing import base_returns
from openbilliards.measure import SrbSampler, invariance_defect
from openbilliards.openstats import (
    CHECK_T_MAX,
    collect_hitting_family,
    count_statistics,
    short_return_orbits,
    survival_curve,
)

from helpers import class_tables, tangent_map

SFC_CLASSES = ("sinai_torus", "diamond", "stadium", "squash", "flower")
RADII = (0.05, 0.02, 0.01)
KS_NOISE_BAND = 0.01   # declared band for monotonicity at 2e4 orbits
# the (n_orbits, t_max) of each request kind: the hitting-law sweep of
# criteria 7-9, the short returns of criterion 10, the quasi-section of 11
REQUESTS = {
    "sweep": (20000, 8.0),
    "short": (short_return_orbits(20000, CHECK_T_MAX), CHECK_T_MAX),
    "quasi": (3000, CHECK_T_MAX),
}


@pytest.fixture(scope="module")
def tables():
    return class_tables()


def wrapped(d, per):
    return (d + per / 2.0) % per - per / 2.0


def hitting_family(table, center_s, quasi_radii):
    """Hitting data per request kind and radius, all from one march at seed
    7: the sweep and the short returns at every radius of RADII, the
    quasi-section at quasi_radii."""
    keys = [(kind, r) for kind in REQUESTS
            for r in (quasi_radii if kind == "quasi" else RADII)]
    family = collect_hitting_family(
        table, [(make_hole(table, center_s, r), *REQUESTS[kind])
                for kind, r in keys], 7)
    out = {kind: {} for kind in REQUESTS}
    for (kind, r), data in zip(keys, family):
        out[kind][r] = data
    return out


@pytest.fixture(scope="module")
def sinai_family(tables):
    """Criteria 7 and 9-11 on the dispersing table, hole centred at s = 0.3."""
    return hitting_family(tables["sinai_torus"], 0.3, (0.01,))


@pytest.fixture(scope="module")
def stadium_family(tables):
    """Criteria 8, 10 and 11 on the stadium, hole centred on a flat."""
    return hitting_family(tables["stadium"], 1.0, RADII)


def _fd_pass(table, s, phi, M, img, h):
    """One central-difference pass: (rel_error, stencil_valid, fd)."""
    per = table.perimeter
    s1, phi1, comp = img
    nrm = np.sqrt((M ** 2).sum(axis=(1, 2)))
    outs = []
    for ds, dp in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
        outs.append(step_batch(table, (s + ds) % per, phi + dp))
    valid = np.ones(s.shape, dtype=bool)
    for r in outs:
        jump = np.abs(wrapped(r[0] - s1, per)) + np.abs(r[1] - phi1)
        # stencils that cross a discontinuity (other component, other
        # lattice copy, tangency) jump by O(1), smooth ones by O(h nrm)
        valid &= (r[4] == FLAG_OK) & (r[3] == comp) \
            & (jump <= 50.0 * h * (1.0 + nrm))
    fd = np.empty_like(M)
    fd[:, 0, 0] = wrapped(outs[0][0] - outs[1][0], per) / (2.0 * h)
    fd[:, 1, 0] = (outs[0][1] - outs[1][1]) / (2.0 * h)
    fd[:, 0, 1] = wrapped(outs[2][0] - outs[3][0], per) / (2.0 * h)
    fd[:, 1, 1] = (outs[2][1] - outs[3][1]) / (2.0 * h)
    rel = np.abs(fd - M).max(axis=(1, 2)) / nrm
    return rel, valid, fd


def test_criterion_01_derivative_exactness(tables):
    """det Df equals the cosine ratio; Df matches finite differences.

    Relative errors are normalized by max(|target|, ||Df||_F): float64
    entries force a det rounding error of order eps*||Df||^2, so the raw
    det-relative reading is ill-conditioned at near-grazing long flights.
    The FD ladder retries stiff lanes at smaller h (truncation ~ h^2).
    """
    for name, table in tables.items():
        s, phi = SrbSampler(table, seed=101).sample(100000)
        M, (s1, phi1, tau, comp, flag) = tangent_map(table, s, phi)
        ok = flag == FLAG_OK
        nrm = np.sqrt((M ** 2).sum(axis=(1, 2)))
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        target = np.cos(phi) / np.cos(phi1)
        det_rel = (np.abs(det - target)
                   / np.maximum(np.abs(target), nrm))[ok].max()

        remaining = np.flatnonzero(ok)
        excluded = np.zeros(s.shape, dtype=bool)
        fd_worst = 0.0
        # stiff lanes (grazing images, corridor flights) keep h^2 truncation
        # dominant far down the ladder; their large ||Df|| keeps the
        # roundoff floor eps*|f|/(h*||Df||) harmless at the small end
        for h in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            if remaining.size == 0:
                break
            idx = remaining
            rel, valid, _ = _fd_pass(table, s[idx], phi[idx], M[idx],
                                     (s1[idx], phi1[idx], comp[idx]), h)
            passed = valid & (rel < 1e-5)
            if passed.any():
                fd_worst = max(fd_worst, float(rel[passed].max()))
            excluded[idx] = ~valid
            remaining = idx[~passed]
        # A lane that never passed indicts the matrix only if the FD
        # quotient itself converges: when two small-h passes disagree
        # with each other, the observable is FD noise (non-smooth path
        # roundoff through long flights), not the derivative, and the
        # lane is unverifiable by float64 differencing.  Those count
        # toward the exclusion budget alongside dirty stencils.
        failures = np.empty(0, dtype=remaining.dtype)
        if remaining.size:
            idx = remaining
            args = (table, s[idx], phi[idx], M[idx],
                    (s1[idx], phi1[idx], comp[idx]))
            rel_a, val_a, fd_a = _fd_pass(*args, 3e-11)
            rel_b, val_b, fd_b = _fd_pass(*args, 1e-11)
            drift = (np.abs(fd_a - fd_b).max(axis=(1, 2))
                     / np.sqrt((M[idx] ** 2).sum(axis=(1, 2))))
            settled = val_a & val_b & (drift < 1e-5)
            failures = idx[settled & (rel_a >= 1e-5) & (rel_b >= 1e-5)]
            excluded[idx[~settled]] = True
        excluded_frac = excluded.mean()
        print(f"[criterion 1] {name}: det_rel={det_rel:.2e} (<1e-9) "
              f"fd_rel={fd_worst:.2e} (<1e-5) fd_failures={failures.size} "
              f"excluded={excluded_frac:.2%}")
        assert det_rel < 1e-9, name
        assert failures.size == 0, name
        assert excluded_frac < 1e-3, name


def test_criterion_02_involution(tables):
    """Reversing the outgoing angle retraces the collision."""
    for name, table in tables.items():
        per = table.perimeter
        s, phi = SrbSampler(table, seed=202).sample(100000)
        M, (s1, phi1, _, _, f1) = tangent_map(table, s, phi)
        s2, phi2, _, _, f2 = step_batch(table, s1, -phi1)
        ok = (f1 == FLAG_OK) & (f2 == FLAG_OK)
        nrm = np.sqrt((M ** 2).sum(axis=(1, 2)))
        # the roundtrip cannot beat eps * local expansion; scale the pin
        tol = 1e-9 * np.maximum(1.0, nrm[ok])
        ds = np.abs(wrapped(s2 - s, per))[ok]
        dphi = np.abs(phi2 + phi)[ok]
        worst = float(np.maximum(ds / tol, dphi / tol).max())
        print(f"[criterion 2] {name}: worst residual {worst:.3f} x tolerance "
              f"(raw ds={ds.max():.2e} dphi={dphi.max():.2e}, tol 1e-9 "
              f"scaled by ||Df||)")
        assert worst < 1.0, name
        assert (~ok).mean() < 1e-3, name


def test_criterion_03_measure_invariance(tables):
    """One-step pushforward of the sampled measure keeps both marginals."""
    for name, table in tables.items():
        rep = invariance_defect(table, 1_000_000, seed=31)
        print(f"[criterion 3] {name}: ks_phi={rep.ks_phi:.5f} "
              f"ks_s={rep.ks_s:.5f} (<0.005) "
              f"censored={rep.censored_fraction:.2e} (<0.001)")
        assert rep.ks_phi < 0.005, name
        assert rep.ks_s < 0.005, name
        assert rep.censored_fraction < 0.001, name


def test_criterion_04_cone_invariance(tables):
    """Unstable cones map strictly inside themselves; control breaks."""
    for name in SFC_CLASSES:
        rep = cone_invariance_scan(tables[name], 50000, 10, seed=41)
        print(f"[criterion 4] {name}: pairs={rep.n_pairs} "
              f"violations={rep.n_violations} (=0) "
              f"vertical_margin={rep.vertical_min_margin:.2e} (>0) "
              f"transversality={rep.transversality_violations} (=0)")
        assert rep.n_pairs >= 990_000, name
        assert rep.n_violations == 0, name
        assert rep.vertical_min_margin > 0.0, name
        assert rep.transversality_violations == 0, name
    control = build_table("flower",
                          components=cut_stadium_components(2.0, 0.75))
    rep = cone_invariance_scan(control, 5000, 10, seed=41)
    print(f"[criterion 4] broken-geometry control: "
          f"violations={rep.n_violations} (>0)")
    assert rep.n_violations > 0


def test_criterion_05_kac_identity(tables):
    """Mean return time times base measure equals one."""
    rep = base_returns(tables["sinai_torus"], 1_000_000, cap=100,
                       seed=51).kac()
    print(f"[criterion 5] sinai_torus: defect={rep.defect} (exact 0, "
          f"mu_x={rep.mu_x})")
    assert rep.defect == 0.0
    assert rep.mu_x == 1.0
    for name in ("stadium", "flower", "semi_dispersing"):
        rep = base_returns(tables[name], 1_000_000, cap=50_000,
                           seed=51).kac()
        print(f"[criterion 5] {name}: defect={rep.defect:.5f} (<0.01) "
              f"mean_R={rep.mean_R:.4f} mu_x={rep.mu_x:.4f} "
              f"censored={rep.censored_fraction:.2e}")
        assert rep.defect < 0.01, name
        assert rep.censored_fraction < 0.01, name


def test_criterion_06_return_tail_integrable(tables):
    """Stadium return-time tail decays fast enough to integrate."""
    returns = base_returns(tables["stadium"], 1_000_000, cap=50_000, seed=61)
    rep = returns.tail()
    assert np.all(np.diff(rep.survival) <= 0.0)
    sel = (rep.n >= 10) & (rep.n <= 1000) & (rep.survival > 0)
    slope = np.polyfit(np.log(rep.n[sel].astype(float)),
                       np.log(rep.survival[sel]), 1)[0]
    print(f"[criterion 6] stadium tail: slope={slope:.3f} (<-1) over "
          f"n in [10,{int(rep.n[sel].max())}], "
          f"mean_R={returns.kac().mean_R:.3f}, "
          f"monotone=yes")
    assert slope < -1.0


def test_criterion_07_exponential_hitting_law(sinai_family):
    """First hitting times approach Exp(1) as the hole shrinks."""
    sweep = sinai_family["sweep"]
    ks = {r: sweep[r].window_ks() for r in RADII}
    sc = survival_curve(sweep[0.01], np.array([0.0, 1.0]))
    surv1 = float(sc.empirical[1])
    cens = max(float((d.censor_step <= d.horizon).mean())
               for d in sweep.values())
    print(f"[criterion 7] sinai KS by radius: "
          + " ".join(f"r={r}:{ks[r]:.4f}" for r in RADII)
          + f" (non-increasing within {KS_NOISE_BAND}; last <0.05); "
          f"survival(1)={surv1:.4f} (|-e^-1|<0.05); censored max {cens:.1e}")
    assert ks[0.02] <= ks[0.05] + KS_NOISE_BAND
    assert ks[0.01] <= ks[0.02] + KS_NOISE_BAND
    assert ks[0.01] < 0.05
    assert abs(surv1 - math.exp(-1.0)) < 0.05
    assert cens < 0.001


def test_criterion_08_slow_mixing_robustness(stadium_family):
    """The same hitting law emerges on the slowly mixing stadium."""
    ks = {r: stadium_family["sweep"][r].window_ks() for r in RADII}
    print(f"[criterion 8] stadium KS by radius: "
          + " ".join(f"r={r}:{ks[r]:.4f}" for r in RADII)
          + f" (non-increasing within {KS_NOISE_BAND}; last <0.07)")
    assert ks[0.02] <= ks[0.05] + KS_NOISE_BAND
    assert ks[0.01] <= ks[0.02] + KS_NOISE_BAND
    assert ks[0.01] < 0.07


def test_criterion_09_poisson_counts(sinai_family):
    """Interval counts look Poisson and decorrelate across intervals."""
    rep = count_statistics(sinai_family["sweep"][0.01],
                           [(0.0, 1.0), (1.0, 2.0)])
    corr = float(rep.correlations[0, 1])
    print(f"[criterion 9] sinai r=0.01: TV={rep.tv[0]:.4f},{rep.tv[1]:.4f} "
          f"(<0.05) corr={corr:.4f} (|.|<0.05) means={rep.means}")
    assert rep.tv[0] < 0.05
    assert abs(corr) < 0.05


def test_criterion_10_short_returns(sinai_family, stadium_family):
    """Short returns thin out as the hole shrinks.

    KNOWN RED: the fraction's expected value is 1 - exp(-p*mu/mu_X) with
    p = ceil(mu^-0.9), about 0.5 on the dispersing table and 0.75 on the
    stadium at r = 0.01; reaching 0.02 needs mu ~ 1e-17. Strict decrease
    holds; the absolute pin does not, and this test reports it honestly.
    """
    fractions = {}
    for name, family in (("sinai_torus", sinai_family),
                         ("stadium", stadium_family)):
        fr = [family["short"][r].short_returns().fraction for r in RADII]
        fractions[name] = fr
        print(f"[criterion 10] {name}: fractions "
              + " ".join(f"r={r}:{f:.4f}" for r, f in zip(RADII, fr))
              + " (strictly decreasing; last <0.02)")
    for name, fr in fractions.items():
        assert fr[0] > fr[1] > fr[2], name
    for name, fr in fractions.items():
        assert fr[2] < 0.02, (
            f"{name}: fraction {fr[2]:.4f} at r=0.01; the statistic "
            f"vanishes like mu^0.1, so 0.02 is out of reach at any "
            f"feasible radius")


def test_criterion_11_quasi_section_defect(tables, sinai_family,
                                           stadium_family):
    """Multi-hit excursions are a vanishing O(r) fraction; exact 0 when
    every collision starts its own excursion."""
    stadium = tables["stadium"]
    defects, ratios = [], []
    for r, data in stadium_family["quasi"].items():
        hole = make_hole(stadium, 1.0, r)
        assert stadium.components[hole.component].kind == "flat"
        rep = data.quasi_section()
        defects.append(rep.defect)
        ratios.append(rep.defect / r)
    rep0 = sinai_family["quasi"][0.01].quasi_section()
    print(f"[criterion 11] stadium defects "
          + " ".join(f"r={r}:{d:.5f}" for r, d in zip(RADII, defects))
          + f" (decreasing); defect/r ratios "
          + " ".join(f"{x:.3f}" for x in ratios)
          + f" (bounded by 2.5x first); sinai defect={rep0.defect} (=0)")
    assert defects[0] > defects[1] > defects[2] > 0.0
    assert max(ratios) <= 2.5 * ratios[0]
    assert rep0.defect == 0.0
