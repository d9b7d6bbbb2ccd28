"""Unstable/stable cone fields and their numerical invariance scan.

Cones live in tangent (dq, dphi) coordinates and are intervals of slope
dphi/dq.  On dispersing or flat components the unstable cone is [K, +inf]
(vertical included); on focusing arcs it is [K, 0].  Stable cones are the
time-reversal mirrors, so the stable invariance check reuses the forward
scan at angle-reflected points instead of inverting the collision solver.
The scan maps one row of start vectors (one per point) at a time and keeps
running tallies, the violation count, the minimum margin and the pair
count; each is exact, so the report equals one taken over all rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FLAG_OK, tangent_map_batch
from .measure import SrbSampler


def _cone_edges(K, kind="unstable"):
    """(lo, hi) slope edges of the cone over host curvature K (arrays or
    scalars): [K, inf] for the unstable cone, [K, 0] on a focusing arc."""
    if kind == "unstable":
        return K, np.where(K < 0, 0.0, np.inf)
    if kind == "stable":
        # mirror image of the unstable cone under (dq, dphi) -> (dq, -dphi)
        return np.where(K < 0, 0.0, -np.inf), -K
    raise ValueError(f"unknown cone kind {kind!r}")


@dataclass(frozen=True)
class ConeScanReport:
    n_pairs: int
    n_violations: int
    worst_margin: float          # most negative slope margin seen (inf if clean)
    vertical_min_margin: float   # strictness of the vertical-fiber image
    transversality_violations: int
    censored_fraction: float

    @property
    def clean(self):
        return self.n_violations == 0 and self.transversality_violations == 0


def _start_vector(K, j, n_vectors):
    """Row j of a deterministic fan of n_vectors tangent vectors (dq, dphi)
    per point: the lower cone edge, interior slopes, then the upper edge,
    vertical where it is inf."""
    lo, hi = _cone_edges(K)
    if j == 0:
        return 1.0, lo
    if j == n_vectors - 1:
        vertical = np.isinf(hi)
        return np.where(vertical, 0.0, 1.0), np.where(vertical, 1.0, hi)
    t = j / (n_vectors - 1)
    # dispersing/flat: sweep [K, inf) via a tangent map; focusing: [K, 0]
    return 1.0, np.where(K < 0, K * (1.0 - t), K + math.tan(t * math.pi / 2))


def _scan_once(table, s, phi, n_vectors):
    """Forward unstable-cone invariance over one point ensemble.

    Tallies one vector row at a time, so no array holds n_vectors rows.
    Returns the tallies and the uncensored images (s1, phi1) of the points.
    """
    bg = table._bg
    K0 = bg.K[bg.component(s)]
    M, (s1, phi1, tau, comp, flag) = tangent_map_batch(table, s, phi)
    ok = flag == FLAG_OK
    K0, M, s1, phi1, tau = K0[ok], M[ok], s1[ok], phi1[ok], tau[ok]
    # an impact clamped to its component's end sits on a junction and is
    # censored, so on uncensored lanes the hit component's K is K at s1
    K1 = bg.K[comp[ok]]
    lo1, hi1 = _cone_edges(K1)
    open1 = np.isinf(hi1)

    violations, worst = 0, math.inf
    for j in range(n_vectors):
        dq, dphi = _start_vector(K0, j, n_vectors)
        dq1 = M[:, 0, 0] * dq + M[:, 0, 1] * dphi
        dphi1 = M[:, 1, 0] * dq + M[:, 1, 1] * dphi
        with np.errstate(divide="ignore", invalid="ignore"):
            sl1 = dphi1 / dq1
        vert1 = dq1 == 0.0
        # margin from each cone edge; vertical images belong only to [*, inf]
        m_lo = np.where(vert1, np.where(open1, np.inf, -np.inf), sl1 - lo1)
        m_hi = np.where(open1, np.inf, np.where(vert1, -np.inf, hi1 - sl1))
        margin = np.minimum(m_lo, m_hi)
        scale = np.maximum(1.0, np.abs(np.where(vert1, 0.0, sl1)))
        scale = np.maximum(scale, np.abs(lo1))
        # the slope tolerance, scaled
        violations += int(np.count_nonzero(margin < -1e-12 * scale))
        worst = np.minimum(worst, margin.min(initial=math.inf))

    # vertical fiber must land strictly inside the image cone
    vsl = K1 + np.cos(phi1) / tau
    vm = np.minimum(vsl - lo1, np.where(open1, np.inf, hi1 - vsl))

    # interiors of C^u and its stable mirror may never overlap
    s_lo, s_hi = _cone_edges(K1, "stable")
    o_lo = np.maximum(lo1, s_lo)
    o_hi = np.minimum(hi1, s_hi)
    trans_bad = int(np.count_nonzero(o_lo < o_hi))

    return {
        "pairs": n_vectors * int(tau.size),
        "violations": violations,
        "worst": float(worst),
        "vertical_min": float(vm.min()) if vm.size else math.inf,
        "trans": int(trans_bad),
        "censored": int((~ok).sum()),
        "total": int(ok.size),
    }, s1, phi1


def cone_invariance_scan(table, n_points, n_vectors, seed):
    """Checks Df C^u(x) inside C^u(f x) over an SRB ensemble.

    Runs the forward scan twice: once on sampled points (unstable cones) and
    once on the angle-reflected images (equivalent, by time reversal, to the
    stable-cone check under the inverse map).  Violations are counted with a
    slope tolerance scaled by the magnitudes involved.
    """
    s, phi = SrbSampler(table, seed).sample(n_points)
    fwd, s1, phi1 = _scan_once(table, s, phi, n_vectors)

    # stable side: unstable invariance at the reflected image ensemble
    rev, _, _ = _scan_once(table, s1, -phi1, n_vectors)

    total = fwd["total"] + rev["total"]
    censored = fwd["censored"] + rev["censored"]
    return ConeScanReport(
        n_pairs=fwd["pairs"] + rev["pairs"],
        n_violations=fwd["violations"] + rev["violations"],
        worst_margin=min(fwd["worst"], rev["worst"]),
        vertical_min_margin=min(fwd["vertical_min"], rev["vertical_min"]),
        transversality_violations=fwd["trans"] + rev["trans"],
        censored_fraction=censored / max(total, 1),
    )
