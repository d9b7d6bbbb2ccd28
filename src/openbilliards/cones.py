"""Unstable/stable cone fields and their numerical invariance scan.

Cones live in tangent (dq, dphi) coordinates and are intervals of slope
dphi/dq.  On dispersing or flat components the unstable cone is [K, +inf]
(vertical included); on focusing arcs it is [K, 0].  Stable cones are the
time-reversal mirrors, so the stable invariance check reuses the forward
scan at angle-reflected points instead of inverting the collision solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FLAG_OK, tangent_map_batch
from .geometry import locate
from .measure import SrbSampler


@dataclass(frozen=True)
class Cone:
    lo: float
    hi: float          # math.inf means the vertical direction is included
    kind: str          # "unstable" | "stable"
    K: float


def _cone_edges(K, kind="unstable"):
    """(lo, hi) slope edges of the cone over host curvature K (arrays or
    scalars): [K, inf] for the unstable cone, [K, 0] on a focusing arc."""
    if kind == "unstable":
        return K, np.where(K < 0, 0.0, np.inf)
    if kind == "stable":
        # mirror image of the unstable cone under (dq, dphi) -> (dq, -dphi)
        return np.where(K < 0, 0.0, -np.inf), -K
    raise ValueError(f"unknown cone kind {kind!r}")


def cone_at(table, x, kind="unstable"):
    """Cone of Lemma-9.1 type at phase point x, set by the host curvature."""
    K = locate(table, x.s).curvature
    return Cone(*map(float, _cone_edges(K, kind)), kind, K)


def slope_of(v):
    """Slope dphi/dq of a tangent vector; vertical counts as +inf."""
    dq, dphi = v
    if dq == 0.0:
        if dphi == 0.0:
            raise ValueError("zero tangent vector")
        return math.inf
    return dphi / dq


def in_cone(cone, v):
    """Closed-cone membership by slope."""
    sl = slope_of(v)
    return cone.lo <= sl <= cone.hi


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


def _start_slopes(K, n_vectors):
    """Deterministic fan of slopes per point: both boundaries + interior."""
    slopes = np.empty((n_vectors, K.size))
    vertical = np.zeros((n_vectors, K.size), dtype=bool)
    lo, hi = _cone_edges(K)
    slopes[0] = lo
    if n_vectors > 1:              # the top edge; vertical when hi is inf
        vertical[-1] = np.isinf(hi)
        slopes[-1] = hi
    for j in range(1, n_vectors - 1):
        t = j / (n_vectors - 1)
        # dispersing/flat: sweep [K, inf) via a tangent map; focusing: [K, 0]
        disp = K + math.tan(t * math.pi / 2)
        foc = K * (1.0 - t)
        slopes[j] = np.where(K < 0, foc, disp)
    return slopes, vertical


def _scan_once(table, s, phi, n_vectors):
    """Forward unstable-cone invariance over one point ensemble.

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

    slopes, vertical = _start_slopes(K0, n_vectors)
    dq = np.where(vertical, 0.0, 1.0)
    dphi = np.where(vertical, 1.0, slopes)
    dq1 = M[:, 0, 0] * dq + M[:, 0, 1] * dphi
    dphi1 = M[:, 1, 0] * dq + M[:, 1, 1] * dphi

    with np.errstate(divide="ignore", invalid="ignore"):
        sl1 = dphi1 / dq1
    vert1 = dq1 == 0.0
    # margin from each cone edge; vertical images belong only to [*, inf]
    m_lo = np.where(vert1, np.where(np.isinf(hi1), np.inf, -np.inf),
                    sl1 - lo1)
    m_hi = np.where(np.isinf(hi1), np.inf,
                    np.where(vert1, -np.inf, hi1 - sl1))
    margin = np.minimum(m_lo, m_hi)
    scale = np.maximum(1.0, np.abs(np.where(vert1, 0.0, sl1)))
    scale = np.maximum(scale, np.abs(lo1))
    bad = margin < -1e-12 * scale   # the slope tolerance, scaled

    # vertical fiber must land strictly inside the image cone
    vsl = K1 + np.cos(phi1) / tau
    vm = np.minimum(vsl - lo1, np.where(np.isinf(hi1), np.inf, hi1 - vsl))

    # interiors of C^u and its stable mirror may never overlap
    s_lo, s_hi = _cone_edges(K1, "stable")
    o_lo = np.maximum(lo1, s_lo)
    o_hi = np.minimum(hi1, s_hi)
    trans_bad = int(np.count_nonzero(o_lo < o_hi))

    return {
        "pairs": int(margin.size),
        "violations": int(np.count_nonzero(bad)),
        "worst": float(margin.min()) if margin.size else math.inf,
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
