"""Unstable/stable cone fields and their numerical invariance scan.

Cones live in tangent (dq, dphi) coordinates and are intervals of slope
dphi/dq.  On dispersing or flat components the unstable cone is [K, +inf]
(vertical included); on focusing arcs it is [K, 0].  The stable cone is its
time-reversal mirror [-hi, -lo], so the stable check is the unstable check
of the inverse map.  One step serves both: reflected, the image (s1, -phi1)
flies back the same tau to (s, -phi), so the inverse map's Jacobian is the
forward formula with the two ends swapped.  The scan steps its points once
and builds both maps with dynamics.jacobian from that flight's tau and the
curvature and cos(phi) at its two ends.  It maps one row of start vectors
(one per point) at a time and keeps running tallies, the violation count,
the minimum margin and the pair count; each is exact, so the report equals
one taken over all rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# step_batch is read off dynamics at each call, so a kernel patched there is
# the one the scan steps
from . import dynamics
from .dynamics import FLAG_OK, jacobian
from .measure import SrbSampler


def _cone_edges(K):
    """(lo, hi) slope edges of the unstable cone over host curvature K
    (arrays or scalars): [K, inf], or [K, 0] on a focusing arc."""
    return K, np.where(K < 0, 0.0, np.inf)


@dataclass(frozen=True)
class ConeScanReport:
    n_pairs: int
    n_violations: int
    worst_margin: float          # most negative slope margin seen (inf if clean)
    vertical_min_margin: float   # strictness of the vertical-fiber image
    transversality_violations: int
    censored_fraction: float


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


def _scan_once(M, K0, K1, c1, tau, n_vectors):
    """Unstable-cone invariance of the maps M from points over curvature K0
    to images over K1 with cos(phi1) = c1 after flights tau.

    Tallies one vector row at a time, so no array holds n_vectors rows.
    Returns (violations, worst margin, vertical-fiber minimum margin,
    transversality count).
    """
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
    vsl = K1 + c1 / tau
    vm = np.minimum(vsl - lo1, np.where(open1, np.inf, hi1 - vsl))

    # interiors of C^u and its stable mirror [-hi, -lo] may never overlap
    trans = np.count_nonzero(np.maximum(lo1, -hi1) < np.minimum(hi1, -lo1))
    return (violations, float(worst),
            float(vm.min()) if vm.size else math.inf, int(trans))


def cone_invariance_scan(table, n_points, n_vectors, seed):
    """Checks Df C^u(x) inside C^u(f x) and its stable mirror over an SRB
    ensemble, from one step of the sampled points.

    The unstable tally reads the forward maps.  The stable tally reads the
    inverse maps at the reflected images, which by time reversal are the
    forward Jacobian with the ends swapped: start cone over K1, image cone
    over K0.  Censored lanes drop out of both.  Violations are counted with
    a slope tolerance scaled by the magnitudes involved.
    """
    s, phi = SrbSampler(table, seed).sample(n_points)
    _, phi1, tau, comp, flag = dynamics.step_batch(table, s, phi)
    ok = flag == FLAG_OK
    K0, K1 = table.K[table.component(s[ok])], table.K[comp[ok]]
    c0, c1, tau = np.cos(phi[ok]), np.cos(phi1[ok]), tau[ok]
    fwd = _scan_once(jacobian(tau, K0, K1, c0, c1), K0, K1, c1, tau,
                     n_vectors)
    rev = _scan_once(jacobian(tau, K1, K0, c1, c0), K1, K0, c0, tau,
                     n_vectors)
    return ConeScanReport(
        n_pairs=2 * n_vectors * int(tau.size),
        n_violations=fwd[0] + rev[0],
        worst_margin=min(fwd[1], rev[1]),
        vertical_min_margin=min(fwd[2], rev[2]),
        transversality_violations=fwd[3] + rev[3],
        censored_fraction=int(np.count_nonzero(~ok)) / max(ok.size, 1),
    )
