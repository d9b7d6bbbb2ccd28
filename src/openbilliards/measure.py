"""SRB measure on the collision space: sampling and invariance diagnostics.

The invariant measure has density cos(phi)/(2 |boundary|) in (s, phi).  Its
two marginals factor: s is uniform on the boundary and phi has density
cos(phi)/2, sampled in closed form by phi = arcsin(2u - 1).

Randomness comes from a counter-based generator (Philox) keyed by
(seed, stream); sample i always consumes draws 2i and 2i+1, so sequences are
reproducible prefixes regardless of how many points a caller requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FLAG_OK, step_batch


@dataclass(frozen=True)
class SrbSampler:
    """Value-semantic sampler; equal (table, seed, stream) => equal output."""

    table: object
    seed: int
    stream: int = 0
    phi_mode: str = "cosine"   # "uniform" is the wrong-measure negative control

    def uniforms(self, n):
        """The first 2n raw draws of this sampler's stream."""
        bits = np.random.Philox(key=np.array([self.seed, self.stream],
                                             dtype=np.uint64))
        return np.random.Generator(bits).random(2 * n)

    def sample(self, n):
        """First n phase points: (s, phi) arrays."""
        if n < 1:
            raise ValueError("need n >= 1")
        u = self.uniforms(n)
        s = u[0::2] * self.table.perimeter
        if self.phi_mode == "cosine":
            phi = np.arcsin(2.0 * u[1::2] - 1.0)
        elif self.phi_mode == "uniform":
            phi = (u[1::2] - 0.5) * math.pi
        else:
            raise ValueError(f"unknown phi_mode {self.phi_mode!r}")
        return s, phi


def ks_statistic(sorted_values, cdf_values, n=None):
    """Exact sup distance between an empirical CDF and model CDF values,
    over the sorted sample's span.

    cdf_values are the model CDF at the sorted sample.  n is the sample
    size the empirical CDF divides by, len(sorted_values) by default; a
    larger n counts points above the last value.  NaN when empty.
    """
    m = len(sorted_values)
    if m == 0:
        return math.nan
    n = m if n is None else n
    ranks = np.arange(1, m + 1) / n
    above = ranks - cdf_values
    ranks -= 1.0 / n            # the empirical CDF just below each point
    below = np.subtract(cdf_values, ranks, out=ranks)
    return float(np.maximum(above, below, out=above).max())


@dataclass(frozen=True)
class InvarianceReport:
    ks_phi: float
    ks_s: float
    n: int
    censored_fraction: float


def invariance_defect(table, n, seed, phi_mode="cosine"):
    """One-step pushforward test of SRB invariance.

    Pushes n sampled points through the collision map, drops censored lanes,
    and returns the KS distances of the image phi-marginal against the
    cos-density CDF (1 + sin(phi))/2 and of the image s-marginal against
    uniform.  phi_mode="uniform" seeds with the wrong angular law and should
    send ks_phi far from zero.  With every lane censored both KS values
    are NaN.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    step = step_batch(table,
                      *SrbSampler(table, seed, phi_mode=phi_mode).sample(n))
    ok = step[4] == FLAG_OK
    s_sorted, phi_sorted = step[0][ok], step[1][ok]
    del step    # only the kept lanes stay alive, each sorted in place
    phi_sorted.sort()
    ks_phi = ks_statistic(phi_sorted, (1.0 + np.sin(phi_sorted)) / 2.0)
    del phi_sorted
    s_sorted.sort()
    ks_s = ks_statistic(s_sorted, s_sorted / table.perimeter)
    return InvarianceReport(ks_phi=ks_phi, ks_s=ks_s, n=int(ok.sum()),
                            censored_fraction=1.0 - ok.mean())
