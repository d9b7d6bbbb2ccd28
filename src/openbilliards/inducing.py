"""First-return structures: base sets X, return times, tails, Kac identity.

The base set X is per-component table data (Table.base_always and
Table.base_entry, built once by the Table constructor).  Every dispersing
collision is in X; a focusing arc counts only the first collision of each
run on it (Markarian; Chernov and Zhang), and a flat counts only on the
diamond, an R = 1 class.  Dispersing tables therefore take every collision,
stadium-like tables the entries into their caps.  Membership of a collision
depends on the previous collision's component, which is why base_mask takes
it beside the current one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FLAG_OK, march, step_batch
from .measure import SrbSampler


def base_mask(table, now, prev):
    """Vectorized base membership from (current, previous) component ids.

    prev entries of -1 mean "no history", which counts as a fresh entry.
    """
    now = np.asarray(now)
    return table.base_always[now] | (table.base_entry[now] & (now != prev))


def _returns_batch(table, s, phi, comp0, cap):
    """Return times for lanes sitting on base collisions.

    Returns (R, cap_hit, flag_censored): R counts collision-map steps until
    the next base entry; cap_hit lanes are known to exceed cap; flag_censored
    lanes met a singular impact first.
    """
    R = np.zeros(s.size, dtype=np.int64)

    def observe(j, lanes, s, phi, now, prev):
        member = base_mask(table, now, prev)
        R[lanes[member]] = j
        return ~member

    censor_step, _, out = march(table, s, phi, cap, observe, comp=comp0)
    cap_hit = np.zeros(s.size, dtype=bool)
    cap_hit[out] = True
    return R, cap_hit, censor_step <= cap


def sample_base_points(table, n_samples, seed):
    """Base points by rejection from SRB with one burn-in collision.

    The burn-in step populates the previous-component history; by invariance
    the accepted points follow the SRB measure conditioned on X.  Returns
    (s, phi, comp) arrays of accepted points, the empirical mu(X), NaN when
    no lane survives the burn-in, and the burn-in's censored fraction.
    """
    s, phi = SrbSampler(table, seed).sample(n_samples)
    s1, phi1, _, comp1, flag = step_batch(table, s, phi)
    # the history is read after the step, so it does not sit under its peak
    del phi
    comp_prev = table.component(s)
    del s
    ok = flag == FLAG_OK
    member = base_mask(table, comp1, comp_prev) & ok
    mu_x = float(member.sum() / ok.sum()) if ok.any() else np.nan
    return ((s1[member], phi1[member], comp1[member]),
            mu_x, float(1.0 - ok.mean()))


@dataclass(frozen=True)
class TailReport:
    n: np.ndarray          # 1..n_max
    survival: np.ndarray   # empirical mu_X(R > n)
    count: np.ndarray      # histogram of R == n
    n_base: int            # flag-free lanes, capped ones included
    censored_fraction: float   # flag-censored lanes (excluded)
    cap_fraction: float        # lanes still out after cap (kept in survival)


@dataclass(frozen=True)
class KacReport:
    defect: float
    mu_x: float
    mean_R: float
    n_base: int                # lanes that returned: capped ones excluded
    censored_fraction: float   # capped or flag-censored lanes


@dataclass(frozen=True)
class BaseReturns:
    """Return times of SRB-sampled base points, from one march."""

    R: np.ndarray          # steps to the next base entry; 0 when not reached
    cap_hit: np.ndarray    # lanes still out after cap steps
    flagged: np.ndarray    # lanes that met a singular impact first
    mu_x: float            # empirical mu(X) from the burn-in step

    def tail(self):
        """Empirical complementary return-time distribution on the base."""
        R, cap_hit, flagged = self.R, self.cap_hit, self.flagged
        n_valid = int((~flagged).sum())
        R_ok = R[~flagged & ~cap_hit]
        # no row without a base point; capped lanes alone give the row n = 1
        n_max = int(R_ok.max()) if R_ok.size else min(n_valid, 1)
        count = np.bincount(R_ok, minlength=n_max + 1)[1:]
        # returns after n, plus the lanes past the cap, which exceed every n
        above = count[::-1].cumsum()[::-1] - count
        survival = (above + int(cap_hit.sum())) / n_valid
        return TailReport(
            n=np.arange(1, n_max + 1),
            survival=survival,
            count=count,
            n_base=n_valid,
            censored_fraction=float(flagged.mean()) if R.size else np.nan,
            cap_fraction=float(cap_hit.mean()) if R.size else np.nan,
        )

    def kac(self):
        """|mean_X(R) * mu(X) - 1|: Kac's identity as an empirical defect."""
        good = ~self.cap_hit & ~self.flagged
        mean_r = float(self.R[good].mean()) if good.any() else np.nan
        cens = (~good).mean() if good.size else np.nan
        return KacReport(defect=float(abs(mean_r * self.mu_x - 1.0)),
                         mu_x=self.mu_x, mean_R=mean_r,
                         n_base=int(good.sum()), censored_fraction=float(cens))


def base_returns(table, n_samples, cap, seed):
    """Sample base points from n_samples SRB draws and march their returns
    (up to cap steps) once; tail() and kac() reduce the same march."""
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    (s, phi, comp), mu_x, _ = sample_base_points(table, n_samples, seed)
    return BaseReturns(*_returns_batch(table, s, phi, comp, cap), mu_x=mu_x)
