"""Open-system statistics: the hole-hitting point process and its diagnostics.

A hole of boundary measure mu turns each orbit into a point process on the
normalized time axis: a hit at collision i contributes the point i * mu.
collect_hitting_family collects those processes over SRB-sampled orbits for
several (hole, n_orbits, t_max) requests in one march.  Every statistic is a
reduction of the collected HittingData: the first-hitting survival law and
its KS distance to Exp(1), both read from the one first-hit sample, interval
counts against Poisson (total variation), short-return fractions in induced
time and the quasi-section defect of hole excursions.  Orbit i always owns
sampler draws 2i, 2i+1, so results are bit-identical no matter how the work
would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# step_batch stays a module attribute: perfbench's tracer test looks it up here
from .dynamics import march, step_batch  # noqa: F401
from .inducing import base_mask
from .measure import SrbSampler, ks_statistic

CHECK_T_MAX = 20.0   # normalized horizon of the short-return and quasi checks


def short_return_orbits(n_hits, t_max):
    """Orbits for about n_hits hits by t_max (one per unit time, +30%)."""
    return max(int(math.ceil(1.3 * n_hits / t_max)), 1) if t_max > 0 else 1


@dataclass(frozen=True)
class ShortReturnReport:
    fraction: float
    p: int
    n_pairs: int
    n_orbits: int


@dataclass(frozen=True)
class QuasiSectionReport:
    defect: float
    n_excursions_with_hit: int
    n_multi: int


@dataclass(frozen=True)
class HittingData:
    """Hit records for a batch of orbits against one hole."""

    mu: float
    n_orbits: int
    horizon: int
    t_max: float
    hit_orbit: np.ndarray      # sorted by (orbit, index)
    hit_index: np.ndarray      # collision indices >= 1
    censor_step: np.ndarray    # per orbit; horizon + 1 when never censored
    censor_kind: np.ndarray    # flag code at censoring, 0 otherwise
    hit_induced: np.ndarray    # inducing-base entries up to each hit
    final_induced: np.ndarray  # per orbit: base entries up to its record end

    @property
    def normalized_times(self):
        return self.hit_index * self.mu

    @property
    def censored_fraction(self):
        """Fraction of orbits censored within the horizon."""
        return float((self.censor_step <= self.horizon).mean())

    def first_hit_sample(self):
        """The first-hit sample that every first-hit statistic reads.

        Returns (times, excluded_fraction): in orbit order, the first
        normalized hit time of each eligible orbit, +inf for one that
        survives the horizon without a hit; and the share of orbits left
        out because their record ended (censoring) before any hit.
        """
        fh = np.full(self.n_orbits, np.inf)
        orb, first = np.unique(self.hit_orbit, return_index=True)
        fh[orb] = self.hit_index[first] * self.mu
        excluded = np.isinf(fh) & (self.censor_step <= self.horizon)
        return fh[~excluded], float(excluded.mean())

    def window_ks(self):
        """KS distance of the first-hit sample to Exp(1) on the observed
        window [0, horizon * mu].

        measure.ks_statistic over the hits, with the survivors counted in
        the sample size, and the sup runs on to the end of the window, past
        which no hit is observed; with no survivor this is the plain KS
        distance of the hits to Exp(1).  NaN when no eligible orbit hit the
        hole.
        """
        fh, _ = self.first_hit_sample()
        hit = np.sort(fh[np.isfinite(fh)])
        if not hit.size:
            return math.nan
        # past the last hit the empirical CDF stays flat to the window's end
        tail = 1.0 - math.exp(-self.horizon * self.mu) - hit.size / fh.size
        return max(ks_statistic(hit, 1.0 - np.exp(-hit), fh.size), tail)

    def short_returns(self, epsilon=0.1):
        """Fraction of hole hits whose next hit comes within p induced steps.

        p = ceil(mu^-(1-epsilon)).  Induced steps are entries into the
        class's inducing base X between the two hits (plain collisions where
        R = 1), read off hit_induced.  With no pair of hits in one orbit
        the fraction is NaN.
        """
        p = math.ceil(self.mu ** -(1.0 - epsilon))
        same = self.hit_orbit[1:] == self.hit_orbit[:-1]
        gaps = self.hit_induced[1:][same] - self.hit_induced[:-1][same]
        fraction = float((gaps <= p).mean()) if gaps.size else math.nan
        return ShortReturnReport(fraction, p, int(gaps.size), self.n_orbits)

    def quasi_section(self):
        """Fraction of hole-visiting excursions with two or more hits.

        An excursion is the block of collisions between consecutive entries
        into the inducing base X (a hit at an entry belongs to the new
        block).  Only completed excursions count: the orbit must re-enter X
        after the hits.  For R = 1 classes every block is a single
        collision, so the defect is exactly zero; with no complete
        excursion holding a hit it is NaN.
        """
        # group hits by (orbit, excursion id); an excursion is complete when
        # the orbit's final induced counter moved past it
        complete = self.hit_induced < self.final_induced[self.hit_orbit]
        pairs = np.stack([self.hit_orbit[complete],
                          self.hit_induced[complete]], axis=1)
        _, sizes = np.unique(pairs, axis=0, return_counts=True)
        n_hit_exc, n_multi = int(sizes.size), int((sizes >= 2).sum())
        defect = n_multi / n_hit_exc if n_hit_exc else math.nan
        return QuasiSectionReport(defect, n_hit_exc, n_multi)


def collect_hitting(table, hole, n_orbits, t_max, seed):
    """March n_orbits SRB-seeded orbits and record hole hits.

    The horizon is ceil(t_max / mu) collisions.  Hits at flagged (censored)
    collisions are not recorded and the orbit stops there.  Each hit also
    carries the number of inducing-base entries seen so far (its induced
    time), and each orbit the count at the end of its record: the
    short-return and quasi-section statistics reduce those.
    """
    return collect_hitting_family(table, [(hole, n_orbits, t_max)], seed)[0]


def collect_hitting_family(table, requests, seed):
    """collect_hitting for each (hole, n_orbits, t_max) request, from one
    march of the first max(n_orbits) SRB orbits.

    SRB draws are prefix-stable and an orbit's hits and censoring depend on
    nothing else, so each request, cut to its own orbit prefix and horizon
    ceil(t_max / mu), equals a separate collect_hitting call bit for bit.
    A lane retires once every request covering it is past its horizon.
    """
    widths = [n for _, n, _ in requests]
    if min(widths, default=0) < 1:
        raise ValueError("need n_orbits >= 1")
    horizons = [int(math.ceil(t_max / hole.measure)) if t_max > 0 else 0
                for hole, _, t_max in requests]
    n_lanes, longest = max(widths), max(horizons)
    retire_at = set(horizons) - {longest}
    s, phi = SrbSampler(table, seed).sample(n_lanes)
    counter = np.zeros(n_lanes, dtype=np.int64)
    # per request: the induced counters at its horizon (none yet at step 0)
    finals = [None if horizon else np.zeros(n, dtype=np.int64)
              for n, horizon in zip(widths, horizons)]
    empty = np.empty(0, dtype=np.int64)
    # per request: orbit, index and induced-counter chunks
    found = [([empty], [empty], [empty]) for _ in requests]

    def observe(j, lanes, s, phi, now, prev):
        counter[lanes[base_mask(table, now, prev)]] += 1
        for k, (hole, n, _) in enumerate(requests):
            if j > horizons[k]:
                continue
            own, own_s = lanes, s
            if n < n_lanes:     # lanes stay sorted: the request's prefix
                cut = np.searchsorted(lanes, n)
                own, own_s = lanes[:cut], s[:cut]
            hits = hole.contains(own_s)
            if hits.any():
                ho = own[hits]
                found[k][0].append(ho)
                found[k][1].append(np.full(ho.size, j, dtype=np.int64))
                found[k][2].append(counter[ho])
            if j == horizons[k]:
                finals[k] = counter[:n].copy()
        if j in retire_at:      # keep the lanes a longer request covers
            width = max(n for n, h in zip(widths, horizons) if h > j)
            return lanes < width if lanes[-1] >= width else None

    censor_step, censor_kind, _ = march(table, s, phi, longest, observe)
    family = []
    for (hole, n, t_max), horizon, (orbits, index, induced), final in zip(
            requests, horizons, found, finals):
        hit_orbit, hit_index = np.concatenate(orbits), np.concatenate(index)
        order = np.lexsort((hit_index, hit_orbit))
        if final is None:
            final = counter[:n].copy()   # every lane stopped before this horizon
        within = censor_step[:n] <= horizon
        family.append(HittingData(
            mu=hole.measure, n_orbits=n, horizon=horizon, t_max=t_max,
            hit_orbit=hit_orbit[order], hit_index=hit_index[order],
            censor_step=np.where(within, censor_step[:n], horizon + 1),
            censor_kind=np.where(within, censor_kind[:n], np.int8(0)),
            hit_induced=np.concatenate(induced)[order], final_induced=final))
    return family


@dataclass(frozen=True)
class SurvivalCurve:
    t: np.ndarray
    empirical: np.ndarray
    exponential: np.ndarray
    n_orbits: int
    excluded_fraction: float


def survival_curve(data, t_grid):
    """Empirical P(first normalized hit > t) next to e^(-t), over
    data.first_hit_sample().

    Orbits censored before their first hit are excluded and tallied; orbits
    that never hit within the horizon survive past every grid point (the
    grid must not extend beyond t_max).  With no orbit left the curve is NaN.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size and t_grid.max() > data.t_max + 1e-12:
        raise ValueError("survival grid extends beyond the collected horizon")
    fh, excluded = data.first_hit_sample()
    if fh.size:
        emp = (fh[None, :] > t_grid[:, None]).mean(axis=1)
    else:
        emp = np.full(t_grid.shape, np.nan)
    return SurvivalCurve(
        t=t_grid, empirical=emp, exponential=np.exp(-t_grid),
        n_orbits=int(fh.size), excluded_fraction=excluded,
    )


def poisson_pmf(lam, kmax):
    k = np.arange(kmax)
    logs = -lam + k * math.log(lam) - np.cumsum(
        np.concatenate([[0.0], np.log(np.arange(1, kmax))]))
    return np.exp(logs)


@dataclass(frozen=True)
class CountReport:
    intervals: tuple
    counts: np.ndarray        # (n_eligible, n_intervals)
    tv: np.ndarray            # TV distance to Poisson(len) per interval
    correlations: np.ndarray  # Pearson matrix between interval counts
    means: np.ndarray
    n_orbits: int
    excluded_fraction: float


def count_statistics(data, intervals):
    """Interval counts versus the Poisson limit law.

    Counts hits with normalized time in (a, b] per orbit, skipping (and
    tallying) orbits censored before the largest endpoint.  TV distances are
    exact at any interval length: the Poisson mass past the largest count
    enters whole.  Correlations are plain Pearson between the per-orbit
    counts of interval pairs.  Statistics of too few eligible orbits are
    NaN: TV and means with none, correlations with fewer than 2.
    """
    iv = [(float(a), float(b)) for a, b in intervals]
    if not iv:
        raise ValueError("need at least one interval")
    for a, b in iv:
        if not (0.0 <= a < b):
            raise ValueError(f"bad interval ({a}, {b})")
    # sorted by start, any overlap shows up between neighbours
    srt = sorted(iv)
    if any(b0 > a1 for (_, b0), (a1, _) in zip(srt, srt[1:])):
        raise ValueError("intervals overlap")
    t_end = max(b for _, b in iv)
    if t_end > data.t_max + 1e-12:
        raise ValueError("interval extends beyond the collected horizon")

    censor_t = data.censor_step * data.mu
    eligible = censor_t > t_end
    times = data.normalized_times
    counts = np.empty((int(eligible.sum()), len(iv)), dtype=np.int64)
    for k, (a, b) in enumerate(iv):
        sel = (times > a) & (times <= b)
        per_orbit = np.bincount(data.hit_orbit[sel], minlength=data.n_orbits)
        counts[:, k] = per_orbit[eligible]

    n = counts.shape[0]
    tv = np.full(len(iv), np.nan)
    for k, (a, b) in enumerate(iv if n else ()):
        emp = np.bincount(counts[:, k]) / n
        pmf = poisson_pmf(b - a, emp.size)
        tv[k] = 0.5 * (np.abs(emp - pmf).sum() + max(1.0 - pmf.sum(), 0.0))

    if n < 2:
        corr = np.full((len(iv), len(iv)), np.nan)
    elif len(iv) > 1:
        with np.errstate(invalid="ignore"):
            corr = np.corrcoef(counts.T)
    else:
        corr = np.ones((1, 1))
    return CountReport(
        intervals=tuple(iv), counts=counts, tv=tv, correlations=corr,
        means=counts.mean(axis=0) if n else np.full(len(iv), np.nan),
        n_orbits=n,
        excluded_fraction=float(1.0 - eligible.mean()),
    )


def short_return_fraction(table, hole, epsilon=0.1, n_hits=20000, seed=0,
                          t_max=CHECK_T_MAX):
    """HittingData.short_returns over short_return_orbits(n_hits, t_max)
    orbits, a budget fixed up front for determinism."""
    return collect_hitting(table, hole, short_return_orbits(n_hits, t_max),
                           t_max, seed).short_returns(epsilon)


def quasi_section_defect(table, hole, n_orbits, seed, t_max=CHECK_T_MAX):
    """HittingData.quasi_section over n_orbits orbits."""
    return collect_hitting(table, hole, n_orbits, t_max, seed).quasi_section()
