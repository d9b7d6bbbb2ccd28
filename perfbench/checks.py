"""Output checks for the benchmark workloads.

Each check takes outputs already parsed into plain numpy arrays and numbers,
and returns a list of problems (empty when the outputs are correct).  The
checks rest on recounts made here or on properties the method must have,
never on stored copies of earlier output.  The bands are stated in
README.md; `Z_BAND` standard errors puts a false alarm near 1e-9 per test,
so a kernel change that re-randomises the chaotic orbits without being
wrong cannot flip them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

Z_BAND = 6.0     # standard errors allowed for statistics that are means
KS_BAND = 3.0    # sqrt(n) * KS above this has probability ~3e-8 under H0
EXACT = 1e-12    # relative slack for quantities that are recomputed exactly


def stadium_perimeter(flat_length):
    """Two flats of length L plus two unit half circles."""
    return 2.0 * flat_length + 2.0 * math.pi


def read_csv(path):
    """Header and the rows of a CSV file, as lists of strings."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def read_hits(path):
    _, rows = read_csv(path)
    cols = list(zip(*rows)) if rows else ((), (), ())
    return {"orbit": np.array(cols[0], dtype=np.int64),
            "index": np.array(cols[1], dtype=np.int64),
            "normalized_time": np.array(cols[2], dtype=float)}


def read_table(path, dtype):
    """CSV body as a 2-D array (one row per CSV row)."""
    _, rows = read_csv(path)
    return np.array(rows, dtype=dtype).reshape(len(rows), -1)


def read_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# stadium_sweep


def check_hits(hits, r, perimeter, t_max, n_orbits):
    """hits.csv: times are index * 2r/P, indices in [1, ceil(t_max/mu)],
    rows sorted by (orbit, index) without repeats."""
    problems = []
    mu = 2.0 * r / perimeter
    horizon = math.ceil(t_max / mu)
    orbit, index, nt = hits["orbit"], hits["index"], hits["normalized_time"]
    if not np.allclose(nt, index * mu, rtol=EXACT, atol=0.0):
        bad = int(np.argmax(~np.isclose(nt, index * mu, rtol=EXACT, atol=0.0)))
        problems.append(f"r={r}: normalized_time {nt[bad]!r} != index "
                        f"{index[bad]} * 2r/P = {index[bad] * mu!r}")
    if index.size and (index.min() < 1 or index.max() > horizon):
        problems.append(f"r={r}: hit index outside [1, {horizon}]")
    if orbit.size and (orbit.min() < 0 or orbit.max() >= n_orbits):
        problems.append(f"r={r}: orbit id outside [0, {n_orbits})")
    d_orbit, d_index = np.diff(orbit), np.diff(index)
    if not np.all((d_orbit > 0) | ((d_orbit == 0) & (d_index > 0))):
        problems.append(f"r={r}: hits not strictly sorted by (orbit, index)")
    return problems


def recount(hits, intervals, n_orbits):
    """Per-orbit hit counts in each (a, b], shape (n_orbits, n_intervals)."""
    nt = hits["normalized_time"]
    out = np.zeros((n_orbits, len(intervals)), dtype=np.int64)
    for k, (a, b) in enumerate(intervals):
        sel = (nt > a) & (nt <= b)
        out[:, k] = np.bincount(hits["orbit"][sel], minlength=n_orbits)
    return out


def check_counts(rows, recounted, max_excluded):
    """counts.csv against a recount from hits.csv.

    counts.csv numbers the orbits that were not censored before the last
    interval end, in orbit order.  Which orbits were censored is not in
    the CSVs, so the rows must equal the recount of an increasing
    subsequence of orbits that skips at most max_excluded of them.
    """
    n_orbits, k = recounted.shape
    m = rows.shape[0] // k if k else 0
    grid = np.stack([np.repeat(np.arange(m), k), np.tile(np.arange(k), m)], 1)
    if rows.shape[0] != m * k or not np.array_equal(rows[:, :2], grid):
        return ["counts.csv rows are not the (orbit, interval) grid"]
    if not 0 <= n_orbits - m <= max_excluded:
        return [f"counts.csv has {m} orbits; expected between "
                f"{n_orbits - max_excluded} and {n_orbits}"]
    table = rows[:, 2].reshape(m, k)
    if m == n_orbits:
        same = np.all(table == recounted, axis=1)
        if same.all():
            return []
        i = int(np.argmin(same))
        return [f"counts.csv orbit {i}: {table[i].tolist()} != recount "
                f"{recounted[i].tolist()}"]
    j = 0
    for i in range(m):
        while j < n_orbits and not np.array_equal(table[i], recounted[j]):
            j += 1
        if j - i > n_orbits - m:
            return [f"counts.csv row {i} matches no remaining orbit recount"]
        j += 1
    return []


def check_count_means(table, intervals, mu):
    """Mean count per interval within Z_BAND standard errors of its length.

    Invariance of the sampled measure makes the expected number of hits in
    (a, b] equal mu times the number of collision indices there, which is
    b - a up to one step (mu).
    """
    problems = []
    m = table.shape[0]
    for k, (a, b) in enumerate(intervals):
        col = table[:, k].astype(float)
        mean = col.mean()
        se = col.std(ddof=1) / math.sqrt(m) if m > 1 else math.inf
        if abs(mean - (b - a)) > Z_BAND * se + mu:
            problems.append(f"interval ({a}, {b}]: mean count {mean:.4f} is "
                            f"more than {Z_BAND:g} SE ({se:.4f}) + mu from "
                            f"{b - a}")
    return problems


def check_survival(surv, hits, n_orbits, excluded_fraction):
    """survival.csv: exponential == exp(-t); empirical == a recount of the
    first hits over the orbits not censored before their first hit."""
    problems = []
    t, emp, expo = surv[:, 0], surv[:, 1], surv[:, 2]
    if not np.allclose(expo, np.exp(-t), rtol=EXACT, atol=0.0):
        problems.append("survival.csv: exponential column != exp(-t)")
    orbit, nt = hits["orbit"], hits["normalized_time"]
    first = np.ones(orbit.size, dtype=bool)
    first[1:] = orbit[1:] != orbit[:-1]
    fh = nt[first]
    n_excluded = round(excluded_fraction * n_orbits)
    n_kept = n_orbits - n_excluded
    never = n_kept - fh.size
    expect = ((fh[None, :] > t[:, None]).sum(axis=1) + never) / n_kept
    if never < 0 or not np.allclose(emp, expect, rtol=0.0, atol=EXACT):
        problems.append("survival.csv: empirical column != recount of first "
                        "hits")
    return problems


# ---------------------------------------------------------------------------
# sinai_narrow


def sinai_hole_measure(r, disk_radius):
    """Hole measure 2r / P where P is the scatterer circumference."""
    return 2.0 * r / (2.0 * math.pi * disk_radius)


def check_quasi_section(report):
    """Every excursion on an R = 1 table is one collision: defect is 0."""
    if report.defect != 0.0 or report.n_multi != 0:
        return [f"quasi-section defect {report.defect} (n_multi "
                f"{report.n_multi}) on an R = 1 table; expected exactly 0"]
    if report.n_excursions_with_hit < 1:
        return ["quasi-section report saw no excursion with a hit"]
    return []


def check_short_returns(report, hit_orbit, hit_index, mu, epsilon):
    """The fraction of consecutive-hit gaps <= ceil(mu^-(1-eps)), recounted
    from the hit indices (on an R = 1 table every collision is induced)."""
    p = math.ceil(mu ** -(1.0 - epsilon))
    same = hit_orbit[1:] == hit_orbit[:-1]
    gaps = (hit_index[1:] - hit_index[:-1])[same]
    problems = []
    if report.p != p:
        problems.append(f"short returns: p = {report.p}, expected {p}")
    if report.n_pairs != gaps.size:
        problems.append(f"short returns: {report.n_pairs} pairs, recount "
                        f"{gaps.size}")
    elif gaps.size and abs(report.fraction - (gaps <= p).mean()) > EXACT:
        problems.append(f"short returns: fraction {report.fraction!r}, "
                        f"recount {(gaps <= p).mean()!r}")
    return problems


# ---------------------------------------------------------------------------
# squash_checks


def check_kac(inducing, tail, n_samples):
    """mean_R * mu_x within Z_BAND standard errors of 1 (Kac's lemma).

    The product is the mean over the n sampled points of Y = R * 1_X, so
    its standard error is sqrt((mu_x E[R^2 | X] - 1) / n), with E[R^2 | X]
    taken from the return-time histogram.
    """
    n, count = tail[:, 0], tail[:, 2]
    if count.sum() == 0:
        return ["return_tail.csv holds no returns"]
    m2 = float((n.astype(float) ** 2 * count).sum() / count.sum())
    product = inducing["mean_R"] * inducing["mu_x"]
    se = math.sqrt(max(inducing["mu_x"] * m2 - product ** 2, 0.0) / n_samples)
    if abs(product - 1.0) > Z_BAND * se:
        return [f"Kac: mean_R * mu_x = {product:.5f}, more than "
                f"{Z_BAND:g} SE ({se:.5f}) from 1"]
    return []


def check_return_tail(tail):
    """Survival is non-increasing, within [0, 1], and matches its own
    histogram: S(n) = (sum_{m > n} count_m + capped) / n_valid."""
    n, surv, count = tail[:, 0], tail[:, 1], tail[:, 2]
    problems = []
    if not np.array_equal(n, np.arange(1, n.size + 1)):
        problems.append("return_tail.csv: n is not 1..n_max")
    if np.any(np.diff(surv) > 0.0):
        problems.append("return_tail.csv: survival increases")
    if surv.size and (surv.min() < 0.0 or surv.max() > 1.0):
        problems.append("return_tail.csv: survival outside [0, 1]")
    total = count.sum()
    if surv.size and surv[-1] < 1.0 and total > 0:
        n_valid = total / (1.0 - surv[-1])
        above = np.concatenate([np.cumsum(count[::-1])[::-1][1:], [0]])
        expect = (above + (n_valid - total)) / n_valid
        if not np.allclose(surv, expect, rtol=0.0, atol=1e-9):
            problems.append("return_tail.csv: survival != recount of the "
                            "histogram")
    return problems


def check_invariance(inv):
    """Both one-step image marginals within KS_BAND / sqrt(n) of the model."""
    band = KS_BAND / math.sqrt(max(inv["n"], 1))
    worst = max(inv["ks_phi"], inv["ks_s"])
    if worst > band:
        return [f"invariance KS {worst:.5f} > {KS_BAND:g}/sqrt(n) = "
                f"{band:.5f}"]
    return []


def check_cones(cones):
    """No cone or transversality violations."""
    if cones["violations"] or cones["transversality_violations"]:
        return [f"cone violations {cones['violations']}, transversality "
                f"violations {cones['transversality_violations']}"]
    return []
