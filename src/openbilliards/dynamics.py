"""Collision map, tangent map and wavefront curvature for billiard tables.

Phase points are boundary coordinates x = (s, phi): arclength s along the
traversal and the post-collisional angle phi in (-pi/2, pi/2) measured from
the inward normal toward the traversal tangent, so the outgoing direction is
cos(phi) * n + sin(phi) * t.

Everything flows through one vectorized kernel (step_batch); the scalar API
wraps single-lane arrays so there is exactly one arithmetic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import locate_batch

# impacts closer than this (radians) to tangency censor the orbit
EPS_GRAZE = 1e-6
# candidate flight times below GUARD_FACTOR * diameter are re-hit noise
GUARD_FACTOR = 1e-12
# lattice unfolding gives up after marching this many cells (infinite horizon)
UNFOLD_MAX_CELLS = 1000

FLAG_OK = 0
FLAG_GRAZING = 1
FLAG_CORNER = 2
FLAG_UNFOLD = 3
FLAG_LOST = 4

FLAG_NAMES = {
    FLAG_OK: "ok",
    FLAG_GRAZING: "grazing",
    FLAG_CORNER: "corner",
    FLAG_UNFOLD: "unfold_overflow",
    FLAG_LOST: "lost",
}


class SingularOrbit(RuntimeError):
    """Scalar map hit a censored configuration (grazing/corner/overflow)."""


class FocalPointError(ValueError):
    """Wavefront focuses exactly at the next collision; curvature undefined."""


@dataclass(frozen=True)
class PhasePoint:
    s: float
    phi: float


@dataclass(frozen=True)
class CollisionResult:
    point: PhasePoint
    tau: float
    component: int
    flag: int

    @property
    def flag_name(self):
        return FLAG_NAMES[self.flag]


def flight_ray(table, s, phi):
    """Foot point and unit flight direction for batch coordinates (s, phi)."""
    loc = locate_batch(table, s)
    phi = np.asarray(phi, dtype=float)
    c, sn = np.cos(phi), np.sin(phi)
    dx = c * loc["nx"] + sn * loc["tx"]
    dy = c * loc["ny"] + sn * loc["ty"]
    return loc, dx, dy


def _arc_progress(bg, comp, theta):
    """Within-arc arclength from the impact angle, clamped to the span."""
    raw = (bg.tdir[comp] * (theta - bg.theta_ref[comp])) % (2.0 * math.pi)
    span = bg.span[comp]
    # hits numerically just before the traversal start wrap to ~2*pi
    over = raw > span + 0.5 * (2.0 * math.pi - span)
    raw = np.where(over & ~bg.loop[comp], raw - 2.0 * math.pi, raw)
    return np.clip(raw, 0.0, span) * bg.rho[comp]


def _candidates_bounded(bg, px, py, dx, dy, guard):
    """Earliest boundary intersection over all components (bounded tables)."""
    n = px.size
    best_t = np.full(n, np.inf)
    best_c = np.full(n, -1, dtype=np.int64)
    for j in range(bg.n):
        if bg.is_arc[j]:
            relx = px - bg.center[j, 0]
            rely = py - bg.center[j, 1]
            b = relx * dx + rely * dy
            cc = relx * relx + rely * rely - bg.rho[j] ** 2
            disc = b * b - cc
            hitable = disc > 0.0
            sq = np.sqrt(np.where(hitable, disc, 0.0))
            cand = np.full(n, np.inf)
            for root in (-b - sq, -b + sq):
                ok = hitable & (root > guard) & (root < cand)
                if not np.any(ok):
                    continue
                if bg.loop[j]:
                    cand = np.where(ok, root, cand)
                    continue
                hx = px[ok] + root[ok] * dx[ok]
                hy = py[ok] + root[ok] * dy[ok]
                th = np.arctan2(hy - bg.center[j, 1], hx - bg.center[j, 0])
                raw = (bg.tdir[j] * (th - bg.theta_ref[j])) % (2.0 * math.pi)
                slack = 1e-9 * max(bg.span[j], 1e-3)
                inside = (raw <= bg.span[j] + slack) | (raw >= 2.0 * math.pi - slack)
                sel = np.where(ok)[0][inside]
                cand[sel] = np.minimum(cand[sel], root[sel])
        else:
            den = dx * bg.norm[j, 0] + dy * bg.norm[j, 1]
            approach = den < -1e-14
            t = np.where(
                approach,
                ((bg.p0[j, 0] - px) * bg.norm[j, 0]
                 + (bg.p0[j, 1] - py) * bg.norm[j, 1]) / np.where(approach, den, 1.0),
                np.inf)
            ok = approach & (t > guard) & np.isfinite(t)
            ts = np.where(ok, t, 0.0)
            u = np.where(
                ok,
                (px + ts * dx - bg.p0[j, 0]) * bg.tang[j, 0]
                + (py + ts * dy - bg.p0[j, 1]) * bg.tang[j, 1],
                -1.0)
            slack = 1e-9 * bg.length[j]
            cand = np.where(ok & (u >= -slack) & (u <= bg.length[j] + slack),
                            t, np.inf)
        upd = cand < best_t
        best_t[upd] = cand[upd]
        best_c[upd] = j
    return best_t, best_c


def _candidates_lattice(bg, px, py, dx, dy, guard, max_cells):
    """Earliest scatterer intersection, unfolding through unit-cell images.

    Every scatterer disk sits strictly inside its cell, so testing only the
    cells the ray traverses (in entry order) is exact.
    """
    n = px.size
    tau = np.full(n, np.inf)
    comp = np.full(n, -1, dtype=np.int64)
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

    active = np.arange(n)
    for _ in range(max_cells):
        if active.size == 0:
            break
        best = np.full(active.size, np.inf)
        bestk = np.full(active.size, -1, dtype=np.int64)
        pxa, pya = px[active], py[active]
        dxa, dya = dx[active], dy[active]
        for k in range(bg.n):
            cx = bg.center[k, 0] + cellx[active]
            cy = bg.center[k, 1] + celly[active]
            relx = pxa - cx
            rely = pya - cy
            b = relx * dxa + rely * dya
            cc = relx * relx + rely * rely - bg.rho[k] ** 2
            disc = b * b - cc
            hitable = disc > 0.0
            sq = np.sqrt(np.where(hitable, disc, 0.0))
            r1 = -b - sq
            r2 = -b + sq
            r1 = np.where(hitable & (r1 > guard), r1, np.inf)
            r2 = np.where(hitable & (r2 > guard), r2, np.inf)
            rk = np.minimum(r1, r2)
            upd = rk < best
            best[upd] = rk[upd]
            bestk[upd] = k
        hit = np.isfinite(best)
        if np.any(hit):
            li = active[hit]
            tau[li] = best[hit]
            comp[li] = bestk[hit]
        active = active[~hit]
        if active.size == 0:
            break
        mx = tmaxx[active] < tmaxy[active]
        ax = active[mx]
        ay = active[~mx]
        cellx[ax] += stepx[ax]
        tmaxx[ax] += tdx[ax]
        celly[ay] += stepy[ay]
        tmaxy[ay] += tdy[ay]
    else:
        overflow[active] = True
    return tau, comp, cellx, celly, overflow


def step_batch(table, s, phi, unfold_max_cells=UNFOLD_MAX_CELLS):
    """One collision-to-collision step for arrays of phase coordinates.

    Returns (s1, phi1, tau, comp1, flag) arrays.  Lanes whose next impact is
    censored (grazing, junction hit, unfolding overflow, geometry leak) carry
    the matching flag; their outputs are best-effort and should not be
    iterated further.
    """
    bg = table._bg
    s = np.asarray(s, dtype=float)
    loc, dx, dy = flight_ray(table, s, phi)
    px, py = loc["x"], loc["y"]
    guard = GUARD_FACTOR * table.diameter

    overflow = None
    if table.lattice:
        tau, comp, cellx, celly, overflow = _candidates_lattice(
            bg, px, py, dx, dy, guard, unfold_max_cells)
    else:
        tau, comp = _candidates_bounded(bg, px, py, dx, dy, guard)

    lost = ~np.isfinite(tau)
    safe_tau = np.where(lost, 0.0, tau)
    hx = px + safe_tau * dx
    hy = py + safe_tau * dy
    compc = np.where(comp < 0, 0, comp)

    n1x = np.empty_like(s)
    n1y = np.empty_like(s)
    u = np.empty_like(s)
    arc = bg.is_arc[compc]
    if np.any(arc):
        i = compc[arc]
        ox = bg.center[i, 0] + (cellx[arc] if overflow is not None else 0.0)
        oy = bg.center[i, 1] + (celly[arc] if overflow is not None else 0.0)
        th = np.arctan2(hy[arc] - oy, hx[arc] - ox)
        n1x[arc] = bg.sigma[i] * np.cos(th)
        n1y[arc] = bg.sigma[i] * np.sin(th)
        u[arc] = _arc_progress(bg, i, th)
    fl = ~arc
    if np.any(fl):
        i = compc[fl]
        n1x[fl] = bg.norm[i, 0]
        n1y[fl] = bg.norm[i, 1]
        proj = ((hx[fl] - bg.p0[i, 0]) * bg.tang[i, 0]
                + (hy[fl] - bg.p0[i, 1]) * bg.tang[i, 1])
        u[fl] = np.clip(proj, 0.0, bg.length[i])

    s1 = (bg.s_off[compc] + u) % bg.perimeter
    t1x, t1y = n1y, -n1x
    dn = dx * n1x + dy * n1y          # incoming, < 0 at a regular impact
    dt = dx * t1x + dy * t1y
    phi1 = np.arctan2(dt, -dn)

    flag = np.zeros(s.shape, dtype=np.int8)
    flag[np.abs(phi1) > math.pi / 2 - EPS_GRAZE] = FLAG_GRAZING
    flag[bg.near_junction(s1)] = FLAG_CORNER
    flag[lost] = FLAG_LOST
    if overflow is not None:
        flag[overflow] = FLAG_UNFOLD
    return s1, phi1, tau, comp, flag


def march(table, s, phi, horizon, observe, comp=None,
          unfold_max_cells=UNFOLD_MAX_CELLS):
    """The one orbit loop: step lanes (s, phi) up to horizon collisions.

    After step j, observe(j, lanes, s, phi, comp, prev) sees the lanes still
    out (original indices, new coordinates, component just hit, the one hit
    before; comp seeds that history) and may return a boolean mask: lanes
    where it is False retire.  A flagged impact stops its lane unobserved.

    Returns (censor_step, censor_kind, lanes): per lane the step and flag of
    its censoring (horizon + 1 and FLAG_OK when none), and the lanes neither
    censored nor retired.
    """
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    prev = locate_batch(table, s)["component"] if comp is None else comp
    censor_step = np.full(s.size, horizon + 1, dtype=np.int64)
    censor_kind = np.zeros(s.size, dtype=np.int8)
    lanes = np.arange(s.size)
    for j in range(1, horizon + 1):
        if lanes.size == 0:
            break
        s, phi, _, now, flag = step_batch(
            table, s, phi, unfold_max_cells=unfold_max_cells)
        ok = flag == FLAG_OK
        if not ok.all():
            censor_step[lanes[~ok]] = j
            censor_kind[lanes[~ok]] = flag[~ok]
            lanes, s, phi, now, prev = lanes[ok], s[ok], phi[ok], now[ok], prev[ok]
            if lanes.size == 0:
                break
        keep = observe(j, lanes, s, phi, now, prev)
        if keep is not None:
            lanes, s, phi, now = lanes[keep], s[keep], phi[keep], now[keep]
        prev = now
    return censor_step, censor_kind, lanes


def next_collision(table, x, unfold_max_cells=UNFOLD_MAX_CELLS):
    """Scalar step: next collision from phase point x, flags included."""
    s1, phi1, tau, comp, flag = step_batch(
        table, np.array([x.s]), np.array([x.phi]),
        unfold_max_cells=unfold_max_cells)
    return CollisionResult(
        point=PhasePoint(float(s1[0]), float(phi1[0])),
        tau=float(tau[0]), component=int(comp[0]), flag=int(flag[0]))


def billiard_map(table, x, unfold_max_cells=UNFOLD_MAX_CELLS):
    """Scalar collision map; raises SingularOrbit on censored impacts."""
    res = next_collision(table, x, unfold_max_cells=unfold_max_cells)
    if res.flag != FLAG_OK:
        raise SingularOrbit(f"censored collision: {res.flag_name}")
    return res.point


def tangent_map_batch(table, s, phi, unfold_max_cells=UNFOLD_MAX_CELLS):
    """Collision-map derivative at each lane, plus the underlying step data.

    Returns (M, step) where M has shape (n, 2, 2) acting on (ds, dphi) and
    step is the (s1, phi1, tau, comp1, flag) tuple.
    """
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    K0 = locate_batch(table, s)["K"]
    s1, phi1, tau, comp, flag = step_batch(table, s, phi,
                                           unfold_max_cells=unfold_max_cells)
    K1 = locate_batch(table, s1)["K"]
    c0, c1 = np.cos(phi), np.cos(phi1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = -1.0 / c1
        M = np.empty(s.shape + (2, 2))
        M[..., 0, 0] = f * (tau * K0 + c0)
        M[..., 0, 1] = f * tau
        M[..., 1, 0] = f * (tau * K0 * K1 + K0 * c1 + K1 * c0)
        M[..., 1, 1] = f * (tau * K1 + c1)
    return M, (s1, phi1, tau, comp, flag)


def tangent_map(table, x):
    """2x2 derivative of the collision map at x in (s, phi) coordinates."""
    M, (_, _, _, _, flag) = tangent_map_batch(
        table, np.array([x.s]), np.array([x.phi]))
    if int(flag[0]) != FLAG_OK:
        raise SingularOrbit(
            f"tangent map at censored collision: {FLAG_NAMES[int(flag[0])]}")
    return M[0]


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


@dataclass(frozen=True)
class OrbitRecord:
    """Outcome of iterating one orbit: hit indices and censoring data."""

    n_steps: int
    hits: np.ndarray
    status: str               # completed | censored_singular | censored_horizon
    flag: int
    final: PhasePoint
    components: np.ndarray = None

    @property
    def censored(self):
        return self.status != "completed"


def orbit(table, x0, max_steps, hole=None, track_components=False,
          unfold_max_cells=UNFOLD_MAX_CELLS):
    """Iterate the collision map from x0 for up to max_steps collisions.

    Records the indices i >= 1 whose impact lands inside the hole (the seed
    point itself never counts).  Storage stays proportional to the number of
    hits, not to max_steps.  A censored impact ends the orbit at the previous
    collision.
    """
    hits, comps = [], []
    last = [np.array([float(x0.s)]), np.array([float(x0.phi)])]

    def observe(i, lanes, s, phi, comp, prev):
        last[:] = s, phi
        if track_components:
            comps.append(int(comp[0]))
        if hole is not None and bool(hole.contains(s[0])):
            hits.append(i)

    censor_step, censor_kind, _ = march(
        table, last[0], last[1], max_steps, observe,
        unfold_max_cells=unfold_max_cells)
    flag = int(censor_kind[0])
    return OrbitRecord(
        n_steps=int(censor_step[0]) - 1,
        hits=np.asarray(hits, dtype=np.int64),
        status={FLAG_OK: "completed", FLAG_UNFOLD: "censored_horizon"}.get(
            flag, "censored_singular"),
        flag=flag,
        final=PhasePoint(float(last[0][0]), float(last[1][0])),
        components=np.asarray(comps, dtype=np.int64) if track_components else None,
    )
