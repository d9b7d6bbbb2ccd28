"""Collision map, tangent map and the orbit loop for billiard tables.

Phase points are boundary coordinates x = (s, phi): arclength s along the
traversal and the post-collisional angle phi in (-pi/2, pi/2) measured from
the inward normal toward the traversal tangent, so the outgoing direction is
cos(phi) * n + sin(phi) * t.

Everything flows through one vectorized kernel (step_batch), so there is
exactly one arithmetic path; a single orbit is a one-lane array.  The kernel
keeps only the map itself: the flight direction, the unit-cell walk on the
torus, the reflection angle and the censoring flags.  Every formula on the
boundary's components lives in the table's batch geometry: locate_batch
gives the start point and normal, nearest is the one ray-boundary test (at
cell offset (0, 0) on a bounded table; on the torus, at each cell a ray
enters, its own first) and impact maps the hit back to arclength and normal.
jacobian is the one Df formula, fed by a step's tau and the curvature and
cos(phi) at the flight's two ends.
The torus walk goes in blocks of cells, one nearest call per block for
every lane still walking, so a batch with one corridor flight pays numpy
dispatch per block rather than per cell of that flight.  A call wider than
_CHUNK lanes steps piece by piece into preallocated outputs, its pieces
shared by the calling thread and one helper thread per further CPU the
process may run on (its CPU affinity; there is no setting).  A piece is
_CHUNK // workers lanes wide, so at most _CHUNK lanes are in flight and the
working set of a wide batch is its inputs, its outputs and one chunk's
temporaries; every lane's arithmetic is its own, so the pieces are
bit-identical to one whole-batch step whatever thread steps them.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .geometry import locate_batch

# impacts closer than this (radians) to tangency censor the orbit
EPS_GRAZE = 1e-6
# candidate flight times below GUARD_FACTOR * diameter are re-hit noise
GUARD_FACTOR = 1e-12
# the torus walk gives up after testing this many cells, its own included
UNFOLD_MAX_CELLS = 1000
# the unit-cell walk tests its first _BLOCK_FIRST cells in one nearest call,
# then blocks twice as long, up to _BLOCK_CAP cells
_BLOCK_FIRST = 4
_BLOCK_CAP = 128
# step_batch steps wider calls at most this many lanes at a time
_CHUNK = 2**15

FLAG_OK = 0
FLAG_GRAZING = 1
FLAG_CORNER = 2
FLAG_UNFOLD = 3
FLAG_LOST = 4

# FLAG_NAMES stays public: perfbench names its censor.* metrics from it
FLAG_NAMES = {
    FLAG_OK: "ok",
    FLAG_GRAZING: "grazing",
    FLAG_CORNER: "corner",
    FLAG_UNFOLD: "unfold_overflow",
    FLAG_LOST: "lost",
}


def _crossings(b, tmax, tdelta):
    """One axis's next b + 1 cell crossing times, tmax, tmax + tdelta, ...:
    cumsum adds top to bottom, exactly as the one-cell walk's
    tmax += tdelta does."""
    t = np.empty((b + 1, tmax.size))
    t[0] = tmax
    t[1:] = tdelta
    return np.cumsum(t, axis=0, out=t)


def _dda_block(b, tmaxx, tmaxy, tdx, tdy):
    """Each lane's current cell and the next b steps of its Amanatides-Woo
    walk at once.

    Returns (nx, ny, xs, ys): nx[j], ny[j] count the x and y steps among the
    first j, so row 0 is the current cell, and xs, ys are the crossing
    times, so a lane's tmax after step j is xs[nx[j]], ys[ny[j]].  The
    stable sort of [y crossings, x crossings] merges them with the walk's
    tie rule: an x step only where tmaxx < tmaxy, so a y step wins a tie.
    """
    xs = _crossings(b, tmaxx, tdx)
    ys = _crossings(b, tmaxy, tdy)
    order = np.argsort(np.concatenate([ys[:b], xs[:b]]), axis=0,
                       kind="stable")[:b]
    nx = np.zeros((b + 1, tmaxx.size), dtype=np.intp)
    nx[1:] = np.cumsum(order >= b, axis=0)
    return nx, np.arange(b + 1)[:, None] - nx, xs, ys


def _unfold(bg, px, py, dx, dy, guard):
    """The torus search: walk every lane from its own cell through the unit
    cells its ray enters (Amanatides & Woo).

    Every scatterer disk sits strictly inside its cell, so testing only the
    cells the ray traverses (in entry order) is exact.  The walk goes in
    blocks: one nearest call tests each walking lane's current cell and the
    cells after it (_BLOCK_FIRST cells, the own one included, doubling up to
    _BLOCK_CAP), a lane stops at its first hitting cell, and a lane that
    missed them all steps to the first cell it has not tested.  So a batch
    pays numpy dispatch per block, not per cell of its longest flight.
    Returns (tau, comp, cellx, celly, overflow): each lane's hit and cell
    offset, and the lanes that met nothing in UNFOLD_MAX_CELLS cells, whose
    offset is one walk step past their last tested cell.
    """
    n = px.size
    tau = np.full(n, np.inf)
    comp = np.full(n, -1, dtype=np.int64)
    cellx = np.zeros(n)
    celly = np.zeros(n)
    lanes = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        # one row per lane quantity, so retiring lanes is one compaction
        walk = np.array([
            px, py, dx, dy,
            np.where(dx > 0, 1.0, -1.0),
            np.where(dy > 0, 1.0, -1.0),
            np.where(dx != 0, np.abs(1.0 / dx), np.inf),
            np.where(dy != 0, np.abs(1.0 / dy), np.inf),
            np.where(dx != 0, (np.where(dx > 0, 1.0, 0.0) - px) / dx, np.inf),
            np.where(dy != 0, (np.where(dy > 0, 1.0, 0.0) - py) / dy, np.inf),
            np.zeros(n), np.zeros(n)])

    tested, size = 0, _BLOCK_FIRST
    while lanes.size and tested < UNFOLD_MAX_CELLS:
        _, _, _, _, stepx, stepy, tdx, tdy, tmaxx, tmaxy, cx, cy = walk
        b = min(size, UNFOLD_MAX_CELLS - tested)
        nx, ny, xs, ys = _dda_block(b, tmaxx, tmaxy, tdx, tdy)
        bx = cx + stepx * nx
        by = cy + stepy * ny
        t, k = bg.nearest(*np.tile(walk[:4], b), bx[:b].ravel(),
                          by[:b].ravel(), guard)
        hit = (t < np.inf).reshape(b, -1)
        met = hit.any(axis=0)
        # each lane's first hitting cell, or the first one it has not tested
        col = np.where(met, hit.argmax(axis=0), b)
        i = np.arange(lanes.size)
        cx[:], cy[:] = bx[col, i], by[col, i]
        tmaxx[:], tmaxy[:] = xs[nx[col, i], i], ys[ny[col, i], i]
        cellx[lanes], celly[lanes] = cx, cy
        at = (col * lanes.size + i)[met]
        done = lanes[met]
        tau[done], comp[done] = t[at], k[at]
        lanes, walk = lanes[~met], walk[:, ~met]
        tested += b
        size = min(2 * size, _BLOCK_CAP)
    return tau, comp, cellx, celly, lanes


def _workers():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def step_batch(table, s, phi):
    """One collision-to-collision step for arrays of phase coordinates.

    Returns (s1, phi1, tau, comp1, flag) arrays.  Lanes whose next impact is
    censored (grazing, junction hit, unfolding overflow, geometry leak) carry
    the matching flag; their outputs are best-effort and should not be
    iterated further.  A call wider than _CHUNK lanes fills its outputs in
    pieces of _CHUNK // workers lanes, which the calling thread and
    workers - 1 helper threads take in turn, bit for bit as one whole-batch
    step would; a piece's exception is raised here once every helper ended.
    """
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if s.size <= _CHUNK:
        return _step(table, s, phi)
    out = (np.empty(s.size), np.empty(s.size), np.empty(s.size),
           np.empty(s.size, dtype=np.int64), np.empty(s.size, dtype=np.int8))
    # cached_property takes no lock since Python 3.12: the cached attributes
    # _step reads are computed before any helper starts
    table._bg, table.junction_s, table.corner_tol, table.diameter
    workers = _workers()
    width = _CHUNK // workers
    starts = iter(range(0, s.size, width))
    errors = []

    def work():
        try:
            for i in starts:
                piece = slice(i, i + width)
                for o, part in zip(out, _step(table, s[piece], phi[piece])):
                    o[piece] = part
        except BaseException as e:
            errors.append(e)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for h in helpers:
        h.start()
    work()
    for h in helpers:
        h.join()
    if errors:
        raise errors[0]
    return out


def _step(table, s, phi):
    """step_batch on one chunk of float arrays s, phi."""
    bg = table._bg
    loc = locate_batch(table, s)
    px, py = loc["x"], loc["y"]
    c, sn = np.cos(phi), np.sin(phi)
    # the traversal tangent is the normal rotated -90 degrees: (ny, -nx)
    dx = c * loc["nx"] + sn * loc["ny"]
    dy = c * loc["ny"] - sn * loc["nx"]
    del loc, c, sn  # only the rays stay alive through the search
    guard = GUARD_FACTOR * table.diameter

    if table.lattice:
        tau, comp, ox, oy, overflow = _unfold(bg, px, py, dx, dy, guard)
    else:
        tau, comp = bg.nearest(px, py, dx, dy, 0.0, 0.0, guard)
        ox = oy = 0.0

    lost = ~np.isfinite(tau)
    safe_tau = np.where(lost, 0.0, tau)
    s1, n1x, n1y = bg.impact(np.where(comp < 0, 0, comp), px + safe_tau * dx,
                             py + safe_tau * dy, ox, oy)
    t1x, t1y = n1y, -n1x
    dn = dx * n1x + dy * n1y          # incoming, < 0 at a regular impact
    dt = dx * t1x + dy * t1y
    phi1 = np.arctan2(dt, -dn)

    flag = np.zeros(s.shape, dtype=np.int8)
    flag[np.abs(phi1) > math.pi / 2 - EPS_GRAZE] = FLAG_GRAZING
    flag[table.near_junction(s1)] = FLAG_CORNER
    flag[lost] = FLAG_LOST
    if table.lattice:
        flag[overflow] = FLAG_UNFOLD
    return s1, phi1, tau, comp, flag


def march(table, s, phi, horizon, observe, comp=None):
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
    prev = table._bg.component(s % table.perimeter) if comp is None else comp
    censor_step = np.full(s.size, horizon + 1, dtype=np.int64)
    censor_kind = np.zeros(s.size, dtype=np.int8)
    lanes = np.arange(s.size)
    for j in range(1, horizon + 1):
        if lanes.size == 0:
            break
        s, phi, _, now, flag = step_batch(table, s, phi)
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


def jacobian(tau, K0, K1, c0, c1):
    """Df on (ds, dphi), shape (n, 2, 2), of flights tau from curvature K0
    at cos(phi) = c0 to curvature K1 at cos(phi1) = c1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        f = -1.0 / c1
        M = np.empty(np.shape(tau) + (2, 2))
        M[..., 0, 0] = f * (tau * K0 + c0)
        M[..., 0, 1] = f * tau
        M[..., 1, 0] = f * (tau * K0 * K1 + K0 * c1 + K1 * c0)
        M[..., 1, 1] = f * (tau * K1 + c1)
    return M

