"""Shared test helpers: the tangent map of one step, and the seeded family of
reference tables that the validator and the oracle checks run over."""

import math

import numpy as np

from openbilliards import (
    GeometryError,
    build_table,
    cut_stadium_components,
    dynamics,
    regular_flower_components,
)
from openbilliards.geometry import CircularArc


def tangent_map(table, s, phi):
    """One step of each lane and its Jacobian: (M, step), M of shape
    (n, 2, 2) acting on (ds, dphi), step the (s1, phi1, tau, comp1, flag)
    tuple of dynamics.step_batch.  K at each end is read through its
    component, exact on unflagged lanes (a junction impact is flagged)."""
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    step = dynamics.step_batch(table, s, phi)
    _, phi1, tau, comp, _ = step
    M = dynamics.jacobian(tau, table.K[table.component(s % table.perimeter)],
                          table.K[comp], np.cos(phi), np.cos(phi1))
    return M, step


def flat(p0, p1):
    return {"kind": "flat", "p0": p0, "p1": p1}


def loop(center, radius):
    return CircularArc(center, radius, 0.0, 2 * math.pi, dispersing=True)


def star_table(rng):
    """A random star polygon whose edges are flats, outward focusing caps
    or inward dispersing bites, with zero to two scatterer loops."""
    n = int(rng.integers(3, 9))
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, n))
    radii = rng.uniform(0.5, 1.5, n)
    verts = [(float(r * math.cos(a)), float(r * math.sin(a)))
             for a, r in zip(angles, radii)]
    comps = []
    for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1]):
        kind = int(rng.integers(3))
        if kind == 0:
            comps.append(flat([px, py], [qx, qy]))
            continue
        span = float(rng.uniform(0.2, math.pi))
        rho = math.hypot(qx - px, qy - py) / (2.0 * math.sin(span / 2.0))
        # the centre lies left of the chord for a cap, right for a bite, at
        # off chord lengths from its middle
        off = (1.0 if kind == 1 else -1.0) / (2.0 * math.tan(span / 2.0))
        c = ((px + qx) / 2.0 - off * (qy - py),
             (py + qy) / 2.0 + off * (qx - px))
        th = math.atan2(py - c[1], px - c[0])
        comps.append(CircularArc(c, rho, th, th + span, dispersing=False)
                     if kind == 1 else
                     CircularArc(c, rho, th - span, th, dispersing=True))
    comps += [loop(tuple(rng.uniform(-1.0, 1.0, 2).tolist()),
                   float(rng.uniform(0.05, 0.4)))
              for _ in range(int(rng.integers(3)))]
    return build_table("flower", components=comps)


def reference_family(seed, n_stars, n_random):
    """The standard tables, exact and near tangencies, random semi-dispersing
    and squash tables, and random star polygons."""
    rng = np.random.default_rng(seed)
    tables = [build_table("sinai_torus", centers=[(0.5, 0.5)], radii=[0.2]),
              build_table("stadium", flat_length=2.0),
              build_table("squash", r1=0.6, r2=1.0, center_distance=2.0),
              build_table("semi_dispersing", width=2.0, height=1.0,
                          centers=[(1.0, 0.5)], radii=[0.3])]
    tables += [build_table("flower", components=cut_stadium_components(2.0, g))
               for g in (0.5, 0.75, 0.9, 0.999, 1.0)]
    tables += [build_table("diamond", square_side=2.0, corner_radius=r)
               for r in (0.3, 0.5, 0.999, 1.001, 1.2, 1.9)]
    # flowers meet the separated focusing condition with equality at corners
    tables += [build_table("flower",
                           components=regular_flower_components(n, 2.0))
               for n in range(3, 9)]
    for _ in range(n_random):
        k = int(rng.integers(1, 4))
        r1, r2 = sorted(rng.uniform(0.2, 1.5, 2).tolist())
        for cls, params in (
                ("semi_dispersing", dict(
                    width=2.0, height=1.0,
                    centers=rng.uniform(0.0, [2.0, 1.0], (k, 2)).tolist(),
                    radii=rng.uniform(0.05, 0.5, k).tolist())),
                ("squash", dict(r1=r1, r2=r2,
                                center_distance=float(rng.uniform(0.0, 3.0))))):
            try:
                tables.append(build_table(cls, **params))
            except GeometryError:
                pass
    return tables + [star_table(rng) for _ in range(n_stars)]
