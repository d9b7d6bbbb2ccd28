"""Scalar reference for validate_table: one Python branch per pair of
component kinds, an atan2 arc-span test and isolated meeting points only,
so components that overlap along a shared line or circle pass it."""

import math

from openbilliards.geometry import TWO_PI, Violation


def _seg_min_dist(p, seg):
    tx, ty = seg.tangent
    wx, wy = p[0] - seg.p0[0], p[1] - seg.p0[1]
    t = min(max(wx * tx + wy * ty, 0.0), seg.length)
    return math.hypot(wx - t * tx, wy - t * ty)


def _in_span(arc, theta):
    return (theta - arc.theta0) % TWO_PI <= arc.span or arc.loop


def _dist_to_nearest(p, points):
    return min(math.hypot(p[0] - q[0], p[1] - q[1]) for q in points)


def _component_min_dist(p, comp, ends):
    """Distance from p to comp, whose two end points are ends."""
    if comp.kind == "flat":
        return _seg_min_dist(p, comp)
    dx, dy = p[0] - comp.center[0], p[1] - comp.center[1]
    d = math.hypot(dx, dy)
    if d == 0.0:
        return comp.radius
    if _in_span(comp, math.atan2(dy, dx)):
        return abs(d - comp.radius)
    return _dist_to_nearest(p, ends)


def _circle_circle_points(c0, r0, c1, r1):
    dx, dy = c1[0] - c0[0], c1[1] - c0[1]
    d = math.hypot(dx, dy)
    if d == 0.0 or d > r0 + r1 or d < abs(r0 - r1):
        return []
    a = (d * d + r0 * r0 - r1 * r1) / (2.0 * d)
    h = math.sqrt(max(r0 * r0 - a * a, 0.0))
    mx, my = c0[0] + a * dx / d, c0[1] + a * dy / d
    if h == 0.0:
        return [(mx, my)]
    ox, oy = -dy / d * h, dx / d * h
    return [(mx + ox, my + oy), (mx - ox, my - oy)]


def _line_circle_points(seg, center, radius):
    tx, ty = seg.tangent
    wx, wy = center[0] - seg.p0[0], center[1] - seg.p0[1]
    along = wx * tx + wy * ty
    perp2 = (wx - along * tx) ** 2 + (wy - along * ty) ** 2
    h2 = radius * radius - perp2
    if h2 < 0.0:
        return []
    h = math.sqrt(h2)
    return [(seg.p0[0] + t * tx, seg.p0[1] + t * ty, t)
            for t in (along - h, along + h)]


def _pair_crossings(ca, cb, ends, tol):
    """Proper intersection points of two components, touches at any of their
    end points (ends) excluded."""
    pts = []
    if ca.kind == "flat" and cb.kind == "flat":
        ax, ay = ca.tangent
        bx, by = cb.tangent
        den = ax * by - ay * bx
        if abs(den) > 1e-14:
            wx, wy = cb.p0[0] - ca.p0[0], cb.p0[1] - ca.p0[1]
            t = (wx * by - wy * bx) / den
            u = (wx * ay - wy * ax) / den
            if -tol <= t <= ca.length + tol and -tol <= u <= cb.length + tol:
                pts.append((ca.p0[0] + t * ax, ca.p0[1] + t * ay))
    elif ca.kind == "arc" and cb.kind == "arc":
        for p in _circle_circle_points(ca.center, ca.radius,
                                       cb.center, cb.radius):
            tha = math.atan2(p[1] - ca.center[1], p[0] - ca.center[0])
            thb = math.atan2(p[1] - cb.center[1], p[0] - cb.center[0])
            if _in_span(ca, tha) and _in_span(cb, thb):
                pts.append(p)
    else:
        seg, arc = (ca, cb) if ca.kind == "flat" else (cb, ca)
        for x, y, t in _line_circle_points(seg, arc.center, arc.radius):
            if -tol <= t <= seg.length + tol:
                th = math.atan2(y - arc.center[1], x - arc.center[0])
                if _in_span(arc, th):
                    pts.append((x, y))
    return [p for p in pts if _dist_to_nearest(p, ends) > tol]


def validate_table(table):
    """The same report as openbilliards.validate_table, from scalar code."""
    comps = table.components
    out = []
    tol = 1e-9 * table.diameter
    (x0, y0, nx0, ny0), (x1, y1, nx1, ny1) = table._bg.ends
    ends = [((x0[i], y0[i]), (x1[i], y1[i])) for i in range(len(comps))]

    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            pts = _pair_crossings(comps[i], comps[j], ends[i] + ends[j], tol)
            if pts:
                px, py = pts[0]
                out.append(Violation("components_intersect", (i, j),
                                     f"cross near ({px:.6g}, {py:.6g})"))

    for a, b in table.chains:
        if a == b and comps[a].loop:
            continue
        idxs = list(range(a, b + 1))
        for k, i in enumerate(idxs):
            jn = idxs[(k + 1) % len(idxs)]
            if ny1[i] * ny0[jn] + nx1[i] * nx0[jn] < -1.0 + 1e-9:
                out.append(Violation("cusp", (i, jn),
                                     "tangential junction (zero interior angle)"))

    for i, c in enumerate(comps):
        if c.kind != "arc" or c.dispersing:
            continue
        for j, other in enumerate(comps):
            if j == i:
                continue
            d = _component_min_dist(c.center, other, ends[j])
            if d < c.radius - tol:
                out.append(Violation(
                    "sfc", (i, j),
                    f"full circle of focusing arc {i} reaches component {j} "
                    f"(min distance {d:.6g} < radius {c.radius:.6g})"))
    return out
