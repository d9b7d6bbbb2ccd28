"""Boundary geometry for planar billiard tables.

A table boundary is a union of straight segments and circular arcs traversed
with the playing domain on the left, so the inward normal is the +90 degree
rotation of the traversal tangent.  Arc length runs over the components in
listed order.  Signed curvature follows the scattering convention: +1/rho on
dispersing walls (domain outside the circle), -1/rho on focusing walls
(domain inside the circle), 0 on flats.

The component classes hold parameters only.  The map between arclength and
(point, inward normal), both ways, is written once, in the batch geometry a
table caches (Table._bg), which locate_batch, the kernel and the checks read.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# Junction window as a fraction of the perimeter: impacts closer than this to
# a component junction are flagged as corner hits and the orbit is censored.
CORNER_TOL_FACTOR = 1e-12

# A full-circle component is a closed loop; its parametrization seam is not a
# junction.  Spans are compared against 2*pi with this slack.
_LOOP_TOL = 1e-9


class GeometryError(ValueError):
    """Raised for unbuildable or ill-posed table parameters."""


def _is_real(x):
    """A real number, finite as a float; a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max


def _real(name, x, positive=False):
    """x as a float; GeometryError naming the parameter unless x is a finite
    real number, and above 0 when positive."""
    if not _is_real(x) or (positive and x <= 0):
        kind = "a positive" if positive else "a"
        raise GeometryError(f"{name} must be {kind} finite number, got {x!r}")
    return float(x)


def _point(name, p):
    if not isinstance(p, (list, tuple, np.ndarray)) or len(p) != 2:
        raise GeometryError(f"{name} must be a pair of numbers, got {p!r}")
    return _real(f"{name}[0]", p[0]), _real(f"{name}[1]", p[1])


def _unit(vx, vy):
    n = math.hypot(vx, vy)
    if n == 0.0:
        raise GeometryError("zero-length direction")
    return vx / n, vy / n


@dataclass(frozen=True)
class FlatSegment:
    """Straight boundary piece from p0 to p1 (traversal direction)."""

    p0: tuple
    p1: tuple

    @cached_property
    def length(self):
        return math.hypot(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])

    @cached_property
    def tangent(self):
        return _unit(self.p1[0] - self.p0[0], self.p1[1] - self.p0[1])

    @cached_property
    def normal(self):
        # inward = tangent rotated +90 deg (domain on the left)
        tx, ty = self.tangent
        return (-ty, tx)

    curvature = 0.0
    kind = "flat"
    dispersing = False
    loop = False


@dataclass(frozen=True)
class CircularArc:
    """Circular boundary piece with angular span [theta0, theta1].

    dispersing=True means the playing domain lies outside the circle (inward
    normal radially out, traversal clockwise); dispersing=False is a focusing
    arc (domain inside, traversal counterclockwise).  A span of 2*pi is a
    closed scatterer loop whose parametrization seam is smooth.
    """

    center: tuple
    radius: float
    theta0: float
    theta1: float
    dispersing: bool

    def __post_init__(self):
        if self.radius <= 0.0:
            raise GeometryError(f"arc radius must be positive, got {self.radius}")
        span = self.theta1 - self.theta0
        if not (0.0 < span <= TWO_PI + _LOOP_TOL):
            raise GeometryError(f"arc span must lie in (0, 2*pi], got {span}")

    kind = "arc"

    @cached_property
    def span(self):
        return min(self.theta1 - self.theta0, TWO_PI)

    @cached_property
    def loop(self):
        return self.span >= TWO_PI - _LOOP_TOL

    @cached_property
    def length(self):
        return self.radius * self.span

    @cached_property
    def curvature(self):
        return (1.0 if self.dispersing else -1.0) / self.radius


@dataclass(frozen=True)
class Violation:
    """One geometric defect found by validate_table."""

    kind: str
    components: tuple
    detail: str

    def __str__(self):
        ids = ",".join(str(i) for i in self.components)
        return f"[{self.kind}] components ({ids}): {self.detail}"


@dataclass(frozen=True)
class Table:
    """Closed billiard boundary plus class metadata."""

    components: tuple
    class_tag: str

    def __post_init__(self):
        if not self.components:
            raise GeometryError("table needs at least one component")
        # validation squares lengths up to the diameter as Python floats
        if not math.isfinite(self.diameter * self.diameter):
            raise GeometryError(f"table too large: diameter {self.diameter:g}")
        self.chains  # a boundary that does not close fails here

    @property
    def lattice(self):
        """A unit-torus table: the listed scatterer loops repeat on the
        integer lattice and free flights unfold through periodic images."""
        return self.class_tag == "sinai_torus"

    @cached_property
    def offsets(self):
        lens = [c.length for c in self.components]
        return np.concatenate(([0.0], np.cumsum(lens)))

    @cached_property
    def perimeter(self):
        return float(self.offsets[-1])

    @cached_property
    def corner_tol(self):
        return CORNER_TOL_FACTOR * self.perimeter

    @cached_property
    def diameter(self):
        pts = []
        for c in self.components:
            if c.kind == "flat":
                pts.append(c.p0)
                pts.append(c.p1)
            else:
                pts.append((c.center[0] - c.radius, c.center[1] - c.radius))
                pts.append((c.center[0] + c.radius, c.center[1] + c.radius))
        # Python floats: an extent that overflows is inf, with no warning
        xs, ys = zip(*pts)
        return math.hypot(max(xs) - min(xs), max(ys) - min(ys))

    @cached_property
    def chains(self):
        """Components grouped into closed chains, as (first, last) index
        pairs; raises GeometryError unless each chain closes head to tail."""
        tol = 1e-9 * max(c.length for c in self.components)
        (x0, y0, _, _), (x1, y1, _, _) = self._bg.ends
        chains = []
        start_idx = 0
        comps = self.components
        for i, c in enumerate(comps):
            if c.loop:
                if i != start_idx:
                    raise GeometryError(
                        f"component {i}: closed loop may not sit inside an open chain")
                chains.append((i, i))
                start_idx = i + 1
                continue
            if i + 1 < len(comps) and not comps[i + 1].loop \
                    and math.hypot(x1[i] - x0[i + 1], y1[i] - y0[i + 1]) <= tol:
                continue  # chain continues
            # chain must close back to its start
            if math.hypot(x1[i] - x0[start_idx], y1[i] - y0[start_idx]) > tol:
                raise GeometryError(
                    f"boundary chain starting at component {start_idx} does not "
                    f"close (gap at component {i})")
            chains.append((start_idx, i))
            start_idx = i + 1
        if start_idx != len(comps):
            raise GeometryError("trailing components do not form a closed chain")
        return tuple(chains)

    @cached_property
    def junction_s(self):
        """Sorted arclength values of component junctions (loop seams
        excluded).  Arclength does not wrap across chains, so a chain's
        closing corner is listed at both offsets[a] and offsets[b + 1]."""
        js = []
        for a, b in self.chains:
            if a == b and self.components[a].loop:
                continue
            js.extend(float(self.offsets[i]) for i in range(a, b + 2))
        return np.asarray(sorted(js))

    def near_junction(self, s):
        """Corner test: which s (already reduced mod the perimeter) lie
        within corner_tol of a component junction."""
        js = self.junction_s
        if not js.size:
            return np.zeros(np.shape(s), dtype=bool)
        j = np.searchsorted(js, s)
        d = np.minimum(np.abs(s - js[np.maximum(j - 1, 0)]),
                       np.abs(js[np.minimum(j, js.size - 1)] - s))
        return d <= self.corner_tol

    @cached_property
    def _bg(self):
        return _BatchGeometry(self)


class _BatchGeometry:
    """Flat numpy view of a table's components and the only arithmetic on
    them: the forward map (frame), the ray test (nearest), the inverse map
    (impact)."""

    def __init__(self, table):
        comps = table.components
        n = len(comps)
        self.n = n
        self.perimeter = table.perimeter
        self.s_off = np.asarray(table.offsets[:-1])
        self.s_end = np.asarray(table.offsets[1:])
        self.length = self.s_end - self.s_off
        self.is_arc = np.array([c.kind == "arc" for c in comps])
        self.K = np.array([c.curvature for c in comps])
        self.loop = np.array([c.loop for c in comps])
        self.p0 = np.zeros((n, 2))
        self.tang = np.zeros((n, 2))
        self.norm = np.zeros((n, 2))
        self.center = np.zeros((n, 2))
        self.rho = np.ones(n)
        self.theta_ref = np.zeros(n)
        self.tdir = np.zeros(n)
        self.span = np.zeros(n)
        self.sigma = np.zeros(n)
        for i, c in enumerate(comps):
            if c.kind == "flat":
                self.p0[i] = c.p0
                self.tang[i] = c.tangent
                self.norm[i] = c.normal
            else:
                self.center[i] = c.center
                self.rho[i] = c.radius
                # traversal start and sense, domain on the left: focusing
                # arcs run CCW from theta0, dispersing arcs CW from theta1
                self.theta_ref[i] = c.theta1 if c.dispersing else c.theta0
                self.tdir[i] = -1.0 if c.dispersing else 1.0
                self.span[i] = c.span
                self.sigma[i] = 1.0 if c.dispersing else -1.0

    def component(self, s):
        """The arclength -> component lookup, for s already reduced mod the
        perimeter (s equal to the perimeter maps to the last component)."""
        return np.clip(np.searchsorted(self.s_end, s, side="right"),
                       0, self.n - 1)

    def frame(self, idx, u):
        """(x, y, nx, ny): boundary point and inward normal at arclength u
        into component idx.  The traversal tangent is (ny, -nx)."""
        x, y, nx, ny = (np.empty_like(u) for _ in range(4))
        arc = self.is_arc[idx]
        fl = ~arc
        if np.any(fl):
            i = idx[fl]
            x[fl] = self.p0[i, 0] + u[fl] * self.tang[i, 0]
            y[fl] = self.p0[i, 1] + u[fl] * self.tang[i, 1]
            nx[fl] = self.norm[i, 0]
            ny[fl] = self.norm[i, 1]
        if np.any(arc):
            i = idx[arc]
            th = self.theta_ref[i] + self.tdir[i] * u[arc] / self.rho[i]
            ct, st = np.cos(th), np.sin(th)
            x[arc] = self.center[i, 0] + self.rho[i] * ct
            y[arc] = self.center[i, 1] + self.rho[i] * st
            nx[arc] = self.sigma[i] * ct
            ny[arc] = self.sigma[i] * st
        return x, y, nx, ny

    @cached_property
    def ends(self):
        """The frame of every component at its start and at its end."""
        idx = np.arange(self.n)
        return self.frame(idx, np.zeros(self.n)), self.frame(idx, self.length)

    def _turn(self, comp, theta):
        """Angle turned along arc comp's traversal from its start to the
        polar angle theta, in [0, 2*pi)."""
        return (self.tdir[comp] * (theta - self.theta_ref[comp])) % TWO_PI

    def _on_arc(self, j, px, py, dx, dy, cx, cy, r, below):
        """r where the ray meets arc j (centre (cx, cy), scalars: only loops,
        which skip this test, take per-lane cell offsets) inside its angular
        span, inf elsewhere; only lanes with r < below are tested."""
        sel = np.flatnonzero(r < below)
        th = np.arctan2(py[sel] + r[sel] * dy[sel] - cy,
                        px[sel] + r[sel] * dx[sel] - cx)
        raw = self._turn(j, th)
        slack = 1e-9 * max(self.span[j], 1e-3)
        sel = sel[(raw <= self.span[j] + slack) | (raw >= TWO_PI - slack)]
        out = np.full(r.size, np.inf)
        out[sel] = r[sel]
        return out

    def nearest(self, px, py, dx, dy, ox, oy, guard):
        """The ray-boundary test: earliest hit, beyond guard, of the rays
        p + t d on every component shifted by the cell offset (ox, oy),
        scalars or one per lane.  Returns (tau, comp), inf and -1 where a ray
        meets nothing."""
        tau = np.full(px.size, np.inf)
        comp = np.full(px.size, -1, dtype=np.int64)
        for j in range(self.n):
            if self.is_arc[j]:
                cx, cy = self.center[j, 0] + ox, self.center[j, 1] + oy
                relx, rely = px - cx, py - cy
                b = relx * dx + rely * dy
                disc = b * b - (relx * relx + rely * rely - self.rho[j] ** 2)
                hitable = disc > 0.0
                sq = np.sqrt(np.where(hitable, disc, 0.0))
                r1 = -b - sq
                r1 = np.where(hitable & (r1 > guard), r1, np.inf)
                r2 = -b + sq
                r2 = np.where(hitable & (r2 > guard), r2, np.inf)
                if not self.loop[j]:
                    r1 = self._on_arc(j, px, py, dx, dy, cx, cy, r1, np.inf)
                    # r2 >= r1, so r2 matters only where r1 missed the span
                    r2 = self._on_arc(j, px, py, dx, dy, cx, cy, r2, r1)
                cand = np.minimum(r1, r2)
            else:
                p0x, p0y = self.p0[j, 0] + ox, self.p0[j, 1] + oy
                den = dx * self.norm[j, 0] + dy * self.norm[j, 1]
                approach = den < -1e-14
                t = np.where(
                    approach,
                    ((p0x - px) * self.norm[j, 0]
                     + (p0y - py) * self.norm[j, 1])
                    / np.where(approach, den, 1.0),
                    np.inf)
                ok = approach & (t > guard) & np.isfinite(t)
                ts = np.where(ok, t, 0.0)
                u = np.where(
                    ok,
                    (px + ts * dx - p0x) * self.tang[j, 0]
                    + (py + ts * dy - p0y) * self.tang[j, 1],
                    -1.0)
                slack = 1e-9 * self.length[j]
                cand = np.where(
                    ok & (u >= -slack) & (u <= self.length[j] + slack),
                    t, np.inf)
            upd = cand < tau
            tau[upd] = cand[upd]
            comp[upd] = j
        return tau, comp

    def impact(self, comp, hx, hy, ox, oy):
        """The inverse map: arclength s1 (mod the perimeter) and inward
        normal (nx, ny) at the impact points (hx, hy) on components comp,
        whose cell offset is (ox, oy), scalars or one per lane.  The
        within-component arclength is clamped to the component."""
        nx, ny, u = (np.empty_like(hx) for _ in range(3))
        arc = self.is_arc[comp]
        if np.any(arc):
            i = comp[arc]
            cx = self.center[i, 0] + (ox[arc] if np.ndim(ox) else ox)
            cy = self.center[i, 1] + (oy[arc] if np.ndim(oy) else oy)
            th = np.arctan2(hy[arc] - cy, hx[arc] - cx)
            nx[arc] = self.sigma[i] * np.cos(th)
            ny[arc] = self.sigma[i] * np.sin(th)
            raw = self._turn(i, th)
            span = self.span[i]
            # hits numerically just before the traversal start wrap to ~2*pi
            over = raw > span + 0.5 * (TWO_PI - span)
            raw = np.where(over & ~self.loop[i], raw - TWO_PI, raw)
            u[arc] = np.clip(raw, 0.0, span) * self.rho[i]
        fl = ~arc
        if np.any(fl):
            i = comp[fl]
            nx[fl] = self.norm[i, 0]
            ny[fl] = self.norm[i, 1]
            proj = ((hx[fl] - self.p0[i, 0]) * self.tang[i, 0]
                    + (hy[fl] - self.p0[i, 1]) * self.tang[i, 1])
            u[fl] = np.clip(proj, 0.0, self.length[i])
        return (self.s_off[comp] + u) % self.perimeter, nx, ny


def locate_batch(table, s):
    """Vectorized boundary lookup.

    Returns a dict with component index, position, inward normal and
    curvature; the traversal tangent is the normal rotated -90 degrees,
    (ny, -nx).
    """
    bg = table._bg
    s = np.asarray(s, dtype=float) % bg.perimeter
    idx = bg.component(s)
    x, y, nx, ny = bg.frame(idx, np.clip(s - bg.s_off[idx], 0.0, bg.length[idx]))
    return {"component": idx, "x": x, "y": y, "nx": nx, "ny": ny,
            "K": bg.K[idx]}


# ---------------------------------------------------------------------------
# constructors


def _sinai_like(centers, radii, bounds=None):
    centers = [_point(f"centers[{k}]", c) for k, c in enumerate(centers)]
    radii = [_real(f"radii[{k}]", r, positive=True)
             for k, r in enumerate(radii)]
    if len(centers) != len(radii):
        raise GeometryError("centers and radii length mismatch")
    if not centers:
        raise GeometryError("need at least one scatterer")
    for k, ((cx, cy), r) in enumerate(zip(centers, radii)):
        if bounds is not None:
            w, h = bounds
            if not (0 < cx - r and cx + r < w and 0 < cy - r and cy + r < h):
                raise GeometryError(
                    f"scatterer {k} not strictly inside the domain")
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            d = math.hypot(centers[a][0] - centers[b][0],
                           centers[a][1] - centers[b][1])
            if d <= radii[a] + radii[b]:
                raise GeometryError(f"overlapping scatterers {a} and {b}")
    return [CircularArc(c, r, 0.0, TWO_PI, dispersing=True)
            for c, r in zip(centers, radii)]


def _build_sinai_torus(centers, radii):
    comps = _sinai_like(centers, radii, bounds=(1.0, 1.0))
    return Table(tuple(comps), "sinai_torus")


def _build_stadium(flat_length):
    h = _real("flat_length", flat_length, positive=True) / 2.0
    comps = (
        FlatSegment((-h, -1.0), (h, -1.0)),
        CircularArc((h, 0.0), 1.0, -math.pi / 2, math.pi / 2, dispersing=False),
        FlatSegment((h, 1.0), (-h, 1.0)),
        CircularArc((-h, 0.0), 1.0, math.pi / 2, 3 * math.pi / 2, dispersing=False),
    )
    return Table(comps, "stadium")


def _build_squash(r1, r2, center_distance):
    r1, r2 = _real("r1", r1), _real("r2", r2)
    d = _real("center_distance", center_distance)
    if not (0 < r1 <= r2):
        raise GeometryError("need 0 < r1 <= r2")
    if d <= r2 - r1:
        raise GeometryError(
            "tangent construction infeasible: center_distance must exceed r2 - r1")
    # common external tangents share the unit normal n with n_x = -(r2-r1)/d
    nx = -(r2 - r1) / d
    ny = math.sqrt(1.0 - nx * nx)
    th = math.atan2(ny, nx)  # tangent-point angle on either circle, in (pi/2, pi]
    c1, c2 = (0.0, 0.0), (d, 0.0)
    b1 = (c1[0] + r1 * nx, c1[1] - r1 * ny)   # small circle, bottom
    b2 = (c2[0] + r2 * nx, c2[1] - r2 * ny)   # big circle, bottom
    a2 = (c2[0] + r2 * nx, c2[1] + r2 * ny)   # big circle, top
    a1 = (c1[0] + r1 * nx, c1[1] + r1 * ny)   # small circle, top
    comps = (
        FlatSegment(b1, b2),
        CircularArc(c2, r2, -th, th, dispersing=False),       # > half circle
        FlatSegment(a2, a1),
        CircularArc(c1, r1, th, TWO_PI - th, dispersing=False),  # < half circle
    )
    n_long = sum(c.span > math.pi + 1e-9 for c in comps if c.kind == "arc")
    if n_long != 1:
        raise GeometryError(f"need r1 < r2: expected exactly one arc longer "
                            f"than a half circle, found {n_long}")
    return Table(comps, "squash")


def _build_diamond(square_side, corner_radius):
    a = _real("square_side", square_side, positive=True)
    r = _real("corner_radius", corner_radius, positive=True)
    if r >= a:
        raise GeometryError("corner_radius must be smaller than the side")
    # four dispersing quarter arcs centered at the square corners joined by
    # flats along the edges; valid tables need r < side/2 (validate_table
    # reports the arc overlap otherwise)
    pi = math.pi
    comps = (
        FlatSegment((r, 0.0), (a - r, 0.0)),
        CircularArc((a, 0.0), r, pi / 2, pi, dispersing=True),
        FlatSegment((a, r), (a, a - r)),
        CircularArc((a, a), r, pi, 3 * pi / 2, dispersing=True),
        FlatSegment((a - r, a), (r, a)),
        CircularArc((0.0, a), r, 3 * pi / 2, TWO_PI, dispersing=True),
        FlatSegment((0.0, a - r), (0.0, r)),
        CircularArc((0.0, 0.0), r, 0.0, pi / 2, dispersing=True),
    )
    return Table(comps, "diamond")


def _parse_component(i, spec):
    if isinstance(spec, (FlatSegment, CircularArc)):
        return spec
    if not isinstance(spec, dict):
        raise GeometryError(f"component {i} must be a mapping, got {spec!r}")
    kind, name = spec.get("kind"), f"component {i} "
    if kind == "flat":
        return FlatSegment(_point(name + "p0", spec.get("p0")),
                           _point(name + "p1", spec.get("p1")))
    if kind == "arc":
        dispersing = spec.get("dispersing", False)
        if not isinstance(dispersing, bool):
            raise GeometryError(
                f"{name}dispersing must be true or false, got {dispersing!r}")
        return CircularArc(_point(name + "center", spec.get("center")),
                           _real(name + "radius", spec.get("radius")),
                           _real(name + "theta0", spec.get("theta0")),
                           _real(name + "theta1", spec.get("theta1")),
                           dispersing=dispersing)
    raise GeometryError(f"unknown component kind {kind!r}")


def _build_flower(components):
    comps = tuple(_parse_component(i, c) for i, c in enumerate(components))
    for i, c in enumerate(comps):
        if c.kind == "arc" and not c.dispersing and c.span > math.pi + 1e-9:
            raise GeometryError(
                f"component {i}: focusing arc longer than half its circle")
    return Table(comps, "flower")


def _build_semi_dispersing(width, height, centers, radii):
    w = _real("width", width, positive=True)
    h = _real("height", height, positive=True)
    walls = [
        FlatSegment((0.0, 0.0), (w, 0.0)),
        FlatSegment((w, 0.0), (w, h)),
        FlatSegment((w, h), (0.0, h)),
        FlatSegment((0.0, h), (0.0, 0.0)),
    ]
    # wall/scatterer conflicts are left for validate_table to report
    scat = _sinai_like(centers, radii)
    return Table(tuple(walls + scat), "semi_dispersing")


_BUILDERS = {
    "sinai_torus": _build_sinai_torus,
    "stadium": _build_stadium,
    "squash": _build_squash,
    "diamond": _build_diamond,
    "flower": _build_flower,
    "semi_dispersing": _build_semi_dispersing,
}


def build_table(class_tag, **params):
    """Construct a table of the named class from its parameters."""
    try:
        builder = _BUILDERS[class_tag]
    except KeyError:
        raise GeometryError(f"unknown table class {class_tag!r}") from None
    return builder(**params)


def regular_flower_components(n_sides, side_length):
    """Half-circle petals on the sides of a regular polygon (a flower table).

    Each petal's circle passes through two polygon vertices and stays outside
    every other petal except for the shared-vertex tangency, so the separated
    focusing condition holds with equality exactly at the corners.
    """
    if n_sides < 3:
        raise GeometryError("need at least 3 sides")
    L = float(side_length)
    rad = L / (2.0 * math.sin(math.pi / n_sides))  # circumradius
    verts = [(rad * math.cos(TWO_PI * k / n_sides - math.pi / 2),
              rad * math.sin(TWO_PI * k / n_sides - math.pi / 2))
             for k in range(n_sides)]
    comps = []
    for k in range(n_sides):
        v0 = verts[k]
        v1 = verts[(k + 1) % n_sides]
        mx, my = (v0[0] + v1[0]) / 2.0, (v0[1] + v1[1]) / 2.0
        th0 = math.atan2(v0[1] - my, v0[0] - mx)
        comps.append(CircularArc((mx, my), L / 2.0, th0, th0 + math.pi,
                                 dispersing=False))
    return comps


def cut_stadium_components(flat_length, half_gap):
    """Stadium squeezed flat-to-flat: flats at y = +-half_gap, unit-radius caps.

    For half_gap < 1 the cap circles cross the flats, breaking the separated
    focusing condition; used as a negative control for the cone diagnostics.
    """
    l, g = float(flat_length), float(half_gap)
    if not (0 < g <= 1.0):
        raise GeometryError("half_gap must lie in (0, 1]")
    hx = l / 2.0
    alpha = math.asin(g)
    off = math.sqrt(1.0 - g * g)
    comps = [
        FlatSegment((-hx, -g), (hx, -g)),
        CircularArc((hx - off, 0.0), 1.0, -alpha, alpha, dispersing=False),
        FlatSegment((hx, g), (-hx, g)),
        CircularArc((-hx + off, 0.0), 1.0, math.pi - alpha, math.pi + alpha,
                    dispersing=False),
    ]
    return comps


# ---------------------------------------------------------------------------
# validation


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
    h2 = r0 * r0 - a * a
    h = math.sqrt(max(h2, 0.0))
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
    out = []
    for t in (along - h, along + h):
        out.append((seg.p0[0] + t * tx, seg.p0[1] + t * ty, t))
    return out


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
        for p in _circle_circle_points(ca.center, ca.radius, cb.center, cb.radius):
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
    """Geometric health report: list of Violations, empty when clean.

    Checks pairwise component crossings, cusps (tangential junctions) and
    the separated focusing condition for every focusing arc (its full circle
    must not pass strictly through or contain any other component).  The
    class-specific arc-span rules are the builders' (flower, squash): a
    table that breaks one is never built.
    """
    comps = table.components
    out = []
    tol = 1e-9 * table.diameter
    (x0, y0, nx0, ny0), (x1, y1, nx1, ny1) = table._bg.ends
    ends = [((x0[i], y0[i]), (x1[i], y1[i])) for i in range(len(comps))]

    # pairwise proper intersections
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            pts = _pair_crossings(comps[i], comps[j], ends[i] + ends[j], tol)
            if pts:
                px, py = pts[0]
                out.append(Violation("components_intersect", (i, j),
                                     f"cross near ({px:.6g}, {py:.6g})"))

    # cusps at junctions: traversal tangent (ny, -nx) reverses
    for a, b in table.chains:
        if a == b and comps[a].loop:
            continue
        idxs = list(range(a, b + 1))
        for k, i in enumerate(idxs):
            jn = idxs[(k + 1) % len(idxs)]
            if ny1[i] * ny0[jn] + nx1[i] * nx0[jn] < -1.0 + 1e-9:
                out.append(Violation("cusp", (i, jn),
                                     "tangential junction (zero interior angle)"))

    # separated focusing condition
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


# ---------------------------------------------------------------------------
# holes


@dataclass(frozen=True)
class Hole:
    """Arclength interval [center_s - r, center_s + r] on one smooth component.
    On a closed loop, host_loop is the loop's arclength interval [lo, hi),
    across whose seam the hole may wrap; None on a component with ends."""

    center_s: float
    radius: float
    component: int
    perimeter: float
    host_loop: tuple = None

    @property
    def measure(self):
        """Invariant measure of hole x all angles: 2r / perimeter."""
        return 2.0 * self.radius / self.perimeter

    def contains(self, s):
        """Which s (already reduced mod the perimeter) lie in the hole."""
        s = np.asarray(s, dtype=float)
        if self.host_loop is None:
            return np.abs(s - self.center_s) <= self.radius
        lo, hi = self.host_loop
        d = (s - self.center_s) % (hi - lo)
        return (s >= lo) & (s < hi) & (np.minimum(d, hi - lo - d) <= self.radius)


def make_hole(table, center_s, r):
    """Open a hole of arclength half-width r centered at center_s.

    The interval must sit inside a single smooth component: crossing a
    junction is rejected with a relocation hint.  On a closed scatterer loop
    the interval may wrap the parametrization seam.
    """
    r = _real("hole radius", r, positive=True)
    per = table.perimeter
    center_s = _real("center_s", center_s) % per
    idx = int(table._bg.component(center_s))
    comp = table.components[idx]
    lo = float(table.offsets[idx])
    hi = float(table.offsets[idx + 1])
    if comp.loop:
        if 2.0 * r >= comp.length:
            raise GeometryError(
                f"hole diameter {2 * r:.6g} exceeds the loop length "
                f"{comp.length:.6g}")
    else:
        d_lo = center_s - lo
        d_hi = hi - center_s
        if d_lo < r or d_hi < r:
            max_r = max(min(d_lo, d_hi), 0.0)
            mid = 0.5 * (lo + hi)
            raise GeometryError(
                f"hole [{center_s - r:.6g}, {center_s + r:.6g}] crosses a "
                f"component junction; at this center the radius can be at "
                f"most {max_r:.6g}, or move the center toward s = {mid:.6g}")
    return Hole(center_s=center_s, radius=r, component=idx, perimeter=per,
                host_loop=(lo, hi) if comp.loop else None)
