"""Boundary geometry for planar billiard tables.

A table boundary is a union of straight segments and circular arcs traversed
with the playing domain on the left, so the inward normal is the +90 degree
rotation of the traversal tangent.  Arc length runs over the components in
listed order.  Signed curvature follows the scattering convention: +1/rho on
dispersing walls (domain outside the circle), -1/rho on focusing walls
(domain inside the circle), 0 on flats.

The component classes hold parameters only.  A Table is one object: its
constructor derives everything once (offsets, perimeter, chains, the flat
per-component arrays), and the map between arclength and (point, inward
normal), both ways, is written once, as its methods, which locate_batch, the
kernel, the checks and validate_table read: the validator measures through
the kernel's projection.  Each map runs one formula per lane, and the ray
test checks an arc's span with one dot product, so the kernel takes one
arctan2 per arc impact.  The corner test, Table.at_corner, reads an impact's
own (component, arclength into it): an end of an open chain's component is a
corner, a closed loop's seam never is.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# Corner window as a fraction of the perimeter: impacts closer than this to
# an end of their component are flagged as corner hits and the orbit is
# censored (a closed loop has no ends).
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


def _diameter(comps):
    """The diagonal of the components' bounding box (an arc's is its full
    circle's), in Python floats: an extent that overflows is inf, with no
    warning."""
    pts = []
    for c in comps:
        if c.kind == "flat":
            pts.append(c.p0)
            pts.append(c.p1)
        else:
            pts.append((c.center[0] - c.radius, c.center[1] - c.radius))
            pts.append((c.center[0] + c.radius, c.center[1] + c.radius))
    xs, ys = zip(*pts)
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


class Table:
    """A closed billiard boundary, its class tag, and everything derived
    from its components, computed once here as plain attributes: the
    arclength offsets, perimeter, corner window, diameter, closed chains,
    the flat per-component arrays, and the only arithmetic on components.

    That arithmetic is the forward map (frame), the ray test (nearest) and
    the closest-point map (project), which the inverse map (impact) and the
    validator's distances (distance) read.  frame and project run both
    kinds' formulas on every lane and pick one (a flat's arc values are
    finite).  A hit lies in an open arc's span when (hit - centre) . mid >=
    rho cos_half: mid is the arc's mid direction, cos_half the cosine of
    its half span plus an angular slack.  A step never writes to its table.

    The inducing base X is table data too.  A collision on a component with
    base_always set is in X; one on a component with base_entry set is in X
    when it starts a run there, i.e. comes from another component.  A
    dispersing arc is always in X, a focusing arc only at run entry, and a
    flat never, except on the diamond, which induces with R = 1.
    """

    def __init__(self, components, class_tag):
        comps = tuple(components)
        if not comps:
            raise GeometryError("table needs at least one component")
        self.components = comps
        self.class_tag = class_tag
        # a unit-torus table: the listed scatterer loops repeat on the
        # integer lattice and free flights unfold through periodic images
        self.lattice = class_tag == "sinai_torus"
        # validation squares lengths up to the diameter as Python floats;
        # checked before any array is built from a table that large
        self.diameter = _diameter(comps)
        if not math.isfinite(self.diameter * self.diameter):
            raise GeometryError(f"table too large: diameter {self.diameter:g}")
        n = len(comps)
        self.n = n
        self.offsets = np.concatenate(
            ([0.0], np.cumsum([c.length for c in comps])))
        self.perimeter = float(self.offsets[-1])
        self.corner_tol = CORNER_TOL_FACTOR * self.perimeter
        self.s_off = self.offsets[:-1]
        self.s_end = self.offsets[1:]
        self.length = self.s_end - self.s_off
        self.is_arc = np.array([c.kind == "arc" for c in comps])
        self.K = np.array([c.curvature for c in comps])
        self.loop = np.array([c.loop for c in comps])
        self.base_always = (self.K > 0) | (class_tag == "diamond")
        self.base_entry = self.K < 0
        self.p0 = np.zeros((n, 2))
        self.tang = np.zeros((n, 2))
        self.norm = np.zeros((n, 2))
        self.center = np.zeros((n, 2))
        self.rho = np.ones(n)
        self.theta_ref = np.zeros(n)
        self.tdir = np.zeros(n)
        self.span = np.zeros(n)
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
        mid = self.theta_ref + self.tdir * self.span / 2.0
        self.mid = np.stack((np.cos(mid), np.sin(mid)), axis=1)
        self.cos_half = np.cos(np.minimum(
            self.span / 2.0 + 1e-9 * np.maximum(self.span, 1e-3), math.pi))
        idx = np.arange(n)
        # the frame of every component at its start and at its end
        self.ends = self.frame(idx, np.zeros(n)), self.frame(idx, self.length)
        # a boundary that does not close fails here
        self.chains = self._chains()

    def _chains(self):
        """Components grouped into closed chains, as (first, last) index
        pairs; raises GeometryError unless each chain closes head to tail."""
        tol = 1e-9 * max(c.length for c in self.components)
        (x0, y0, _, _), (x1, y1, _, _) = self.ends
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

    def component(self, s):
        """The arclength -> component lookup, for s already reduced mod the
        perimeter (s equal to the perimeter maps to the last component)."""
        return np.clip(np.searchsorted(self.s_end, s, side="right"),
                       0, self.n - 1)

    def at_corner(self, comp, u):
        """The corner test: which points, at arclength u into components
        comp, lie within corner_tol of one of their component's ends.  A
        closed loop has no ends, so its seam is never a corner."""
        return ~self.loop[comp] & (np.minimum(u, self.length[comp] - u)
                                   <= self.corner_tol)

    def frame(self, idx, u):
        """(x, y, nx, ny): boundary point and inward normal at arclength u
        into component idx.  The traversal tangent is (ny, -nx)."""
        arc = self.is_arc[idx]
        rho, tdir = self.rho[idx], self.tdir[idx]
        th = self.theta_ref[idx] + tdir * u / rho
        ct, st = np.cos(th), np.sin(th)
        return (np.where(arc, self.center[idx, 0] + rho * ct,
                         self.p0[idx, 0] + u * self.tang[idx, 0]),
                np.where(arc, self.center[idx, 1] + rho * st,
                         self.p0[idx, 1] + u * self.tang[idx, 1]),
                np.where(arc, -tdir * ct, self.norm[idx, 0]),
                np.where(arc, -tdir * st, self.norm[idx, 1]))

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
                    r1, r2 = (np.where(
                        (relx + t * dx) * self.mid[j, 0]
                        + (rely + t * dy) * self.mid[j, 1]
                        >= self.rho[j] * self.cos_half[j], r, np.inf)
                        for r in (r1, r2)
                        for t in [np.where(r < np.inf, r, 0.0)])
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

    def project(self, comp, hx, hy, ox, oy):
        """The closest-point map: arclength u into component comp (arc
        centres shifted by the cell offset (ox, oy), scalars or one per lane)
        of its point nearest (hx, hy), and the inward normal (nx, ny) at the
        polar angle of (hx, hy) on arcs.  u is clamped to the component; past
        an arc's span the gap is split at its middle: the nearer end."""
        tdir, span = self.tdir[comp], self.span[comp]
        th = np.arctan2(hy - (self.center[comp, 1] + oy),
                        hx - (self.center[comp, 0] + ox))
        # turn from the traversal start; points just before it wrap to ~2*pi
        raw = (tdir * (th - self.theta_ref[comp])) % TWO_PI
        over = raw > span + 0.5 * (TWO_PI - span)
        raw = np.where(over & ~self.loop[comp], raw - TWO_PI, raw)
        proj = ((hx - self.p0[comp, 0]) * self.tang[comp, 0]
                + (hy - self.p0[comp, 1]) * self.tang[comp, 1])
        arc = self.is_arc[comp]
        return (np.where(arc, np.clip(raw, 0.0, span) * self.rho[comp],
                         np.clip(proj, 0.0, self.length[comp])),
                np.where(arc, -tdir * np.cos(th), self.norm[comp, 0]),
                np.where(arc, -tdir * np.sin(th), self.norm[comp, 1]))

    def impact(self, comp, hx, hy, ox, oy):
        """The inverse map: arclength s1 (mod the perimeter), arclength u
        into comp (what at_corner reads) and inward normal (nx, ny) at the
        impact points (hx, hy) on components comp, through project."""
        u, nx, ny = self.project(comp, hx, hy, ox, oy)
        return (self.s_off[comp] + u) % self.perimeter, u, nx, ny

    def distance(self, comp, px, py):
        """Euclidean distance from the points (px, py) to components comp:
        to the point project finds."""
        x, y, _, _ = self.frame(comp, self.project(comp, px, py, 0.0, 0.0)[0])
        return np.hypot(px - x, py - y)


def locate_batch(table, s):
    """Vectorized boundary lookup.

    Returns a dict with component index, position, inward normal and
    curvature; the traversal tangent is the normal rotated -90 degrees,
    (ny, -nx).
    """
    s = np.asarray(s, dtype=float) % table.perimeter
    idx = table.component(s)
    x, y, nx, ny = table.frame(
        idx, np.clip(s - table.s_off[idx], 0.0, table.length[idx]))
    return {"component": idx, "x": x, "y": y, "nx": nx, "ny": ny,
            "K": table.K[idx]}


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


def _carrier_points(ca, cb):
    """The points where the full lines or circles carrying two components
    meet, followed, for two flats, by the midpoints between consecutive
    component ends along the first line; concentric circles yield those
    midpoints along the first circle instead.  Where the carriers coincide
    or nearly do, one midpoint lies on both components exactly when the two
    overlap."""
    if ca.kind == "arc" and cb.kind == "arc":
        if math.dist(ca.center, cb.center) > 0.0:
            return _circle_circle_points(ca.center, ca.radius,
                                         cb.center, cb.radius)
        th = sorted(t % TWO_PI for c in (ca, cb) for t in (c.theta0, c.theta1))
        mids = [(a + b) / 2.0 for a, b in zip(th, th[1:] + [th[0] + TWO_PI])]
        return [(ca.center[0] + ca.radius * math.cos(m),
                 ca.center[1] + ca.radius * math.sin(m)) for m in mids]
    seg, other = (ca, cb) if ca.kind == "flat" else (cb, ca)
    tx, ty = seg.tangent
    if other.kind == "flat":
        bx, by = other.tangent
        wx, wy = other.p0[0] - seg.p0[0], other.p0[1] - seg.p0[1]
        den = tx * by - ty * bx
        t = sorted([0.0, seg.length, wx * tx + wy * ty,
                    (other.p1[0] - seg.p0[0]) * tx
                    + (other.p1[1] - seg.p0[1]) * ty])
        ts = [(wx * by - wy * bx) / den] if abs(den) > 1e-14 else []
        ts += [(a + b) / 2.0 for a, b in zip(t, t[1:])]
    else:
        wx, wy = other.center[0] - seg.p0[0], other.center[1] - seg.p0[1]
        along = wx * tx + wy * ty
        h2 = other.radius * other.radius - ((wx - along * tx) ** 2
                                            + (wy - along * ty) ** 2)
        ts = [along - math.sqrt(h2), along + math.sqrt(h2)] if h2 >= 0.0 else []
    return [(seg.p0[0] + t * tx, seg.p0[1] + t * ty) for t in ts]


def validate_table(table):
    """Geometric health report: list of Violations, empty when clean.

    Checks pairwise component crossings and overlaps, cusps (tangential
    junctions) and the separated focusing condition for every focusing arc
    (its full circle must not pass strictly through or contain any other
    component), every distance through the kernel's closest-point map.  The
    class-specific arc-span rules are the builders' (flower, squash): a
    table that breaks one is never built.
    """
    comps = table.components
    out = []
    tol = 1e-9 * table.diameter
    (x0, y0, nx0, ny0), (x1, y1, nx1, ny1) = table.ends

    # a proper crossing is a carrier meeting point on both components and
    # more than tol from all four of their ends; the first one per pair counts
    cand = [(i, j, *p) for i in range(len(comps))
            for j in range(i + 1, len(comps))
            for p in _carrier_points(comps[i], comps[j])]
    if cand:
        i, j, px, py = (np.array(v) for v in zip(*cand))
        ex = np.stack((x0[i], x1[i], x0[j], x1[j]))
        ey = np.stack((y0[i], y1[i], y0[j], y1[j]))
        proper = ((table.distance(i, px, py) <= tol)
                  & (table.distance(j, px, py) <= tol)
                  & (np.hypot(px - ex, py - ey).min(axis=0) > tol))
        first = {}
        for k in np.flatnonzero(proper):
            first.setdefault((int(i[k]), int(j[k])), k)
        out += [Violation("components_intersect", pair,
                          f"cross near ({px[k]:.6g}, {py[k]:.6g})")
                for pair, k in first.items()]

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

    # separated focusing condition: one distance call per focusing arc, from
    # its centre to every other component
    for i, c in enumerate(comps):
        if c.kind != "arc" or c.dispersing:
            continue
        others = np.flatnonzero(np.arange(len(comps)) != i)
        d = table.distance(others, np.full(others.size, table.center[i, 0]),
                           np.full(others.size, table.center[i, 1]))
        out += [Violation(
                    "sfc", (i, int(j)),
                    f"full circle of focusing arc {i} reaches component {j} "
                    f"(min distance {dj:.6g} < radius {c.radius:.6g})")
                for j, dj in zip(others, d) if dj < c.radius - tol]
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
    idx = int(table.component(center_s))
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
