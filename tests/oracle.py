"""High-precision reference tracer used to freeze expected orbit values.

Independent of the package's stepping code: plain scalar mpmath arithmetic,
explicit quadratic/linear solves, and brute-force image search instead of
cell marching on the torus.  Component data is copied out of a built Table
(float -> mpf is exact), so both tracers see the same table while sharing no
arithmetic.

Run as a script to print frozen-value blocks for the dynamics tests.
"""

import mpmath as mp

mp.mp.dps = 50

TWO_PI = 2 * mp.pi
GUARD = mp.mpf("1e-30")


def from_table(table):
    """Extract component data from a package Table into exact mp numbers."""
    comps = []
    for comp in table.components:
        if comp.kind == "flat":
            p0 = tuple(mp.mpf(v) for v in comp.p0)
            p1 = tuple(mp.mpf(v) for v in comp.p1)
            dx, dy = p1[0] - p0[0], p1[1] - p0[1]
            ln = mp.sqrt(dx * dx + dy * dy)
            tang = (dx / ln, dy / ln)
            comps.append({
                "kind": "flat", "p0": p0, "p1": p1, "len": ln,
                "tang": tang, "norm": (-tang[1], tang[0]),
            })
        else:
            r = mp.mpf(comp.radius)
            th0 = mp.mpf(comp.theta0)
            th1 = mp.mpf(comp.theta1)
            span = th1 - th0
            loop = abs(span - TWO_PI) < mp.mpf("1e-9")
            comps.append({
                "kind": "arc",
                "c": (mp.mpf(comp.center[0]), mp.mpf(comp.center[1])),
                "r": r, "span": min(span, TWO_PI), "loop": loop,
                "sigma": mp.mpf(1 if comp.dispersing else -1),
                "tdir": mp.mpf(-1 if comp.dispersing else 1),
                "th_ref": th1 if comp.dispersing else th0,
                "len": min(span, TWO_PI) * r,
            })
    offs, acc = [], mp.mpf(0)
    for c in comps:
        offs.append(acc)
        acc += c["len"]
    return {"comps": comps, "offs": offs, "perim": acc,
            "lattice": table.lattice}


def locate(tab, s):
    s = mp.fmod(mp.fmod(s, tab["perim"]) + tab["perim"], tab["perim"])
    j = len(tab["comps"]) - 1
    for i in range(len(tab["comps"]) - 1):
        if s < tab["offs"][i + 1]:
            j = i
            break
    c = tab["comps"][j]
    u = s - tab["offs"][j]
    if c["kind"] == "flat":
        p = (c["p0"][0] + u * c["tang"][0], c["p0"][1] + u * c["tang"][1])
        n = c["norm"]
    else:
        th = c["th_ref"] + c["tdir"] * u / c["r"]
        n = (c["sigma"] * mp.cos(th), c["sigma"] * mp.sin(th))
        p = (c["c"][0] + c["r"] * mp.cos(th), c["c"][1] + c["r"] * mp.sin(th))
    return j, p, n


def _arc_hit_s(tab, j, theta, cell=(0, 0)):
    c = tab["comps"][j]
    raw = mp.fmod(c["tdir"] * (theta - c["th_ref"]), TWO_PI)
    if raw < 0:
        raw += TWO_PI
    if not c["loop"] and raw > c["span"]:
        # numerical wrap just before the start of the traversal
        if TWO_PI - raw < c["span"] - raw + TWO_PI:  # closer to 0 than to span
            raw = mp.mpf(0) if TWO_PI - raw < raw - c["span"] else c["span"]
    return tab["offs"][j] + min(raw, c["span"]) * c["r"]


def _ray_arc(p, d, center, r):
    """Positive roots of |p + t d - center| = r, ascending."""
    rx, ry = p[0] - center[0], p[1] - center[1]
    b = rx * d[0] + ry * d[1]
    cc = rx * rx + ry * ry - r * r
    disc = b * b - cc
    if disc <= 0:
        return []
    sq = mp.sqrt(disc)
    return [t for t in (-b - sq, -b + sq) if t > GUARD]


def _step_bounded(tab, p, d):
    best = (None, None)
    for j, c in enumerate(tab["comps"]):
        if c["kind"] == "flat":
            den = d[0] * c["norm"][0] + d[1] * c["norm"][1]
            if den >= 0:
                continue
            t = ((c["p0"][0] - p[0]) * c["norm"][0]
                 + (c["p0"][1] - p[1]) * c["norm"][1]) / den
            if t <= GUARD:
                continue
            hx, hy = p[0] + t * d[0], p[1] + t * d[1]
            u = (hx - c["p0"][0]) * c["tang"][0] + (hy - c["p0"][1]) * c["tang"][1]
            if -GUARD <= u <= c["len"] + GUARD:
                if best[0] is None or t < best[0]:
                    best = (t, j)
        else:
            for t in _ray_arc(p, d, c["c"], c["r"]):
                hx, hy = p[0] + t * d[0], p[1] + t * d[1]
                th = mp.atan2(hy - c["c"][1], hx - c["c"][0])
                raw = mp.fmod(c["tdir"] * (th - c["th_ref"]), TWO_PI)
                if raw < 0:
                    raw += TWO_PI
                if c["loop"] or raw <= c["span"] + mp.mpf("1e-30") \
                        or raw >= TWO_PI - mp.mpf("1e-30"):
                    if best[0] is None or t < best[0]:
                        best = (t, j)
                    break
    return best


def _step_lattice(tab, p, d):
    """Brute-force image search: scan cell boxes of growing half-width."""
    for w in (2, 4, 8, 16, 64, 256):
        best = (None, None, None)
        for ox in range(-w, w + 1):
            for oy in range(-w, w + 1):
                for j, c in enumerate(tab["comps"]):
                    center = (c["c"][0] + ox, c["c"][1] + oy)
                    for t in _ray_arc(p, d, center, c["r"]):
                        if best[0] is None or t < best[0]:
                            best = (t, j, (ox, oy))
                        break
        # any image outside the box is at least w - 1 away
        if best[0] is not None and best[0] < w - 1:
            return best
    raise RuntimeError("no image hit within search box")


def step(tab, s, phi):
    """One collision step; returns (s1, phi1, tau, comp)."""
    j0, p, n = locate(tab, s)
    t0 = (n[1], -n[0])
    d = (mp.cos(phi) * n[0] + mp.sin(phi) * t0[0],
         mp.cos(phi) * n[1] + mp.sin(phi) * t0[1])
    if tab["lattice"]:
        tau, j, cell = _step_lattice(tab, p, d)
        c = tab["comps"][j]
        hx, hy = p[0] + tau * d[0], p[1] + tau * d[1]
        th = mp.atan2(hy - (c["c"][1] + cell[1]), hx - (c["c"][0] + cell[0]))
        n1 = (c["sigma"] * mp.cos(th), c["sigma"] * mp.sin(th))
        s1 = _arc_hit_s(tab, j, th)
    else:
        tau, j = _step_bounded(tab, p, d)
        if tau is None:
            raise RuntimeError("ray escaped the table")
        c = tab["comps"][j]
        hx, hy = p[0] + tau * d[0], p[1] + tau * d[1]
        if c["kind"] == "arc":
            th = mp.atan2(hy - c["c"][1], hx - c["c"][0])
            n1 = (c["sigma"] * mp.cos(th), c["sigma"] * mp.sin(th))
            s1 = _arc_hit_s(tab, j, th)
        else:
            n1 = c["norm"]
            u = ((hx - c["p0"][0]) * c["tang"][0]
                 + (hy - c["p0"][1]) * c["tang"][1])
            s1 = tab["offs"][j] + u
    t1 = (n1[1], -n1[0])
    dt = d[0] * t1[0] + d[1] * t1[1]
    dn = d[0] * n1[0] + d[1] * n1[1]
    phi1 = mp.atan2(dt, -dn)
    return s1, phi1, tau, j


def trace(tab, s0, phi0, n):
    """n collision steps from (s0, phi0); list of (s, phi, tau, comp)."""
    s, phi = mp.mpf(s0), mp.mpf(phi0)
    out = []
    for _ in range(n):
        s, phi, tau, j = step(tab, s, phi)
        out.append((s, phi, tau, j))
    return out


def tangent_map_fd(tab, s, phi, h=mp.mpf("1e-25")):
    """Collision-map Jacobian by central differences in high precision."""
    cols = []
    for ds, dphi in ((h, 0), (0, h)):
        sp, pp, _, _ = step(tab, mp.mpf(s) + ds, mp.mpf(phi) + dphi)
        sm, pm, _, _ = step(tab, mp.mpf(s) - ds, mp.mpf(phi) - dphi)
        cols.append(((sp - sm) / (2 * h), (pp - pm) / (2 * h)))
    return [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]


def _fmt(x):
    return mp.nstr(x, 17)


if __name__ == "__main__":
    from openbilliards import build_table, regular_flower_components

    # seeds are binary doubles converted exactly, so the reference follows
    # the very same initial condition the package sees
    cases = [
        ("sinai", build_table("sinai_torus", centers=[(0.5, 0.5)], radii=[0.2]),
         0.1, 0.3, 8),
        ("stadium", build_table("stadium", flat_length=2.0),
         0.3, 0.2, 8),
        ("squash", build_table("squash", r1=0.6, r2=1.0, center_distance=2.0),
         0.5, -0.25, 8),
        ("diamond", build_table("diamond", square_side=2.0, corner_radius=0.5),
         0.4, 0.35, 8),
        ("flower", build_table("flower",
                               components=regular_flower_components(4, 2.0)),
         1.0, 0.15, 8),
        ("semi", build_table("semi_dispersing", width=2.0, height=1.0,
                             centers=[(1.0, 0.5)], radii=[0.3]),
         0.7, 0.1, 8),
    ]
    # single flights along infinite-horizon corridors, 100 < tau < 250 (the
    # image search stops at half-width 256); no Jacobian is frozen for them
    sinai = cases[0][1]
    two = build_table("sinai_torus", centers=[(0.3, 0.3), (0.75, 0.7)],
                      radii=[0.15, 0.1])
    long_flights = [
        ("sinai_long_a", sinai, 0.786306516989437, 1.564467927794842, 1),
        ("sinai_long_b", sinai, 0.9407816183629261, -1.5595633179671105, 1),
        ("two_long_a", two, 0.3065558596635953, 1.5611405057142984, 1),
        ("two_long_b", two, 0.5890996223675177, -1.568923507744069, 1),
    ]
    for name, table, s0, phi0, n in cases + long_flights:
        tab = from_table(table)
        print(f'    "{name}": [')
        for s, phi, tau, j in trace(tab, mp.mpf(s0), mp.mpf(phi0), n):
            print(f"        ({_fmt(s)}, {_fmt(phi)}, {_fmt(tau)}, {j}),")
        print("    ],")
    print()
    for name, table, s0, phi0, _ in cases:
        tab = from_table(table)
        M = tangent_map_fd(tab, mp.mpf(s0), mp.mpf(phi0))
        print(f'    "{name}": (({_fmt(M[0][0])}, {_fmt(M[0][1])}),'
              f' ({_fmt(M[1][0])}, {_fmt(M[1][1])})),')
