"""Tables, boundary parametrization, validation and holes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from openbilliards import (
    GeometryError,
    build_table,
    cut_stadium_components,
    make_hole,
    regular_flower_components,
    validate_table,
)
from openbilliards.geometry import CircularArc, locate_batch

import scalar_validator
from helpers import CLASSES, flat, loop, make, reference_family


def sinai(r=0.2):
    return build_table("sinai_torus", centers=[(0.5, 0.5)], radii=[r])


# ---------------------------------------------------------------- perimeters

def test_sinai_perimeter():
    assert_allclose(sinai().perimeter, 2 * math.pi * 0.2, rtol=1e-15)


def test_stadium_perimeter():
    t = build_table("stadium", flat_length=2.0)
    assert_allclose(t.perimeter, 4 + 2 * math.pi, rtol=1e-15)


def test_squash_flat_length():
    # external tangent between r1=0.6 and r2=1.0 circles two apart
    t = build_table("squash", r1=0.6, r2=1.0, center_distance=2.0)
    flats = [c for c in t.components if c.kind == "flat"]
    assert len(flats) == 2
    for f in flats:
        assert_allclose(f.length, 1.9595918, atol=1e-6)
    assert_allclose(t.perimeter, sum(c.length for c in t.components), rtol=1e-15)


def test_diamond_perimeter():
    t = build_table("diamond", square_side=2.0, corner_radius=0.5)
    assert_allclose(t.perimeter, 4 * (2 - 2 * 0.5) + 2 * math.pi * 0.5, rtol=1e-14)


def test_flower_perimeter():
    t = build_table("flower", components=regular_flower_components(4, 2.0))
    # four half-circle petals of radius 1
    assert_allclose(t.perimeter, 4 * math.pi, rtol=1e-14)


def test_semi_dispersing_perimeter():
    t = build_table("semi_dispersing", width=2.0, height=1.0,
                    centers=[(1.0, 0.5)], radii=[0.3])
    assert_allclose(t.perimeter, 6 + 2 * math.pi * 0.3, rtol=1e-14)


# ------------------------------------------------------------------- locate

def boundary_at(t, s):
    """locate_batch at one arclength: (position, normal, curvature)."""
    b = locate_batch(t, [s])
    return (b["x"][0], b["y"][0]), (b["nx"][0], b["ny"][0]), b["K"][0]


def corner_at(t, s):
    """Table.at_corner at arclengths s, reduced mod the perimeter, through
    the component each lies on and the arclength into it."""
    s = np.asarray(s, dtype=float) % t.perimeter
    comp = t.component(s)
    return t.at_corner(comp, s - t.s_off[comp])


def test_locate_sinai_cardinal_points():
    t = sinai()
    position, normal, _ = boundary_at(t, 0.0)
    assert_allclose(position, (0.7, 0.5), atol=1e-15)
    # inward table normal points away from the scatterer
    assert_allclose(normal, (1.0, 0.0), atol=1e-15)
    position, normal, K = boundary_at(t, math.pi * 0.2)
    assert_allclose(position, (0.3, 0.5), atol=1e-12)
    assert_allclose(normal, (-1.0, 0.0), atol=1e-12)
    assert K == pytest.approx(5.0)


def test_locate_stadium_flat():
    t = build_table("stadium", flat_length=2.0)
    position, normal, K = boundary_at(t, 1.0)
    assert_allclose(position, (0.0, -1.0), atol=1e-15)
    assert_allclose(normal, (0.0, 1.0), atol=1e-15)
    assert K == 0.0
    assert not corner_at(t, 1.0)


def test_locate_stadium_cap():
    t = build_table("stadium", flat_length=2.0)
    position, normal, K = boundary_at(t, 2.0 + math.pi / 2)  # right cap middle
    assert_allclose(position, (2.0, 0.0), atol=1e-12)
    assert_allclose(normal, (-1.0, 0.0), atol=1e-12)
    assert K == pytest.approx(-1.0)


def test_locate_wraps_and_flags_corners():
    t = build_table("stadium", flat_length=2.0)
    # the perimeter wraps to s = 0, a junction
    s = [2.0, t.perimeter, 1.3]
    assert corner_at(t, s).tolist() == [True, True, False]
    b = locate_batch(t, [0.25, 0.25 + 3 * t.perimeter])
    assert_allclose(b["x"][0], b["x"][1], atol=1e-12)
    assert_allclose(b["y"][0], b["y"][1], atol=1e-12)


def test_locate_tangent_normal_frame():
    t = build_table("squash", r1=0.6, r2=1.0, center_distance=2.0)
    rng = np.random.default_rng(7)
    s = rng.uniform(0, t.perimeter, size=200)
    b = locate_batch(t, s)
    assert_allclose(b["nx"] ** 2 + b["ny"] ** 2, 1.0, atol=1e-12)
    # the traversal tangent, d(x, y)/ds, is the inward normal rotated by
    # -90 degrees (the squash boundary is C^1, junctions included)
    h = 1e-7
    ahead = locate_batch(t, s + h)
    assert_allclose((ahead["x"] - b["x"]) / h, b["ny"], atol=1e-5)
    assert_allclose((ahead["y"] - b["y"]) / h, -b["nx"], atol=1e-5)


def test_loop_seam_is_not_a_corner():
    t = sinai()
    assert not corner_at(t, 0.0)


def semi():
    return build_table("semi_dispersing", width=2.0, height=1.0,
                       centers=[(1.0, 0.5)], radii=[0.3])


def flower_after_loop():
    scatterer = {"kind": "arc", "center": [0.0, 0.0], "radius": 0.2,
                 "theta0": 0.0, "theta1": 2 * math.pi, "dispersing": True}
    return build_table("flower", components=[scatterer]
                       + regular_flower_components(4, 2.0))


@pytest.mark.parametrize("make, comp, at_end, corner", [
    # the wall chain closes at s = 6, the (0, 0) corner on the left wall
    (semi, 3, True, True),
    (semi, 0, True, True),
    # the scatterer loop listed last has its seam at s = 6 and the perimeter,
    # on either side of the wall chain's closing corner
    (semi, 4, True, False),
    (semi, 4, False, False),
    # behind a leading loop the petal chain closes at the perimeter
    (flower_after_loop, 4, True, True),
    (flower_after_loop, 1, False, True),
    # the leading loop's seam at s = 0 and at the petal chain's start
    (flower_after_loop, 0, False, False),
    (flower_after_loop, 0, True, False),
], ids=["semi-closing", "semi-inner", "semi-loop-seam", "semi-loop-start",
        "flower-closing", "flower-chain-start", "flower-loop-seam",
        "flower-loop-end"])
def test_chain_closing_corners(make, comp, at_end, corner):
    """at_corner 1e-13 into component comp from its start or its end: a
    chain's ends are corners, a loop's seam is none, even where a chain's
    corner shares its arclength."""
    t = make()
    u = t.length[comp] - 1e-13 if at_end else 1e-13
    assert t.at_corner(comp, u) == corner


# ----------------------------------------------------------------- builders

def test_overlapping_scatterers_rejected():
    with pytest.raises(GeometryError, match="overlapping"):
        build_table("sinai_torus", centers=[(0.3, 0.5), (0.7, 0.5)],
                    radii=[0.2, 0.2])


def test_scatterer_must_fit_in_cell():
    with pytest.raises(GeometryError, match="inside"):
        build_table("sinai_torus", centers=[(0.9, 0.5)], radii=[0.2])


def test_squash_needs_room_for_tangents():
    with pytest.raises(GeometryError, match="infeasible"):
        build_table("squash", r1=0.2, r2=1.0, center_distance=0.5)


@pytest.mark.parametrize("r1, r2, center_distance", [
    (1.0e300, 1.0e305, 1.0e306),
    (1.0, 1.0e308, 1.7e308),    # the extent itself overflows
])
def test_table_with_overflowing_squared_diameter_is_rejected(r1, r2,
                                                             center_distance):
    with pytest.raises(GeometryError, match="table too large"):
        build_table("squash", r1=r1, r2=r2, center_distance=center_distance)


def test_flower_rejects_long_focusing_arc():
    comps = [
        {"kind": "arc", "center": (0.0, 0.0), "radius": 1.0,
         "theta0": -2.0, "theta1": 2.5, "dispersing": False},
    ]
    with pytest.raises(GeometryError, match="half"):
        build_table("flower", components=comps)


def test_unknown_class():
    with pytest.raises(GeometryError, match="unknown table class"):
        build_table("pentagon", size=1.0)


def test_open_chain_rejected():
    comps = [
        {"kind": "flat", "p0": (0.0, 0.0), "p1": (1.0, 0.0)},
        {"kind": "flat", "p0": (1.0, 0.0), "p1": (1.0, 1.0)},
    ]
    with pytest.raises(GeometryError, match="chain"):
        build_table("flower", components=comps)


# --------------------------------------------------------------- validation

def test_standard_tables_validate_clean():
    tables = [make(name) for name in CLASSES]
    # a flat whose squared length underflows to 0
    tables.append(build_table("stadium", flat_length=1.0e-320))
    for t in tables:
        assert validate_table(t) == [], t.class_tag


def test_oversized_diamond_bites_intersect():
    """Corner radius 1.2 on a side-2 square makes neighboring bites cross."""
    t = build_table("diamond", square_side=2.0, corner_radius=1.2)
    kinds = {v.kind for v in validate_table(t)}
    assert "components_intersect" in kinds


def test_cut_stadium_breaks_sfc():
    # squeezing the stadium pushes the opposite wall inside each cap's circle
    t = build_table("flower", components=cut_stadium_components(2.0, 0.5))
    kinds = [v.kind for v in validate_table(t)]
    assert kinds.count("sfc") >= 2


def test_scatterer_through_wall_detected():
    t = build_table("semi_dispersing", width=2.0, height=1.0,
                    centers=[(1.0, 0.1)], radii=[0.3])
    kinds = {v.kind for v in validate_table(t)}
    assert "components_intersect" in kinds


def test_squash_arc_span_rule():
    t = build_table("squash", r1=0.6, r2=1.0, center_distance=2.0)
    spans = sorted(c.span for c in t.components if c.kind == "arc")
    assert spans[0] < math.pi < spans[1]


def test_squash_with_equal_radii_is_not_built():
    # both arcs are exact half circles, so neither is the long one
    with pytest.raises(GeometryError, match="r1 < r2"):
        build_table("squash", r1=1.0, r2=1.0, center_distance=2.0)


@pytest.mark.parametrize("components, expected", [
    # a needle: out along the x axis and straight back, so its two flats
    # also lie on top of each other
    ([flat([0, 0], [1, 0]), flat([1, 0], [0, 0])],
     [("components_intersect", (0, 1)), ("cusp", (0, 1)), ("cusp", (1, 0))]),
    # a dispersing quarter arc tangent to both sides of a square corner:
    # one cusp at each end of the arc
    ([{"kind": "arc", "center": [0, 0], "radius": 1.0,
       "theta0": -math.pi / 2, "theta1": 0.0, "dispersing": True},
      flat([0, -1], [1, -1]), flat([1, -1], [1, 0])],
     [("cusp", (0, 1)), ("cusp", (2, 0))]),
], ids=["needle", "arc-horn"])
def test_cusps_are_flagged(components, expected):
    t = build_table("flower", components=components)
    assert [(v.kind, v.components) for v in validate_table(t)] == expected


def polygon(*verts):
    return [flat(list(p), list(q))
            for p, q in zip(verts, verts[1:] + verts[:1])]


@pytest.mark.parametrize("components, expected", [
    # a slit: flats 0 and 4 overlap on y = 0 between x = 1 and 2
    (polygon((0, 0), (3, 0), (3, 1), (2, 1), (2, 0), (1, 0), (1, 1), (0, 1)),
     [(0, 4)]),
    # the slit with one side tilted by 1e-13: the lines nearly coincide
    (polygon((0, 0), (3, 0), (3, 1), (2, 1), (2, 1e-13), (1, 0), (1, 1),
             (0, 1)),
     [(0, 4)]),
    # two copies of one scatterer loop in a box
    (polygon((0, 0), (2, 0), (2, 1), (0, 1)) + 2 * [loop((1.0, 0.5), 0.3)],
     [(4, 5)]),
    # two half circles of one focusing circle: they meet only at their ends
    ([CircularArc((0.0, 0.0), 1.0, 0.0, math.pi, dispersing=False),
      CircularArc((0.0, 0.0), 1.0, math.pi, 2 * math.pi, dispersing=False)],
     []),
    # collinear flats that meet end to end
    (polygon((0, 0), (1, 0), (2, 0), (1, 1)), []),
], ids=["slit", "tilted-slit", "twin-loops", "split-circle", "collinear"])
def test_components_on_one_carrier_overlap_only_where_they_share_length(
        components, expected):
    t = build_table("flower", components=components)
    assert [v.components for v in validate_table(t)] == expected


def test_validator_matches_scalar_reference():
    """validate_table, measuring through the kernel's closest-point map,
    gives the scalar reference's report word for word.  No two components
    in the family share a line or circle, the one case where they differ."""
    tables = reference_family(seed=5, n_stars=1000, n_random=150)
    reports = [(validate_table(t), scalar_validator.validate_table(t))
               for t in tables]
    assert len(tables) >= 1000
    assert sum(bool(new) for new, _ in reports) >= 900
    for t, (new, ref) in zip(tables, reports):
        assert new == ref, t.components


# -------------------------------------------------------------------- holes

def test_hole_measure_sinai():
    t = sinai()
    h = make_hole(t, 0.3, 0.05)
    assert_allclose(h.measure, 0.0795775, atol=1e-6)


def test_hole_measure_stadium():
    t = build_table("stadium", flat_length=2.0)
    h = make_hole(t, 1.0, 0.1)
    assert_allclose(h.measure, 0.0194493, atol=1e-6)


def test_hole_membership_is_an_arc_interval():
    t = build_table("stadium", flat_length=2.0)
    h = make_hole(t, 1.0, 0.1)
    s = np.array([0.89, 0.91, 1.0, 1.09, 1.11])
    assert list(h.contains(s)) == [False, True, True, True, False]


def test_hole_wraps_around_loop_seam():
    t = sinai()
    h = make_hole(t, 0.0, 0.05)
    assert h.contains(t.perimeter - 0.01)
    assert h.contains(0.04)
    assert not h.contains(0.2)


def two_scatterer():
    return build_table("sinai_torus", centers=[(0.3, 0.3), (0.75, 0.7)],
                       radii=[0.15, 0.1])


@pytest.mark.parametrize("make, host", [(two_scatterer, 1), (semi, 4)],
                         ids=["two-scatterer", "semi-dispersing"])
def test_hole_on_a_loop_wraps_within_its_loop(make, host):
    # the host loop [lo, P) is not the whole perimeter: points just before
    # lo belong to the previous component, points just before P lie across
    # the host's own seam
    t = make()
    lo = t.offsets[host]
    h = make_hole(t, lo + 0.01, 0.05)
    assert h.component == host
    assert not h.contains(lo - 0.02)
    assert h.contains(t.perimeter - 0.02)
    assert list(h.contains([lo, lo + 0.055, lo + 0.065])) == [True, True, False]


def test_hole_must_avoid_junctions():
    t = build_table("stadium", flat_length=2.0)
    with pytest.raises(GeometryError, match="junction"):
        make_hole(t, 1.95, 0.2)


def test_hole_junction_error_suggests_feasible_radius():
    t = build_table("stadium", flat_length=2.0)
    with pytest.raises(GeometryError, match="at most"):
        make_hole(t, 1.95, 0.2)


def test_hole_radius_positive():
    with pytest.raises(GeometryError, match="positive"):
        make_hole(sinai(), 0.3, 0.0)


def test_hole_cannot_cover_whole_loop():
    t = sinai()
    with pytest.raises(GeometryError):
        make_hole(t, 0.3, t.perimeter)
