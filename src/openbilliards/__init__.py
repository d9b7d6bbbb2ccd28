"""Chaotic billiard tables: geometry, dynamics, measures and open statistics."""

from .geometry import (
    CircularArc,
    FlatSegment,
    GeometryError,
    Hole,
    Table,
    build_table,
    cut_stadium_components,
    locate,
    make_hole,
    regular_flower_components,
    validate_table,
)
from .dynamics import (
    EPS_GRAZE,
    FLAG_CORNER,
    FLAG_GRAZING,
    FLAG_LOST,
    FLAG_OK,
    FLAG_UNFOLD,
    CollisionResult,
    FocalPointError,
    OrbitRecord,
    PhasePoint,
    SingularOrbit,
    billiard_map,
    curvature_evolve,
    expansion_factor,
    next_collision,
    orbit,
    step_batch,
    tangent_map,
)
from .measure import SrbSampler, invariance_defect, ks_statistic
from .cones import Cone, cone_at, cone_invariance_scan, in_cone, slope_of
from .inducing import (
    ExtendedPhasePoint,
    base_returns,
    in_base,
    return_time,
)
from .openstats import (
    collect_hitting,
    count_statistics,
    ks_exp1,
    quasi_section_defect,
    short_return_fraction,
    survival_curve,
)

__version__ = "0.1.0"
