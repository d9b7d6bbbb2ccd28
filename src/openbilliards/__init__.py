"""Chaotic billiard tables: geometry, dynamics, measures and open statistics."""

from .geometry import (
    CircularArc,
    FlatSegment,
    GeometryError,
    Hole,
    Table,
    build_table,
    cut_stadium_components,
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
    step_batch,
)
from .measure import SrbSampler, invariance_defect, ks_statistic
from .cones import cone_invariance_scan
from .inducing import base_returns
from .openstats import (
    collect_hitting,
    count_statistics,
    quasi_section_defect,
    short_return_fraction,
    survival_curve,
)

__version__ = "0.1.0"
