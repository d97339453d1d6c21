"""Spherical flexibility of graphs.

Decides which connected graphs admit edge lengths making them flexible on
the unit sphere (via no-alternating-path colorings), mechanizes the cut
and table combinatorics behind the classification of K(3,3) motions, and
constructs or numerically traces the motions themselves.
"""

from .coloring import (
    BLUE,
    RED,
    EdgeColoring,
    enumerate_nap,
    find_alternating_path,
    flexibility_certificate,
    is_nac,
    is_nap,
    is_surjective,
    nap_pole_partition,
)
from .continuation import (
    GaugeFix,
    TraceConfig,
    TraceResult,
    empirical_map_degree,
    re_gauge,
    residual_vector,
    trace,
)
from .cuts import (
    MU_TABLE,
    AdmissibleCase,
    Cut,
    DegreeTable,
    Equation,
    NormalCut,
    TypeTable,
    admissible_cases,
    build_pullback_system,
    coloring_from_cut,
    count_degree_table_orbits,
    cut_valid_for_bond,
    enumerate_valid_cuts,
    mu_lookup,
    mu_solutions,
    mu_system_feasible,
    nap_iff_separated_nonedge,
    theta,
    type_table,
)
from .errors import SphflexError
from .graphs import (
    Graph,
    apex_double_triangle,
    build_graph,
    complete,
    complete_bipartite,
    cycle_graph,
    induced_subgraph,
    is_laman,
    k22,
    k32,
    k33,
    k44,
    nonedges,
    three_prism,
    triangle,
)
from .motions import (
    CdaParams,
    Dixon1Params,
    Dixon2Params,
    MotionTrajectory,
    cda_feasible_intervals,
    cda_motion,
    cda_params_from_e,
    detect_k33_motion_kind,
    dixon1_motion,
    dixon2_motion,
    polar_nap_motion,
)
from .quads import (
    QuadLengths,
    QuadType,
    antipodal_normalize,
    classify,
    diagonals_not_orthogonal_check,
    rhomboid_component,
)
from .spherical import (
    LengthAssignment,
    Rotation,
    SphericalRealization,
    delta,
    essentially_distinct,
    rotation_about_axis,
    sph_dist,
)

__version__ = "0.1.0"
