"""Triangular Artin presentations, vertex links, and exact curvature
certificates.

The pipeline: a labelled defining graph encodes an Artin group; its
standard presentation is rewritten into a triangular one (length-3
relators around hub generators); the presentation 2-complex has a
single vertex whose link is a levelled bipartite graph; and exact
angle assignments on that link decide non-positive curvature, which
certifies biautomaticity.
"""

from .complex_link import (
    HEAD,
    TAIL,
    LinkEdge,
    LinkGraph,
    LinkVertex,
    NotTriangularError,
    VertexNotFoundError,
    build_complex,
    build_link,
    link_of,
)
from .curvature import (
    A2,
    B2,
    CurvatureReport,
    LinkCondition,
    MetricAssignment,
    assign_metric,
    certify,
    check_link_condition,
)
from .cycles import (
    EmbeddedLoop,
    LimitExceededError,
    UnassignedAnglesError,
    enumerate_short_loops,
    girth,
    make_loop,
    min_angle_cycle,
)
from .errors import InternalInconsistencyError
from .forbidden import (
    DualNotBipartiteError,
    ForbiddenWitness,
    OddDegreeVertexError,
    detect_forbidden,
    has_forbidden,
    orient_from_rotation_system,
    search_orientation,
    trace_faces,
)
from .gamma_io import ParseError, load_gamma, parse_gamma, parse_gamma_json
from .presentations import (
    DefiningGraph,
    GammaEdge,
    HubRecord,
    IncompleteAssignmentError,
    Orientation,
    OrientationAssignment,
    Presentation,
    TietzeReport,
    TooManyGeneratorsError,
    UnorientedEdgeError,
    alternating_word,
    build_standard,
    build_triangular,
    build_two_generator_family,
    resolve_orientations,
    triangle_graph,
    triangle_presentation,
    verify_tietze_equivalence,
)
from .smallcancel import (
    PieceTable,
    SmallCancellation,
    check_conditions,
    compute_pieces,
)
from .words import (
    CyclicWord,
    FreeWord,
    Letter,
    RecursiveSubstitutionError,
)

__version__ = "0.1.0"
