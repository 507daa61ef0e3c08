"""Eigenvalue and semidefinite-programming bounds for the max-k-cut problem
and the chromatic number of a graph, with exact desk-scale oracles."""

from .errors import CapExceeded
from .bounds import (
    BoundReport,
    SrgParameters,
    chromatic_lower_bound,
    complete_graph_maxkcut,
    eigenvalue_bound,
    hoffman_bound,
    maxkcut_feasibility_flag,
    srg_sdp_bound,
)
from .graphs import (
    Graph,
    GraphFormatError,
    LaplacianView,
    Partition,
    connected_components,
    cut_weight,
    laplacian,
    named_graph,
    read_graph,
    write_graph,
)
from .hamming import (
    check_conjecture,
    conjecture_grid,
    first_coordinate_qcut,
    hamming_graph,
    hamming_lambda,
    hamming_tightness_certificate,
    kravchuk,
    kravchuk_table,
)
from .oracle import (
    GapReport,
    WorkCapExceeded,
    brute_force_maxkcut,
    brute_force_table,
    gap_report,
    hyperplane_round,
)
from .relaxations import (
    RelaxationKind,
    build,
    cutting_plane_loop,
    independent_set_cuts,
    separate_triangles,
    triangle_cuts,
)
from .sdp import (
    CertificationReport,
    CutList,
    SdpModel,
    SdpSolution,
    SolverOptions,
    certify,
    dump_model,
    solve,
)
from .spectra import (
    IdempotentBasis,
    idempotent_basis,
    lambda_max,
    top_idempotent_diag_constant,
)

__version__ = "0.1.0"
