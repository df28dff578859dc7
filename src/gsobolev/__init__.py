"""Closed-form Sobolev-type IPM distances, transport baselines, and kernels
for probability measures supported on the nodes of a shared graph."""

from .errors import (
    DegenerateGeometryWarning,
    Disconnected,
    DuplicateEdge,
    EmptyCloud,
    GSobolevError,
    InfeasibleMass,
    InvalidBandwidth,
    InvalidExponent,
    MassNotNormalized,
    NegativeMass,
    NodeOutOfRange,
    NonConvergence,
    NonPositiveEntry,
    NonPositiveWeight,
    ParseError,
    RootMismatch,
    SizeLimitExceeded,
    SupportTooLarge,
)
from .graph import (
    EdgePrep,
    Graph,
    RootedStructure,
    lambda_gamma,
    load_graph,
    root_path_edges,
    save_graph,
    shortest_path_tree,
)
from .kernels import (
    DefinitenessReport,
    GramSpec,
    KERNEL_EXP,
    KERNEL_EXP_POW,
    check_negative_definite,
    distance_matrix,
    divisibility_check,
    gram_matrix,
    min_eigenvalue,
    write_matrix_csv,
)
from .measures import (
    DiscreteMeasure,
    GammaTable,
    gamma_mass,
    gamma_masses,
    load_measures,
    save_measures,
)
from .metrics import (
    EquivalenceConstants,
    VARIANT_SOBOLEV_IPM,
    VARIANT_SOBOLEV_TRANSPORT,
    beta_weights,
    equivalence_constants,
    measure_distance,
    pair_distances,
    prepare_root,
    sample_roots,
    sliced_distance,
    sobolev_ipm_distance,
    sobolev_transport_distance,
)
from .oracles import (
    TransportPlanLP,
    beta_quadrature,
    distance_by_discretization,
    transport_plan_lp,
    wasserstein1_lp,
)
from .synth import (
    FAMILY_LOG,
    FAMILY_SQRT,
    PointCloud,
    build_random_graph,
    farthest_point_clustering,
    random_measures,
    random_tree,
    save_point_cloud,
)
from .verify import SUITES, SuiteReport, run_suites

__version__ = "0.1.0"
