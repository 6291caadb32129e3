"""Exact certificates for nodal-surface degenerations and Severi-variety bounds.

The toolkit constructs nodal projective surfaces and central fibres of
semistable degenerations, certifies their singularity types (A1 nodes, T1
points of reducible fibres), verifies the local smoothing and intersection
identities of the underlying degeneration picture, and checks regularity of
node sets via independence of point conditions.  All arithmetic is exact
over the rationals; the one prime-field value, a rank modulo a word-size
prime, is reported as a cross-check and never certifies anything.
"""

__version__ = "0.1.0"

from .constructions import (
    CertificateBundle,
    LineArrangement,
    SurfaceWitness,
    build_witness,
    central_fibre,
    certify_witness,
    general_lines,
    witness_from_json,
    witness_to_json,
)
from .degeneration import (
    DivisorClassF0,
    F0Identities,
    FamilySlice,
    HessianLimitResult,
    chow_f0_identities,
    deformation_slice,
    hessian_limit_check,
    minimal_effective_multiplicity,
    theta_restriction_class,
    verify_t1_to_node,
)
from .errors import (
    ArityError,
    DataFormatError,
    GenericityError,
    GluingError,
    PointNotOnSurface,
    ToolkitError,
)
from .groebner import GroebnerResult, groebner_basis
from .linalg import RatMatrix
from .polynomials import MultiPoly, poly
from .severi import (
    ConditionMatrix,
    IndependenceReport,
    SystemSpec,
    condition_matrix,
    heuristic_floor,
    independence_rank,
    linear_system_dim,
    max_regular_delta,
    restricted_dim_oracle,
    t1_codimension,
)
from .singularities import (
    ExclusionResult,
    NodeSetReport,
    S0Spec,
    SingularityReport,
    certify_node_set,
    certify_t1,
    classify_point,
    exclude_extra_singularities,
)

__all__ = [
    "ArityError",
    "CertificateBundle",
    "ConditionMatrix",
    "DataFormatError",
    "DivisorClassF0",
    "ExclusionResult",
    "F0Identities",
    "FamilySlice",
    "GenericityError",
    "GluingError",
    "GroebnerResult",
    "HessianLimitResult",
    "IndependenceReport",
    "LineArrangement",
    "MultiPoly",
    "NodeSetReport",
    "PointNotOnSurface",
    "RatMatrix",
    "S0Spec",
    "SingularityReport",
    "SurfaceWitness",
    "SystemSpec",
    "ToolkitError",
    "build_witness",
    "central_fibre",
    "certify_node_set",
    "certify_t1",
    "certify_witness",
    "chow_f0_identities",
    "classify_point",
    "condition_matrix",
    "deformation_slice",
    "exclude_extra_singularities",
    "general_lines",
    "groebner_basis",
    "heuristic_floor",
    "hessian_limit_check",
    "independence_rank",
    "linear_system_dim",
    "max_regular_delta",
    "minimal_effective_multiplicity",
    "poly",
    "restricted_dim_oracle",
    "t1_codimension",
    "theta_restriction_class",
    "verify_t1_to_node",
    "witness_from_json",
    "witness_to_json",
]
