"""Exact computations with finite-dimensional Lie triple systems:
axiom and representation checks, relative Rota-Baxter operators of any
weight, semidirect products, descendent systems, Nijenhuis lifts, the
operator cochain complex, and infinitesimal deformation classes.

All arithmetic is exact rational; see :mod:`triplekit.linalg`.
"""

from .linalg import (
    Matrix,
    Scalar,
    StructureError,
    SubspaceBasis,
    VerificationError,
    format_scalar,
    kernel_basis,
    parse_scalar,
    quotient_dim,
    rank,
)
from .lts import (
    HomomorphismCandidate,
    LieTripleSystem,
    center,
    derived_algebra,
    is_abelian_subsystem,
    is_homomorphism,
    is_subsystem,
    verify_lts,
    zero_system,
)
from .representations import (
    ActionData,
    RepresentationData,
    adjoint_representation,
    self_action,
    semidirect_product,
    verify_action,
    verify_representation,
    zero_representation,
)
from .rota_baxter import (
    LinearMap,
    RBOHomomorphism,
    RelativeRBO,
    RotaBaxterError,
    check_rbo,
    check_rbo_all_weights,
    check_rbo_homomorphism,
    descendent_lts,
    graph_subsystem,
    is_nijenhuis,
    is_rbo,
    nijenhuis_check,
    nijenhuis_lift,
    projection_rbo,
)
from .cohomology import (
    Cochain,
    CohomologyResult,
    OperatorComplex,
    cochain_from_map,
    cochain_map_p,
    cochain_space_basis,
    cochain_to_map,
    coboundary,
    cohomology_group,
    complex_audit,
    delta_wedge,
    induced_rep,
    one_cocycle_check,
    wedge_pairs,
    zero_cochain,
)
from .deformations import (
    EquivalenceWitness,
    InfinitesimalDeformation,
    check_deformation,
    check_equivalence,
    deformation_cocycle_class,
    find_equivalence_witness,
    is_trivial_deformation,
)
from .properties import equivalence_sweep, random_integer_matrix
from .fixtures import fixture_path, list_fixtures

__version__ = "0.1.0"
