"""Root systems, obstructor complexes, and exact matrix-model certification."""

from .rootsystems import (
    FAMILIES,
    InvalidRank,
    NotSimpleRoot,
    RootSystem,
    RootSystemType,
    build_root_system,
)
from .ordering import (
    ExhaustiveCheckFailure,
    Labeling,
    OrderingReport,
    Witness,
    WitnessConstructionError,
    all_labelings,
    construct_witness,
    diagram_order,
    exhaustive_verify,
    verify_witness,
)
from .complexes import (
    ObstructorShape,
    SimplicialComplex,
    arrow_complex,
    betti_numbers,
    expected_column_join,
    is_acyclic,
    is_isomorphic_via,
    join,
    join_sphere,
    obstructor_subcomplex,
    column_factor_map,
    signed_double,
    sphere_betti,
    sphere_plus,
    sphere_preimage,
)
from .exact import DimensionMismatch, ExactMatrix, Singular
from .conemaps import (
    BadSimplex,
    BadVertex,
    ConeMap,
    ConePoint,
    adjoint_component,
    d_stat,
    default_radii,
    distance,
    divergence_suite,
    divergence_test,
    fibration_compose,
    heisenberg_map,
    properness_test,
    size,
    split_growth_experiment,
    split_map,
    split_residual,
    superimpose_map,
)
from .catalog import (
    DimensionReport,
    GroupSpec,
    MissingAnisotropicDimension,
    catalog_grid,
    dim_symmetric,
    identity_check,
    lemma_count,
    obstructor_shape,
    root_data,
    shape_from_root_data,
    sl_split_pair_shape,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
