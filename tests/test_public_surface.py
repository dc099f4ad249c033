"""The package exports exactly the names below; adding or removing one edits this list."""

import obstructor

PUBLIC = [
    "BadSimplex", "BadVertex", "ConeMap", "ConePoint", "DimensionMismatch", "DimensionReport",
    "ExactMatrix", "ExhaustiveCheckFailure", "FAMILIES", "GroupSpec", "InvalidRank", "Labeling",
    "MissingAnisotropicDimension", "NotSimpleRoot", "ObstructorShape", "OrderingReport",
    "RootSystem", "RootSystemType", "SimplicialComplex", "Singular", "Witness",
    "WitnessConstructionError", "adjoint_component", "all_labelings", "arrow_complex",
    "betti_numbers", "build_root_system", "catalog", "catalog_grid", "column_factor_map",
    "complexes", "conemaps", "construct_witness", "d_stat", "default_radii", "diagram_order",
    "dim_symmetric", "distance", "divergence_suite", "divergence_test", "exact",
    "exhaustive_verify", "expected_column_join", "fibration_compose", "heisenberg_map",
    "identity_check", "is_acyclic", "is_isomorphic_via", "join", "join_sphere", "lemma_count",
    "obstructor_shape", "obstructor_subcomplex", "ordering", "properness_test", "root_data",
    "rootsystems", "shape_from_root_data", "signed_double", "size", "sl_split_pair_shape",
    "sphere_betti", "sphere_plus", "sphere_preimage", "split_growth_experiment", "split_map",
    "split_residual", "superimpose_map", "verify_witness",
]


def test_public_names_are_pinned():
    assert sorted(obstructor.__all__) == PUBLIC
