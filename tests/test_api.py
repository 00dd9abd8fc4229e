"""The public API is the set of names `percohom/__init__.py` imports: a
change that adds or removes one changes this set too, and says so."""

import ast
import os

import percohom as ph

PUBLIC = {
    # errors
    "ConfigError", "InvalidArgumentError", "SolverFailureError",
    # points
    "Box", "PointConfiguration", "empty_cell_frequency", "sample_poisson", "scale",
    # geometry
    "ConnectivityFunction", "EdgeSet", "GeometryFamily", "ObstacleSet", "PerforatedMask",
    "build_balls", "build_rcm_edges", "build_tubes", "connected_components",
    "density_ratio_check", "hole_free_mask", "load_mask", "min_pairwise_distance",
    "rasterize", "sample_family", "save_mask", "scale_obstacles", "volume_fraction",
    # solver
    "GridField", "SolveReport", "energy_gamma", "friedrichs_constant", "gradient_energy",
    "h1_norm", "l2_distance", "l2_norm", "load_field", "save_field",
    "solve_dirichlet_perforated",
    # capacity
    "CapacityEstimate", "ConductivityTensor", "affine_dirichlet_energy",
    "boolean_capacity_constant", "conductivity_tensor", "local_capacity", "newton_capacity",
    "penalized_functional", "strange_term",
    # sweep
    "AuditResult", "ErgodicSpec", "HomogenizationReport", "SweepSpec", "build_corrector",
    "build_partition_of_unity", "ergodic_average_experiment", "run_sweep",
    "uniform_bound_audit",
    # rng
    "substream", "substream_seed",
}


def test_public_api_is_the_pinned_set():
    with open(os.path.join(os.path.dirname(ph.__file__), "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported == PUBLIC
    assert all(hasattr(ph, name) for name in PUBLIC)
