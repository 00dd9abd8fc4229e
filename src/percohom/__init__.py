"""Random perforated domains, capacity functionals, and effective-equation
sweeps on regular grids."""

__version__ = "0.1.0"

from .errors import ConfigError, InvalidArgumentError, SolverFailureError
from .points import (Box, PointConfiguration, empty_cell_frequency, sample_poisson,
                     scale)
from .geometry import (ConnectivityFunction, EdgeSet, GeometryFamily,
                       ObstacleSet, PerforatedMask, build_balls,
                       build_rcm_edges, build_tubes, connected_components,
                       density_ratio_check, hole_free_mask, load_mask,
                       min_pairwise_distance, rasterize, sample_family,
                       save_mask, scale_obstacles, volume_fraction)
from .solver import (GridField, SolveReport, energy_gamma, friedrichs_constant,
                     gradient_energy, h1_norm, l2_distance, l2_norm,
                     load_field, save_field, solve_dirichlet_perforated)
from .capacity import (CapacityEstimate, ConductivityTensor,
                       affine_dirichlet_energy, boolean_capacity_constant,
                       conductivity_tensor, local_capacity, newton_capacity,
                       penalized_functional, strange_term)
from .sweep import (AuditResult, ErgodicSpec, HomogenizationReport, SweepSpec,
                    build_corrector, build_partition_of_unity,
                    ergodic_average_experiment, run_sweep, uniform_bound_audit)
from .rng import substream, substream_seed
