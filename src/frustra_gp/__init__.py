"""Decoherence dynamics and mixed-state geometric phase of a central qubit
coupled to two independent, unpolarized spin baths through non-commuting
operators.

The reduced dynamics is an exact finite convex sum of Bloch rotations over
bath magnetization sectors; on top of it the package computes the
kinematic geometric phase of the decohering qubit by three routes (closed
form, south-pole special case, discrete holonomy), validates everything
against an exact oracle that evolves the full Hilbert space block by
block in the baths' total spins, and exposes parameter sweeps
that contrast coupling allocations where splitting the coupling between two
baths preserves the phase better than spending it on one.
"""

from .dynamics import (
    BlochTrajectory,
    TimeGrid,
    bloch_at,
    bloch_trajectory,
    gamma_freq,
    literal_points,
    literal_polarizations,
    rotation_matrices,
    sector_rotation,
)
from .errors import (
    ConfigError,
    DimensionCapError,
    FrustraGpError,
    IndeterminatePhaseError,
    OracleError,
    PreconditionError,
    ResolutionError,
    UsageError,
)
from .experiments import (
    AngleGrid,
    GpSurface,
    StrategyReport,
    StrategySummary,
    VerifyCheck,
    VerifyReport,
    auto_time_grid,
    gp_surface,
    max_sector_freq,
    strategy_compare,
    verify_suite,
)
from .model import (
    BlochVector,
    InitialStateAngles,
    QubitDensity,
    SectorWeight,
    SystemConfig,
    initial_bloch,
    initial_density,
    sector_weights,
    validate_config,
)
from .oracle import evolve_reduced, oracle_trajectory
from .phase import (
    Azimuth,
    GpDiagnostics,
    GpResult,
    PolarTrack,
    angular_distance,
    gp_closed_form,
    gp_discrete_holonomy,
    gp_south_pole,
    gp_unitary_reference,
    pancharatnam_phase,
    polar_track,
    principal_value,
)

__version__ = "0.1.0"

__all__ = [
    "AngleGrid",
    "Azimuth",
    "BlochTrajectory",
    "BlochVector",
    "ConfigError",
    "DimensionCapError",
    "FrustraGpError",
    "GpDiagnostics",
    "GpResult",
    "GpSurface",
    "IndeterminatePhaseError",
    "InitialStateAngles",
    "OracleError",
    "PolarTrack",
    "PreconditionError",
    "QubitDensity",
    "ResolutionError",
    "SectorWeight",
    "StrategyReport",
    "StrategySummary",
    "SystemConfig",
    "TimeGrid",
    "UsageError",
    "VerifyCheck",
    "VerifyReport",
    "angular_distance",
    "auto_time_grid",
    "bloch_at",
    "bloch_trajectory",
    "evolve_reduced",
    "gamma_freq",
    "gp_closed_form",
    "gp_discrete_holonomy",
    "gp_south_pole",
    "gp_surface",
    "gp_unitary_reference",
    "initial_bloch",
    "initial_density",
    "literal_points",
    "literal_polarizations",
    "max_sector_freq",
    "oracle_trajectory",
    "pancharatnam_phase",
    "polar_track",
    "principal_value",
    "rotation_matrices",
    "sector_rotation",
    "sector_weights",
    "strategy_compare",
    "validate_config",
    "verify_suite",
    "__version__",
]
