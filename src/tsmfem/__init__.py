"""Explicit-dynamics FEM for viscous damage under a random stiffness scale,
with first-order time-separated uncertainty propagation and a Monte Carlo
reference harness."""

__version__ = "0.1.0"

from .material import MaterialParams, characteristic_scales, free_energy, stiffness_voigt
from .mesh import (
    DirichletRamp,
    LoadCase,
    Mesh,
    generate_double_notch,
    generate_plate_with_hole,
    load_mesh,
    save_mesh,
)
from .montecarlo import (
    McEnsemble,
    XiDistribution,
    compare,
    extract_line,
    fd_oracle,
    mc_statistics,
    run_mc,
    sample_xi,
)
from .solver import (
    ElementQuadrature,
    History,
    InstabilityError,
    lumped_mass,
    run_deterministic,
    stable_timestep,
)
from .tsm import (
    Problem,
    TsmConfig,
    TsmSolution,
    UqSummary,
    read_exchange,
    run_order0,
    run_order1,
    run_tsm,
    uq_summary,
    write_exchange,
)

__all__ = [name for name in dir() if not name.startswith("_")]
