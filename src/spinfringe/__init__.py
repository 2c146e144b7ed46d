"""Simulator for nuclear-feedback Ramsey fringes of a pumped quantum-dot spin.

Layers, bottom up: closed-form pulse-period physics (``fringe``), the
mean-field Overhauser drift and its steady states (``meanfield``), sweep
protocols with nuclear memory (``sweep``), small-N probability-density
oracles (``fokker_planck``, ``langevin``, ``compare``), and a config-driven
CLI (``config``, ``cli``).
"""

from .constants import TWO_PI, ghz_to_rad_per_ns
from .errors import (
    BracketEscapeError,
    CflViolationError,
    ConfigParseError,
    ConfigValidationError,
    GridTooSmallError,
    NonConvergedError,
    SpinFringeError,
)
from .fringe import (
    alpha_from_lattice,
    count_rate,
    count_rate_curvature,
    pulse_map_count,
    pulse_map_fixed_point,
    pump_rate,
    trion_flip_rate,
)
from .compare import CompareRow, compare_meanfield
from .config import (
    MapConfig,
    OracleConfig,
    OutputConfig,
    RunConfig,
    config_to_text,
    parse_config,
)
from .fokker_planck import GridSpec, MomentReport, fp_grid_solve
from .langevin import langevin_ensemble
from .meanfield import d2_omega_C, drift, relax_to_steady, steady_states
from .params import (
    HoleNuclearParams,
    Lattice,
    MeanFieldParams,
    ModelParams,
    PulseMapState,
    SteadyState,
    SweepSchedule,
    TraceSample,
)
from .sweep import NullclinePoint, fringe_map, nullcline, run_sweep

__version__ = "0.1.0"
