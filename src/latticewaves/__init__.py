"""Solitary traveling waves in FPUT lattices with long-range interactions.

Pipeline: describe a potential family (``catalog``), certify its dispersion
relation for the long-wave regime (``dispersion``), solve the rescaled
traveling-wave equation spectrally (``operators`` + ``solver``), and verify
the computed wave by direct integration of the lattice (``simulator``).
"""

__version__ = "0.1.0"

from .catalog import (AssumptionReport, LatticeModel, PotentialSpec,
                      b_coefficient, build_model, check_assumptions, zeta)
from .dispersion import (DispersionProfile, certify_type1,
                         coefficients_from_dispersion, dispersion_relation,
                         estimate_sigma, long_wave_curvature,
                         long_wave_curvature_fd, phase_speed_sq, t1_t2,
                         t1_t2_progression, theta_power4_closed)
from .errors import (CertificationError, ConfigError, DegeneracyError,
                     DomainError, LatticeWaveError, SolverError)
from .operators import LongWaveOperators, averaging_defect, moving_average
from .simulator import (LatticeState, VerificationReport, force,
                        init_from_wave, nonlinear_force, run_and_verify,
                        step_split, step_verlet, total_energy)
from .solver import (SweepReport, WaveSolution, residual, scaling_sweep,
                     solve_contraction, solve_petviashvili)
from .spectral import (Field, Grid, apply_multiplier, project_even,
                       sobolev_norm)

__all__ = [
    "__version__",
    "PotentialSpec", "LatticeModel", "AssumptionReport", "build_model",
    "b_coefficient", "check_assumptions", "zeta",
    "DispersionProfile", "certify_type1", "coefficients_from_dispersion",
    "dispersion_relation", "estimate_sigma", "long_wave_curvature",
    "long_wave_curvature_fd", "phase_speed_sq", "t1_t2", "t1_t2_progression",
    "theta_power4_closed",
    "Grid", "Field", "apply_multiplier", "sobolev_norm", "project_even",
    "LongWaveOperators", "moving_average", "averaging_defect",
    "WaveSolution", "residual",
    "solve_contraction", "solve_petviashvili", "scaling_sweep", "SweepReport",
    "LatticeState", "init_from_wave", "force", "nonlinear_force",
    "step_verlet", "step_split", "total_energy", "run_and_verify",
    "VerificationReport",
    "LatticeWaveError", "DomainError", "DegeneracyError",
    "CertificationError", "SolverError", "ConfigError",
]
