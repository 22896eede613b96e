"""Pseudo-spectral simulator for a damped, stochastically forced 3-layer
quasi-geostrophic system on a rectangle with Dirichlet conditions."""

__version__ = "0.1.0"

from .coupling import (LayerCoupling, OperatorEigenpairs, apply_operator,
                       eigenpairs, symmetrize)
from .dynamics import (SimConfig, TrajectoryRecord, nonlinear_term,
                       parse_observables, run_trajectory, step_eta)
from .errors import (BlowUpError, ConfigurationError, FieldFormatError,
                     FieldLengthError, SamplingError, ShapeError,
                     TimeStepError, UnsupportedExponentError)
from .experiments import (log_estimate_monitor, lp_envelope,
                          monitor_observables, w14_monitor, weak_residual)
from .fieldio import read_field, write_field
from .measures import (AveragedMeasure, TightnessReport, kb_average,
                       tightness_diagnostic)
from .noise import (BrownianIncrements, NoiseSpec, make_noise, ou_factors,
                    ou_step, sample_path, sigma_for_stationary_l2)
from .runconfig import RunSettings, parse_config, realize
from .spectral import (LayerField, SpectralBasis, build_basis, lp_norm,
                       single_mode_field)
from .sweeps import (SweepReport, galerkin_sweep, viscosity_sweep,
                     yudovich_stability)
