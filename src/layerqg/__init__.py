"""Pseudo-spectral simulator for a damped, stochastically forced 3-layer
quasi-geostrophic system on a rectangle with Dirichlet conditions.

Each name below is imported from its module on first use (PEP 562), so
`import layerqg.cli` loads only what a subcommand runs."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "coupling": ("LayerCoupling", "OperatorEigenpairs", "eigenpairs",
                 "symmetrize"),
    "dynamics": ("SimConfig", "TrajectoryRecord", "nonlinear_term",
                 "parse_observables", "run_trajectory", "step_eta"),
    "errors": ("BlowUpError", "ConfigurationError", "FieldFormatError",
               "FieldLengthError", "SamplingError", "ShapeError",
               "TimeStepError", "UnsupportedExponentError"),
    "experiments": ("log_estimate_monitor", "lp_envelope",
                    "monitor_observables", "w14_monitor", "weak_residual"),
    "fieldio": ("read_field", "write_field"),
    "measures": ("AveragedMeasure", "TightnessReport", "kb_average",
                 "tightness_diagnostic"),
    "noise": ("NoiseSpec", "make_noise", "ou_factors", "ou_step",
              "sigma_for_stationary_l2"),
    "runconfig": ("RunSettings", "parse_config", "realize"),
    "spectral": ("LayerField", "SpectralBasis", "build_basis", "lp_norm",
                 "single_mode_field"),
    "sweeps": ("SweepReport", "galerkin_sweep", "viscosity_sweep",
               "yudovich_stability"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value         # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
