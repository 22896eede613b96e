"""Flat key=value run configuration with explicit defaults.

One `key=value` pair per line of a UTF-8 file, `#` starts a comment, blank
lines ignored.  An unreadable file, unknown keys (listing every offender)
and a key set twice (naming both lines) are errors; missing keys fall
back to defaults and are echoed in the run manifest.  Parsing checks only
this grammar and the value types (a float must be finite); `realize`
builds the simulation objects, and each of them checks the constraints on
its own parameters, naming the violated constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import math

from .coupling import eigenpairs, symmetrize
from .dynamics import DEFAULT_OBSERVABLES, SimConfig
from .errors import ConfigurationError
from .noise import make_noise
from .spectral import build_basis


@dataclass
class RunSettings:
    """Scalar run parameters exactly as configured (before realization)."""

    domain_lx: float = 1.0
    domain_ly: float = 1.0
    modes_x: int = 32
    modes_y: int = 32
    grid_x: int = 0          # 0: use the dealiasing floor 2*modes
    grid_y: int = 0
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    lambda_scale: float = 1.0
    gamma: float = 0.5
    viscosity: float = 0.0
    dt: float = 1e-3
    horizon: float = 1.0
    nonlinearity: str = "on"
    sigma: float = 1.0
    noise_decay: float = 2.0
    noise_modes: int = 0     # 0: default 3*min(modes)^2/4
    init: str = "zero"
    cfl_safety: float = 0.5
    obs_every: int = 1
    observables: str = DEFAULT_OBSERVABLES

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def parse_config(path) -> tuple[RunSettings, list[str]]:
    """Parse a config file; returns (settings, list of defaulted keys)."""
    typed = {f.name: type(getattr(RunSettings(), f.name))
             for f in fields(RunSettings)}
    values, line_of = {}, {}
    unknown = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in typed:
            unknown.append(key)
            continue
        if key in line_of:
            raise ConfigurationError(
                f"{path}:{lineno}: {key} already set on line {line_of[key]}")
        line_of[key] = lineno
        try:
            values[key] = typed[key](val)
        except ValueError:
            raise ConfigurationError(
                f"{path}:{lineno}: cannot parse {key}={val!r} "
                f"as {typed[key].__name__}")
        if typed[key] is float and not math.isfinite(values[key]):
            raise ConfigurationError(
                f"{path}:{lineno}: {key}={val!r} is not finite")
    if unknown:
        raise ConfigurationError(
            "unknown configuration keys: " + ", ".join(sorted(unknown)))
    defaulted = [k for k in typed if k not in values]
    return RunSettings(**values), defaulted


def realize(settings: RunSettings, seed: int, snap_every: int = 0) -> SimConfig:
    """Build the immutable simulation objects from scalar settings.

    The first violated constraint raises, in build order: `build_basis`
    (domain, mode counts, dealiasing floor), `symmetrize` (lambda_i and
    scale), the noise, then `SimConfig` (gamma, viscosity, dt, horizon,
    cadences, seed, stability ceiling).
    """
    s = settings
    if s.nonlinearity not in ("on", "off"):
        raise ConfigurationError("nonlinearity must be 'on' or 'off'")
    basis = build_basis(s.domain_lx, s.domain_ly, s.modes_x, s.modes_y,
                        s.grid_x or None, s.grid_y or None)
    coupling = symmetrize((s.lambda1, s.lambda2, s.lambda3), basis,
                          s.lambda_scale)
    k = s.noise_modes or 3 * min(basis.nx, basis.ny) ** 2 // 4
    total = 3 * basis.nx * basis.ny
    pairs = eigenpairs(coupling, min(max(4 * k, 1), total))
    noise = make_noise(pairs, k, s.noise_decay, s.sigma)
    return SimConfig(pairs=pairs, noise=noise, gamma=s.gamma,
                     viscosity=s.viscosity, dt=s.dt, horizon=s.horizon,
                     nonlinear=s.nonlinearity == "on", init=s.init,
                     seed=seed, cfl_safety=s.cfl_safety,
                     obs_every=s.obs_every, snap_every=snap_every)
