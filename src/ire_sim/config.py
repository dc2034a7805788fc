"""Run configuration: INI grammar, defaults, validation, resolution report.

A run is described by an INI document with four blocks:

    [species]                         all keys optional (rubidium-like defaults)
    wavelength_nm         = 795.0     transition wavelength, nm
    delta_over_2pi_hz     = 1.0e7     write detuning Delta / 2pi, Hz
    omega_sg_over_2pi_hz  = -6.8e9    ground splitting omega_sg / 2pi, Hz (signed)
    sigma0_m2             = 1.082e-13 resonant cross section, m^2
    cg_sq                 = 1.0       squared coupling coefficient, in (0, 1]
    mass_amu              = 87.0      atomic mass, unified amu

    [cloud]                           r0_m and temperature_k required
    r0_m                  = 7.5e-4    Gaussian rms radius, m
    temperature_k         = 30e-6     temperature, K
    # exactly one of the next three:
    n0_m3                 = ...       peak density, m^-3
    target_od             = ...       resolve density from write-axis OD
    n_atoms_override      = ...       resolve density from an atom count

    [beams]                           all required
    w_write_m             = 60e-6     write waist, m
    w_signal_m            = 35e-6     signal waist, m (must equal w_idler_m)
    w_idler_m             = 35e-6     idler waist, m

    [run]                             all optional
    theta_deg             = 0.0       write/read axis tilt, degrees, |x| < 90
    tm_us                 = 0.0       storage time, microseconds
    seed                  = 1         base seed, unsigned 64-bit
    method                = paraxial  paraxial | angular, in any case
                                      (experiments.METHODS)
    mc_atoms              = ...       subsample size for the streaming
                                      estimator (paraxial only)
    grid_n_cap            = 256       angular grid: polar nodes in the cap
    grid_n_base           = 256       angular grid: polar nodes elsewhere
    grid_n_phi            = 256       angular grid: azimuth nodes
    grid_cap_mult         = 20.0      cap half-width in units of 1/(k_i w_i)
    raster_n              = 512       heatmap raster edge length

Interface units are degrees and microseconds; everything internal is SI.
Integer keys are read exactly, not through a float.  A `%` in a value is
literal text; `%(w_write_m)s` does not refer to another key.  Unknown
blocks or keys are rejected with the offending path named, so a typo cannot
silently fall back to a default.  Each key is declared once, as a
ConfigDocument field.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields
from decimal import Decimal, InvalidOperation

from .ensemble import (
    ATOMIC_MASS_UNIT,
    SpeciesConstants,
    most_probable_speed,
    optical_depth,
    thermal_velocity_sigma,
)
from .experiments import METHODS
from .retrieval import Scenario, make_scenario, wavenumbers


class ConfigError(ValueError):
    """A configuration document failed to parse or validate."""


def _as_float(raw: str, path: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{path}: {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: {raw!r} is not finite")
    return value


def _as_int(raw: str, path: str) -> int:
    """The exact integer `raw` spells; 4e6 is one, 1.5 is not.

    Read as a Decimal, not a float, so no integer beyond 2**53 is rounded.
    A value past the float range is not finite, as it is for a float key.
    """
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ConfigError(f"{path}: {raw!r} is not a number") from None
    if not (value.is_finite() and math.isfinite(float(value))):
        raise ConfigError(f"{path}: {raw!r} is not finite")
    if value != value.to_integral_value():
        raise ConfigError(f"{path}: {raw!r} is not an integer")
    return int(value)


def _as_method(raw: str, path: str) -> str:
    return raw.strip().lower()


def _checked(parse, ok, need: str):
    """A reader: `parse` the text, then require `ok(value)`, else say what it must be."""

    def read(raw: str, path: str):
        value = parse(raw, path)
        if not ok(value):
            raise ConfigError(f"{path}: must be {need}, got {value!r}")
        return value

    return read


def _at_least(least: int):
    return _checked(_as_int, lambda v: v >= least, f">= {least}")


_positive = _checked(_as_float, lambda v: v > 0.0, "> 0")
_fraction = _checked(_as_float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_tilt = _checked(_as_float, lambda v: abs(v) < 90.0, "in (-90, 90)")
_duration = _checked(_as_float, lambda v: v >= 0.0, ">= 0")
_u64 = _checked(_as_int, lambda v: 0 <= v < 2**64, "an unsigned 64-bit integer")
_method = _checked(_as_method, METHODS.__contains__, " | ".join(METHODS))
_REQUIRED = object()


def _key(block: str, read, default=_REQUIRED):
    """The field's INI key: same name, in [block], parsed and checked by `read`.

    `default` is the text read when the key is absent; None leaves the field
    None, and _REQUIRED makes the key required.
    """
    return field(metadata={"block": block, "read": read, "default": default})


@dataclass(frozen=True)
class ConfigDocument:
    """Parsed and defaulted configuration, prior to physics resolution.

    The fields are the INI grammar: each is the key of its name, and its
    `_key` metadata holds the key's block, reader and default.
    """

    wavelength_nm: float = _key("species", _positive, "795.0")
    delta_over_2pi_hz: float = _key("species", _as_float, "1.0e7")
    omega_sg_over_2pi_hz: float = _key("species", _as_float, "-6.8e9")
    sigma0_m2: float = _key("species", _positive, "1.082e-13")
    cg_sq: float = _key("species", _fraction, "1.0")
    mass_amu: float = _key("species", _positive, "87.0")
    r0_m: float = _key("cloud", _positive)
    temperature_k: float = _key("cloud", _positive)
    n0_m3: float | None = _key("cloud", _positive, None)
    target_od: float | None = _key("cloud", _positive, None)
    n_atoms_override: int | None = _key("cloud", _at_least(1), None)
    w_write_m: float = _key("beams", _positive)
    w_signal_m: float = _key("beams", _positive)
    w_idler_m: float = _key("beams", _positive)
    theta_deg: float = _key("run", _tilt, "0.0")
    tm_us: float = _key("run", _duration, "0.0")
    seed: int = _key("run", _u64, "1")
    method: str = _key("run", _method, "paraxial")
    mc_atoms: int | None = _key("run", _at_least(2), None)
    grid_n_cap: int = _key("run", _at_least(2), "256")
    grid_n_base: int = _key("run", _at_least(2), "256")
    grid_n_phi: int = _key("run", _at_least(2), "256")
    grid_cap_mult: float = _key("run", _positive, "20.0")
    raster_n: int = _key("run", _at_least(2), "512")


_KEYS = {key.name: key.metadata for key in fields(ConfigDocument)}


def _read_key(name: str, raw: str, path: str):
    """Field `name` read from the text `raw`; an error names `path`, an INI path or a flag."""
    return _KEYS[name]["read"](raw, path)


def parse_config_text(text: str) -> ConfigDocument:
    """Parse an INI document string into a ConfigDocument."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"INI parse failure: {exc}") from None
    known = {}
    for name, key in _KEYS.items():
        known.setdefault(key["block"], []).append(name)
    blocks = ", ".join(f"[{block}]" for block in known)
    if cp.defaults():
        raise ConfigError(f"[DEFAULT] block is not supported; put keys under {blocks}")
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown block [{section}]; expected one of {blocks}")
        for name in cp.options(section):
            if name not in known[section]:
                hint = ", ".join(known[section])
                raise ConfigError(f"[{section}] {name}: unknown key; known keys: {hint}")

    values = {}
    for name, key in _KEYS.items():
        block = key["block"]
        raw = cp.get(block, name, fallback=key["default"])
        if raw is _REQUIRED:
            if not cp.has_section(block):
                raise ConfigError(f"missing required block [{block}]")
            raise ConfigError(f"[{block}] {name}: missing required key")
        values[name] = None if raw is None else _read_key(name, raw, f"[{block}] {name}")

    density_given = [k for k in ("n0_m3", "target_od", "n_atoms_override") if values[k] is not None]
    if len(density_given) != 1:
        raise ConfigError(
            "[cloud]: exactly one of n0_m3 | target_od | n_atoms_override must be set "
            f"(found {density_given or 'none'})"
        )
    if values["w_signal_m"] != values["w_idler_m"]:
        raise ConfigError(
            "[beams]: w_signal_m and w_idler_m must be equal "
            "(one collection width-ratio convention)"
        )
    return ConfigDocument(**values)


def read_config(path: str) -> ConfigDocument:
    """Read and parse an INI configuration file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config_text(fh.read())


def species_from_config(doc: ConfigDocument) -> SpeciesConstants:
    return SpeciesConstants(
        transition_wavelength=doc.wavelength_nm * 1e-9,
        detuning_delta=2.0 * math.pi * doc.delta_over_2pi_hz,
        hyperfine_omega_sg=2.0 * math.pi * doc.omega_sg_over_2pi_hz,
        cross_section_sigma0=doc.sigma0_m2,
        cg_coefficient_sq=doc.cg_sq,
        atom_mass=doc.mass_amu * ATOMIC_MASS_UNIT,
    )


def build_scenario(doc: ConfigDocument) -> Scenario:
    """Resolve a ConfigDocument into a validated Scenario."""
    species = species_from_config(doc)
    try:
        return make_scenario(
            species,
            sigma_r0=doc.r0_m,
            temperature_t=doc.temperature_k,
            w_write=doc.w_write_m,
            w_signal=doc.w_signal_m,
            w_idler=doc.w_idler_m,
            skew_theta=math.radians(doc.theta_deg),
            storage_tm=doc.tm_us * 1e-6,
            seed=doc.seed,
            peak_density_n0=doc.n0_m3,
            target_od=doc.target_od,
            n_atoms_override=doc.n_atoms_override,
            mc_atoms=doc.mc_atoms,
        )
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"configuration does not resolve: {exc}") from None


def resolution_report(scenario: Scenario) -> dict:
    """Derived quantities of a resolved scenario, for display and metadata."""
    kn = wavenumbers(scenario.species)
    od = optical_depth(scenario.cloud, scenario.species, scenario.write_mode)
    return {
        "k_write_rad_m": kn.k_w,
        "k_signal_rad_m": kn.k_s,
        "k_read_rad_m": kn.k_r,
        "k_idler_rad_m": kn.k_i,
        "residual_mismatch_rad_m": kn.residual_mismatch,
        "velocity_sigma_m_s": thermal_velocity_sigma(scenario.cloud),
        "most_probable_speed_m_s": most_probable_speed(scenario.cloud),
        "peak_density_n0_m3": scenario.cloud.peak_density_n0,
        "n_atoms": scenario.n_atoms,
        "mc_atoms": scenario.mc_atoms,
        "optical_depth": od,
        "width_ratio": scenario.width_ratio,
        "rayleigh_write_m": scenario.write_mode.rayleigh_z,
        "rayleigh_signal_m": scenario.signal_mode.rayleigh_z,
        "rayleigh_idler_m": scenario.idler_mode.rayleigh_z,
        "skew_theta_deg": math.degrees(scenario.skew_theta),
        "storage_tm_us": scenario.storage_tm * 1e6,
        "seed": scenario.seed,
    }


def parse_and_validate(path: str):
    """One-call entry: INI file path to (document, scenario, report)."""
    doc = read_config(path)
    scenario = build_scenario(doc)
    return doc, scenario, resolution_report(scenario)
