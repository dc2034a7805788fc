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
    method                = paraxial  paraxial | angular
    mc_atoms              = ...       subsample size for the streaming
                                      estimator (paraxial only)
    grid_n_cap            = 256       angular grid: polar nodes in the cap
    grid_n_base           = 256       angular grid: polar nodes elsewhere
    grid_n_phi            = 256       angular grid: azimuth nodes
    grid_cap_mult         = 20.0      cap half-width in units of 1/(k_i w_i)
    raster_n              = 512       heatmap raster edge length

Interface units are degrees and microseconds; everything internal is SI.
Unknown blocks or keys are rejected with the offending path named, so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .ensemble import (
    ATOMIC_MASS_UNIT,
    SpeciesConstants,
    most_probable_speed,
    optical_depth,
    thermal_velocity_sigma,
)
from .retrieval import Scenario, make_scenario, wavenumbers


class ConfigError(ValueError):
    """A configuration document failed to parse or validate."""


_SPECIES_DEFAULTS = {
    "wavelength_nm": "795.0",
    "delta_over_2pi_hz": "1.0e7",
    "omega_sg_over_2pi_hz": "-6.8e9",
    "sigma0_m2": "1.082e-13",
    "cg_sq": "1.0",
    "mass_amu": "87.0",
}
_RUN_DEFAULTS = {
    "theta_deg": "0.0",
    "tm_us": "0.0",
    "seed": "1",
    "method": "paraxial",
    "grid_n_cap": "256",
    "grid_n_base": "256",
    "grid_n_phi": "256",
    "grid_cap_mult": "20.0",
    "raster_n": "512",
}
_CLOUD_REQUIRED = ("r0_m", "temperature_k")
_CLOUD_DENSITY = ("n0_m3", "target_od", "n_atoms_override")
_BEAMS_REQUIRED = ("w_write_m", "w_signal_m", "w_idler_m")
_RUN_OPTIONAL_ONLY = ("mc_atoms",)

_KNOWN_KEYS = {
    "species": tuple(_SPECIES_DEFAULTS),
    "cloud": _CLOUD_REQUIRED + _CLOUD_DENSITY,
    "beams": _BEAMS_REQUIRED,
    "run": tuple(_RUN_DEFAULTS) + _RUN_OPTIONAL_ONLY,
}


@dataclass(frozen=True)
class ConfigDocument:
    """Parsed and defaulted configuration, prior to physics resolution."""

    wavelength_nm: float
    delta_over_2pi_hz: float
    omega_sg_over_2pi_hz: float
    sigma0_m2: float
    cg_sq: float
    mass_amu: float
    r0_m: float
    temperature_k: float
    n0_m3: float | None
    target_od: float | None
    n_atoms_override: int | None
    w_write_m: float
    w_signal_m: float
    w_idler_m: float
    theta_deg: float
    tm_us: float
    seed: int
    method: str
    mc_atoms: int | None
    grid_n_cap: int
    grid_n_base: int
    grid_n_phi: int
    grid_cap_mult: float
    raster_n: int


def _as_float(raw: str, path: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{path}: {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: {raw!r} is not finite")
    return value


def _as_int(raw: str, path: str) -> int:
    value = _as_float(raw, path)
    if value != int(value):
        raise ConfigError(f"{path}: {raw!r} is not an integer")
    return int(value)


def _require_positive(value: float, path: str) -> float:
    if value <= 0.0:
        raise ConfigError(f"{path}: must be > 0, got {value!r}")
    return value


def parse_config_text(text: str) -> ConfigDocument:
    """Parse an INI document string into a ConfigDocument."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"INI parse failure: {exc}") from None
    if cp.defaults():
        raise ConfigError(
            "[DEFAULT] block is not supported; put keys under "
            "[species], [cloud], [beams], or [run]"
        )
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(
                f"unknown block [{section}]; expected one of "
                "[species], [cloud], [beams], [run]"
            )
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                hint = ", ".join(_KNOWN_KEYS[section])
                raise ConfigError(f"[{section}] {key}: unknown key; known keys: {hint}")
    for required in ("cloud", "beams"):
        if not cp.has_section(required):
            raise ConfigError(f"missing required block [{required}]")

    def get(section: str, key: str, defaults: dict | None = None) -> str | None:
        if cp.has_section(section) and cp.has_option(section, key):
            return cp.get(section, key)
        if defaults is not None and key in defaults:
            return defaults[key]
        return None

    sp = {k: _as_float(get("species", k, _SPECIES_DEFAULTS), f"[species] {k}")
          for k in _SPECIES_DEFAULTS}

    cloud_vals = {}
    for key in _CLOUD_REQUIRED:
        raw = get("cloud", key)
        if raw is None:
            raise ConfigError(f"[cloud] {key}: missing required key")
        cloud_vals[key] = _require_positive(_as_float(raw, f"[cloud] {key}"), f"[cloud] {key}")
    density_given = [k for k in _CLOUD_DENSITY if get("cloud", k) is not None]
    if len(density_given) != 1:
        raise ConfigError(
            "[cloud]: exactly one of n0_m3 | target_od | n_atoms_override must be set "
            f"(found {density_given or 'none'})"
        )
    n0 = target_od = None
    n_override = None
    key = density_given[0]
    raw = get("cloud", key)
    if key == "n0_m3":
        n0 = _require_positive(_as_float(raw, "[cloud] n0_m3"), "[cloud] n0_m3")
    elif key == "target_od":
        target_od = _require_positive(_as_float(raw, "[cloud] target_od"), "[cloud] target_od")
    else:
        n_override = _as_int(raw, "[cloud] n_atoms_override")
        if n_override < 1:
            raise ConfigError("[cloud] n_atoms_override: must be >= 1")

    beams = {}
    for key in _BEAMS_REQUIRED:
        raw = get("beams", key)
        if raw is None:
            raise ConfigError(f"[beams] {key}: missing required key")
        beams[key] = _require_positive(_as_float(raw, f"[beams] {key}"), f"[beams] {key}")
    if beams["w_signal_m"] != beams["w_idler_m"]:
        raise ConfigError(
            "[beams]: w_signal_m and w_idler_m must be equal "
            "(one collection width-ratio convention)"
        )

    theta_deg = _as_float(get("run", "theta_deg", _RUN_DEFAULTS), "[run] theta_deg")
    if not abs(theta_deg) < 90.0:
        raise ConfigError(f"[run] theta_deg: need |theta_deg| < 90, got {theta_deg!r}")
    tm_us = _as_float(get("run", "tm_us", _RUN_DEFAULTS), "[run] tm_us")
    if tm_us < 0.0:
        raise ConfigError(f"[run] tm_us: must be >= 0, got {tm_us!r}")
    seed = _as_int(get("run", "seed", _RUN_DEFAULTS), "[run] seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("[run] seed: must fit in an unsigned 64-bit integer")
    method = get("run", "method", _RUN_DEFAULTS).strip().lower()
    if method not in ("paraxial", "angular"):
        raise ConfigError(f"[run] method: expected paraxial or angular, got {method!r}")
    raw_mc = get("run", "mc_atoms")
    mc_atoms = None if raw_mc is None else _as_int(raw_mc, "[run] mc_atoms")
    if mc_atoms is not None and mc_atoms < 2:
        raise ConfigError("[run] mc_atoms: must be >= 2")
    grid_ints = {
        k: _as_int(get("run", k, _RUN_DEFAULTS), f"[run] {k}")
        for k in ("grid_n_cap", "grid_n_base", "grid_n_phi", "raster_n")
    }
    for k, v in grid_ints.items():
        if v < 2:
            raise ConfigError(f"[run] {k}: must be >= 2, got {v}")
    cap_mult = _require_positive(
        _as_float(get("run", "grid_cap_mult", _RUN_DEFAULTS), "[run] grid_cap_mult"),
        "[run] grid_cap_mult",
    )

    if sp["cg_sq"] <= 0.0 or sp["cg_sq"] > 1.0:
        raise ConfigError(f"[species] cg_sq: must be in (0, 1], got {sp['cg_sq']!r}")
    for k in ("wavelength_nm", "sigma0_m2", "mass_amu"):
        _require_positive(sp[k], f"[species] {k}")

    return ConfigDocument(
        wavelength_nm=sp["wavelength_nm"],
        delta_over_2pi_hz=sp["delta_over_2pi_hz"],
        omega_sg_over_2pi_hz=sp["omega_sg_over_2pi_hz"],
        sigma0_m2=sp["sigma0_m2"],
        cg_sq=sp["cg_sq"],
        mass_amu=sp["mass_amu"],
        r0_m=cloud_vals["r0_m"],
        temperature_k=cloud_vals["temperature_k"],
        n0_m3=n0,
        target_od=target_od,
        n_atoms_override=n_override,
        w_write_m=beams["w_write_m"],
        w_signal_m=beams["w_signal_m"],
        w_idler_m=beams["w_idler_m"],
        theta_deg=theta_deg,
        tm_us=tm_us,
        seed=seed,
        method=method,
        mc_atoms=mc_atoms,
        grid_n_cap=grid_ints["grid_n_cap"],
        grid_n_base=grid_ints["grid_n_base"],
        grid_n_phi=grid_ints["grid_n_phi"],
        grid_cap_mult=cap_mult,
        raster_n=grid_ints["raster_n"],
    )


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
