"""Retrieval-efficiency simulator for Gaussian-beam atomic-ensemble memories.

A stored collective excitation is read out and the emitted photon is
collected into a single-mode fiber; this package computes the intrinsic
efficiency of that readout over a thermal atom cloud, with a streaming
paraxial estimator for full-size ensembles and a full angular quadrature
as an independent cross-check. See README.md for the configuration grammar
and the command-line front end.
"""

from ._version import __version__
from .angular import (
    AngularField,
    AngularGrid,
    angular_field,
    build_grid,
    eta_angular,
    eta_reference,
    export_heatmap,
    fiber_mode,
    field_from_atoms,
    normalize_field,
    sphere_norm,
)
from .beams import (
    BeamGeometry,
    BeamMode,
    beam_geometry,
    skew_transform,
    transverse_amplitude,
)
from .config import (
    ConfigDocument,
    ConfigError,
    build_scenario,
    parse_and_validate,
    parse_config_text,
    read_config,
    resolution_report,
    species_from_config,
)
from .ensemble import (
    AtomSample,
    CloudSpec,
    SpeciesConstants,
    density_for_od,
    drift,
    most_probable_speed,
    optical_depth,
    sample_atoms,
    thermal_velocity_sigma,
)
from .experiments import (
    SweepRow,
    SweepSpec,
    aggregate,
    run_sweep,
    scenario_for_value,
    write_sweep_csv,
)
from .retrieval import (
    PRUNE_FLOOR,
    EtaEstimate,
    Scenario,
    Wavenumbers,
    coherent_lobe_power,
    draw_sample,
    eta_paraxial,
    idler_projection,
    make_scenario,
    resolve_threads,
    spinwave_amplitude,
    wavenumbers,
)

__all__ = [
    "__version__",
    "PRUNE_FLOOR",
    "AngularField",
    "AngularGrid",
    "AtomSample",
    "BeamGeometry",
    "BeamMode",
    "CloudSpec",
    "ConfigDocument",
    "ConfigError",
    "EtaEstimate",
    "Scenario",
    "SpeciesConstants",
    "SweepRow",
    "SweepSpec",
    "Wavenumbers",
    "aggregate",
    "angular_field",
    "beam_geometry",
    "build_grid",
    "build_scenario",
    "coherent_lobe_power",
    "density_for_od",
    "draw_sample",
    "drift",
    "eta_angular",
    "eta_paraxial",
    "eta_reference",
    "export_heatmap",
    "fiber_mode",
    "field_from_atoms",
    "make_scenario",
    "most_probable_speed",
    "normalize_field",
    "optical_depth",
    "parse_and_validate",
    "parse_config_text",
    "read_config",
    "resolution_report",
    "species_from_config",
    "run_sweep",
    "sample_atoms",
    "scenario_for_value",
    "skew_transform",
    "sphere_norm",
    "resolve_threads",
    "spinwave_amplitude",
    "idler_projection",
    "thermal_velocity_sigma",
    "transverse_amplitude",
    "wavenumbers",
    "write_sweep_csv",
]
