import math

import pytest

from ire_sim import (
    ConfigError,
    build_scenario,
    parse_and_validate,
    parse_config_text,
    read_config,
    resolution_report,
    species_from_config,
)

from conftest import CANONICAL_INI

MINIMAL_INI = """\
[cloud]
r0_m          = 7.5e-4
temperature_k = 30e-6
n0_m3         = 1e17

[beams]
w_write_m  = 60e-6
w_signal_m = 35e-6
w_idler_m  = 35e-6
"""


def patched(ini, old, new):
    assert old in ini
    return ini.replace(old, new)


def test_canonical_document_fields():
    doc = parse_config_text(CANONICAL_INI)
    assert doc.wavelength_nm == 795.0
    assert doc.omega_sg_over_2pi_hz == -6.8e9
    assert doc.target_od == 24.7
    assert doc.n0_m3 is None and doc.n_atoms_override is None
    assert doc.w_write_m == 60e-6
    assert doc.method == "paraxial"
    assert doc.seed == 1
    # run-block defaults fill the grid and raster knobs
    assert (doc.grid_n_cap, doc.grid_n_base, doc.grid_n_phi) == (256, 256, 256)
    assert doc.grid_cap_mult == 20.0
    assert doc.raster_n == 512
    assert doc.mc_atoms is None


def test_minimal_document_uses_species_and_run_defaults():
    doc = parse_config_text(MINIMAL_INI)
    assert doc.wavelength_nm == 795.0
    assert doc.delta_over_2pi_hz == 1.0e7
    assert doc.mass_amu == 87.0
    assert doc.cg_sq == 1.0
    assert doc.theta_deg == 0.0 and doc.tm_us == 0.0
    assert doc.seed == 1 and doc.method == "paraxial"
    species = species_from_config(doc)
    assert species.transition_wavelength == pytest.approx(795e-9, rel=1e-15)
    assert species.hyperfine_omega_sg == pytest.approx(
        -2.0 * math.pi * 6.8e9, rel=1e-15
    )


def test_canonical_resolution_report():
    scenario = build_scenario(parse_config_text(CANONICAL_INI))
    report = resolution_report(scenario)
    assert scenario.n_atoms == 808106001
    assert report["n_atoms"] == 808106001
    assert report["peak_density_n0_m3"] == pytest.approx(1.2162272760471526e17, rel=1e-12)
    assert report["k_idler_rad_m"] == pytest.approx(7903377.744879983, rel=1e-12)
    assert report["residual_mismatch_rad_m"] == pytest.approx(
        -285.03492298629135, rel=1e-9
    )
    assert report["velocity_sigma_m_s"] == pytest.approx(0.053544897760814225, rel=1e-12)
    assert report["most_probable_speed_m_s"] == pytest.approx(
        0.07572392060922425, rel=1e-12
    )
    assert report["optical_depth"] == pytest.approx(24.7, rel=1e-9)
    assert report["width_ratio"] == pytest.approx(35.0 / 60.0, rel=1e-15)
    assert report["skew_theta_deg"] == 0.0
    assert report["seed"] == 1


def test_scenario_resolution_paths():
    scn = build_scenario(parse_config_text(MINIMAL_INI))
    assert scn.cloud.peak_density_n0 == 1e17
    override = patched(MINIMAL_INI, "n0_m3         = 1e17", "n_atoms_override = 5000")
    scn2 = build_scenario(parse_config_text(override))
    assert scn2.n_atoms == 5000


def test_density_knob_exclusivity():
    both = MINIMAL_INI + "target_od = 10\n"  # appends into [beams]... invalid key
    with pytest.raises(ConfigError):
        parse_config_text(both)
    both2 = patched(
        MINIMAL_INI, "n0_m3         = 1e17", "n0_m3 = 1e17\ntarget_od = 10"
    )
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_text(both2)
    none_given = patched(MINIMAL_INI, "n0_m3         = 1e17", "")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_text(none_given)


def test_unknown_keys_and_blocks_are_rejected_with_hints():
    with pytest.raises(ConfigError, match=r"\[cloud\] r0_mm: unknown key"):
        parse_config_text(patched(MINIMAL_INI, "r0_m ", "r0_mm "))
    with pytest.raises(ConfigError, match="known keys"):
        parse_config_text(patched(MINIMAL_INI, "r0_m ", "r0_mm "))
    with pytest.raises(ConfigError, match=r"unknown block \[beam\]"):
        parse_config_text(patched(MINIMAL_INI, "[beams]", "[beam]"))
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        parse_config_text("[DEFAULT]\nseed = 2\n" + MINIMAL_INI)


def test_missing_required_pieces():
    with pytest.raises(ConfigError, match=r"missing required block \[beams\]"):
        parse_config_text(MINIMAL_INI.split("[beams]")[0])
    with pytest.raises(ConfigError, match=r"\[cloud\] temperature_k: missing"):
        parse_config_text(patched(MINIMAL_INI, "temperature_k = 30e-6\n", ""))
    with pytest.raises(ConfigError, match=r"\[beams\] w_idler_m: missing"):
        parse_config_text(patched(MINIMAL_INI, "w_idler_m  = 35e-6\n", ""))


def test_value_validation():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config_text(patched(MINIMAL_INI, "30e-6", "cold"))
    with pytest.raises(ConfigError, match="must be > 0"):
        parse_config_text(patched(MINIMAL_INI, "r0_m          = 7.5e-4", "r0_m = -1"))
    with pytest.raises(ConfigError, match="w_signal_m and w_idler_m"):
        parse_config_text(patched(MINIMAL_INI, "w_idler_m  = 35e-6", "w_idler_m = 36e-6"))

    def with_run(key_val):
        return MINIMAL_INI + "\n[run]\n" + key_val + "\n"

    with pytest.raises(ConfigError, match="theta_deg"):
        parse_config_text(with_run("theta_deg = 90"))
    with pytest.raises(ConfigError, match="tm_us"):
        parse_config_text(with_run("tm_us = -1"))
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text(with_run("seed = -3"))
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text(with_run(f"seed = {2**64}"))
    with pytest.raises(ConfigError, match="not an integer"):
        parse_config_text(with_run("seed = 1.5"))
    with pytest.raises(ConfigError, match="method"):
        parse_config_text(with_run("method = exact"))
    with pytest.raises(ConfigError, match="mc_atoms"):
        parse_config_text(with_run("mc_atoms = 1"))
    with pytest.raises(ConfigError, match="grid_n_phi"):
        parse_config_text(with_run("grid_n_phi = 1"))
    with pytest.raises(ConfigError, match="grid_cap_mult"):
        parse_config_text(with_run("grid_cap_mult = 0"))
    with pytest.raises(ConfigError, match="cg_sq"):
        parse_config_text("[species]\ncg_sq = 1.5\n" + MINIMAL_INI)
    # method is case-insensitive
    assert parse_config_text(with_run("method = ANGULAR")).method == "angular"


def test_run_overrides_are_honored():
    ini = MINIMAL_INI + (
        "\n[run]\ntheta_deg = 2.0\ntm_us = 100\nseed = 9\nmethod = angular\n"
        "grid_n_cap = 128\ngrid_n_base = 96\ngrid_n_phi = 64\n"
        "grid_cap_mult = 12\nraster_n = 128\nmc_atoms = 1000\n"
    )
    doc = parse_config_text(ini)
    assert doc.theta_deg == 2.0 and doc.tm_us == 100.0 and doc.seed == 9
    assert doc.method == "angular"
    assert (doc.grid_n_cap, doc.grid_n_base, doc.grid_n_phi) == (128, 96, 64)
    assert doc.grid_cap_mult == 12.0 and doc.raster_n == 128
    assert doc.mc_atoms == 1000
    scn = build_scenario(doc)
    assert scn.skew_theta == pytest.approx(math.radians(2.0), rel=1e-15)
    assert scn.storage_tm == pytest.approx(100e-6, rel=1e-15)
    assert scn.mc_atoms == 1000


def test_unresolvable_configuration_wraps_into_config_error():
    # mc_atoms larger than the resolved atom count fails at scenario build
    ini = patched(MINIMAL_INI, "n0_m3         = 1e17", "n_atoms_override = 10")
    ini += "\n[run]\nmc_atoms = 100\n"
    with pytest.raises(ConfigError, match="does not resolve"):
        build_scenario(parse_config_text(ini))


def test_read_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        read_config(str(tmp_path / "nope.ini"))


def test_parse_and_validate_from_file(canonical_ini_file):
    doc, scenario, report = parse_and_validate(canonical_ini_file)
    assert doc.target_od == 24.7
    assert scenario.n_atoms == 808106001
    assert report["optical_depth"] == pytest.approx(24.7, rel=1e-9)


def test_garbled_ini_reports_parse_failure():
    with pytest.raises(ConfigError, match="INI parse failure"):
        parse_config_text("cloud]\nr0_m 7.5e-4\n")
