"""Acceptance gate: one test per shipped-accuracy criterion.

Every test prints a single `ACCEPTANCE <id>: PASS|FAIL` verdict line with
the measured numbers (always visible in the -rA summary), then asserts.
The criteria pin the canonical operating point — an optical depth 24.7
cloud of r0 = 0.75 mm at 30 uK, write waist 60 um, collection waists
35 um — plus oracle cross-checks and determinism guarantees.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ire_sim import (
    SweepSpec,
    build_grid,
    density_for_od,
    eta_angular,
    eta_paraxial,
    make_scenario,
    most_probable_speed,
    optical_depth,
    run_sweep,
    sample_atoms,
    sphere_norm,
    angular_field,
    wavenumbers,
)
from ire_sim.cli import main as cli_main
from ire_sim.config import build_scenario, read_config
from ire_sim.retrieval import _cell_table

from conftest import CANONICAL_INI, SPECIES, TEMP, W_COLLECT, canonical_scenario, streamed_mask

# Subsample size of the survey points. Over seeds 1-12 its eta scatters
# with sd 0.023 at (0 deg, 0 us) and 0.030 at (2 deg, 100 us), absolute.
MC_SURVEY = 4_000_000


def verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def survey_etas():
    """Common-random-number survey over (tilt, storage time), seed 1."""
    points = {}
    for theta_deg, tm_us in (
        (0.0, 0.0),
        (0.0, 100.0),
        (2.0, 0.0),
        (2.0, 25.0),
        (2.0, 50.0),
        (2.0, 75.0),
        (2.0, 100.0),
        (2.0, 200.0),
    ):
        scn = canonical_scenario(
            skew_theta=math.radians(theta_deg),
            storage_tm=tm_us * 1e-6,
            seed=1,
            mc_atoms=MC_SURVEY,
        )
        points[(theta_deg, tm_us)] = eta_paraxial(scn).eta
    return points


@pytest.mark.slow
def test_criterion_01_headline_efficiency_full_ensemble():
    scn = canonical_scenario()
    t0 = time.monotonic()
    est = eta_paraxial(scn)
    wall = time.monotonic() - t0
    ok = 0.84 <= est.eta <= 0.96
    verdict(
        "1",
        ok,
        f"eta(theta=0, tm=0) = {est.eta:.4f} over the full N = {est.n_atoms} "
        f"ensemble, required 0.90 +- 0.06 (streamed in {wall:.0f} s)",
    )


def test_criterion_02a_tilted_efficiency_at_zero_storage(survey_etas):
    eta = survey_etas[(2.0, 0.0)]
    ok = 0.74 <= eta <= 0.86
    verdict(
        "2a",
        ok,
        f"eta(theta=2deg, tm=0) = {eta:.4f}, required 0.80 +- 0.06. "
        "In this model the value stays at the untilted level: for atoms at "
        "rest the tilted read drive re-cancels the tilted write phase in the "
        "backward emitted direction (the stored grating is read out exactly "
        "phase-matched), so a tilt alone costs nothing until motion during "
        "storage breaks the cancellation",
    )


def test_criterion_02b_tilted_efficiency_after_storage(survey_etas):
    eta = survey_etas[(2.0, 100.0)]
    ok = 0.43 <= eta <= 0.57
    verdict("2b", ok, f"eta(theta=2deg, tm=100us) = {eta:.4f}, required 0.50 +- 0.07")


def test_criterion_03_tilted_long_storage_floor(survey_etas):
    eta = survey_etas[(2.0, 200.0)]
    ok = eta <= 0.02
    verdict("3", ok, f"eta(theta=2deg, tm=200us) = {eta:.2e}, required <= 0.02")


def test_criterion_04_untilted_storage_insensitivity(survey_etas):
    delta = abs(survey_etas[(0.0, 100.0)] - survey_etas[(0.0, 0.0)])
    ok = delta <= 0.03
    verdict(
        "4",
        ok,
        f"|eta(theta=0, tm=100us) - eta(theta=0, tm=0)| = {delta:.4f}, "
        "required <= 0.03",
    )


def test_criterion_05_width_ratio_trend():
    base = canonical_scenario(seed=1, mc_atoms=MC_SURVEY)
    spec = SweepSpec(base, "width_ratio", (0.3, 0.58, 1.0, 1.3), replicates=5)
    rows = run_sweep(spec)
    assert all(row.error is None for row in rows)
    ok = True
    for a, b in zip(rows, rows[1:]):
        slack = 2.0 * math.hypot(a.eta_stderr, b.eta_stderr)
        if b.eta_mean > a.eta_mean + slack:
            ok = False
    means = ", ".join(f"{row.wr:.2f}: {row.eta_mean:.4f}" for row in rows)
    verdict(
        "5",
        ok,
        f"eta means over width ratio {{{means}}} non-increasing within "
        "2 stderr (5 replicates each)",
    )


def test_criterion_06_tilted_storage_time_budget(survey_etas):
    grid_us = (0.0, 25.0, 50.0, 75.0, 100.0)
    holding = [tm for tm in grid_us if survey_etas[(2.0, tm)] >= 0.80]
    largest = max(holding) if holding else None
    ok = largest in (25.0, 50.0, 75.0)
    etas = ", ".join(f"{tm:.0f}us: {survey_etas[(2.0, tm)]:.3f}" for tm in grid_us)
    verdict(
        "6",
        ok,
        f"largest tm with eta >= 0.80 at theta=2deg is {largest} us on "
        f"{{{etas}}}, required 50 us within one grid step",
    )


def test_criterion_07_estimator_equivalence_small_ensembles():
    kn = wavenumbers(SPECIES)
    grid = build_grid(kn.k_i, W_COLLECT, n_cap=128, n_base=96, n_phi=64)
    t0 = time.monotonic()
    worst = 0.0
    details = []
    for theta_deg in (0.0, 2.0):
        for tm_us in (0.0, 100.0, 200.0):
            scn = canonical_scenario(
                n_atoms_override=10_000,
                skew_theta=math.radians(theta_deg),
                storage_tm=tm_us * 1e-6,
                seed=1,
            )
            eta_p = eta_paraxial(scn).eta
            eta_a = eta_angular(scn, grid).eta
            rel = abs(eta_p - eta_a) / eta_a
            worst = max(worst, rel)
            details.append(f"({theta_deg:.0f}deg,{tm_us:.0f}us): {rel:.2e}")
    wall = time.monotonic() - t0
    ok = worst <= 0.05 and wall <= 60.0
    verdict(
        "7",
        ok,
        f"paraxial vs angular on 6 configs of 1e4 atoms: worst rel diff "
        f"{worst:.2e} (required <= 5e-2) in {wall:.0f} s (required <= 60 s); "
        + "; ".join(details),
    )


def test_criterion_08_single_atom_closed_form():
    kn = wavenumbers(SPECIES)
    expect = 2.0 / (kn.k_i * W_COLLECT) ** 2
    scn = make_scenario(
        SPECIES, 1e-9, 1e-12, 60e-6, W_COLLECT, W_COLLECT, n_atoms_override=1
    )
    eta_p = eta_paraxial(scn).eta
    eta_a = eta_angular(scn, build_grid(kn.k_i, W_COLLECT)).eta
    rel_p = abs(eta_p - expect) / expect
    rel_a = abs(eta_a - expect) / expect
    ok = rel_p <= 0.01 and rel_a <= 0.01
    verdict(
        "8",
        ok,
        f"single atom at focus: 2/(k W)^2 = {expect:.6e}, paraxial off by "
        f"{rel_p:.2e}, angular off by {rel_a:.2e}, required <= 1e-2 both",
    )


def test_criterion_09_emission_normalization():
    kn = wavenumbers(SPECIES)
    grid = build_grid(kn.k_i, W_COLLECT, n_cap=128, n_base=96, n_phi=64)
    scn = canonical_scenario(n_atoms_override=100_000, seed=1)
    field = angular_field(scn, grid)
    ratio = sphere_norm(field, grid) / field.source_s2
    ok = abs(ratio - 1.0) <= 0.05
    verdict(
        "9",
        ok,
        f"sphere norm / sum|A|^2 = {ratio:.4f} at N = 1e5, tm = 0, "
        "required 1 +- 0.05",
    )


def test_criterion_10_thread_count_determinism(tmp_path, capsys):
    eta_ini = tmp_path / "eta.ini"
    eta_ini.write_text(
        CANONICAL_INI.replace("target_od     = 24.7", "n_atoms_override = 3157977")
    )
    ang_ini = tmp_path / "ang.ini"
    ang_ini.write_text(
        CANONICAL_INI.replace("target_od     = 24.7", "n_atoms_override = 50000")
        + "grid_n_cap  = 64\ngrid_n_base = 48\ngrid_n_phi  = 32\nraster_n    = 96\n"
    )
    eta_bytes = []
    heat_bytes = []
    for threads in (1, 4, 16):
        out_e = tmp_path / f"eta_t{threads}"
        out_a = tmp_path / f"ang_t{threads}"
        assert cli_main(["eta", "--config", str(eta_ini), "--threads",
                         str(threads), "--out", str(out_e)]) == 0
        assert cli_main(["angular", "--config", str(ang_ini), "--threads",
                         str(threads), "--out", str(out_a)]) == 0
        eta_bytes.append((out_e / "eta.csv").read_bytes())
        heat_bytes.append(
            (out_a / "heatmap_sphere.csv").read_bytes()
            + (out_a / "heatmap_cap.csv").read_bytes()
        )
    capsys.readouterr()
    ok = (
        eta_bytes[0] == eta_bytes[1] == eta_bytes[2]
        and heat_bytes[0] == heat_bytes[1] == heat_bytes[2]
    )
    # what the eta run streamed: its scenario's cells and the atoms in them
    scn = build_scenario(read_config(str(eta_ini)))
    cells = _cell_table(scn)[0]
    streamed = int(streamed_mask(scn, scn.n_atoms).sum())
    verdict(
        "10",
        ok,
        f"eta.csv ({streamed:,} atoms streamed in {int(cells.sum())} cells of "
        f"{int(cells.any(axis=1).sum())} shells) and both heatmap "
        "rasters (50,000 atoms) byte-identical across thread counts 1, 4, 16",
    )


def test_criterion_11_thermal_statistics_and_od_round_trip():
    scn = canonical_scenario()
    v_p = most_probable_speed(scn.cloud)
    rel_formula = abs(v_p - 0.075) / 0.075

    # the whole 10^6-atom stream, a fair sample of the cloud (a prefix of a
    # longer stream holds its first cells only)
    sample = sample_atoms(scn.cloud, seed=5, chunk_index=0, chunk_size=1_000_000,
                          count=1_000_000)
    speeds = np.linalg.norm(sample.velocity, axis=1)
    counts, edges = np.histogram(speeds, bins=60, range=(0.0, 0.25))
    peak = int(np.argmax(counts))
    # parabolic (three-point) refinement of the histogram mode
    y0, y1, y2 = np.log(counts[peak - 1 : peak + 2].astype(float))
    shift = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    width = edges[1] - edges[0]
    v_mode = edges[peak] + width * (0.5 + shift)
    rel_sampled = abs(v_mode - 0.075) / 0.075

    n0 = density_for_od(24.7, scn.cloud, scn.species, scn.write_mode)
    od = optical_depth(replace(scn.cloud, peak_density_n0=n0), scn.species, scn.write_mode)
    rel_od = abs(od - 24.7) / 24.7

    ok = rel_formula <= 0.05 and rel_sampled <= 0.05 and rel_od <= 1e-4
    verdict(
        "11",
        ok,
        f"most probable speed {v_p * 100:.2f} cm/s (formula, off 7.5 cm/s by "
        f"{rel_formula:.1%}), sampled mode {v_mode * 100:.2f} cm/s at N = 1e6 "
        f"(off by {rel_sampled:.1%}, required <= 5%); OD round trip rel err "
        f"{rel_od:.1e} (required <= 1e-4)",
    )
