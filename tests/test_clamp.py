"""The subsample clamp is reported: EtaEstimate.clamped and eta_meta.txt.

A subsampled estimate sets a negative sampled off-diagonal pair mean to 0.
At a 2 degree tilt and 200 us storage the coherent sum has decayed into its
noise, so the sign of that mean depends on the seed: on this 2000-atom
subsample it is negative for seed 5 and positive for seed 1. The sign is
recomputed here from the public per-atom building blocks, over the m atoms
of the subsample in its strata (retrieval._in_region), and the estimate
rescales to the full ensemble's N_in atoms in those cells.
"""

import math
import re

import numpy as np
import pytest

from ire_sim import (SweepSpec, draw_sample, eta_paraxial, idler_projection, run_sweep,
                     spinwave_amplitude)
from ire_sim.cli import main as cli_main
from ire_sim.retrieval import _in_region

from conftest import CANONICAL_INI, canonical_scenario, read_meta, strata_mask

N_ATOMS = 20_000
MC_ATOMS = 2000


def decayed(seed, mc_atoms=MC_ATOMS):
    return canonical_scenario(n_atoms_override=N_ATOMS, mc_atoms=mc_atoms, seed=seed,
                              skew_theta=math.radians(2.0), storage_tm=200e-6)


def pair_means(scn):
    """(mean_offdiag, mean_diag, N_in) of x_j = A_j R_j P_j over the subsample's strata."""
    m, n_in, _ = _in_region(scn)
    sample = draw_sample(scn, scn.mc_atoms)  # cell order: the strata's atoms among them
    x = (spinwave_amplitude(sample, scn) * idler_projection(sample, scn))[
        strata_mask(scn, scn.mc_atoms)]
    assert len(x) == m
    sxx = float(np.sum(np.abs(x) ** 2))
    return (abs(x.sum()) ** 2 - sxx) / (m * (m - 1)), sxx / m, n_in


def test_clamp_fires_on_a_negative_offdiagonal_mean():
    scn = decayed(seed=5)
    offdiag, diag, n_in = pair_means(scn)
    assert offdiag < -1e-5 * diag  # decisively negative
    est = eta_paraxial(scn)
    assert est.clamped is True
    assert est.numerator == pytest.approx(n_in * diag, rel=1e-9)


def test_clamp_does_not_fire_on_a_positive_offdiagonal_mean():
    scn = decayed(seed=1)
    offdiag, diag, n_in = pair_means(scn)
    assert offdiag > 1e-5 * diag
    est = eta_paraxial(scn)
    assert est.clamped is False
    assert est.numerator == pytest.approx(n_in**2 * offdiag + n_in * diag, rel=1e-9)


def test_full_stream_is_never_clamped():
    assert eta_paraxial(decayed(seed=2, mc_atoms=None)).clamped is False


def test_eta_meta_records_the_clamp(tmp_path, capsys):
    ini = tmp_path / "decayed.ini"
    ini.write_text(
        CANONICAL_INI.replace("target_od     = 24.7", f"n_atoms_override = {N_ATOMS}")
        .replace("theta_deg = 0.0", "theta_deg = 2.0")
        .replace("tm_us     = 0.0", "tm_us     = 200.0")
    )
    for seed, expect in ((5, "True"), (1, "False")):
        out = tmp_path / f"seed{seed}"
        argv = ["eta", "--config", str(ini), "--seed", str(seed),
                "--mc-atoms", str(MC_ATOMS), "--out", str(out)]
        assert cli_main(argv) == 0
        meta = read_meta(out / "eta_meta.txt")
        assert meta["clamped"] == expect
    capsys.readouterr()


def test_a_subsample_with_one_atom_in_its_strata_is_refused():
    # Of seed 18's two-atom subsample of the canonical cloud, one atom lies in
    # the strata and is kept: the estimate has S2 > 0 but one pair-statistics
    # atom, and refuses; a sweep turns the refusal into each value's error row.
    scn = canonical_scenario(mc_atoms=2, seed=18)
    assert _in_region(scn)[0] == 1
    message = "the subsample holds 1 atom(s) in its strata; pair statistics need 2"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        eta_paraxial(scn)
    rows = run_sweep(SweepSpec(scn, "storage_time", (0.0, 100.0), replicates=1))
    assert [row.error for row in rows] == [f"ArithmeticError: {message}"] * 2
    assert all(row.etas == () and math.isnan(row.eta_mean) for row in rows)
