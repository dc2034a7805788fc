"""The skip of atoms with negligible stored amplitude, and its recorded bound.

Both estimators skip atom j when |A_j| <= PRUNE_FLOOR and record n_kept
and D = sum of the skipped |A_j|. The bounds checked here are the ones
EtaEstimate and AngularField state: |dS1| <= c_P D,
|dS2| <= PRUNE_FLOOR D and |dF| <= D / sqrt(4 pi) at every node.
"""

import math

import numpy as np
import pytest

from ire_sim import (
    PRUNE_FLOOR,
    AtomSample,
    angular_field,
    build_grid,
    draw_sample,
    eta_angular,
    eta_paraxial,
    field_from_atoms,
    idler_projection,
    make_scenario,
    spinwave_amplitude,
    wavenumbers,
)
from ire_sim.cli import main as cli_main
from ire_sim.retrieval import CHUNK_ATOMS, _prune

from conftest import (
    CANONICAL_INI,
    SPECIES,
    W_COLLECT,
    W_WRITE,
    canonical_scenario,
    largest_streamed_shell,
    read_meta,
)

KN = wavenumbers(SPECIES)
C_P = math.sqrt(2.0) / (KN.k_i * W_COLLECT)
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def tiny_grid():
    return build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)


def test_pruned_stream_within_recorded_bounds(tiny_grid):
    scn = canonical_scenario(
        n_atoms_override=10_000, skew_theta=math.radians(2.0), storage_tm=100e-6, seed=1
    )
    n = scn.n_atoms
    sample = draw_sample(scn)
    a = spinwave_amplitude(sample, scn)
    p = idler_projection(sample, scn)
    keep, _ = _prune(sample.r_initial, scn)
    sum_abs_a = float(np.sum(np.abs(a)))
    d_expect = float(np.sum(np.abs(a[~keep])))

    # paraxial: the estimate against the per-atom sums over every atom
    est = eta_paraxial(scn)
    assert est.n_atoms == n
    assert est.n_kept == int(keep.sum())
    assert 0 < est.n_kept < n // 10
    # D bounds the dropped atoms' sum: each atom screened before _prune
    # counts its bound, at most PRUNE_FLOOR
    assert d_expect <= est.dropped_amplitude <= d_expect + (n - est.n_kept) * PRUNE_FLOOR
    assert est.dropped_amplitude <= 1e-15 * sum_abs_a
    d = est.dropped_amplitude

    x = a * p
    s1, s2 = complex(np.sum(x)), float(np.sum(np.abs(a) ** 2))
    k1, k2 = complex(np.sum(x[keep])), float(np.sum(np.abs(a[keep]) ** 2))
    # Each pairwise sum of n <= 2^14 terms rounds by at most about
    # (log2 n + 16) eps times the sum of the terms' magnitudes; the bound
    # itself lies below that resolution, so the comparison allows both.
    rounding_s1 = 64.0 * EPS * float(np.sum(np.abs(x)))
    rounding_s2 = 64.0 * EPS * float(np.sum(np.abs(a) ** 2))
    assert abs(s1 - k1) <= C_P * d + rounding_s1
    assert abs(s2 - k2) <= PRUNE_FLOOR * d + rounding_s2
    assert est.numerator == pytest.approx(abs(k1) ** 2, rel=1e-12)

    # The skipped atoms' own sums meet the bounds with no rounding allowance.
    assert abs(complex(np.sum(x[~keep]))) <= C_P * d * (1.0 + 1e-9)
    assert float(np.sum(np.abs(a[~keep]) ** 2)) <= PRUNE_FLOOR * d * (1.0 + 1e-9)

    # angular: the streamed field against the unpruned oracle
    streamed = angular_field(scn, tiny_grid)
    assert streamed.n_kept == est.n_kept
    assert streamed.dropped_amplitude == pytest.approx(d, rel=1e-12, abs=0.0)
    full = field_from_atoms(a, sample.r_drifted, scn.skew_theta, KN.k_r, KN.k_i, tiny_grid)
    # recursive summation over the atoms: at most n eps sum|A| / sqrt(4 pi)
    rounding_f = 2.0 * n * EPS * sum_abs_a / math.sqrt(4.0 * math.pi)
    bound_f = d / math.sqrt(4.0 * math.pi)
    assert np.max(np.abs(full.values - streamed.values)) <= bound_f + rounding_f
    assert abs(full.source_s2 - streamed.source_s2) <= PRUNE_FLOOR * d + rounding_s2
    skipped = field_from_atoms(
        a[~keep], sample.r_drifted[~keep], scn.skew_theta, KN.k_r, KN.k_i, tiny_grid
    )
    assert np.max(np.abs(skipped.values)) <= bound_f * (1.0 + 1e-9)


def test_single_atom_at_focus_is_kept(tiny_grid):
    scn = make_scenario(
        SPECIES, 1e-9, 1e-12, W_WRITE, W_COLLECT, W_COLLECT, n_atoms_override=1
    )
    for est in (eta_paraxial(scn), eta_angular(scn, tiny_grid)):
        assert est.n_kept == 1
        assert est.dropped_amplitude == 0.0


def test_far_off_axis_atom_is_dropped_and_counted():
    scn = canonical_scenario(n_atoms_override=4)
    # on the focal plane ln|A| = -x^2 (1/W_w^2 + 1/W_s^2)
    x_floor = math.sqrt(-math.log(PRUNE_FLOOR) / (W_WRITE**-2 + W_COLLECT**-2))
    r = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.999 * x_floor, 0.0, 0.0],
            [1.001 * x_floor, 0.0, 0.0],
            [0.0, 300e-6, 0.0],
        ]
    )
    keep, dropped = _prune(r, scn)
    assert keep.tolist() == [True, True, False, False]
    a = spinwave_amplitude(AtomSample(r_initial=r, velocity=np.zeros_like(r)), scn)
    assert np.abs(a[0]) == pytest.approx(1.0, rel=1e-15)
    assert np.abs(a[1]) > PRUNE_FLOOR > np.abs(a[2])
    assert dropped == pytest.approx(float(np.abs(a[2]) + np.abs(a[3])), rel=1e-12, abs=0.0)
    assert dropped <= 2.0 * PRUNE_FLOOR


def test_all_atoms_below_the_floor_is_an_arithmetic_error(tiny_grid):
    # A single atom of a 0.75 mm cloud sits far outside the beams on most
    # seeds; one whose amplitude falls below the floor leaves nothing to
    # normalize by, and either estimate says so instead of returning 0/0.
    for seed in range(1, 50):
        scn = canonical_scenario(n_atoms_override=1, seed=seed)
        keep, _ = _prune(draw_sample(scn).r_initial, scn)
        if not keep[0]:
            break
    else:
        pytest.fail("no seed in 1..49 put the atom below the floor")
    with pytest.raises(ArithmeticError, match="PRUNE_FLOOR"):
        eta_paraxial(scn)
    with pytest.raises(ArithmeticError, match="PRUNE_FLOOR"):
        eta_angular(scn, tiny_grid)


def test_kept_count_and_dropped_amplitude_ignore_thread_count(small_blocks, small_chunks):
    # chunks smaller than a shell, so the threads split shells between them
    n = 2 * CHUNK_ATOMS + 12345
    scn = canonical_scenario(mc_atoms=n, seed=2)
    assert largest_streamed_shell(scn) >= 2 * small_chunks(1 << 14)
    one = eta_paraxial(scn, threads=1)
    two = eta_paraxial(scn, threads=2)
    assert one.n_kept == two.n_kept
    assert one.dropped_amplitude == two.dropped_amplitude
    assert one.n_atoms == scn.n_atoms  # the ensemble, not the streamed count

    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)
    scn = canonical_scenario(n_atoms_override=33_468, seed=6)
    assert largest_streamed_shell(scn) >= 2 * small_chunks(small_blocks(1 << 7))
    f1 = angular_field(scn, grid, threads=1)
    f3 = angular_field(scn, grid, threads=3)
    assert f1.n_kept == f3.n_kept
    assert f1.dropped_amplitude == f3.dropped_amplitude
    # and the chunked counts equal the one-shot decision over every atom
    keep, dropped = _prune(draw_sample(scn).r_initial, scn)
    assert f1.n_kept == int(keep.sum())
    assert dropped <= f1.dropped_amplitude <= dropped + (scn.n_atoms - f1.n_kept) * PRUNE_FLOOR


def test_run_metadata_records_the_skip(tmp_path, capsys):
    ini = tmp_path / "small.ini"
    ini.write_text(
        CANONICAL_INI.replace("target_od     = 24.7", "n_atoms_override = 3000")
        + "grid_n_cap  = 48\ngrid_n_base = 32\ngrid_n_phi  = 24\nraster_n    = 16\n"
    )
    assert cli_main(["eta", "--config", str(ini), "--out", str(tmp_path / "e")]) == 0
    assert cli_main(["angular", "--config", str(ini), "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    for path in (tmp_path / "e" / "eta_meta.txt", tmp_path / "a" / "heatmap_meta.txt"):
        meta = read_meta(path)
        assert float(meta["prune_floor"]) == PRUNE_FLOOR
        assert 0 < int(meta["n_kept"]) < 3000
        assert 0.0 < float(meta["dropped_amplitude"]) < 1e-15
    header = (tmp_path / "e" / "eta.csv").read_text().splitlines()[0]
    assert header == "od,wr,theta_deg,tm_us,n_atoms,method,seed,eta,numerator,denominator"
