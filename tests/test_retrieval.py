import functools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ire_sim import (
    AtomSample,
    BeamMode,
    coherent_lobe_power,
    draw_sample,
    eta_paraxial,
    idler_projection,
    make_scenario,
    sample_atoms,
    spinwave_amplitude,
    transverse_amplitude,
    wavenumbers,
)
from ire_sim import retrieval
from ire_sim.cli import main as cli_main
from ire_sim.ensemble import _GAUSS_VOLUME, ATOMIC_MASS_UNIT, cell_counts
from ire_sim.retrieval import (
    BLOCK_ATOMS,
    CHUNK_ATOMS,
    _add,
    _eta_worker,
    _in_region,
    _paraxial_sums,
    _prune,
    _cell_table,
)

from conftest import (
    R0,
    SPECIES,
    TEMP,
    W_COLLECT,
    W_WRITE,
    canonical_scenario,
    largest_streamed_shell,
    strata_mask,
    streamed_mask,
)

# Wavenumbers for the test species, frozen from a direct evaluation of
# omega/c with c = 299792458 m/s (residual = 2 omega_sg / c).
K_W = 7903377.535295481
K_S = 7903520.0527569745
K_R = 7903520.262341476
K_I = 7903377.744879983
RESIDUAL = -285.03492298629135

# Peak density resolving the canonical cloud to optical depth 24.7, frozen
# from an independent bisection against adaptive-quadrature optical depth.
N0_OD_24P7 = 1.2162272760471526e17
N_ATOMS_OD_24P7 = 808106001

# A chunk size below the atoms of a streamed shell, so the thread-count
# tests cross chunk boundaries inside shells.
SMALL_CHUNK = 1 << 14

# Exact fiber-projection amplitudes P(rho, z) for the canonical collection
# mode, from numerical evaluation of the mode-overlap diffraction integral
# (Bessel J0 radial quadrature). The paraxial formula reproduces these to
# ~2e-5 relative at 35 um waist.
PROJECTION_POINTS = (
    (0.0, 0.0, 0.005112610740424191, 0.0),
    (2e-05, 0.0, 0.0036883198670702453, 0.0),
    (0.0, 0.003, -0.0043446808125941865, 9.272733511568003e-05),
    (1.5e-05, -0.004, -0.002094633935683482, -0.0028458430887506724),
    (3e-05, 0.002, -0.000746609259943356, -0.0024096826933321944),
    (4e-05, 0.006, 0.0013179546324165673, 0.0013936881232293424),
)

# Phase-matched lobe powers for the canonical cloud (regression values from
# this quadrature; the untilted one agrees with an independent axisymmetric
# Bessel-transform evaluation, frozen below, to 4e-5 relative).
LOBE_0DEG_0US = 3480951.0588984517
LOBE_0DEG_0US_INDEPENDENT = 3481085.819397157
LOBE_2DEG_0US = 2708405.5811804966
LOBE_2DEG_100US = 347638.7711967298


def test_wavenumbers_frozen():
    kn = wavenumbers(SPECIES)
    assert kn.k_w == pytest.approx(K_W, rel=1e-12)
    assert kn.k_s == pytest.approx(K_S, rel=1e-12)
    assert kn.k_r == pytest.approx(K_R, rel=1e-12)
    assert kn.k_i == pytest.approx(K_I, rel=1e-12)
    assert kn.residual_mismatch == pytest.approx(RESIDUAL, rel=1e-9)
    # ordering: signal/read sit above write/idler by the 6.8 GHz splitting
    assert kn.k_s > kn.k_w
    assert kn.k_r > kn.k_i
    # the idler carries the full transition frequency: k_i = omega_eg / c
    assert kn.k_i == pytest.approx(
        2.0 * math.pi / SPECIES.transition_wavelength, rel=1e-12
    )


def test_make_scenario_density_resolution():
    scn = canonical_scenario()
    assert scn.cloud.peak_density_n0 == pytest.approx(N0_OD_24P7, rel=1e-12)
    assert scn.n_atoms == N_ATOMS_OD_24P7
    assert scn.width_ratio == pytest.approx(35.0 / 60.0, rel=1e-12)


def test_make_scenario_override_paths():
    by_n0 = canonical_scenario(peak_density_n0=1e17)
    assert by_n0.cloud.peak_density_n0 == 1e17
    assert by_n0.n_atoms == by_n0.cloud.atom_count

    by_count = canonical_scenario(n_atoms_override=12345)
    assert by_count.n_atoms == 12345
    assert by_count.cloud.peak_density_n0 == pytest.approx(
        12345 / (_GAUSS_VOLUME * R0**3), rel=1e-12
    )


def test_make_scenario_requires_exactly_one_density_knob():
    with pytest.raises(ValueError):
        canonical_scenario(peak_density_n0=1e17, n_atoms_override=100)
    with pytest.raises(ValueError):
        make_scenario(SPECIES, R0, TEMP, 60e-6, 35e-6, 35e-6)


def test_scenario_validation():
    with pytest.raises(ValueError):
        canonical_scenario(skew_theta=math.pi / 2)
    with pytest.raises(ValueError):
        canonical_scenario(storage_tm=-1e-6)
    with pytest.raises(ValueError):
        canonical_scenario(seed=-1)
    with pytest.raises(ValueError):
        make_scenario(SPECIES, R0, TEMP, 60e-6, 35e-6, 36e-6, target_od=24.7)
    with pytest.raises(ValueError):
        canonical_scenario(n_atoms_override=100, mc_atoms=1)
    with pytest.raises(ValueError):
        canonical_scenario(n_atoms_override=100, mc_atoms=101)
    # mc_atoms == n_atoms is allowed (degenerates to the exact stream)
    canonical_scenario(n_atoms_override=100, mc_atoms=100)


def test_modes_follow_the_species():
    # The modes are built from the species, so swapping it moves every
    # wavenumber with it, and the estimate equals that of a scenario built
    # for the new species from the start.
    scn = canonical_scenario(n_atoms_override=20_000)
    other = replace(SPECIES, transition_wavelength=1064e-9)
    moved = replace(scn, species=other)
    kn = wavenumbers(other)
    assert moved.write_mode.wavenumber_k == kn.k_w
    assert moved.signal_mode.wavenumber_k == kn.k_s
    assert moved.idler_mode.wavenumber_k == kn.k_i
    fresh = make_scenario(other, R0, TEMP, W_WRITE, W_COLLECT, W_COLLECT,
                          n_atoms_override=20_000)
    assert eta_paraxial(moved, threads=1) == eta_paraxial(fresh, threads=1)
    # a waist with k w0 < 50 still fails when the scenario is built
    with pytest.raises(ValueError):
        replace(scn, w_write=1e-7)


def test_species_swap_must_carry_the_cloud_mass():
    # The cloud's mass sets sigma_v; a species of another mass swapped in
    # alone would leave the thermal motion of the old one behind.
    scn = canonical_scenario(n_atoms_override=20_000)
    heavy = replace(SPECIES, atom_mass=133.0 * ATOMIC_MASS_UNIT)
    with pytest.raises(ValueError, match="atom mass"):
        replace(scn, species=heavy)
    with pytest.raises(ValueError, match="atom mass"):
        replace(scn, cloud=replace(scn.cloud, atom_mass_m=heavy.atom_mass))
    # swapping both together is a consistent scenario
    both = replace(scn, species=heavy, cloud=replace(scn.cloud, atom_mass_m=heavy.atom_mass))
    assert both.cloud.atom_mass_m == both.species.atom_mass


def test_projection_oracle_points():
    scn = canonical_scenario(n_atoms_override=1)
    kn = wavenumbers(SPECIES)
    rho = np.array([p[0] for p in PROJECTION_POINTS])
    z = np.array([p[1] for p in PROJECTION_POINTS])
    expect = np.array([complex(p[2], p[3]) for p in PROJECTION_POINTS])
    positions = np.column_stack([rho, np.zeros_like(rho), z])
    sample = AtomSample(
        r_initial=positions, velocity=np.zeros_like(positions), r_drifted=positions
    )
    got = idler_projection(sample, scn)
    # strip the (theta = 0) retrieval drive phase to leave the bare
    # fiber-mode projection the diffraction integral computes
    got = got * np.exp(1j * kn.k_r * z)
    err = np.abs(got - expect) / np.abs(expect)
    assert err.max() < 5e-5


def test_projection_requires_drifted_positions():
    scn = canonical_scenario(n_atoms_override=4)
    sample = sample_atoms(scn.cloud, scn.seed, 0, 4)
    with pytest.raises(ValueError):
        idler_projection(sample, scn)


def test_spinwave_amplitude_composition():
    # A_j must equal the tilted write mode times the conjugated collection
    # mode with explicit longitudinal phases, evaluated independently here
    # through the beam-mode primitives.
    theta = math.radians(2.0)
    scn = canonical_scenario(n_atoms_override=512, skew_theta=theta, seed=9)
    sample = draw_sample(scn)
    a = spinwave_amplitude(sample, scn)

    kn = wavenumbers(SPECIES)
    r = sample.r_initial
    ct, st = math.cos(theta), math.sin(theta)
    rt = np.column_stack(
        [r[:, 0], r[:, 1] * ct - r[:, 2] * st, r[:, 1] * st + r[:, 2] * ct]
    )
    q_w = transverse_amplitude(scn.write_mode, rt[:, 0], rt[:, 1], rt[:, 2])
    m_s = transverse_amplitude(scn.signal_mode, r[:, 0], r[:, 1], r[:, 2])
    expect = q_w * np.conj(m_s) * np.exp(1j * (kn.k_w * rt[:, 2] - kn.k_s * r[:, 2]))
    np.testing.assert_allclose(a, expect, rtol=1e-12)


def test_kernel_matches_vectorized_reference():
    # The block partials of the streamed cells, one block per shell here,
    # must add up, to near machine precision, to the sums assembled from the
    # public per-atom building blocks over the atoms the skip keeps.
    scn = canonical_scenario(
        n_atoms_override=4096, skew_theta=math.radians(2.0), storage_tm=50e-6, seed=13
    )
    sample = draw_sample(scn)
    keep, dropped_ref = _prune(sample.r_initial, scn)
    a = spinwave_amplitude(sample, scn)[keep]
    x = a * idler_projection(sample, scn)[keep]
    s1_ref = np.sum(x)
    s2_ref = float(np.sum(np.abs(a) ** 2))
    sxx_ref = float(np.sum(np.abs(x) ** 2))

    verdict = _cell_table(scn)[0]
    parts = [partials[0] for shell, bands in enumerate(cell_counts(scn.seed, scn.n_atoms).tolist())
             for partials in _eta_worker((((verdict[shell], (0,), (scn,)),), shell, tuple(bands),
                                          0, sum(bands), _paraxial_sums))]
    s1r, s1i, sxx, s2, dropped, n_kept = functools.reduce(_add, parts)
    assert s1r == pytest.approx(s1_ref.real, rel=1e-10)
    assert s1i == pytest.approx(s1_ref.imag, rel=1e-10)
    assert s2 == pytest.approx(s2_ref, rel=1e-10)
    assert sxx == pytest.approx(sxx_ref, rel=1e-10)
    assert n_kept == int(keep.sum())
    assert dropped + _in_region(scn)[2] >= dropped_ref


@pytest.mark.parametrize("edge, n_kept", [("lowest", 0), ("highest", CHUNK_ATOMS)])
def test_a_chunk_that_keeps_no_atom_or_every_atom_holds_one_block_at_a_time(edge, n_kept):
    # Of the canonical 0 deg cloud, the lowest shell the scenario streams
    # keeps no atom and the highest, shell 63, keeps all of them; the first
    # 2^20 atoms of either are in its band 0, which the scenario streams.
    # Either chunk is walked in blocks, each block's kept atoms projected and
    # summed into its partial before the next is drawn, so the worker holds
    # one block at a time (measured peaks 2.6 and 5.4 MB); the chunk's words
    # alone take 48 MB.
    scn = canonical_scenario()
    streamed = np.flatnonzero(_cell_table(scn)[0].any(axis=1))
    shell = int(streamed[0] if edge == "lowest" else streamed[-1])
    bands = tuple(cell_counts(scn.seed, scn.n_atoms)[shell].tolist())
    verdict = _cell_table(scn)[0][shell]
    assert bands[0] > CHUNK_ATOMS and verdict[0]
    tracemalloc.start()
    try:
        blocks = _eta_worker((((verdict, (0,), (scn,)),), shell, bands, 0, CHUNK_ATOMS,
                              _paraxial_sums))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) == CHUNK_ATOMS // BLOCK_ATOMS
    assert sum(partials[0][-1] for partials in blocks) == n_kept
    assert peak <= 16e6


def test_single_atom_efficiency_is_exact():
    # One atom pinned at the focus by a vanishing cloud: eta must equal the
    # textbook single-emitter fiber-coupling value 2 / (k_i W_i)^2, and the
    # denominator must collapse to the diagonal norm (no pair term at N=1).
    scn = make_scenario(
        SPECIES, 1e-9, 1e-12, 60e-6, W_COLLECT, W_COLLECT, n_atoms_override=1
    )
    est = eta_paraxial(scn)
    kn = wavenumbers(SPECIES)
    expect = 2.0 / (kn.k_i * W_COLLECT) ** 2
    assert est.eta == pytest.approx(expect, rel=1e-6)
    assert est.n_atoms == 1
    assert est.method == "paraxial"
    # at N = 1 the pair term carries weight (N-1)/N = 0
    sample = draw_sample(scn)
    a = spinwave_amplitude(sample, scn)
    assert est.denominator == pytest.approx(float(np.abs(a[0]) ** 2), rel=1e-12)


def test_exact_equals_subsample_at_full_count():
    scn = canonical_scenario(n_atoms_override=5000, seed=3)
    full = eta_paraxial(scn)
    degenerate = eta_paraxial(replace(scn, mc_atoms=5000))
    assert degenerate.eta == full.eta
    assert degenerate.numerator == full.numerator
    assert degenerate.denominator == full.denominator


def test_thread_count_does_not_change_bits(small_chunks):
    n = 2 * CHUNK_ATOMS + 12345
    scn = canonical_scenario(mc_atoms=n, seed=2)
    # chunks smaller than a shell, so the threads split shells between them
    assert largest_streamed_shell(scn) >= 2 * small_chunks(SMALL_CHUNK)
    one = eta_paraxial(scn, threads=1)
    two = eta_paraxial(scn, threads=2)
    five = eta_paraxial(scn, threads=5)
    assert one.eta == two.eta == five.eta
    assert one.numerator == two.numerator == five.numerator
    assert one.denominator == two.denominator == five.denominator


def test_subsample_estimator_is_consistent_with_exact():
    # Compact cloud (30 um) so the phase-matched sum is coherent-dominated
    # and seed-to-seed spread is a few percent: the subsampled estimator of
    # the full-N numerator must agree with full streaming within errors.
    def scn(seed, mc=None):
        return make_scenario(
            SPECIES, 30e-6, TEMP, 60e-6, W_COLLECT, W_COLLECT,
            n_atoms_override=3000, seed=seed, mc_atoms=mc,
        )

    exact = np.array([eta_paraxial(scn(s)).numerator for s in range(1, 41)])
    sub = np.array([eta_paraxial(scn(s, mc=300)).numerator for s in range(41, 141)])
    mean_exact = exact.mean()
    mean_sub = sub.mean()
    se = math.hypot(
        exact.std(ddof=1) / math.sqrt(exact.size),
        sub.std(ddof=1) / math.sqrt(sub.size),
    )
    assert abs(mean_sub - mean_exact) < 4.0 * se
    assert mean_sub / mean_exact == pytest.approx(1.0, abs=0.1)


def test_lobe_power_frozen_values():
    assert coherent_lobe_power(canonical_scenario()) == pytest.approx(
        LOBE_0DEG_0US, rel=1e-9
    )
    assert coherent_lobe_power(
        canonical_scenario(skew_theta=math.radians(2.0))
    ) == pytest.approx(LOBE_2DEG_0US, rel=1e-9)
    assert coherent_lobe_power(
        canonical_scenario(skew_theta=math.radians(2.0), storage_tm=100e-6)
    ) == pytest.approx(LOBE_2DEG_100US, rel=1e-9)


def test_lobe_power_matches_independent_quadrature():
    got = coherent_lobe_power(canonical_scenario())
    assert got == pytest.approx(LOBE_0DEG_0US_INDEPENDENT, rel=5e-4)


def test_lobe_power_ignores_seed_and_subsampling():
    a = coherent_lobe_power(canonical_scenario(seed=1))
    b = coherent_lobe_power(canonical_scenario(seed=99, mc_atoms=1000))
    assert a == b


def test_lobe_bits_do_not_follow_the_blas_thread_count():
    # The lobe table reduces through BLAS, whose thread count --threads
    # does not set: C must read the same bits under one and two BLAS
    # threads, each in a fresh interpreter with a cold table.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    code = (
        "import math\n"
        "from conftest import canonical_scenario\n"
        "from ire_sim import coherent_lobe_power\n"
        "for deg, tm in ((0.0, 0.0), (2.0, 100e-6), (4.0, 200e-6)):\n"
        "    scn = canonical_scenario(skew_theta=math.radians(deg), storage_tm=tm)\n"
        "    print(coherent_lobe_power(scn).hex())\n"
    )
    bits = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=blas_threads)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        bits.append(out.stdout.split())
    assert len(bits[0]) == 3
    assert bits[0] == bits[1]


def _lobe_with(scn, monkeypatch, **constants):
    """C of scn with some of retrieval's lobe quadrature constants replaced.

    The constants are not part of the table's cache key, so the cache is
    cleared around the call.
    """
    retrieval._lobe_table.cache_clear()
    try:
        with monkeypatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(retrieval, name, value)
            return coherent_lobe_power(scn)
    finally:
        retrieval._lobe_table.cache_clear()


@pytest.mark.parametrize("theta_deg, tm_us", [(0.0, 0.0), (2.0, 100.0)])
def test_lobe_quadrature_refinement_moves_c_by_under_1e_10(theta_deg, tm_us, monkeypatch):
    # every quadrature density and both node floors refined by 1.5x in the
    # same box (measured: <= 4e-14); the lobe is 91 % of the denominator at
    # 0 deg / 0 us and 57 % at 2 deg / 100 us. At 0 deg the polar floor
    # binds, so refining only the spacing would leave theta as it was.
    scn = canonical_scenario(skew_theta=math.radians(theta_deg), storage_tm=tm_us * 1e-6)
    base = _lobe_with(scn, monkeypatch)
    refined = _lobe_with(
        scn, monkeypatch,
        _LOBE_THETA_SPACING=retrieval._LOBE_THETA_SPACING / 1.5,
        _LOBE_N_THETA_MIN=round(retrieval._LOBE_N_THETA_MIN * 1.5),
        _LOBE_PHI_PER_CAP=retrieval._LOBE_PHI_PER_CAP * 1.5,
        _LOBE_N_PHI_MIN=round(retrieval._LOBE_N_PHI_MIN * 1.5),
        _LOBE_N_Z=round(retrieval._LOBE_N_Z * 1.5),
        _LOBE_N_Y=round(retrieval._LOBE_N_Y * 1.5),
    )
    assert refined == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize("theta_deg, tm_us", [(0.0, 0.0), (2.0, 100.0), (2.0, 200.0)])
def test_lobe_quadrature_matches_a_finer_grid_in_a_wider_box(theta_deg, tm_us, monkeypatch):
    # The whole quadrature error, the z box's truncation of the cloud
    # included: every density and both floors 2x finer, and the z box
    # widened to +-9 r0 at half the z spacing (measured: <= 8e-13). A
    # +-5 r0 box reads C 2e-7 low at 0 deg, however fine its nodes.
    half_width = 9.0
    n_z = round(2 * (retrieval._LOBE_N_Z - 1) * half_width / retrieval._LOBE_Z_HALF_WIDTH) + 1
    scn = canonical_scenario(skew_theta=math.radians(theta_deg), storage_tm=tm_us * 1e-6)
    base = _lobe_with(scn, monkeypatch)
    reference = _lobe_with(
        scn, monkeypatch,
        _LOBE_THETA_SPACING=retrieval._LOBE_THETA_SPACING / 2,
        _LOBE_N_THETA_MIN=retrieval._LOBE_N_THETA_MIN * 2,
        _LOBE_PHI_PER_CAP=retrieval._LOBE_PHI_PER_CAP * 2,
        _LOBE_N_PHI_MIN=retrieval._LOBE_N_PHI_MIN * 2,
        _LOBE_N_Z=n_z,
        _LOBE_N_Y=retrieval._LOBE_N_Y * 2,
        _LOBE_Z_HALF_WIDTH=half_width,
    )
    assert base == pytest.approx(reference, rel=1e-10)


def test_lobe_power_scales_with_density_squared():
    # C is the coherent pair term: quadratic in the mean field's density.
    c1 = coherent_lobe_power(canonical_scenario(peak_density_n0=1e17))
    c2 = coherent_lobe_power(canonical_scenario(peak_density_n0=2e17))
    assert c2 / c1 == pytest.approx(4.0, rel=1e-12)


def test_a_thread_count_below_one_is_refused(canonical_ini_file, capsys):
    with pytest.raises(ValueError):
        eta_paraxial(canonical_scenario(n_atoms_override=2000), threads=0)
    # the CLI turns a bad count into a usage error before printing anything
    assert cli_main(["eta", "--config", canonical_ini_file, "--threads", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--threads" in err


def test_draw_sample_returns_the_atoms_of_the_stream():
    # the n-atom stream holds exactly n atoms, in cell order across every cell
    scn = canonical_scenario(n_atoms_override=1500, seed=4)
    sample = draw_sample(scn, 1200)
    assert len(sample) == 1200
    whole = sample_atoms(scn.cloud, scn.seed, 0, 1200, count=1200)
    np.testing.assert_array_equal(sample.r_initial, whole.r_initial)
    np.testing.assert_array_equal(sample.velocity, whole.velocity)
    # the atoms of its strata are the ones a 1200-atom subsample counts in m,
    # and those of its streamed cells, among them, the ones it streams
    streamed, strata = streamed_mask(scn, 1200), strata_mask(scn, 1200)
    assert int(strata.sum()) == _in_region(replace(scn, mc_atoms=1200))[0]
    assert not (streamed & ~strata).any()
    keep, _ = _prune(sample.r_initial[streamed], scn)
    assert eta_paraxial(replace(scn, mc_atoms=1200)).n_kept == int(keep.sum()) > 0
    assert not _prune(sample.r_initial[~streamed], scn)[0].any()
    for n in (0, 1501):
        with pytest.raises(ValueError):
            draw_sample(scn, n)
