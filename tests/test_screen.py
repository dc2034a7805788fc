"""The word-0 screen in front of the amplitude skip.

Counter word 0 fixes an atom's transverse radius, so both estimators rule
out atoms far off the signal axis with one integer comparison before any
position is drawn, then run the exact mask (_prune) on the rest. The screen
must be conservative: every atom it rejects is one _prune drops, with
|A_j| <= PRUNE_FLOOR^2 amp0. The estimates keep the bits of an unscreened
pass, and their D stays an upper bound of the unscreened D.
"""

import math

import numpy as np
import pytest

from ire_sim import (
    PRUNE_FLOOR,
    AtomSample,
    angular_field,
    build_grid,
    coherent_lobe_power,
    eta_angular,
    eta_paraxial,
    eta_reference,
    idler_projection,
    make_scenario,
    spinwave_amplitude,
    wavenumbers,
)
from ire_sim.angular import ANGULAR_CHUNK_ATOMS, _field_sums
from ire_sim.cli import main as cli_main
from ire_sim.ensemble import (
    NORMAL_MAX,
    _positions_from_raw,
    _raw_words,
    _sample_range,
    _sample_words,
    drift,
)
from ire_sim.retrieval import (
    _SCREEN_MARGIN,
    CHUNK_ATOMS,
    _estimate,
    _eta_stream,
    _prune,
    _screen,
    _screen_word,
    _skip,
)

from conftest import CANONICAL_INI, R0, SPECIES, TEMP, W_COLLECT, W_WRITE, canonical_scenario

KN = wavenumbers(SPECIES)


def _scenario(r0=R0, theta_deg=0.0, w_signal=W_COLLECT, **kwargs):
    return make_scenario(
        SPECIES, r0, TEMP, W_WRITE, w_signal, w_signal,
        skew_theta=math.radians(theta_deg), **kwargs,
    )


def _amp0(scn):
    return abs(scn.write_mode.peak_amplitude * scn.signal_mode.peak_amplitude)


@pytest.mark.parametrize(
    "r0, theta_deg, w_signal",
    [
        (R0, 0.0, W_COLLECT),
        (R0, 4.0, W_COLLECT),
        (R0, 2.0, 1.3 * W_WRITE),  # the widest signal waist of criterion 5's sweep
        (1e-4, 2.0, W_COLLECT),
        (5e-3, 2.0, W_COLLECT),
    ],
)
def test_screen_rejects_only_atoms_the_mask_drops(r0, theta_deg, w_signal):
    scn = _scenario(r0, theta_deg, w_signal, storage_tm=100e-6, seed=3,
                    n_atoms_override=CHUNK_ATOMS, write_amplitude=2.0)
    raw = _raw_words(scn.seed, 0, CHUNK_ATOMS)
    out = raw[raw[:, 0] < np.uint64(_screen_word(scn))]
    assert 0 < out.shape[0] < CHUNK_ATOMS
    keep, _ = _prune(_positions_from_raw(out, r0), scn)
    assert not keep.any()
    a = spinwave_amplitude(_sample_words(out, scn.cloud), scn)
    assert np.max(np.abs(a)) <= PRUNE_FLOOR**2 * _amp0(scn)


def test_threshold_word_splits_the_radius_bound():
    scn = canonical_scenario(n_atoms_override=10, write_amplitude=2.0)
    t = _screen_word(scn)
    assert 0 < t < 2**64 - 1 and t % 2**11 == 0
    raw = np.full((2, 8), 12345, dtype=np.uint64)
    raw[:, 0] = [t - 1, t]
    rows, n_screened = _screen(raw, (scn,))
    assert n_screened == 1
    assert rows.tolist() == raw[1:].tolist()
    # the radius bound _screen_word states, recomputed here
    z_s = scn.signal_mode.rayleigh_z
    r2 = (2.0 * abs(math.log(PRUNE_FLOOR)) * W_COLLECT**2
          * (1.0 + (NORMAL_MAX * R0 / z_s) ** 2) * _SCREEN_MARGIN)
    r = _positions_from_raw(raw, R0)
    rho2 = r[:, 0] ** 2 + r[:, 1] ** 2
    assert rho2[0] >= r2 > rho2[1]
    # D counts the drawn atom's own |A_j| and PRUNE_FLOOR^2 amp0 for the screened one
    keep, dropped = _skip(r[1:], scn, n_screened)
    assert not keep.any()
    a = spinwave_amplitude(_sample_words(rows, scn.cloud), scn)
    assert dropped == pytest.approx(abs(a[0]) + PRUNE_FLOOR**2 * _amp0(scn), rel=1e-12, abs=0.0)


def test_tiny_cloud_screens_nothing():
    scn = _scenario(1e-9, n_atoms_override=1000)
    assert _screen_word(scn) == 0
    raw = _raw_words(scn.seed, 0, 1000)
    rows, n_screened = _screen(raw, (scn,))
    assert n_screened == 0
    assert np.array_equal(rows, raw)


def _unscreened_eta_worker(task):
    """The stream's chunk sums without the word-0 screen, from the public per-atom functions."""
    scenarios, lo, hi = task
    raw = _raw_words(scenarios[0].seed, lo, hi)
    r = _positions_from_raw(raw, scenarios[0].cloud.sigma_r0)
    out = []
    for scenario in scenarios:
        keep, dropped = _prune(r, scenario)
        sample = _sample_words(raw[keep], scenario.cloud)
        a = spinwave_amplitude(sample, scenario)
        x = a * idler_projection(drift(sample, scenario.storage_tm), scenario)
        s1 = complex(np.sum(x))
        s2 = float(np.sum(a.real**2 + a.imag**2))
        sxx = float(np.sum(x.real**2 + x.imag**2))
        out.append((s1.real, s1.imag, s2, sxx, dropped, len(sample)))
    return out


# Two chunks: a full one and a short one.
STREAMED = CHUNK_ATOMS + 20_000
JOBS = {
    "tilt": [dict(theta_deg=th, storage_tm=100e-6) for th in (0.0, 1.0, 2.0, 4.0)],
    "storage_time": [dict(theta_deg=2.0, storage_tm=tm) for tm in (0.0, 50e-6, 100e-6, 200e-6)],
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_stream_keeps_the_bits_of_an_unscreened_pass(job, threads):
    scenarios = tuple(
        _scenario(target_od=24.7, mc_atoms=STREAMED, seed=11, **point) for point in JOBS[job]
    )
    got = _eta_stream([scenarios], threads=threads)[0]
    tasks = [(scenarios, lo, min(lo + CHUNK_ATOMS, STREAMED))
             for lo in range(0, STREAMED, CHUNK_ATOMS)]
    want = list(zip(*[_unscreened_eta_worker(t) for t in tasks]))
    for scn, parts, ref in zip(scenarios, got, want):
        assert len(parts) == len(ref) == 2
        for part, old in zip(parts, ref):
            assert part[:4] == old[:4]  # Re S1, Im S1, S2, SXX
            assert part[5] == old[5]  # n_kept
            assert old[4] <= part[4] == pytest.approx(old[4], rel=1e-12, abs=0.0)
        new_est, old_est = _estimate(scn, parts), _estimate(scn, ref)
        assert (new_est.eta, new_est.numerator, new_est.denominator, new_est.n_kept) == (
            old_est.eta, old_est.numerator, old_est.denominator, old_est.n_kept)
        old_d = old_est.dropped_amplitude
        assert old_d <= new_est.dropped_amplitude == pytest.approx(old_d, rel=1e-12, abs=0.0)


def test_angular_field_keeps_the_bits_of_an_unscreened_pass():
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)
    n = 2 * ANGULAR_CHUNK_ATOMS + 700
    scn = canonical_scenario(n_atoms_override=n, skew_theta=math.radians(2.0),
                             storage_tm=100e-6, seed=6)
    field = angular_field(scn, grid, threads=2)
    acc = np.zeros(grid.n_nodes, dtype=complex)
    s2 = dropped = 0.0
    n_kept = 0
    for lo in range(0, n, ANGULAR_CHUNK_ATOMS):  # the unscreened chunk worker, in chunk order
        sample = _sample_range(scn.cloud, scn.seed, lo, min(lo + ANGULAR_CHUNK_ATOMS, n))
        keep, part_dropped = _prune(sample.r_initial, scn)
        sample = drift(AtomSample(sample.r_initial[keep], sample.velocity[keep]), scn.storage_tm)
        amps = spinwave_amplitude(sample, scn)
        acc += _field_sums(amps, sample.r_drifted, scn.skew_theta, KN.k_r, KN.k_i, grid)
        s2 += float(np.sum(amps.real**2 + amps.imag**2))
        dropped += part_dropped
        n_kept += len(sample)
    values = acc / math.sqrt(4.0 * math.pi)
    assert field.values.tobytes() == values.tobytes()
    assert field.source_s2 == s2
    assert field.n_kept == n_kept
    assert dropped <= field.dropped_amplitude == pytest.approx(dropped, rel=1e-12, abs=0.0)


def test_lobe_fraction_is_the_pair_terms_share_of_the_denominator(tmp_path, capsys):
    scn = canonical_scenario(mc_atoms=20_000, skew_theta=math.radians(2.0),
                             storage_tm=100e-6, seed=2)
    est = eta_paraxial(scn)
    n = scn.n_atoms
    lobe = coherent_lobe_power(scn) * (n - 1) / n
    assert est.lobe_fraction == lobe / est.denominator
    assert 0.0 < est.lobe_fraction < 1.0

    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)
    small = canonical_scenario(n_atoms_override=3000, seed=2)
    est_a = eta_angular(small, grid)
    assert est_a.lobe_fraction == 0.0
    # one overlap routine: the estimate's eta is eta_reference of its field
    assert est_a.eta == eta_reference(angular_field(small, grid), grid)

    ini = tmp_path / "small.ini"
    ini.write_text(
        CANONICAL_INI.replace("target_od     = 24.7", "n_atoms_override = 3000")
        + "grid_n_cap  = 48\ngrid_n_base = 32\ngrid_n_phi  = 24\n"
    )
    for method in ("paraxial", "angular"):
        out = tmp_path / method
        assert cli_main(["eta", "--config", str(ini), "--method", method, "--out", str(out)]) == 0
        meta = dict(line.split("=", 1) for line in (out / "eta_meta.txt").read_text().splitlines())
        if method == "paraxial":
            assert 0.0 < float(meta["lobe_fraction"]) < 1.0
        else:
            assert float(meta["lobe_fraction"]) == 0.0
    capsys.readouterr()
