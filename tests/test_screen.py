"""The shell screen in front of the amplitude skip.

An atom's radial shell bounds its transverse radius, so both estimators
never stream the shells far off the signal axis, and run the exact mask
(_prune) on the atoms of the rest. The screen must be conservative: every
atom of a shell it leaves out is one _prune drops, with
|A_j| <= PRUNE_FLOOR^2. The estimates keep the bits of a pass over
every shell, and their D stays an upper bound of that pass's D.
"""

import functools
import math
import operator

import numpy as np
import pytest

import ire_sim.angular as angular
import ire_sim.retrieval as retrieval
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
from ire_sim.angular import _field_sums
from ire_sim.cli import main as cli_main
from ire_sim.ensemble import (
    NORMAL_MAX,
    SHELLS,
    _positions_from_raw,
    _raw_words,
    _sample_words,
    drift,
    shell_counts,
)
from ire_sim.retrieval import (
    _SCREEN_MARGIN,
    CHUNK_ATOMS,
    _estimate,
    _eta_stream,
    _in_region,
    _prune,
    _screen_shell,
)

from conftest import CANONICAL_INI, R0, SPECIES, TEMP, W_COLLECT, W_WRITE, canonical_scenario

KN = wavenumbers(SPECIES)


def _scenario(r0=R0, theta_deg=0.0, w_signal=W_COLLECT, **kwargs):
    return make_scenario(
        SPECIES, r0, TEMP, W_WRITE, w_signal, w_signal,
        skew_theta=math.radians(theta_deg), **kwargs,
    )


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
                    n_atoms_override=CHUNK_ATOMS)
    first = _screen_shell(scn)
    assert 0 < first < SHELLS
    # the highest screened shell holds the atoms nearest the screen's radius
    out = _raw_words(scn.seed, first - 1, 0, 1 << 16)
    keep, _ = _prune(_positions_from_raw(out, r0), scn)
    assert not keep.any()
    a = spinwave_amplitude(_sample_words(out, scn.cloud), scn)
    assert np.max(np.abs(a)) <= PRUNE_FLOOR**2


def test_threshold_word_splits_the_radius_bound():
    scn = canonical_scenario(n_atoms_override=10)
    first = _screen_shell(scn)
    # the atoms with the largest u0 of the last screened shell and of the
    # first streamed one: every word-0 bit below the shell bits set
    raw = np.full((2, 8), 12345, dtype=np.uint64)
    for row, shell in enumerate((first - 1, first)):
        raw[row] = _raw_words(scn.seed, shell, 0, 1)
        raw[row, 0] |= np.uint64((1 << 58) - 1)
    # the radius bound _screen_shell states, recomputed here for no tilt:
    # rho^2 (1 / a_s + 1 / a_w) = 2 |ln PRUNE_FLOOR| at rho = R
    big_z = NORMAL_MAX * R0
    a_s = W_COLLECT**2 * (1.0 + (big_z / scn.signal_mode.rayleigh_z) ** 2)
    a_w = W_WRITE**2 * (1.0 + (big_z / scn.write_mode.rayleigh_z) ** 2)
    r2 = 2.0 * abs(math.log(PRUNE_FLOOR)) * _SCREEN_MARGIN / (1.0 / a_s + 1.0 / a_w)
    r = _positions_from_raw(raw, R0)
    rho2 = r[:, 0] ** 2 + r[:, 1] ** 2
    assert rho2[0] >= r2 > rho2[1]
    # D counts PRUNE_FLOOR^2 for each streamed-count atom below the first shell
    counts = shell_counts(scn.seed, scn.n_atoms)
    m, n_in, d0 = _in_region(scn)
    assert m == n_in == int(counts[first:].sum())
    assert d0 == (scn.n_atoms - m) * PRUNE_FLOOR**2


def test_tiny_cloud_screens_nothing():
    scn = _scenario(1e-9, n_atoms_override=1000)
    assert _screen_shell(scn) == 0
    assert _in_region(scn) == (1000, 1000, 0.0)


def _unscreened_eta_worker(task):
    """The stream's chunk sums over any shell, from the public per-atom functions."""
    scenarios, shell, lo, hi = task
    raw = _raw_words(scenarios[0].seed, shell, lo, hi)
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
        out.append((s1.real, s1.imag, sxx, s2, dropped, len(sample)))
    return out


def _shell_tasks(seed, count, chunk):
    """(shell, lo, hi) of every chunk of every shell of the count-atom stream."""
    return [(shell, lo, min(lo + chunk, c))
            for shell, c in enumerate(shell_counts(seed, count).tolist())
            for lo in range(0, c, chunk)]


def _in_order_sum(partials):
    """Column sums of chunk partials, each added left to right in stream order."""
    return tuple(functools.reduce(operator.add, column) for column in zip(*partials))


# Small chunks, so that each streamed shell spans a full chunk and a short one.
SMALL_CHUNK = 1 << 12
STREAMED = 64 * SMALL_CHUNK + 20_000
JOBS = {
    "tilt": [dict(theta_deg=th, storage_tm=100e-6) for th in (0.0, 1.0, 2.0, 4.0)],
    "storage_time": [dict(theta_deg=2.0, storage_tm=tm) for tm in (0.0, 50e-6, 100e-6, 200e-6)],
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_stream_keeps_the_bits_of_an_unscreened_pass(monkeypatch, job, threads):
    monkeypatch.setattr(retrieval, "CHUNK_ATOMS", SMALL_CHUNK)
    scenarios = tuple(
        _scenario(target_od=24.7, mc_atoms=STREAMED, seed=11, **point) for point in JOBS[job]
    )
    got = _eta_stream(list(scenarios), threads=threads)
    lowest = min(_screen_shell(scn) for scn in scenarios)
    assert all(c > SMALL_CHUNK for c in shell_counts(11, STREAMED)[lowest:])
    tasks = _shell_tasks(11, STREAMED, SMALL_CHUNK)
    ref = list(zip(*[_unscreened_eta_worker((scenarios, *t)) for t in tasks]))
    for scn, total, every in zip(scenarios, got, ref):
        first = _screen_shell(scn)
        below = [part for t, part in zip(tasks, every) if t[0] < first]
        above = [part for t, part in zip(tasks, every) if t[0] >= first]
        assert all(n_kept == 0 for *_, n_kept in below)
        # the in-order sum of the same chunks over the scenario's own shells,
        # bit for bit, D included
        assert total == _in_order_sum(above)
        # the screened shells' D is the bound of the estimate, not their own sum
        m, n_in, d0 = _in_region(scn)
        assert sum(part[4] for part in below) <= d0
        new_est, old_est = _estimate(scn, total), _estimate(scn, _in_order_sum(every))
        assert (new_est.eta, new_est.numerator, new_est.denominator, new_est.n_kept) == (
            old_est.eta, old_est.numerator, old_est.denominator, old_est.n_kept)


def test_angular_field_keeps_the_bits_of_an_unscreened_pass(monkeypatch):
    chunk = 1 << 9
    monkeypatch.setattr(angular, "ANGULAR_CHUNK_ATOMS", chunk)
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)
    n = 80 * chunk  # every shell spans a full chunk and a short one
    scn = canonical_scenario(n_atoms_override=n, skew_theta=math.radians(2.0),
                             storage_tm=100e-6, seed=6)
    assert all(chunk < c < 2 * chunk for c in shell_counts(scn.seed, n))
    field = angular_field(scn, grid, threads=2)
    acc = np.zeros(grid.n_nodes, dtype=complex)
    s2 = dropped = 0.0
    n_kept = 0
    for shell, lo, hi in _shell_tasks(scn.seed, n, chunk):  # in stream order
        sample = _sample_words(_raw_words(scn.seed, shell, lo, hi), scn.cloud)
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
