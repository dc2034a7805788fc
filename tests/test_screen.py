"""The cell table in front of the amplitude skip.

An atom's (shell, band) cell bounds its transverse radius and its |z|, so
both estimators never stream the cells whose every atom the bound puts at
or below PRUNE_FLOOR, and the exact mask (_prune) decides every atom of
the cells they stream. The skip must be conservative: every atom of a
skipped cell is one _prune drops, with |A_j| <= exp(its cell's bound) <=
PRUNE_FLOOR. The estimates keep the bits of a pass over every cell, and
their D is that pass's exact D over the streamed cells plus the skipped
cells' bounds.
"""

import functools
import math
import operator
from dataclasses import replace

import numpy as np
import pytest

from ire_sim import (
    PRUNE_FLOOR,
    AtomSample,
    angular_field,
    build_grid,
    coherent_lobe_power,
    draw_sample,
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
from ire_sim import retrieval
from ire_sim.ensemble import (
    BANDS,
    NORMAL_MAX,
    SHELLS,
    _positions_from_raw,
    _radii,
    _raw_words,
    _sample_words,
    cell_counts,
    drift,
)
from ire_sim.retrieval import (
    _CELL_MARGIN,
    BLOCK_ATOMS,
    CHUNK_ATOMS,
    _cell_table,
    _estimate,
    _eta_stream,
    _eta_worker,
    _in_region,
    _prune,
    _streamed_count,
)

from conftest import (CANONICAL_INI, R0, SPECIES, TEMP, W_COLLECT, W_WRITE, canonical_scenario,
                      read_meta, strata_mask)

KN = wavenumbers(SPECIES)
LEVEL = math.log(PRUNE_FLOOR) * _CELL_MARGIN


def _positions(raw, r0):
    """Initial positions of counter words raw (n, 6), as the stream places them."""
    return _positions_from_raw(raw, _radii(raw), r0)


def _scenario(r0=R0, theta_deg=0.0, w_signal=W_COLLECT, **kwargs):
    return make_scenario(
        SPECIES, r0, TEMP, W_WRITE, w_signal, w_signal,
        skew_theta=math.radians(theta_deg), **kwargs,
    )


GEOMETRIES = [
    (R0, 0.0, W_COLLECT),
    (R0, 4.0, W_COLLECT),
    (R0, 2.0, 1.3 * W_WRITE),  # the widest signal waist of criterion 5's sweep
    (1e-4, 2.0, W_COLLECT),
    (5e-3, 2.0, W_COLLECT),
]


def _edges(n, r0):
    """r0 sqrt(-2 ln(j / n)) for j = 0..n, with NORMAL_MAX r0 at j = 0: the cells' edges."""
    return [NORMAL_MAX * r0] + [r0 * math.sqrt(-2.0 * math.log(j / n)) for j in range(1, n + 1)]


def _cell_bound(scn, shell, band):
    """The stated bound of ln|A_j| over a cell: inner rho, outer rho as |y|, largest Z."""
    rho, z = _edges(SHELLS, scn.cloud.sigma_r0), _edges(BANDS, scn.cloud.sigma_r0)
    return _bound(rho[shell + 1], rho[shell], z[band], scn)


@pytest.mark.parametrize("r0, theta_deg, w_signal", GEOMETRIES)
def test_screen_rejects_only_atoms_the_mask_drops(r0, theta_deg, w_signal):
    scn = _scenario(r0, theta_deg, w_signal, storage_tm=100e-6, seed=3,
                    n_atoms_override=CHUNK_ATOMS)
    streamed, bound = _cell_table(scn)
    assert (~streamed).any() and streamed.any()
    for band in range(BANDS):
        # the highest skipped shell of the band holds the atoms nearest its bound
        skipped = np.flatnonzero(~streamed[:, band])
        if skipped.size == 0:
            continue
        shell = int(skipped.max())
        assert bound[shell, band] == pytest.approx(_cell_bound(scn, shell, band), rel=1e-12)
        out = _raw_words(scn.seed, shell, band, 0, 1 << 13)
        keep, _ = _prune(_positions(out, r0), scn)
        assert not keep.any()
        a = spinwave_amplitude(_sample_words(out, scn.cloud), scn)
        assert np.max(np.abs(a)) <= math.exp(bound[shell, band]) <= PRUNE_FLOOR


def test_threshold_word_splits_the_radius_bound():
    scn = canonical_scenario(n_atoms_override=10)
    streamed, _ = _cell_table(scn)
    # band 0 holds the atoms of largest |z|, up to NORMAL_MAX r0
    first = int(np.flatnonzero(streamed[:, 0]).min())
    # the atoms with the largest u0 of the last skipped shell and of the
    # first streamed one in band 0: every word-0 bit below the shell bits set
    raw = np.full((2, 6), 12345, dtype=np.uint64)
    for row, shell in enumerate((first - 1, first)):
        raw[row] = _raw_words(scn.seed, shell, 0, 0, 1)
        raw[row, 0] |= np.uint64((1 << 58) - 1)
    # the radius bound of band 0's cells, recomputed here for no tilt:
    # rho^2 (1 / a_s + 1 / a_w) = |ln PRUNE_FLOOR| at rho = R
    big_z = NORMAL_MAX * R0
    a_s = W_COLLECT**2 * (1.0 + (big_z / scn.signal_mode.rayleigh_z) ** 2)
    a_w = W_WRITE**2 * (1.0 + (big_z / scn.write_mode.rayleigh_z) ** 2)
    r2 = abs(math.log(PRUNE_FLOOR)) * _CELL_MARGIN / (1.0 / a_s + 1.0 / a_w)
    r = _positions(raw, R0)
    rho2 = r[:, 0] ** 2 + r[:, 1] ** 2
    assert rho2[0] >= r2 > rho2[1]
    # D counts, for each streamed-count atom of a skipped cell, the bound at
    # its shell's inner radius rho_k, u0 = (k + 1) / SHELLS, and its band's
    # largest Z_b, u2 = b / BANDS
    counts = cell_counts(scn.seed, scn.n_atoms)
    m, n_in, d0 = _in_region(scn)
    assert m == n_in == int(strata_mask(scn, scn.n_atoms).sum())
    z = _edges(BANDS, R0)
    bounds = {}
    for shell, band in zip(*np.nonzero(~streamed)):
        a_s = W_COLLECT**2 * (1.0 + (z[band] / scn.signal_mode.rayleigh_z) ** 2)
        a_w = W_WRITE**2 * (1.0 + (z[band] / scn.write_mode.rayleigh_z) ** 2)
        rho2_k = -2.0 * R0**2 * math.log((shell + 1) / SHELLS)
        bounds[shell, band] = math.exp(-rho2_k * (1.0 / a_s + 1.0 / a_w))
    assert d0 == pytest.approx(sum(counts[c] * b for c, b in bounds.items()), rel=1e-12, abs=0.0)
    assert max(bounds.values()) <= PRUNE_FLOOR


def test_tiny_cloud_streams_every_cell():
    scn = _scenario(1e-9, n_atoms_override=1000)
    assert _cell_table(scn)[0].all()
    assert _in_region(scn) == (1000, 1000, 0.0)


def _check_skipped_cells(scn, per_cell):
    """Check every cell scn skips on its first per_cell atoms.

    The cell's bound is at most the table's level and at least each atom's
    own bound from words 0 and 2 (_atom_bound), |A_j| <= exp(bound) <=
    PRUNE_FLOOR, and _prune keeps none of the atoms. The first atom of each
    cell is moved to the cell's edges: its shell's largest u0 (the inner
    rho) and its band's smallest u2 (the largest Z).
    """
    streamed, bound = _cell_table(scn)
    cells = list(zip(*np.nonzero(~streamed)))
    if not cells:
        return
    raw = np.concatenate([_raw_words(scn.seed, k, b, 0, per_cell) for k, b in cells])
    raw[::per_cell, 0] |= np.uint64((1 << 58) - 1)
    raw[::per_cell, 2] &= np.uint64(7 << 61)  # the band bits alone
    cell_bound = np.repeat(bound[~streamed], per_cell)
    assert np.all(cell_bound <= LEVEL)
    assert np.all(_atom_bound(raw, scn) <= cell_bound)
    a = np.abs(spinwave_amplitude(_sample_words(raw, scn.cloud), scn))
    assert np.all(a <= np.exp(cell_bound))
    assert not _prune(_positions(raw, scn.cloud.sigma_r0), scn)[0].any()


# The cell verdicts on the geometries above and the canonical cloud at 2 deg.
VERDICT_CASES = sorted({(r0, th, w) for r0, own, w in GEOMETRIES
                        for th in (own, 4.0, 10.0)} | {(R0, 2.0, W_COLLECT)})


@pytest.mark.parametrize("r0, theta_deg, w_signal", VERDICT_CASES)
def test_cell_verdicts_hold_for_every_atom(r0, theta_deg, w_signal):
    # 2^9 atoms of every skipped cell: no atom lies above its cell's bound
    scn = _scenario(r0, theta_deg, w_signal, storage_tm=100e-6, seed=3,
                    n_atoms_override=CHUNK_ATOMS)
    _check_skipped_cells(scn, 1 << 9)


# Geometries drawn from a seeded generator over r0 10 um - 2 mm, write and
# collection waists 10 um - 1 mm (each log-uniform) and tilt 0 - 10 deg.
_DRAW = np.random.default_rng(38)
DRAWN_CASES = [(float(r0), float(w_write), float(w_collect), float(theta)) for r0, w_write,
               w_collect, theta in zip(10.0 ** _DRAW.uniform(-5.0, math.log10(2e-3), 96),
                                       10.0 ** _DRAW.uniform(-5.0, -3.0, 96),
                                       10.0 ** _DRAW.uniform(-5.0, -3.0, 96),
                                       _DRAW.uniform(0.0, 10.0, 96))]


# Steep tilts on narrow write beams, drawn over r0 30 um - 2 mm, write
# waists 10 - 40 um, collection waists 10 um - 1 mm (each log-uniform) and
# tilt 45 - 70 deg: there y |sin theta| nears the write beam's Rayleigh
# length, and _ln_bound's largest-|y| term decides some cells' verdicts.
_STEEP = np.random.default_rng(41)
STEEP_CASES = [(float(r0), float(w_write), float(w_collect), float(theta)) for r0, w_write,
               w_collect, theta in zip(10.0 ** _STEEP.uniform(-4.5, math.log10(2e-3), 32),
                                       10.0 ** _STEEP.uniform(-5.0, -4.4, 32),
                                       10.0 ** _STEEP.uniform(-5.0, -3.0, 32),
                                       _STEEP.uniform(45.0, 70.0, 32))]


def _drawn_scenario(r0, w_write, w_collect, theta_deg):
    return make_scenario(SPECIES, r0, TEMP, w_write, w_collect, w_collect,
                         skew_theta=math.radians(theta_deg), storage_tm=100e-6, seed=3,
                         n_atoms_override=CHUNK_ATOMS)


def test_the_drawn_geometries_skip_and_stream_cells():
    # most drawn cases skip some cells and stream others, so that the cell
    # bound is checked at the edge between the two
    tables = [_cell_table(_drawn_scenario(*case))[0] for case in DRAWN_CASES]
    assert sum(bool(t.any() and not t.all()) for t in tables) >= 50


@pytest.mark.parametrize("r0, w_write, w_collect, theta_deg", DRAWN_CASES + STEEP_CASES,
                         ids=[f"drawn{i}" for i in range(len(DRAWN_CASES + STEEP_CASES))])
def test_cell_bound_holds_on_drawn_geometries(r0, w_write, w_collect, theta_deg):
    _check_skipped_cells(_drawn_scenario(r0, w_write, w_collect, theta_deg), 1 << 7)


def _ln_amplitude(x, y, z, scn):
    """ln|A_j| at initial positions (x, y, z), by _prune's formula."""
    w, s = scn.write_mode, scn.signal_mode
    ct, st = math.cos(scn.skew_theta), math.sin(scn.skew_theta)
    uw = 1.0 + ((y * st + z * ct) / w.rayleigh_z) ** 2
    us = 1.0 + (z / s.rayleigh_z) ** 2
    yt = y * ct - z * st
    return (-(x * x + yt * yt) / (w.waist_w0**2 * uw) - (x * x + y * y) / (s.waist_w0**2 * us)
            - 0.5 * np.log(uw * us))


def test_the_largest_y_term_holds_on_the_cells_it_decides():
    # Some cells of the steep cases are streamed only because the bound
    # takes the outer rho as the largest |y|: with the inner rho there, the
    # table would skip them. On a dense grid of each such cell's positions
    # (rho between its edges x azimuth x |z| up to its largest Z, about 10^6
    # points), ln|A_j| stays at or below the cell's bound.
    decided = 0
    for case in STEEP_CASES:
        scn = _drawn_scenario(*case)
        rho, z = _edges(SHELLS, scn.cloud.sigma_r0), _edges(BANDS, scn.cloud.sigma_r0)
        streamed, bound = _cell_table(scn)
        cells = [(k, b) for k, b in zip(*np.nonzero(streamed))
                 if _bound(rho[k + 1], rho[k + 1], z[b], scn) <= LEVEL]
        decided += bool(cells)
        for k, b in cells:
            r = np.linspace(rho[k + 1], rho[k], 100)[:, None, None]
            phi = np.linspace(-math.pi, math.pi, 101)[:, None]
            zs = np.linspace(-z[b], z[b], 101)
            top = np.max(_ln_amplitude(r * np.cos(phi), r * np.sin(phi), zs, scn))
            assert top <= bound[k, b]
    assert decided >= 5


def _block_words(seed, count, shell, lo, hi):
    """Counter words (n, 6) of atoms [lo, hi) of a shell's band-major sequence, and their bands."""
    starts = np.cumsum([0, *cell_counts(seed, count)[shell].tolist()])
    parts = [(band, max(lo, starts[band]) - starts[band], min(hi, starts[band + 1]) - starts[band])
             for band in range(BANDS)]
    parts = [part for part in parts if part[1] < part[2]]
    return (np.concatenate([_raw_words(seed, shell, *part) for part in parts]),
            np.repeat([part[0] for part in parts], [part[2] - part[1] for part in parts]))


def _direct_partial(scenario, raw, r):
    """(Re S1, Im S1, SXX, S2, D, n_kept) of atoms with words raw at positions r, _prune alone."""
    keep, dropped = _prune(r, scenario)
    sample = _sample_words(raw[keep], scenario.cloud)
    a = spinwave_amplitude(sample, scenario)
    x = a * idler_projection(drift(sample, scenario.storage_tm), scenario)
    s1 = complex(np.sum(x))
    s2 = float(np.sum(a.real**2 + a.imag**2))
    sxx = float(np.sum(x.real**2 + x.imag**2))
    return (s1.real, s1.imag, sxx, s2, dropped, len(sample))


def _direct_eta_worker(task):
    """The block sums of any block of any shell, from the public per-atom functions.

    For each scenario: the partial over every atom of the block, over the
    atoms of the cells it streams, and over those of the cells it skips.
    """
    scenarios, shell, lo, hi = task
    raw, band = _block_words(scenarios[0].seed, _streamed_count(scenarios[0]), shell, lo, hi)
    r = _positions(raw, scenarios[0].cloud.sigma_r0)
    out = []
    for scenario in scenarios:
        streamed = _cell_table(scenario)[0][shell][band]
        out.append(tuple(_direct_partial(scenario, raw[mask], r[mask])
                         for mask in (np.ones_like(streamed), streamed, ~streamed)))
    return out


def _shell_tasks(seed, count, block):
    """(shell, lo, hi) of every block of every shell of the count-atom stream."""
    return [(shell, lo, min(lo + block, c))
            for shell, c in enumerate(cell_counts(seed, count).sum(axis=1).tolist())
            for lo in range(0, c, block)]


def _streamed_shell_counts(scenarios, seed, count):
    """The atom counts of the shells in which some scenario streams a cell."""
    streamed = np.any([_cell_table(scn)[0].any(axis=1) for scn in scenarios], axis=0)
    return cell_counts(seed, count).sum(axis=1)[streamed]


def _in_order_sum(partials):
    """Column sums of block partials, each added left to right in stream order."""
    return tuple(functools.reduce(operator.add, column) for column in zip(*partials))


# Small chunks of one block each, so that each streamed shell spans a full
# block and a short one.
SMALL_CHUNK = 1 << 12
STREAMED = 64 * SMALL_CHUNK + 20_000
JOBS = {
    "tilt": [dict(theta_deg=th, storage_tm=100e-6) for th in (0.0, 1.0, 2.0, 4.0)],
    "storage_time": [dict(theta_deg=2.0, storage_tm=tm) for tm in (0.0, 50e-6, 100e-6, 200e-6)],
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_stream_keeps_the_bits_of_an_unscreened_pass(small_blocks, small_chunks, job, threads):
    small_chunks(small_blocks(SMALL_CHUNK))
    scenarios = tuple(
        _scenario(target_od=24.7, mc_atoms=STREAMED, seed=11, **point) for point in JOBS[job]
    )
    got = _eta_stream(list(scenarios), threads=threads)
    assert all(c > SMALL_CHUNK for c in _streamed_shell_counts(scenarios, 11, STREAMED))
    tasks = _shell_tasks(11, STREAMED, SMALL_CHUNK)
    ref = list(zip(*[_direct_eta_worker((scenarios, *t)) for t in tasks]))
    for scn, total, parts in zip(scenarios, got, ref):
        every, streamed, skipped = zip(*parts)
        assert all(n_kept == 0 for *_, n_kept in skipped)
        # the in-order sum over every block of every cell, bit for bit: the
        # skipped cells keep no atom, and D is the exact one over the
        # streamed cells
        ref_every = _in_order_sum(every)
        assert total[:4] + total[5:] == ref_every[:4] + ref_every[5:]
        assert _in_order_sum(streamed)[4] == total[4]
        # the skipped cells' D is the bound of the estimate, not their own sum
        region = _in_region(scn)
        assert sum(part[4] for part in skipped) <= region[2]
        new_est = _estimate(scn, total, region)
        old_est = _estimate(scn, ref_every, region)
        assert (new_est.eta, new_est.numerator, new_est.denominator, new_est.n_kept) == (
            old_est.eta, old_est.numerator, old_est.denominator, old_est.n_kept)


def _field_partial(scn, grid, shell, lo, hi):
    """(raw field, S2, D, n_kept) of a shell's atoms [lo, hi), from the public functions."""
    raw, _ = _block_words(scn.seed, _streamed_count(scn), shell, lo, hi)
    sample = _sample_words(raw, scn.cloud)
    keep, dropped = _prune(sample.r_initial, scn)
    sample = drift(AtomSample(sample.r_initial[keep], sample.velocity[keep]), scn.storage_tm)
    amps = spinwave_amplitude(sample, scn)
    return (_field_sums(amps, sample.r_drifted, scn.skew_theta, KN.k_r, KN.k_i, grid),
            float(np.sum(amps.real**2 + amps.imag**2)), dropped, len(sample))


def test_angular_field_keeps_the_bits_of_an_unscreened_pass(small_blocks, small_chunks):
    chunk = small_chunks(small_blocks(1 << 9))
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)
    n = 80 * chunk  # every shell spans a full block and a short one
    scn = canonical_scenario(n_atoms_override=n, skew_theta=math.radians(2.0),
                             storage_tm=100e-6, seed=6)
    assert all(chunk < c < 2 * chunk for c in cell_counts(scn.seed, n).sum(axis=1))
    field = angular_field(scn, grid, threads=2)
    # every shell's blocks, in stream order
    acc, s2, dropped, n_kept = _in_order_sum(
        [_field_partial(scn, grid, *t) for t in _shell_tasks(scn.seed, n, chunk)])
    values = acc / math.sqrt(4.0 * math.pi)
    assert field.values.tobytes() == values.tobytes()
    assert field.source_s2 == s2
    assert field.n_kept == n_kept
    assert dropped <= field.dropped_amplitude <= dropped + (n - n_kept) * PRUNE_FLOOR


# Blocks of 2^9 atoms: each streamed shell of the STREAMED-atom stream is
# several full blocks and a short one, all in one chunk by default.
SMALL_BLOCK = 1 << 9


def _bound(rho, y_max, z_max, scn):
    """The stated bound of ln|A_j| for x^2 + y^2 = rho^2, |y| <= y_max, |z| <= z_max."""
    c, s = math.cos(scn.skew_theta), abs(math.sin(scn.skew_theta))
    w, sig = scn.write_mode, scn.signal_mode
    a_s = sig.waist_w0**2 * (1.0 + (z_max / sig.rayleigh_z) ** 2)
    a_w = w.waist_w0**2 * (1.0 + ((y_max * s + z_max * c) / w.rayleigh_z) ** 2)
    return -rho**2 / a_s - np.maximum(0.0, rho * c - z_max * s) ** 2 / a_w


def _atom_bound(raw, scn):
    """Each atom's bound of ln|A_j| from words 0 and 2, recomputed.

    rho = r0 sqrt(-2 ln u0) >= |y| and Z = r0 sqrt(-2 ln u2) >= |z|, with
    u = (2m + 1) 2^-53 for the top 52 bits m of a word.
    """
    u = ((raw[:, [0, 2]] >> np.uint64(12)).astype(np.float64) * 2.0 + 1.0) * 2.0**-53
    rho, z = (scn.cloud.sigma_r0 * np.sqrt(-2.0 * np.log(u))).T
    return _bound(rho, rho, z, scn)


def _block_d(scn, shell, lo, hi):
    """A block's D over the atoms of the scenario's streamed cells, recomputed.

    _prune's exact sum |A_j| over the ones it drops; None when the block
    holds none of those atoms.
    """
    raw, band = _block_words(scn.seed, _streamed_count(scn), shell, lo, hi)
    streamed = _cell_table(scn)[0][shell][band]
    if not streamed.any():
        return None
    return (_prune(_positions(raw[streamed], scn.cloud.sigma_r0), scn)[1],)


def _streamed_blocks(scn, block):
    """The (shell, lo, hi) of the blocks that hold an atom of the scenario's streamed cells."""
    return [t for t in _shell_tasks(scn.seed, _streamed_count(scn), block)
            if _cell_table(scn)[0][t[0]][_block_words(scn.seed, _streamed_count(scn), *t)[1]].any()]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_stream_folds_each_chunk_block_by_block(small_blocks, job, threads):
    scenarios = [
        _scenario(target_od=24.7, mc_atoms=STREAMED, seed=11, **point) for point in JOBS[job]
    ]
    block = small_blocks(SMALL_BLOCK)
    assert all(2 * block < c < CHUNK_ATOMS and c % block
               for c in _streamed_shell_counts(scenarios, 11, STREAMED))
    got = _eta_stream(scenarios, threads=threads)
    for scn, total in zip(scenarios, got):
        blocks = _streamed_blocks(scn, block)
        ref = _in_order_sum([_direct_eta_worker(((scn,), *t))[0][1] for t in blocks])
        # the (shell, block)-order sum of the block partials over the streamed
        # cells, bit for bit, and D the same fold of each block's recomputed D
        assert total[:4] + total[5:] == ref[:4] + ref[5:]
        (d,) = _in_order_sum([_block_d(scn, *t) for t in blocks])
        assert total[4] == pytest.approx(d, rel=1e-12, abs=0.0)
    small_blocks(CHUNK_ATOMS)
    for total, one in zip(got, _eta_stream(scenarios, threads=threads)):
        # the block size moves no kept atom, and D only by rounding
        assert total[5] == one[5]
        assert total[4] == pytest.approx(one[4], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("threads", [1, 2])
def test_angular_field_folds_each_chunk_block_by_block(small_blocks, threads):
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)
    n = 80 * (1 << 9)
    scn = canonical_scenario(n_atoms_override=n, skew_theta=math.radians(2.0),
                             storage_tm=100e-6, seed=6)
    block = small_blocks(1 << 7)
    assert all(2 * block < c and c % block for c in cell_counts(scn.seed, n).sum(axis=1))
    field = angular_field(scn, grid, threads=threads)
    blocks = _streamed_blocks(scn, block)
    values, s2, dropped, n_kept = _in_order_sum([_field_partial(scn, grid, *t) for t in blocks])
    assert field.values.tobytes() == (values / math.sqrt(4.0 * math.pi)).tobytes()
    assert (field.source_s2, field.n_kept) == (s2, n_kept)
    (d,) = _in_order_sum([_block_d(scn, *t) for t in blocks])
    assert field.dropped_amplitude == pytest.approx(d + _in_region(scn)[2], rel=1e-12, abs=0.0)
    small_blocks(CHUNK_ATOMS)
    one = angular_field(scn, grid, threads=threads)
    assert field.n_kept == one.n_kept
    assert field.dropped_amplitude == pytest.approx(one.dropped_amplitude, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("threads", [1, 2])
def test_groups_that_keep_different_atoms_share_each_block_bit_for_bit(small_blocks, threads):
    # On a 0.1 mm cloud, tilts 0, 2, 4 and 10 deg stream different cells and
    # keep different atoms of one block (on the canonical cloud, every tilt
    # from 1 to 30 deg streams the same cells), and a twin of the 2 deg
    # scenario at 4x the temperature keeps the same atoms with other
    # velocities, in a stream of its own: a block draws the bands that some
    # scenario of its stream streams, its radii, positions and kept atoms'
    # velocities are shared, and each total must be the one streamed alone.
    tilts = [_scenario(1e-4, th, storage_tm=100e-6, target_od=24.7, mc_atoms=STREAMED,
                       seed=11) for th in (0.0, 2.0, 4.0, 10.0)]
    twin = replace(tilts[1], cloud=replace(tilts[1].cloud, temperature_t=4.0 * TEMP))
    scenarios = tilts + [twin]
    small_blocks(SMALL_BLOCK)
    streamed = [_cell_table(scn)[0] for scn in scenarios]
    assert len({table.tobytes() for table in streamed}) == 4  # the tilts stream different cells
    # and in some shell the 10 deg scenario streams bands that the 4 deg one,
    # which streams that shell too, skips: their shared blocks draw both
    assert (streamed[2].any(axis=1) & (streamed[3] & ~streamed[2]).any(axis=1)).any()
    together = _eta_stream(scenarios, threads=threads)
    assert len({total[-1] for total in together[:4]}) == 4  # n_kept differs by tilt
    assert together[4][-1] == together[1][-1] and together[4][0] != together[1][0]
    for scn, total in zip(scenarios, together):
        (alone,) = _eta_stream([scn], threads=threads)
        assert np.asarray(total).tobytes() == np.asarray(alone).tobytes()


def test_a_task_carries_only_the_groups_that_stream_a_cell_of_its_chunk(
        small_blocks, small_chunks, monkeypatch):
    # 0 and 10 deg stream different cells, and a chunk spans a few bands of
    # a shell. A task carries a group only when its chunk holds an atom of a
    # cell that group streams, every such chunk makes one, and a shell whose
    # every cell is skipped makes none.
    chunk = small_chunks(2 * small_blocks(1 << 8))
    scenarios = [_scenario(theta_deg=th, storage_tm=100e-6, target_od=24.7, mc_atoms=100_000,
                           seed=5) for th in (0.0, 10.0)]
    tasks, worker = [], retrieval._eta_worker

    def recording_worker(task):
        tasks.append(task)
        return worker(task)

    monkeypatch.setattr(retrieval, "_eta_worker", recording_worker)
    _eta_stream(scenarios, threads=1)
    counts = cell_counts(5, 100_000)
    streamed = [_cell_table(scn)[0] for scn in scenarios]

    def held(shell, lo, hi):
        """Which bands of the shell hold an atom of the chunk [lo, hi)."""
        ends = np.cumsum(counts[shell])
        return (counts[shell] > 0) & (ends - counts[shell] < hi) & (ends > lo)

    carried = {}  # (shell, lo) -> the scenarios its task carries
    for groups, shell, bands, lo, hi, _ in tasks:
        assert bands == tuple(counts[shell].tolist()) and hi - lo <= chunk
        for row, idx, _ in groups:
            assert (row == streamed[idx[0]][shell]).all()
            assert (row & held(shell, lo, hi)).any()
        carried[shell, lo] = [i for _, idx, _ in groups for i in idx]
    expected = {}
    for shell in range(SHELLS):
        for lo in range(0, int(counts[shell].sum()), chunk):
            own = [i for i, table in enumerate(streamed)
                   if (table[shell] & held(shell, lo, lo + chunk)).any()]
            if own:
                expected[shell, lo] = own
    assert carried == expected
    skipped = {k for k in range(SHELLS) if not any(table[k].any() for table in streamed)}
    assert skipped and not skipped & {shell for shell, _ in carried}
    # the two stream different cells: some chunks carry the 10 deg one alone
    assert [1] in carried.values() and [0, 1] in carried.values()


def test_chunk_size_moves_no_bit(small_blocks, small_chunks):
    # Chunks of one block, of four blocks (every streamed shell spans more
    # than one such chunk) and of 2^20 atoms (one per shell), at threads 1
    # and 2: every sum is the same (shell, block) fold, so each stream total
    # and the field keep every byte.
    def runs(block, stream):
        """stream(threads) at each chunk size and thread count, by (chunk, threads)."""
        got = {}
        for chunk in (block, 4 * block, 1 << 20):
            small_chunks(chunk)
            for threads in (1, 2):
                got[chunk, threads] = stream(threads)
        return got

    scenarios = [_scenario(target_od=24.7, mc_atoms=STREAMED, seed=11, **point)
                 for point in JOBS["tilt"]]
    block = small_blocks(SMALL_BLOCK)
    assert all(c > 4 * block for c in _streamed_shell_counts(scenarios, 11, STREAMED))
    totals = runs(block, lambda threads: [np.asarray(total, dtype=float).tobytes()
                                          for total in _eta_stream(scenarios, threads=threads)])
    assert all(got == totals[block, 1] for got in totals.values())

    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)
    n = 80 * (1 << 9)
    scn = canonical_scenario(n_atoms_override=n, skew_theta=math.radians(2.0),
                             storage_tm=100e-6, seed=6)
    block = small_blocks(1 << 7)
    assert all(c > 4 * block for c in _streamed_shell_counts([scn], scn.seed, n))

    def field_bytes(threads):
        field = angular_field(scn, grid, threads=threads)
        return (field.values.tobytes(), field.source_s2, field.n_kept, field.dropped_amplitude)

    fields = runs(block, field_bytes)
    assert all(got == fields[block, 1] for got in fields.values())


def _cells_d0(scn, counts):
    """Sum of |A_j| bounds of the streamed count's atoms in the skipped cells, recomputed."""
    streamed, _ = _cell_table(scn)
    return sum(counts[k, b] * math.exp(_cell_bound(scn, k, b))
               for k, b in zip(*np.nonzero(~streamed)))


@pytest.mark.parametrize("theta_deg", [0.0, 2.0, 10.0])
def test_dropped_amplitude_is_the_exact_part_plus_the_bounds(theta_deg):
    scn = _scenario(theta_deg=theta_deg, storage_tm=100e-6, target_od=24.7,
                    mc_atoms=STREAMED, seed=11)
    one, two = (eta_paraxial(scn, threads=t) for t in (1, 2))
    assert one.dropped_amplitude == two.dropped_amplitude
    # recomputed: the (shell, block)-order fold of each streamed block's D
    # (exact part plus bounds), plus the skipped cells' bounds
    (d,) = _in_order_sum([_block_d(scn, *t) for t in _streamed_blocks(scn, BLOCK_ATOMS)])
    d0 = _cells_d0(scn, cell_counts(scn.seed, STREAMED))
    assert one.dropped_amplitude == pytest.approx(d + d0, rel=1e-12, abs=0.0)
    # and it bounds the exact sum over every atom the stream skipped
    sample = draw_sample(scn, STREAMED)
    keep, _ = _prune(sample.r_initial, scn)
    assert one.n_kept == int(keep.sum())
    exact = float(np.sum(np.abs(spinwave_amplitude(sample, scn)[~keep])))
    assert exact <= one.dropped_amplitude


def test_a_block_that_keeps_no_atom_adds_only_its_d():
    scn = canonical_scenario()
    # the lowest shell the scenario streams streams its band 0 alone, and
    # keeps no atom at 0 deg
    streamed = _cell_table(scn)[0]
    shell = int(np.flatnonzero(streamed.any(axis=1))[0])
    assert streamed[shell].tolist() == [True] + [False] * (BANDS - 1)
    bands = tuple(cell_counts(scn.seed, scn.n_atoms)[shell].tolist())
    assert bands[0] > 3 * BLOCK_ATOMS

    def project(*_):
        raise AssertionError("projected a block that keeps no atom")

    starts = range(0, 3 * BLOCK_ATOMS, BLOCK_ATOMS)
    blocks = _eta_worker((((streamed[shell], (0,), (scn,)),), shell, bands, 0,
                          3 * BLOCK_ATOMS, project))
    assert len(blocks) == len(starts)
    for b, partials in zip(starts, blocks):
        part = partials[0]
        (d,) = _block_d(scn, shell, b, b + BLOCK_ATOMS)
        assert len(part) == 2 and part[1] == 0
        assert part[0] == pytest.approx(d, rel=1e-12, abs=0.0)


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
        meta = read_meta(out / "eta_meta.txt")
        if method == "paraxial":
            assert 0.0 < float(meta["lobe_fraction"]) < 1.0
        else:
            assert float(meta["lobe_fraction"]) == 0.0
    capsys.readouterr()
