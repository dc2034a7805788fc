"""The shell and atom screens in front of the amplitude skip.

An atom's radial shell bounds its transverse radius, so both estimators
never stream the shells far off the signal axis. In the other shells,
counter words 0 and 2 bound each atom's radius and |z| before it is
placed, and the exact mask (_prune) decides the atoms both screens let
through. The screens must be conservative: every atom they leave out is
one _prune drops, with |A_j| <= exp(its bound) <= PRUNE_FLOOR. The
estimates keep the bits of a pass over every shell, and their D stays an
upper bound of that pass's D.
"""

import functools
import math
import operator

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
    NORMAL_MAX,
    SHELL_BITS,
    SHELLS,
    _positions_from_raw,
    _raw_words,
    _sample_words,
    drift,
    shell_counts,
)
from ire_sim.retrieval import (
    _SCREEN_MARGIN,
    BLOCK_ATOMS,
    CHUNK_ATOMS,
    _estimate,
    _eta_stream,
    _eta_worker,
    _in_region,
    _prune,
    _screen_atoms,
    _screen_shell,
    _screens_nothing,
    _shell_bounds,
)

from conftest import (CANONICAL_INI, R0, SPECIES, TEMP, W_COLLECT, W_WRITE, canonical_scenario,
                      read_meta)

KN = wavenumbers(SPECIES)


def _scenario(r0=R0, theta_deg=0.0, w_signal=W_COLLECT, **kwargs):
    return make_scenario(
        SPECIES, r0, TEMP, W_WRITE, w_signal, w_signal,
        skew_theta=math.radians(theta_deg), **kwargs,
    )


SCREEN_GEOMETRIES = [
    (R0, 0.0, W_COLLECT),
    (R0, 4.0, W_COLLECT),
    (R0, 2.0, 1.3 * W_WRITE),  # the widest signal waist of criterion 5's sweep
    (1e-4, 2.0, W_COLLECT),
    (5e-3, 2.0, W_COLLECT),
]


@pytest.mark.parametrize("r0, theta_deg, w_signal", SCREEN_GEOMETRIES)
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
    assert np.max(np.abs(a)) <= math.exp(_shell_bounds(scn)[first - 1]) <= PRUNE_FLOOR


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
    # rho^2 (1 / a_s + 1 / a_w) = |ln PRUNE_FLOOR| at rho = R
    big_z = NORMAL_MAX * R0
    a_s = W_COLLECT**2 * (1.0 + (big_z / scn.signal_mode.rayleigh_z) ** 2)
    a_w = W_WRITE**2 * (1.0 + (big_z / scn.write_mode.rayleigh_z) ** 2)
    r2 = abs(math.log(PRUNE_FLOOR)) * _SCREEN_MARGIN / (1.0 / a_s + 1.0 / a_w)
    r = _positions_from_raw(raw, R0)
    rho2 = r[:, 0] ** 2 + r[:, 1] ** 2
    assert rho2[0] >= r2 > rho2[1]
    # D counts, for each streamed-count atom below the first shell, the
    # bound at its shell's inner radius rho_k, u0 = (k + 1) / SHELLS
    counts = shell_counts(scn.seed, scn.n_atoms)
    m, n_in, d0 = _in_region(scn)
    assert m == n_in == int(counts[first:].sum())
    inner2 = [-2.0 * R0**2 * math.log((k + 1) / SHELLS) for k in range(first)]
    bounds = [math.exp(-rho2_k * (1.0 / a_s + 1.0 / a_w)) for rho2_k in inner2]
    assert d0 == pytest.approx(sum(n * b for n, b in zip(counts, bounds)), rel=1e-12, abs=0.0)
    assert max(bounds) <= PRUNE_FLOOR


def test_tiny_cloud_screens_nothing():
    scn = _scenario(1e-9, n_atoms_override=1000)
    assert _screen_shell(scn) == 0
    assert _in_region(scn) == (1000, 1000, 0.0)


def _unscreened_eta_worker(task):
    """The stream's block sums over any shell, from the public per-atom functions."""
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


def _shell_tasks(seed, count, block):
    """(shell, lo, hi) of every block of every shell of the count-atom stream."""
    return [(shell, lo, min(lo + block, c))
            for shell, c in enumerate(shell_counts(seed, count).tolist())
            for lo in range(0, c, block)]


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
    lowest = min(_screen_shell(scn) for scn in scenarios)
    assert all(c > SMALL_CHUNK for c in shell_counts(11, STREAMED)[lowest:])
    tasks = _shell_tasks(11, STREAMED, SMALL_CHUNK)
    ref = list(zip(*[_unscreened_eta_worker((scenarios, *t)) for t in tasks]))
    for scn, total, every in zip(scenarios, got, ref):
        first = _screen_shell(scn)
        below = [part for t, part in zip(tasks, every) if t[0] < first]
        above = [part for t, part in zip(tasks, every) if t[0] >= first]
        assert all(n_kept == 0 for *_, n_kept in below)
        # the in-order sum of the same blocks over the scenario's own shells,
        # bit for bit; D, which bounds the screened atoms, bounds the exact one
        ref = _in_order_sum(above)
        assert total[:4] + total[5:] == ref[:4] + ref[5:]
        assert ref[4] <= total[4]
        # the screened shells' D is the bound of the estimate, not their own sum
        m, n_in, d0 = _in_region(scn)
        assert sum(part[4] for part in below) <= d0
        new_est, old_est = _estimate(scn, total), _estimate(scn, _in_order_sum(every))
        assert (new_est.eta, new_est.numerator, new_est.denominator, new_est.n_kept) == (
            old_est.eta, old_est.numerator, old_est.denominator, old_est.n_kept)


def _field_partial(scn, grid, shell, lo, hi):
    """(raw field, S2, D, n_kept) of a shell's atoms [lo, hi), from the public functions."""
    sample = _sample_words(_raw_words(scn.seed, shell, lo, hi), scn.cloud)
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
    assert all(chunk < c < 2 * chunk for c in shell_counts(scn.seed, n))
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
    """A block's D, recomputed: _prune's sum over the atoms the screen lets through, plus
    exp(bound) over the others."""
    raw = _raw_words(scn.seed, shell, lo, hi)
    bound = _atom_bound(raw, scn)
    survive = bound > math.log(PRUNE_FLOOR) * _SCREEN_MARGIN
    _, exact = _prune(_positions_from_raw(raw[survive], scn.cloud.sigma_r0), scn)
    return (exact + float(np.sum(np.exp(bound[~survive]))),)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("job", sorted(JOBS))
def test_stream_folds_each_chunk_block_by_block(small_blocks, job, threads):
    scenarios = [
        _scenario(target_od=24.7, mc_atoms=STREAMED, seed=11, **point) for point in JOBS[job]
    ]
    block = small_blocks(SMALL_BLOCK)
    lowest = min(_screen_shell(scn) for scn in scenarios)
    assert all(2 * block < c < CHUNK_ATOMS and c % block
               for c in shell_counts(11, STREAMED)[lowest:])
    got = _eta_stream(scenarios, threads=threads)
    for scn, total in zip(scenarios, got):
        blocks = [t for t in _shell_tasks(11, STREAMED, block) if t[0] >= _screen_shell(scn)]
        ref = _in_order_sum([_unscreened_eta_worker(((scn,), *t))[0] for t in blocks])
        # the (shell, block)-order sum of the block partials, bit for bit, and
        # D the same fold of each block's recomputed D
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
    assert all(2 * block < c and c % block for c in shell_counts(scn.seed, n))
    field = angular_field(scn, grid, threads=threads)
    blocks = [t for t in _shell_tasks(scn.seed, n, block) if t[0] >= _screen_shell(scn)]
    values, s2, dropped, n_kept = _in_order_sum([_field_partial(scn, grid, *t) for t in blocks])
    assert field.values.tobytes() == (values / math.sqrt(4.0 * math.pi)).tobytes()
    assert (field.source_s2, field.n_kept) == (s2, n_kept)
    (d,) = _in_order_sum([_block_d(scn, *t) for t in blocks])
    assert field.dropped_amplitude == pytest.approx(d + _in_region(scn)[2], rel=1e-12, abs=0.0)
    small_blocks(CHUNK_ATOMS)
    one = angular_field(scn, grid, threads=threads)
    assert field.n_kept == one.n_kept
    assert field.dropped_amplitude == pytest.approx(one.dropped_amplitude, rel=1e-14, abs=0.0)


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
    lowest = min(_screen_shell(scn) for scn in scenarios)
    assert all(c > 4 * block for c in shell_counts(11, STREAMED)[lowest:])
    totals = runs(block, lambda threads: [np.asarray(total, dtype=float).tobytes()
                                          for total in _eta_stream(scenarios, threads=threads)])
    assert all(got == totals[block, 1] for got in totals.values())

    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)
    n = 80 * (1 << 9)
    scn = canonical_scenario(n_atoms_override=n, skew_theta=math.radians(2.0),
                             storage_tm=100e-6, seed=6)
    block = small_blocks(1 << 7)
    assert all(c > 4 * block for c in shell_counts(scn.seed, n)[_screen_shell(scn):])

    def field_bytes(threads):
        field = angular_field(scn, grid, threads=threads)
        return (field.values.tobytes(), field.source_s2, field.n_kept, field.dropped_amplitude)

    fields = runs(block, field_bytes)
    assert all(got == fields[block, 1] for got in fields.values())


# The shell screen's geometries, each at its own tilt and at 4 and 10 deg.
ATOM_SCREEN_CASES = sorted({(r0, th, w) for r0, own, w in SCREEN_GEOMETRIES
                            for th in (own, 4.0, 10.0)})


@pytest.mark.parametrize("r0, theta_deg, w_signal", ATOM_SCREEN_CASES)
def test_atom_screen_rejects_only_atoms_the_mask_drops(r0, theta_deg, w_signal):
    scn = _scenario(r0, theta_deg, w_signal, storage_tm=100e-6, seed=3,
                    n_atoms_override=CHUNK_ATOMS)
    raw = np.concatenate([_raw_words(scn.seed, shell, 0, 1 << 13)
                          for shell in range(_screen_shell(scn), SHELLS)])
    survive, d = _screen_atoms(raw, r0, scn)
    keep, _ = _prune(_positions_from_raw(raw, r0), scn)
    assert (~survive).any()
    assert not (keep & ~survive).any()
    # each screened atom's bound, recomputed, bounds its |A_j| and sums to D
    screened = np.exp(_atom_bound(raw[~survive], scn))
    a = np.abs(spinwave_amplitude(_sample_words(raw[~survive], scn.cloud), scn))
    assert np.all(a <= screened)
    assert np.all(screened <= PRUNE_FLOOR)
    assert d == pytest.approx(float(np.sum(screened)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theta_deg", [0.0, 4.0])
def test_threshold_words_split_the_atom_screen(theta_deg):
    scn = _scenario(theta_deg=theta_deg, n_atoms_override=10)
    level = math.log(PRUNE_FLOOR) * _SCREEN_MARGIN
    # word 2 at u2 = 1/2 puts Z = r0 sqrt(2 ln 2); words 1 and 3 at their
    # smallest uniform put the atom at y = 0 and z = Z
    z = R0 * math.sqrt(2.0 * math.log(2.0))
    raw = np.zeros((2, 8), dtype=np.uint64)
    raw[:, 2] = np.uint64(1 << 63)
    for row, target in enumerate((level * (1.0 - 1e-9), level * (1.0 + 1e-9))):
        lo, hi = 0.0, 8.0 * R0  # the bound falls as rho grows: bisect for the target
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _bound(mid, mid, z, scn) > target else (lo, mid)
        u0 = math.exp(-0.5 * (lo / R0) ** 2)
        raw[row, 0] = np.uint64(round((u0 * 2.0**53 - 1.0) / 2.0)) << np.uint64(12)
    assert _atom_bound(raw, scn) == pytest.approx(
        [level * (1.0 - 1e-9), level * (1.0 + 1e-9)], rel=1e-12)
    survive, d = _screen_atoms(raw, R0, scn)
    assert survive.tolist() == [True, False]
    assert not _prune(_positions_from_raw(raw, R0), scn)[0][1]
    a = spinwave_amplitude(_sample_words(raw, scn.cloud), scn)
    assert abs(a[1]) <= d == pytest.approx(math.exp(level * (1.0 + 1e-9)), rel=1e-12)
    assert d < PRUNE_FLOOR


# The shell screen's geometries and the canonical cloud at 2 deg.
SKIP_CASES = SCREEN_GEOMETRIES + [(R0, 2.0, W_COLLECT)]


@pytest.mark.parametrize("r0, theta_deg, w_signal", SKIP_CASES)
def test_atom_screen_is_skipped_only_where_it_screens_nothing(monkeypatch, r0, theta_deg,
                                                              w_signal):
    scn = _scenario(r0, theta_deg, w_signal, storage_tm=100e-6, target_od=24.7,
                    mc_atoms=STREAMED, seed=11)
    flagged = [k for k in range(SHELLS) if _screens_nothing(scn, k)]
    if (r0, w_signal) == (R0, W_COLLECT):
        assert flagged == [62, 63]  # the canonical cloud at 0, 2 and 4 deg
    for shell in flagged:
        # the shell's first atoms and its lowest bound: the smallest u0
        # (largest rho) of the shell and the largest u2 (Z near 0)
        raw = _raw_words(scn.seed, shell, 0, 1 << 13)
        worst = raw[:1].copy()
        worst[0, 0] = np.uint64(shell << (64 - SHELL_BITS))
        worst[0, 2] = np.uint64(2**64 - 1)
        survive, d = _screen_atoms(np.concatenate([worst, raw]), r0, scn)
        assert survive.all() and d == 0.0

    # the stream never screens a flagged shell's atoms, and keeps every bit
    # of a pass that screens every shell
    screened = set()

    def recording_screen(raw, *args):
        screened.update((raw[:, 0] >> np.uint64(64 - SHELL_BITS)).tolist())
        return _screen_atoms(raw, *args)

    monkeypatch.setattr(retrieval, "_screen_atoms", recording_screen)
    (skipped,) = _eta_stream([scn], threads=1)
    assert screened == set(range(_screen_shell(scn), SHELLS)) - set(flagged)
    monkeypatch.setattr(retrieval, "_screens_nothing", lambda *_: False)
    (every,) = _eta_stream([scn], threads=1)
    assert np.asarray(skipped).tobytes() == np.asarray(every).tobytes()


def _shell_d0(scn, counts):
    """Sum of |A_j| bounds of the streamed count's atoms below the first shell, recomputed."""
    r0, first = scn.cloud.sigma_r0, _screen_shell(scn)
    inner = [r0 * math.sqrt(-2.0 * math.log((k + 1) / SHELLS)) for k in range(first)]
    return sum(n * math.exp(_bound(rho, NORMAL_MAX * r0, NORMAL_MAX * r0, scn))
               for n, rho in zip(counts, inner))


@pytest.mark.parametrize("theta_deg", [0.0, 2.0, 10.0])
def test_dropped_amplitude_is_the_exact_part_plus_the_bounds(theta_deg):
    scn = _scenario(theta_deg=theta_deg, storage_tm=100e-6, target_od=24.7,
                    mc_atoms=STREAMED, seed=11)
    one, two = (eta_paraxial(scn, threads=t) for t in (1, 2))
    assert one.dropped_amplitude == two.dropped_amplitude
    # recomputed: the (shell, block)-order fold of each streamed block's D
    # (exact part plus bounds), plus the unstreamed shells' bounds
    counts = shell_counts(scn.seed, STREAMED)
    blocks = [t for t in _shell_tasks(scn.seed, STREAMED, BLOCK_ATOMS)
              if t[0] >= _screen_shell(scn)]
    (d,) = _in_order_sum([_block_d(scn, *t) for t in blocks])
    assert one.dropped_amplitude == pytest.approx(d + _shell_d0(scn, counts), rel=1e-12, abs=0.0)
    # and it bounds the exact sum over every atom the stream skipped
    sample = draw_sample(scn, STREAMED)
    keep, _ = _prune(sample.r_initial, scn)
    assert one.n_kept == int(keep.sum())
    exact = float(np.sum(np.abs(spinwave_amplitude(sample, scn)[~keep])))
    assert exact <= one.dropped_amplitude


def test_a_block_that_keeps_no_atom_adds_only_its_d():
    scn = canonical_scenario()
    assert _screen_shell(scn) == 59  # streamed, and keeps no atom at 0 deg

    def project(*_):
        raise AssertionError("projected a block that keeps no atom")

    starts = range(0, 3 * BLOCK_ATOMS, BLOCK_ATOMS)
    blocks = _eta_worker(((scn,), 59, 0, 3 * BLOCK_ATOMS, project))
    assert len(blocks) == len(starts)
    for b, (part,) in zip(starts, blocks):
        (d,) = _block_d(scn, 59, b, b + BLOCK_ATOMS)
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
