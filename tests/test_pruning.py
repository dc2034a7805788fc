"""The skip of atoms with negligible stored amplitude, and its recorded bound.

Both estimators skip atom j when |A_j| <= PRUNE_FLOOR and record n_kept
and D = sum of the skipped |A_j|. The bounds checked here are the ones
EtaEstimate and AngularField state: |dS1| <= c_P D,
|dS2| <= PRUNE_FLOOR D and |dF| <= D / sqrt(4 pi) at every node, and the
bound on eta they give, EtaEstimate.prune_bound.
"""

import functools
import math
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
    eta_reference,
    eta_paraxial,
    field_from_atoms,
    idler_projection,
    make_scenario,
    spinwave_amplitude,
    wavenumbers,
)
from ire_sim import angular, retrieval
from ire_sim.cli import main as cli_main
from ire_sim.ensemble import cell_counts
from ire_sim.retrieval import CHUNK_ATOMS, _cell_table, _estimate, _eta_stream, _in_region, _prune

from conftest import (
    CANONICAL_INI,
    SPECIES,
    TEMP,
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
    # D bounds the dropped atoms' sum: each atom of a skipped cell counts
    # its cell's bound, at most PRUNE_FLOOR
    assert d_expect <= est.dropped_amplitude <= d_expect + (n - est.n_kept) * PRUNE_FLOOR
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
    # and eta lies within prune_bound of the estimate over every atom
    eta0 = abs(s1) ** 2 / (s2 + coherent_lobe_power(scn) * (n - 1) / n)
    assert 0.0 < est.prune_bound <= 1e-7
    assert abs(est.eta - eta0) <= est.prune_bound

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
    est_a = eta_angular(scn, tiny_grid)
    assert 0.0 < est_a.prune_bound <= 1e-7
    assert abs(est_a.eta - eta_reference(full, tiny_grid)) <= est_a.prune_bound


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
    scn = canonical_scenario(n_atoms_override=3000)
    grid = build_grid(KN.k_i, W_COLLECT, n_cap=48, n_base=32, n_phi=24)
    for path, est in ((tmp_path / "e" / "eta_meta.txt", eta_paraxial(scn)),
                      (tmp_path / "a" / "heatmap_meta.txt", eta_angular(scn, grid))):
        meta = read_meta(path)
        assert float(meta["prune_floor"]) == PRUNE_FLOOR
        n_kept = int(meta["n_kept"])
        assert 0 < n_kept < 3000
        assert 0.0 < float(meta["dropped_amplitude"]) <= (3000 - n_kept) * PRUNE_FLOOR
        # the price of the skip, in eta, beside the amplitude it bounds
        keys = list(meta)
        assert keys.index("prune_bound") == keys.index("dropped_amplitude") + 1
        assert float(meta["prune_bound"]) == est.prune_bound
        assert 0.0 < est.prune_bound <= 1e-7
    header = (tmp_path / "e" / "eta.csv").read_text().splitlines()[0]
    assert header == "od,wr,theta_deg,tm_us,n_atoms,method,seed,eta,numerator,denominator"


# The floor the stream used before it was raised: every atom above it was
# streamed, and a subsample's strata are still the cells it streamed.
OLD_FLOOR = 1e-18


def _at_old_floor(monkeypatch):
    for module in (retrieval, angular):
        monkeypatch.setattr(module, "PRUNE_FLOOR", OLD_FLOOR)
    monkeypatch.setattr(retrieval, "_LN_PRUNE_FLOOR", math.log(OLD_FLOOR))


@pytest.mark.parametrize("mc_atoms", [None, 4_000_000])
def test_the_strata_do_not_follow_the_prune_floor(monkeypatch, mc_atoms):
    # m and N_in count the same cells at either floor: at the old one, the
    # cells the stream streams; at PRUNE_FLOOR, the stream skips some of them
    scenarios = [canonical_scenario(skew_theta=math.radians(th), storage_tm=tm, mc_atoms=mc_atoms)
                 for th in (0.0, 1.0, 2.0, 3.0, 4.0) for tm in (0.0, 100e-6, 200e-6)]
    count = mc_atoms or scenarios[0].n_atoms
    counts = cell_counts(scenarios[0].seed, count)
    now = [_in_region(scn) for scn in scenarios]
    streamed_now = [int(counts[_cell_table(scn)[0]].sum()) for scn in scenarios]
    _at_old_floor(monkeypatch)
    for scn, (m, n_in, d0), streamed in zip(scenarios, now, streamed_now):
        old_m, old_n_in, old_d0 = _in_region(scn)
        assert (m, n_in) == (old_m, old_n_in)
        assert old_m == int(counts[_cell_table(scn)[0]].sum())
        assert streamed < m and d0 > old_d0


@pytest.mark.parametrize("theta_deg, storage_tm", [(0.0, 0.0), (2.0, 100e-6), (2.0, 200e-6)])
def test_eta_lies_within_prune_bound_of_the_estimate_at_the_old_floor(
        monkeypatch, tiny_grid, theta_deg, storage_tm):
    # on a 4e6-atom subsample and on a small full stream, both estimators:
    # putting back the atoms between OLD_FLOOR and PRUNE_FLOOR moves eta by
    # at most the prune_bound the estimate states
    def estimates():
        kwargs = dict(skew_theta=math.radians(theta_deg), storage_tm=storage_tm)
        sub = canonical_scenario(mc_atoms=4_000_000, **kwargs)
        full = canonical_scenario(n_atoms_override=10_000, **kwargs)
        return [eta_paraxial(sub), eta_paraxial(full), eta_angular(full, tiny_grid)]

    now = estimates()
    _at_old_floor(monkeypatch)
    for est, old in zip(now, estimates()):
        assert est.n_kept < old.n_kept
        assert 0.0 < est.prune_bound <= 1e-7
        assert abs(est.eta - old.eta) <= est.prune_bound


# Clouds drawn from a seeded generator over r0 10 um - 2 mm, write and
# collection waists 10 um - 1 mm (each log-uniform), tilt 0 - 10 deg,
# storage 0 - 300 us and 500 - 4000 atoms; each is also subsampled to a
# quarter of its atoms.
_DRAW = np.random.default_rng(41)
DRAWN_CLOUDS = list(zip((10.0 ** _DRAW.uniform(-5.0, math.log10(2e-3), 56)).tolist(),
                        (10.0 ** _DRAW.uniform(-5.0, -3.0, 56)).tolist(),
                        (10.0 ** _DRAW.uniform(-5.0, -3.0, 56)).tolist(),
                        _DRAW.uniform(0.0, 10.0, 56).tolist(),
                        _DRAW.uniform(0.0, 300e-6, 56).tolist(),
                        _DRAW.integers(500, 4001, 56).tolist()))


def _eta_from_sums(scn, region, lobe, s, sxx, s2):
    """The estimate's formula on |S1| = s, SXX and S2, with region's m and N_in and lobe C (N-1)/N."""
    m, n_in, _ = region
    if scn.mc_atoms is None:
        return s * s / (s2 + lobe)
    offdiag = (s * s - sxx) / (m * (m - 1))
    return (n_in * n_in * max(offdiag, 0.0) + n_in * sxx / m) / (s2 * n_in / m + lobe)


def _spread(eta_of, s, sxx, s2, ds, dxx, ds2):
    """Largest |eta_of(s', x', s2') - eta_of(s, sxx, s2)| over |s' - s| <= ds, |x' - sxx| <= dxx
    and |s2' - s2| <= ds2.

    eta_of rises with s and falls with s2, and in x it is convex with its
    one kink at x = s^2, so its extremes lie at the ends of x's range or at
    that kink.
    """
    def xs(s_):
        return (sxx - dxx, sxx + dxx, min(max(s_ * s_, sxx - dxx), sxx + dxx))

    eta = eta_of(s, sxx, s2)
    low = max(s - ds, 0.0)
    top = max(eta_of(s + ds, x, s2 - ds2) for x in xs(s + ds))
    bottom = min(eta_of(low, x, s2 + ds2) for x in xs(low))
    return max(top - eta, eta - bottom)


def test_estimates_meet_their_stated_bounds_with_the_dropped_atoms_put_back():
    # Put every dropped atom back: sums taken directly over every atom of the
    # streamed count move from the stream's by at most what EtaEstimate
    # states, and eta by at most prune_bound. The direct sums add the atoms
    # in another order, so each bound allows 4 n eps sum |term|, and eta the
    # formula's spread over those allowances.
    runs = {"full": 0, "subsample": 0}
    dropped = 0
    for r0, w_write, w_collect, theta_deg, storage_tm, n_atoms in DRAWN_CLOUDS:
        full = make_scenario(SPECIES, r0, TEMP, w_write, w_collect, w_collect,
                             skew_theta=math.radians(theta_deg), storage_tm=storage_tm, seed=7,
                             n_atoms_override=n_atoms)
        c_p = math.sqrt(2.0) / (KN.k_i * w_collect)
        lobe = coherent_lobe_power(full) * (n_atoms - 1) / n_atoms
        for scn in (full, replace(full, mc_atoms=n_atoms // 4)):
            count = scn.mc_atoms or n_atoms
            region = _in_region(scn)
            [total] = _eta_stream([scn])
            try:
                est = _estimate(scn, total, region)
            except ArithmeticError:  # no atom cleared the floor, or m < 2
                continue
            runs["full" if scn is full else "subsample"] += 1
            dropped += scn is full and est.n_kept < count
            d = est.dropped_amplitude
            sample = draw_sample(scn, count)
            a = spinwave_amplitude(sample, scn)
            x = a * idler_projection(sample, scn)
            s1 = complex(np.sum(x))
            sxx = float(np.sum(x.real**2 + x.imag**2))
            s2 = float(np.sum(a.real**2 + a.imag**2))
            allow = 4.0 * count * EPS
            assert abs(s1 - complex(*total[:2])) <= c_p * d + allow * float(np.sum(np.abs(x)))
            assert -allow * sxx <= sxx - total[2] <= c_p**2 * PRUNE_FLOOR * d + allow * sxx
            assert -allow * s2 <= s2 - total[3] <= PRUNE_FLOOR * d + allow * s2
            # the direct sums' rounding moves eta0 by at most the formula's spread over it
            eta_of = functools.partial(_eta_from_sums, scn, region, lobe)
            rounding = _spread(eta_of, abs(s1), sxx, s2, allow * float(np.sum(np.abs(x))),
                               allow * sxx, allow * s2)
            assert abs(eta_of(abs(s1), sxx, s2) - est.eta) <= est.prune_bound + rounding
            # the angular field of the first six clouds that drop an atom
            if scn is full and est.n_kept < count and dropped <= 6:
                grid = build_grid(KN.k_i, w_collect, n_cap=48, n_base=32, n_phi=24)
                oracle = field_from_atoms(a, sample.r_drifted, scn.skew_theta, KN.k_r, KN.k_i,
                                          grid)
                moved = np.max(np.abs(oracle.values - angular_field(scn, grid).values))
                sqrt_4pi = math.sqrt(4.0 * math.pi)
                assert moved <= (d + allow * float(np.sum(np.abs(a)))) / sqrt_4pi
    assert min(runs.values()) >= 50
    assert dropped >= runs["full"] / 2
