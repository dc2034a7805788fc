"""The (shell, band) cell counter layout.

Atom i of cell (k, b) draws words 6i..6i+5 from Philox with the key
(seed, k BANDS + b + 1), its u0 = (k + u) / SHELLS and its
u2 = (b + u') / BANDS; how many atoms each cell holds is one multinomial
draw over the shells, then one over each shell's bands, keyed by the seed.
The layout must place every atom of a cell inside its shell's slice of u0
and its band's slice of u2, give each cell a pure count, and sample the
same cloud as the layout it replaced, in which atom i took the words
8i..8i+7 of one Philox stream keyed by the seed. The last test checks that
against a copy of the old layout kept here.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.random import Philox

from ire_sim import (
    coherent_lobe_power,
    eta_paraxial,
    idler_projection,
    sample_atoms,
    spinwave_amplitude,
)
from ire_sim.ensemble import (
    BANDS,
    NORMAL_MAX,
    SHELLS,
    AtomSample,
    _positions_from_raw,
    _radii,
    _raw_words,
    _segments,
    _uniform,
    _velocities_from_raw,
    cell_counts,
    drift,
    thermal_velocity_sigma,
)
from ire_sim.retrieval import CHUNK_ATOMS, PRUNE_FLOOR, _prune

from conftest import canonical_scenario


@pytest.mark.parametrize("shell", [0, 1, 31, 48, 62, SHELLS - 1])
def test_every_atom_of_a_shell_has_u0_in_its_slice(shell):
    for band in range(BANDS):
        u = _uniform(_raw_words(5, shell, band, 1001, 1001 + 512)[:, [0, 2]])
        assert np.all(u[:, 0] >= shell / SHELLS) and np.all(u[:, 0] < (shell + 1) / SHELLS)
        assert np.all(u[:, 1] >= band / BANDS) and np.all(u[:, 1] < (band + 1) / BANDS)
    # the extreme words of the shell and of a band: every bit below the
    # shell's 6 or the band's 3 top bits clear, or set
    for k, bits, n in ((shell, 58, SHELLS), (shell % BANDS, 61, BANDS)):
        low, high = np.uint64(k << bits), np.uint64((k << bits) | ((1 << bits) - 1))
        ends = _uniform(np.array([low, high]))
        assert k / n < ends[0] < ends[1] < (k + 1) / n
    # and no uniform is below 2^-53: NORMAL_MAX bounds every coordinate
    assert math.sqrt(-2.0 * math.log(_uniform(np.array([np.uint64(0)]))[0])) <= NORMAL_MAX


def _segments_by_index(sizes, lo, hi):
    """(run, a, b) of each run that [lo, hi) covers, found index by index."""
    parts = []
    for run, i in [(run, i) for run, size in enumerate(sizes) for i in range(size)][lo:hi]:
        if parts and parts[-1][0] == run:
            parts[-1][2] = i + 1
        else:
            parts.append([run, i, i + 1])
    return [tuple(part) for part in parts]


def test_segments_match_an_index_by_index_walk():
    rng = np.random.default_rng(35)
    empty_runs = 0
    for _ in range(40):
        sizes = rng.integers(0, 5, size=int(rng.integers(1, 12))).tolist()
        empty_runs += sizes.count(0)
        total = sum(sizes)
        edges = np.cumsum([0, *sizes]).tolist()
        ranges = [(0, total), (0, 0), (total, total)]  # the whole range and empty ones
        ranges += [(lo, hi) for lo in edges for hi in edges if lo <= hi]  # on run edges
        ranges += [(lo, int(rng.integers(lo, total + 1))) for lo in edges]  # one edge
        ranges += [tuple(sorted(rng.integers(0, total + 1, size=2).tolist())) for _ in range(8)]
        for lo, hi in ranges:
            assert _segments(sizes, lo, hi) == _segments_by_index(sizes, lo, hi), (sizes, lo, hi)
    assert empty_runs > 0


def test_two_atoms_share_three_counters():
    # atom i's six words start at word 6i of its cell's stream, so a range
    # that starts at an odd atom starts inside a counter, and any range is
    # the slice of one longer range
    words = Philox(key=np.array([5, 3 * BANDS + 2 + 1], dtype=np.uint64)).random_raw(6 * 101)
    whole = _raw_words(5, 3, 2, 0, 101)
    assert np.array_equal(whole[:, [1, 3, 4, 5]], words.reshape(101, 6)[:, [1, 3, 4, 5]])
    for lo in (1, 2, 7, 50):
        assert np.array_equal(_raw_words(5, 3, 2, lo, 101), whole[lo:])


def test_a_stream_is_uniform_in_u0():
    # u0 and u2 over a whole 65,536-atom stream against the uniform
    # distribution: each Kolmogorov-Smirnov distance stays below its 0.1 %
    # critical value
    n = 1 << 16
    counts = cell_counts(3, n)
    u = np.concatenate([_uniform(_raw_words(3, k, b, 0, counts[k, b])[:, [0, 2]])
                        for k in range(SHELLS) for b in range(BANDS)])
    grid = np.arange(1, n + 1) / n
    for col in u.T:
        col = np.sort(col)
        ks = max(np.max(grid - col), np.max(col - (grid - 1.0 / n)))
        assert ks < 1.95 / math.sqrt(n)


def test_shell_counts_sum_to_the_count():
    for count in (1, 63, 1000, 808_106_001):
        counts = cell_counts(7, count)
        assert counts.shape == (SHELLS, BANDS) and counts.dtype == np.int64
        assert int(counts.sum()) == count and counts.min() >= 0


def test_shell_counts_are_a_pure_function_of_seed_and_count():
    assert np.array_equal(cell_counts(7, 10**6), cell_counts(7, 10**6))
    assert not np.array_equal(cell_counts(7, 10**6), cell_counts(8, 10**6))
    # a fresh interpreter draws the same counts
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "from ire_sim.ensemble import cell_counts; print(cell_counts(7, 10**6).tolist())"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(cell_counts(7, 10**6).tolist())


# Literal cell counts, drawn with numpy 2.4: the rows of shells 0 and 63 and
# the SHA-256 of the whole (SHELLS, BANDS) table as little-endian int64.
PINNED_COUNTS = {
    (1, 808_106_001): (
        [1577439, 1578098, 1578362, 1578263, 1577508, 1576728, 1578966, 1577836],
        [1578812, 1577201, 1577889, 1577776, 1578518, 1576289, 1577997, 1578307],
        "2abda24f565188731d1ae48492760be4a8e0d5ee440c53fcf49540872504b69e",
    ),
    (7, 10**6): (
        [1908, 1966, 1965, 2010, 1912, 1940, 1956, 2014],
        [1958, 1915, 1927, 1955, 1987, 2034, 1872, 1968],
        "d9b730bfd3cc24dd4e66628b80b330e13919f4838227b349b953d30a398dc5ae",
    ),
}


@pytest.mark.parametrize("seed, count", sorted(PINNED_COUNTS))
def test_cell_counts_are_pinned(seed, count):
    # numpy does not promise its multinomial draw across versions (NEP 19):
    # an upgrade that moves the counts fails here rather than moving every
    # stream silently
    first, last, digest = PINNED_COUNTS[seed, count]
    counts = cell_counts(seed, count)
    assert counts[0].tolist() == first and counts[-1].tolist() == last
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest


def test_box_muller_map_is_the_textbook_one():
    # the normals from beams._cos_sin against np.cos and np.sin of the same
    # angles, within 4 eps of each normal's radius: 10^5 random atoms, and
    # words whose uniforms sit next to 0, 1/2 (the half-angle tangent's
    # pole) and 1
    rng = np.random.default_rng(5)
    raw = rng.integers(0, 2**64, size=(100_000, 6), dtype=np.uint64)
    edges = np.array([0, 1, 2**63 - 2**12, 2**63, 2**63 + 2**12, 2**64 - 2**12, 2**64 - 1],
                     dtype=np.uint64)
    edge_rows = np.repeat(edges[:, None], 6, axis=1)
    edge_rows[:, [0, 2, 4]] = np.uint64(2**62)  # radii well inside (0, NORMAL_MAX)
    raw = np.concatenate([raw, edge_rows])
    scn = canonical_scenario(n_atoms_override=10)
    r0, sigma_v = scn.cloud.sigma_r0, thermal_velocity_sigma(scn.cloud)
    rad = _radii(raw)
    u = _uniform(raw)
    rad2 = np.sqrt(-2.0 * np.log(u[:, 4]))
    ang = 2.0 * np.pi * u[:, [1, 3, 5]]
    r = _positions_from_raw(raw, rad, r0)
    v = _velocities_from_raw(raw, rad, scn.cloud)
    eps = np.finfo(float).eps
    for got, want, radius in (
        (r[:, 0], r0 * (rad[0] * np.cos(ang[:, 0])), r0 * rad[0]),
        (r[:, 1], r0 * (rad[0] * np.sin(ang[:, 0])), r0 * rad[0]),
        (r[:, 2], r0 * (rad[1] * np.cos(ang[:, 1])), r0 * rad[1]),
        (v[:, 0], rad[1] * np.sin(ang[:, 1]) * sigma_v, sigma_v * rad[1]),
        (v[:, 1], rad2 * np.cos(ang[:, 2]) * sigma_v, sigma_v * rad2),
        (v[:, 2], rad2 * np.sin(ang[:, 2]) * sigma_v, sigma_v * rad2),
    ):
        assert np.all(np.abs(got - want) <= 4.0 * eps * radius)


def test_sample_atoms_orders_the_stream_shell_major():
    # by (shell, band, index): each atom's u0 and u2, recovered from its
    # position and velocity, fall in its cell's slices
    scn = canonical_scenario(n_atoms_override=5000, seed=4)
    sample = sample_atoms(scn.cloud, scn.seed, 0, 5000)
    r0, sigma_v = scn.cloud.sigma_r0, thermal_velocity_sigma(scn.cloud)
    rho2 = (sample.r_initial[:, 0] ** 2 + sample.r_initial[:, 1] ** 2) / r0**2
    rad2 = (sample.r_initial[:, 2] / r0) ** 2 + (sample.velocity[:, 0] / sigma_v) ** 2
    cells = np.repeat(np.arange(SHELLS * BANDS), cell_counts(scn.seed, 5000).ravel())
    assert np.all(np.floor(np.exp(-0.5 * rho2) * SHELLS) == cells // BANDS)
    assert np.all(np.floor(np.exp(-0.5 * rad2) * BANDS) == cells % BANDS)


# The layout before the shells, kept here to compare against: atom i took
# the 8 words from counter block 2i of Philox(key=seed), each word's top 53
# bits giving a uniform (m + 1/2) 2^-53.
def _old_layout_words(seed, lo, hi):
    return Philox(key=np.uint64(seed), counter=2 * lo).random_raw(8 * (hi - lo)).reshape(-1, 8)


def _old_layout_sample(raw, cloud):
    u = (raw[:, :6] >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    rad = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    ang = 2.0 * np.pi * u[:, 1::2]
    g = np.empty((raw.shape[0], 6))
    g[:, 0::2] = rad * np.cos(ang)
    g[:, 1::2] = rad * np.sin(ang)
    return AtomSample(r_initial=g[:, 0:3] * cloud.sigma_r0,
                      velocity=g[:, 3:6] * thermal_velocity_sigma(cloud))


def _old_layout_eta(scenarios, seed, n):
    """eta of each scenario over the full n-atom stream of the old layout.

    Atoms whose transverse radius alone puts |A_j| below PRUNE_FLOOR^2 of
    its peak, with the signal waist at its widest anywhere in the cloud, are
    screened from word 0, as the old layout did; _prune decides the rest.
    """
    s = scenarios[0].signal_mode
    r0 = scenarios[0].cloud.sigma_r0
    z_max = math.sqrt(108.0 * math.log(2.0)) * r0  # its uniforms were at least 2^-54
    r2 = (-2.0 * math.log(PRUNE_FLOOR) * s.waist_w0**2
          * (1.0 + (z_max / s.rayleigh_z) ** 2) * (1.0 + 1e-6))
    floor = np.uint64(math.floor(math.exp(-0.5 * r2 / r0**2) * 2.0**64))
    sums = np.zeros((len(scenarios), 3))
    for lo in range(0, n, CHUNK_ATOMS):
        raw = _old_layout_words(seed, lo, min(n, lo + CHUNK_ATOMS))
        sample = _old_layout_sample(raw[raw[:, 0] >= floor], scenarios[0].cloud)
        for row, scn in zip(sums, scenarios):
            keep, _ = _prune(sample.r_initial, scn)
            kept = drift(AtomSample(sample.r_initial[keep], sample.velocity[keep]), scn.storage_tm)
            a = spinwave_amplitude(kept, scn)
            s1 = complex(np.sum(a * idler_projection(kept, scn)))
            row += (s1.real, s1.imag, float(np.sum(np.abs(a) ** 2)))
    return [(s1r**2 + s1i**2) / (s2 + coherent_lobe_power(scn) * (n - 1) / n)
            for (s1r, s1i, s2), scn in zip(sums, scenarios)]


@pytest.mark.slow
def test_new_layout_samples_the_same_cloud_as_the_old_one():
    n, seeds = 1 << 22, range(1, 21)
    points = ((0.0, 0.0), (2.0, 100e-6))

    def scenarios(seed):
        return [canonical_scenario(n_atoms_override=n, seed=seed,
                                   skew_theta=math.radians(deg), storage_tm=tm)
                for deg, tm in points]

    old = np.array([_old_layout_eta(scenarios(seed), seed, n) for seed in seeds])
    new = np.array([[eta_paraxial(scn).eta for scn in scenarios(seed)] for seed in seeds])
    for (deg, tm), a, b in zip(points, old.T, new.T):
        stderr = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(len(seeds))
        print(f"{deg:g} deg, {tm * 1e6:g} us: old layout {a.mean():.4f}, "
              f"new layout {b.mean():.4f}, combined stderr {stderr:.4f}")
        assert abs(a.mean() - b.mean()) <= 3.0 * stderr
