"""The radial-shell counter layout.

Atom i of shell k draws its words from Philox with the key (seed, k + 1),
and its u0 = (k + u) / SHELLS; how many atoms each shell holds is one
multinomial draw keyed by the seed. The layout must place every atom of a
shell inside that shell's slice of u0, give each shell a pure count, and
sample the same cloud as the layout it replaced, in which atom i took the
words 8i..8i+7 of one Philox stream keyed by the seed. The last test checks
that against a copy of the old layout kept here.
"""

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
    NORMAL_MAX,
    SHELLS,
    AtomSample,
    _raw_words,
    _uniform,
    drift,
    shell_counts,
    thermal_velocity_sigma,
)
from ire_sim.retrieval import CHUNK_ATOMS, PRUNE_FLOOR, _prune

from conftest import canonical_scenario


@pytest.mark.parametrize("shell", [0, 1, 31, 48, 62, SHELLS - 1])
def test_every_atom_of_a_shell_has_u0_in_its_slice(shell):
    u0 = _uniform(_raw_words(5, shell, 1000, 1000 + 4096)[:, 0])
    assert np.all(u0 >= shell / SHELLS) and np.all(u0 < (shell + 1) / SHELLS)
    # the extreme words of the shell: every bit below the shell bits clear, or set
    low, high = np.uint64(shell << 58), np.uint64((shell << 58) | ((1 << 58) - 1))
    ends = _uniform(np.array([low, high]))
    assert shell / SHELLS < ends[0] < ends[1] < (shell + 1) / SHELLS
    # and no uniform is below 2^-53: NORMAL_MAX bounds every coordinate
    assert math.sqrt(-2.0 * math.log(_uniform(np.array([np.uint64(0)]))[0])) <= NORMAL_MAX


def test_a_stream_is_uniform_in_u0():
    # u0 over a whole 65,536-atom stream against the uniform distribution:
    # the Kolmogorov-Smirnov distance stays below its 0.1 % critical value
    n = 1 << 16
    counts = shell_counts(3, n)
    u0 = np.sort(np.concatenate(
        [_uniform(_raw_words(3, k, 0, c)[:, 0]) for k, c in enumerate(counts.tolist())]))
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - u0), np.max(u0 - (grid - 1.0 / n)))
    assert ks < 1.95 / math.sqrt(n)


def test_shell_counts_sum_to_the_count():
    for count in (1, 63, 1000, 808_106_001):
        counts = shell_counts(7, count)
        assert counts.shape == (SHELLS,) and counts.dtype == np.int64
        assert int(counts.sum()) == count and counts.min() >= 0


def test_shell_counts_are_a_pure_function_of_seed_and_count():
    assert np.array_equal(shell_counts(7, 10**6), shell_counts(7, 10**6))
    assert not np.array_equal(shell_counts(7, 10**6), shell_counts(8, 10**6))
    # a fresh interpreter draws the same counts
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "from ire_sim.ensemble import shell_counts; print(shell_counts(7, 10**6).tolist())"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(shell_counts(7, 10**6).tolist())


def test_sample_atoms_orders_the_stream_shell_major():
    scn = canonical_scenario(n_atoms_override=5000, seed=4)
    sample = sample_atoms(scn.cloud, scn.seed, 0, 5000)
    rho2 = (sample.r_initial[:, 0] ** 2 + sample.r_initial[:, 1] ** 2) / scn.cloud.sigma_r0**2
    u0 = np.exp(-0.5 * rho2)
    shells = np.repeat(np.arange(SHELLS), shell_counts(scn.seed, 5000))
    assert np.all(np.floor(u0 * SHELLS) == shells)


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
