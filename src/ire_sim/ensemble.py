"""Atomic cloud generation, ballistic drift, and optical depth.

The cloud is an isotropic Gaussian with per-axis position standard
deviation r0 and Maxwell-Boltzmann velocities (per-axis standard deviation
sqrt(kB T / M)). Sampling is counter-based: an atom's position and velocity
are a pure function of the seed, its radial shell and its index in that
shell, so any chunking regenerates identical samples and no storage of the
full ensemble is ever needed.

Concretely, the range (0, 1) of the uniform u0 behind the transverse
radius is cut into SHELLS equal-probability shells. How many of a stream's
count atoms fall in each shell is one multinomial draw (shell_counts), a
pure function of (seed, count). Atom i of shell k owns the 8 consecutive
64-bit words at counter blocks 2i and 2i+1 of a Philox stream with the
128-bit key (seed, k + 1); words 0..5 feed three fixed Box-Muller pairs
(3 position + 3 velocity normals) and words 6..7 are reserved. Word 0 is
rewritten to carry the shell in its top SHELL_BITS bits, so its uniform is
u0 = (k + u) / SHELLS with u in (0, 1) from the word's remaining bits, and
every atom of shell k has u0 in (k/SHELLS, (k+1)/SHELLS). A stream orders
its atoms shell-major: shell 0's first, in index order.

The shell alone bounds an atom's transverse radius: pair 0 gives
x^2 + y^2 = r0^2 (-2 ln u0), so every atom of shell k has x^2 + y^2 above
r0^2 (-2 ln((k + 1) / SHELLS)), and a caller that needs only the atoms
inside some radius never draws words for the shells beyond it. Every
uniform is at least 2^-53, so no atom has a coordinate beyond NORMAL_MAX r0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .beams import BeamMode

C_LIGHT = 299792458.0  # m/s
K_BOLTZMANN = 1.380649e-23  # J/K
ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg

# (2 pi)^(3/2), the Gaussian-cloud volume factor in N = n0 (2pi)^(3/2) r0^3
_GAUSS_VOLUME = (2.0 * math.pi) ** 1.5


@dataclass(frozen=True)
class SpeciesConstants:
    """Atomic species data for the write transition and level structure.

    transition_wavelength  m (control/write line)
    detuning_delta         rad/s, write detuning from the excited state
    hyperfine_omega_sg     rad/s, signed splitting of the two ground levels
    cross_section_sigma0   m^2, off-resonant scattering cross-section
    cg_coefficient_sq      dimensionless transition-strength factor in (0, 1]
    atom_mass              kg
    """

    transition_wavelength: float
    detuning_delta: float
    hyperfine_omega_sg: float
    cross_section_sigma0: float
    cg_coefficient_sq: float = 1.0
    atom_mass: float = 87.0 * ATOMIC_MASS_UNIT

    def __post_init__(self) -> None:
        if not (self.transition_wavelength > 0.0):
            raise ValueError("transition_wavelength must be positive")
        if not (self.cross_section_sigma0 > 0.0):
            raise ValueError("cross_section_sigma0 must be positive")
        if not (0.0 < self.cg_coefficient_sq <= 1.0):
            raise ValueError("cg_coefficient_sq must be in (0, 1]")
        if not (self.atom_mass > 0.0):
            raise ValueError("atom_mass must be positive")


@dataclass(frozen=True)
class CloudSpec:
    """Gaussian atomic cloud.

    peak_density_n0  atoms/m^3 at the cloud center
    sigma_r0         m, isotropic per-axis position standard deviation
    temperature_t    K
    atom_mass_m      kg
    """

    peak_density_n0: float
    sigma_r0: float
    temperature_t: float
    atom_mass_m: float

    def __post_init__(self) -> None:
        for name in ("peak_density_n0", "sigma_r0", "temperature_t", "atom_mass_m"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        if self.atom_count < 1:
            raise ValueError(
                f"implied atom count {self.atom_count} < 1; "
                "increase peak_density_n0 or sigma_r0"
            )

    @property
    def atom_count(self) -> int:
        """Implied total atom number N = round(n0 (2 pi)^(3/2) r0^3)."""
        return int(round(self.peak_density_n0 * _GAUSS_VOLUME * self.sigma_r0**3))


@dataclass
class AtomSample:
    """A batch of atoms (structure-of-arrays).

    r_initial  (n, 3) m
    velocity   (n, 3) m/s
    r_drifted  (n, 3) m, or None before drift is applied
    """

    r_initial: np.ndarray
    velocity: np.ndarray
    r_drifted: np.ndarray | None = None

    def __len__(self) -> int:
        return self.r_initial.shape[0]


def thermal_velocity_sigma(cloud: CloudSpec) -> float:
    """Per-axis velocity standard deviation sqrt(kB T / M) in m/s."""
    return math.sqrt(K_BOLTZMANN * cloud.temperature_t / cloud.atom_mass_m)


def most_probable_speed(cloud: CloudSpec) -> float:
    """Maxwell-Boltzmann most probable speed sqrt(2 kB T / M) in m/s."""
    return math.sqrt(2.0 * K_BOLTZMANN * cloud.temperature_t / cloud.atom_mass_m)


# uint64 -> (0,1) double: the top 52 bits m as the mantissa of 1 + m 2^-52,
# less 1 - 2^-53, so the result (2m + 1) 2^-53 is exact, never 0 (safe
# under log) and never 1.
_ONE_BITS = np.uint64(0x3FF0000000000000)
_ONE_LESS_U53 = 1.0 - 2.0**-53

# Largest |normal| any pair of words can give: every uniform is at least
# 2^-53, so sqrt(-2 ln u) <= sqrt(106 ln 2), about 8.57.
NORMAL_MAX = math.sqrt(106.0 * math.log(2.0))

# The radial shells: equal-probability slices of u0, one Philox key each.
SHELL_BITS = 6
SHELLS = 1 << SHELL_BITS


def shell_counts(seed: int, count: int) -> np.ndarray:
    """How many atoms of a count-atom stream fall in each shell: shape (SHELLS,) int64.

    One multinomial draw over the equal-probability shells, from a Philox
    generator keyed by (seed, 0), a key no shell uses: a pure function of
    (seed, count). numpy does not promise that this draw stays the same
    across its versions (NEP 19), so run records carry the numpy version.
    """
    gen = np.random.Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return gen.multinomial(count, np.full(SHELLS, 1.0 / SHELLS))


def _raw_words(seed: int, shell: int, index_lo: int, index_hi: int) -> np.ndarray:
    """Counter words for atoms [index_lo, index_hi) of one shell: shape (n, 8) uint64.

    Word 0 keeps its top 58 bits below the shell number, so its uniform is
    u0 = (shell + u) / SHELLS (see the module docstring).
    """
    n = index_hi - index_lo
    gen = Philox(key=np.array([seed, shell + 1], dtype=np.uint64), counter=2 * index_lo)
    raw = gen.random_raw(8 * n).reshape(n, 8)
    raw[:, 0] >>= np.uint64(SHELL_BITS)
    raw[:, 0] |= np.uint64(shell << (64 - SHELL_BITS))
    return raw


def _stream_words(seed: int, count: int, index_lo: int, index_hi: int) -> np.ndarray:
    """Counter words for atoms [index_lo, index_hi) of the count-atom stream, shell-major."""
    ends = np.cumsum(shell_counts(seed, count)).tolist()
    parts, start = [], 0
    for shell, end in enumerate(ends):
        lo, hi = max(index_lo, start), min(index_hi, end)
        if lo < hi:
            parts.append(_raw_words(seed, shell, lo - start, hi - start))
        start = end
    return np.concatenate(parts) if parts else np.empty((0, 8), dtype=np.uint64)


def _uniform(words: np.ndarray) -> np.ndarray:
    """Counter words as (0, 1) doubles, (2m + 1) 2^-53 for the top 52 bits m."""
    bits = words >> np.uint64(12)
    bits |= _ONE_BITS
    return bits.view(np.float64) - _ONE_LESS_U53


def _positions_from_raw(raw: np.ndarray, r0: float) -> np.ndarray:
    """Initial positions (n, 3) from counter words 0..3 alone.

    The sampler's Box-Muller map restricted to the position normals: pair 0
    gives x and y, the cosine half of pair 1 gives z. Lets a caller decide
    per atom before it pays for the velocity words (_velocities_from_raw).
    """
    ra = np.sqrt(-2.0 * np.log(_uniform(raw[:, 0])))
    aa = 2.0 * np.pi * _uniform(raw[:, 1])
    r = np.empty((raw.shape[0], 3))
    r[:, 0] = r0 * (ra * np.cos(aa))
    r[:, 1] = r0 * (ra * np.sin(aa))
    rz = np.sqrt(-2.0 * np.log(_uniform(raw[:, 2])))
    r[:, 2] = r0 * (rz * np.cos(2.0 * np.pi * _uniform(raw[:, 3])))
    return r


def _velocities_from_raw(raw: np.ndarray, cloud: CloudSpec) -> np.ndarray:
    """Initial velocities (n, 3) from counter words 2..5 alone.

    The sampler's Box-Muller map restricted to the velocity normals: the
    sine half of pair 1 gives vx, pair 2 gives vy and vz.
    """
    u = _uniform(raw[:, 2:6])
    rad = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    ang = 2.0 * np.pi * u[:, 1::2]
    g = np.empty((raw.shape[0], 3))
    g[:, 0] = rad[:, 0] * np.sin(ang[:, 0])
    g[:, 1] = rad[:, 1] * np.cos(ang[:, 1])
    g[:, 2] = rad[:, 1] * np.sin(ang[:, 1])
    return g * thermal_velocity_sigma(cloud)


def _sample_words(raw: np.ndarray, cloud: CloudSpec) -> AtomSample:
    """Samples from counter words (n, 8), one atom per row.

    Words 0..5 feed three fixed Box-Muller pairs, giving the normals
    (x, y), (z, vx), (vy, vz); words 6..7 are reserved.
    """
    return AtomSample(_positions_from_raw(raw, cloud.sigma_r0), _velocities_from_raw(raw, cloud))


def sample_atoms(
    cloud: CloudSpec, seed: int, chunk_index: int, chunk_size: int, count: int | None = None
) -> AtomSample:
    """Generate the atoms of one chunk: indices [chunk_index*chunk_size, ...) of a stream.

    The stream holds count atoms (default: the cloud's implied atom count)
    in shell-major order, and the range is clipped to it; a chunk entirely
    beyond it yields an empty sample. Pure in (seed, count, atom index): any
    chunking concatenates to the identical full stream. A prefix of the
    stream is not a fair sample of the cloud, since its atoms come from the
    outermost shells first; the whole count-atom stream is.
    """
    if chunk_index < 0 or chunk_size < 1:
        raise ValueError("chunk_index must be >= 0 and chunk_size >= 1")
    n_total = cloud.atom_count if count is None else int(count)
    lo = chunk_index * chunk_size
    hi = min(lo + chunk_size, n_total)
    return _sample_words(_stream_words(seed, n_total, lo, hi), cloud)


def drift(sample: AtomSample, t_m: float) -> AtomSample:
    """Ballistic drift: r' = r + v t_m, exact (no integration error)."""
    if t_m < 0.0:
        raise ValueError("storage time t_m must be >= 0")
    return AtomSample(
        r_initial=sample.r_initial,
        velocity=sample.velocity,
        r_drifted=sample.r_initial + sample.velocity * t_m,
    )


# Gauss-Hermite rule for the weight exp(-x^2/2): the axial optical-depth
# integral in x = z / r0 against the cloud's Gaussian profile.
_OD_X, _OD_W = np.polynomial.hermite_e.hermegauss(32)


def optical_depth(cloud: CloudSpec, species: SpeciesConstants, probe: BeamMode) -> float:
    """Optical depth of the cloud for a focused Gaussian probe.

    The beam-averaged column density: the transverse integral of the
    probe's Gaussian intensity against the cloud's transverse Gaussian has
    a closed form per z, and the axial integral over the whole line is a
    32-node Gauss-Hermite rule in z / r0 against exp(-z^2 / (2 r0^2)).
    Against adaptive quadrature it agrees within 1.7e-15 relative for r0
    from 10 um to 5 mm and probe waists from 10 um to 1 mm.
    """
    r0 = cloud.sigma_r0
    w0 = probe.waist_w0
    u = 1.0 + (r0 * _OD_X / probe.rayleigh_z) ** 2
    sig = species.cg_coefficient_sq * species.cross_section_sigma0
    beam = float(np.sum(_OD_W / (1.0 + w0 * w0 * u / (4.0 * r0 * r0))))
    return sig * cloud.peak_density_n0 * r0 * beam


def density_for_od(
    target_od: float, cloud_template: CloudSpec, species: SpeciesConstants, probe: BeamMode
) -> float:
    """Peak density whose optical depth equals target_od (exact by linearity)."""
    if not (target_od > 0.0):
        raise ValueError(f"target_od must be positive, got {target_od}")
    ref = optical_depth(cloud_template, species, probe)
    return target_od * cloud_template.peak_density_n0 / ref
