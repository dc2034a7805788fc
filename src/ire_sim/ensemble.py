"""Atomic cloud generation, ballistic drift, and optical depth.

The cloud is an isotropic Gaussian with per-axis position standard
deviation r0 and Maxwell-Boltzmann velocities (per-axis standard deviation
sqrt(kB T / M)). Sampling is counter-based: atom i's position and velocity
are a pure function of (seed, i), so any chunking of the index range
regenerates identical samples and no storage of the full ensemble is ever
needed. Concretely, a Philox stream keyed by the seed assigns each atom
the 8 consecutive 64-bit words starting at word 8*i (counter blocks 2i and
2i+1); words 0..5 feed three fixed Box-Muller pairs (3 position + 3
velocity normals) and words 6..7 are reserved.

Word 0 alone fixes an atom's transverse radius: pair 0 gives
x^2 + y^2 = r0^2 (-2 ln u0), and u0 grows with the word, so "rho^2 at
least some bound" is "word 0 below a threshold" (_word0_floor). Every
uniform is at least 2^-54, so no atom has a coordinate beyond
NORMAL_MAX r0.
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


# uint64 -> (0,1) double: keep the top 53 bits, offset by half an ulp so the
# result is never exactly 0 (safe under log).
_U53 = 1.1102230246251565e-16  # 2^-53
_U54 = 5.551115123125783e-17  # 2^-54

# Largest |normal| any pair of words can give: every uniform is at least
# 2^-54, so sqrt(-2 ln u) <= sqrt(108 ln 2), about 8.65.
NORMAL_MAX = math.sqrt(108.0 * math.log(2.0))


def _raw_words(seed: int, index_lo: int, index_hi: int) -> np.ndarray:
    """Counter words for atoms [index_lo, index_hi): shape (n, 8) uint64."""
    n = index_hi - index_lo
    gen = Philox(key=np.uint64(seed), counter=2 * index_lo)
    raw = gen.random_raw(8 * n)
    return raw.reshape(n, 8)


def _positions_from_raw(raw: np.ndarray, r0: float) -> np.ndarray:
    """Initial positions (n, 3) from counter words 0..3 alone.

    The sampler's Box-Muller map restricted to the position normals: pair 0
    gives x and y, the cosine half of pair 1 gives z. Lets a caller decide
    per atom before it pays for the velocity words.
    """

    def u(k):  # word k of every atom as a (0, 1) double, one column at a time
        return (raw[:, k] >> np.uint64(11)).astype(np.float64) * _U53 + _U54

    ra = np.sqrt(-2.0 * np.log(u(0)))
    aa = 2.0 * np.pi * u(1)
    r = np.empty((raw.shape[0], 3))
    r[:, 0] = r0 * (ra * np.cos(aa))
    r[:, 1] = r0 * (ra * np.sin(aa))
    r[:, 2] = r0 * (np.sqrt(-2.0 * np.log(u(2))) * np.cos(2.0 * np.pi * u(3)))
    return r


def _word0_floor(rho2_min: float, r0: float) -> int:
    """Threshold T on word 0: every atom whose word 0 is below T has x^2 + y^2 >= rho2_min.

    Pair 0 gives x^2 + y^2 = r0^2 (-2 ln u0) with u0 = (2m + 1) 2^-54 for
    m = word >> 11, so rho^2 >= rho2_min exactly when
    u0 <= exp(-rho2_min / (2 r0^2)): a prefix of the word range. Returns 0
    when no word reaches that far. The map is exact for the double
    exp(...); callers that need a strict bound add their own margin for
    the rounding of that double and of the sampled positions.
    """
    u_max = math.exp(-0.5 * rho2_min / (r0 * r0))
    m_max = (math.floor(u_max * 2.0**54) - 1) // 2  # largest m with (2m + 1) 2^-54 <= u_max
    return min((m_max + 1) << 11, 2**64 - 1)


def _sample_words(raw: np.ndarray, cloud: CloudSpec) -> AtomSample:
    """Samples from counter words (n, 8), one atom per row.

    Words 0..5 feed three fixed Box-Muller pairs, giving the normals
    (x, y), (z, vx), (vy, vz); words 6..7 are reserved.
    """
    u = (raw[:, :6] >> np.uint64(11)).astype(np.float64) * _U53 + _U54
    rad = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    ang = 2.0 * np.pi * u[:, 1::2]
    g = np.empty((raw.shape[0], 6))
    g[:, 0::2] = rad * np.cos(ang)
    g[:, 1::2] = rad * np.sin(ang)
    v = g[:, 3:6] * thermal_velocity_sigma(cloud)
    return AtomSample(r_initial=g[:, 0:3] * cloud.sigma_r0, velocity=v)


def sample_atoms(cloud: CloudSpec, seed: int, chunk_index: int, chunk_size: int) -> AtomSample:
    """Generate the atoms of one chunk: indices [chunk_index*chunk_size, ...).

    The range is clipped to the cloud's implied atom count; a chunk entirely
    beyond it yields an empty sample. Pure in (seed, atom index): any
    chunking concatenates to the identical full stream.
    """
    if chunk_index < 0 or chunk_size < 1:
        raise ValueError("chunk_index must be >= 0 and chunk_size >= 1")
    n_total = cloud.atom_count
    lo = chunk_index * chunk_size
    hi = min(lo + chunk_size, n_total)
    if lo >= n_total:
        empty = np.empty((0, 3), dtype=np.float64)
        return AtomSample(r_initial=empty, velocity=empty.copy())
    return _sample_words(_raw_words(seed, lo, hi), cloud)


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
