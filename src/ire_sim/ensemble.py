"""Atomic cloud generation, ballistic drift, and optical depth.

The cloud is an isotropic Gaussian with per-axis position standard
deviation r0 and Maxwell-Boltzmann velocities (per-axis standard deviation
sqrt(kB T / M)). Sampling is counter-based: an atom's position and velocity
are a pure function of the seed, its cell and its index in that cell, so
any chunking regenerates identical samples and no storage of the full
ensemble is ever needed.

Concretely, the range (0, 1) of the uniform u0 behind the transverse
radius is cut into SHELLS equal-probability shells, and that of the
uniform u2 behind the radius of pair 1 into BANDS equal-probability bands;
a (shell, band) pair is a cell. How many of a stream's count atoms fall in
each cell is an exact multinomial draw (cell_counts), a pure function of
(seed, count). Atom i of cell (k, b) owns the 6 consecutive 64-bit words
6i..6i+5 of a Philox stream with the 128-bit key (seed, k BANDS + b + 1),
three counters per two atoms; they feed three fixed Box-Muller pairs
(3 position + 3 velocity normals). Word 0 is rewritten to carry the shell
in its top SHELL_BITS bits and word 2 the band in its top BAND_BITS bits,
so u0 = (k + u) / SHELLS and u2 = (b + u') / BANDS with u, u' in (0, 1)
from the words' remaining bits: every atom of cell (k, b) has u0 in
(k/SHELLS, (k+1)/SHELLS) and u2 in (b/BANDS, (b+1)/BANDS). A stream orders
its atoms by (shell, band, index), so each shell's atoms are band-major, and
_segments maps a range of the stream, or of one shell, to the part of each
cell it covers.

The cell alone bounds an atom's transverse radius and |z|: pair 0 gives
x^2 + y^2 = r0^2 (-2 ln u0), so every atom of shell k has x^2 + y^2 above
r0^2 (-2 ln((k + 1) / SHELLS)), and pair 1 gives |z| <= r0 sqrt(-2 ln u2),
so every atom of band b has |z| below r0 sqrt(-2 ln(b / BANDS)). A caller
that needs only some cells never draws words for the others. Every
uniform is at least 2^-53, so no atom has a coordinate beyond NORMAL_MAX r0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .beams import BeamMode, _cos_sin

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

# The cells: SHELLS equal-probability slices of u0 times BANDS of u2, one
# Philox key each.
SHELL_BITS = 6
SHELLS = 1 << SHELL_BITS
BAND_BITS = 3
BANDS = 1 << BAND_BITS


@functools.lru_cache(maxsize=64)
def cell_counts(seed: int, count: int) -> np.ndarray:
    """How many atoms of a count-atom stream fall in each cell: shape (SHELLS, BANDS) int64.

    One multinomial draw over the equal-probability shells, then one
    multinomial split of each shell into its equal-probability bands, both
    from a Philox generator keyed by (seed, 0), a key no cell uses: an
    exact multinomial over the cells, a pure function of (seed, count).
    numpy does not promise that these draws stay the same across its
    versions (NEP 19), so run records carry the numpy version. Cached, as
    a stream and its estimate both read it: the array is read-only.
    """
    gen = np.random.Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))
    shells = gen.multinomial(count, np.full(SHELLS, 1.0 / SHELLS))
    counts = gen.multinomial(shells, np.full(BANDS, 1.0 / BANDS))
    counts.flags.writeable = False
    return counts


def _raw_words(seed: int, shell: int, band: int, index_lo: int, index_hi: int) -> np.ndarray:
    """Counter words for atoms [index_lo, index_hi) of one cell: shape (n, 6) uint64.

    Atom i takes words 6i..6i+5 of the cell's Philox stream, three
    counters per two atoms. Word 0 keeps its top 58 bits below the shell
    number and word 2 its top 61 below the band, so u0 = (shell + u) / SHELLS
    and u2 = (band + u') / BANDS (see the module docstring).
    """
    n = index_hi - index_lo
    lead = 6 * index_lo % 4  # words of the first counter that belong to atom index_lo - 1
    key = np.array([seed, shell * BANDS + band + 1], dtype=np.uint64)
    raw = Philox(key=key, counter=6 * index_lo // 4).random_raw(6 * n + lead)[lead:].reshape(n, 6)
    for word, bits, value in ((0, SHELL_BITS, shell), (2, BAND_BITS, band)):
        raw[:, word] >>= np.uint64(bits)
        raw[:, word] |= np.uint64(value << (64 - bits))
    return raw


def _segments(sizes, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(run, a, b) for each run of consecutive sizes that [lo, hi) overlaps.

    The runs lie end to end from 0, and [a, b) is the overlap counted from
    the run's start; a run of size 0, or one the range misses, is left out.
    """
    parts, start = [], 0
    for run, size in enumerate(sizes):
        a, b = max(lo, start), min(hi, start + size)
        if a < b:
            parts.append((run, a - start, b - start))
        start += size
    return parts


def _stream_words(seed: int, count: int, index_lo: int, index_hi: int) -> np.ndarray:
    """Counter words for atoms [index_lo, index_hi) of the count-atom stream, in cell order."""
    parts = [_raw_words(seed, *divmod(cell, BANDS), a, b) for cell, a, b
             in _segments(cell_counts(seed, count).ravel().tolist(), index_lo, index_hi)]
    return np.concatenate(parts) if parts else np.empty((0, 6), dtype=np.uint64)


def _uniform(words: np.ndarray) -> np.ndarray:
    """Counter words as (0, 1) doubles, (2m + 1) 2^-53 for the top 52 bits m."""
    bits = words >> np.uint64(12)
    bits |= _ONE_BITS
    return bits.view(np.float64) - _ONE_LESS_U53


def _radii(raw: np.ndarray) -> np.ndarray:
    """Box-Muller radii sqrt(-2 ln u) of pairs 0 and 1, from words 0 and 2: shape (2, n).

    rad[0] r0 is an atom's transverse radius and rad[1] r0 bounds its |z|,
    before it is placed; _positions_from_raw and _velocities_from_raw take
    them rather than map the words again.
    """
    rad = np.stack([_uniform(raw[:, 0]), _uniform(raw[:, 2])])
    np.log(rad, out=rad)  # in place: one (2, n) array per block, not four
    rad *= -2.0
    return np.sqrt(rad, out=rad)


def _positions_from_raw(raw: np.ndarray, rad: np.ndarray, r0: float) -> np.ndarray:
    """Initial positions (n, 3) from counter words 1 and 3 and the radii rad = _radii(raw).

    The sampler's Box-Muller map restricted to the position normals: pair 0
    gives x and y, the cosine half of pair 1 gives z. Lets a caller decide
    per atom before it pays for the velocity words (_velocities_from_raw).
    Each angle's (cos, sin) comes from one beams._cos_sin call.
    """
    cos, sin = _cos_sin(2.0 * np.pi * _uniform(raw[:, 1]))
    r = np.empty((raw.shape[0], 3))
    r[:, 0] = r0 * (rad[0] * cos)
    r[:, 1] = r0 * (rad[0] * sin)
    r[:, 2] = r0 * (rad[1] * _cos_sin(2.0 * np.pi * _uniform(raw[:, 3]))[0])
    return r


def _velocities_from_raw(raw: np.ndarray, rad: np.ndarray, cloud: CloudSpec) -> np.ndarray:
    """Initial velocities (n, 3) from counter words 3..5 and the radii rad = _radii(raw).

    The sampler's Box-Muller map restricted to the velocity normals: the
    sine half of pair 1 gives vx, pair 2 gives vy and vz.
    """
    u = _uniform(raw[:, 3:6])
    rad2 = np.sqrt(-2.0 * np.log(u[:, 1]))
    cos, sin = _cos_sin(2.0 * np.pi * u[:, 2])
    g = np.empty((raw.shape[0], 3))
    g[:, 0] = rad[1] * _cos_sin(2.0 * np.pi * u[:, 0])[1]
    g[:, 1] = rad2 * cos
    g[:, 2] = rad2 * sin
    return g * thermal_velocity_sigma(cloud)


def _sample_words(raw: np.ndarray, cloud: CloudSpec) -> AtomSample:
    """Samples from counter words (n, 6), one atom per row.

    The six words feed three fixed Box-Muller pairs, giving the normals
    (x, y), (z, vx), (vy, vz).
    """
    rad = _radii(raw)
    return AtomSample(_positions_from_raw(raw, rad, cloud.sigma_r0),
                      _velocities_from_raw(raw, rad, cloud))


def sample_atoms(
    cloud: CloudSpec, seed: int, chunk_index: int, chunk_size: int, count: int | None = None
) -> AtomSample:
    """Generate the atoms of one chunk: indices [chunk_index*chunk_size, ...) of a stream.

    The stream holds count atoms (default: the cloud's implied atom count)
    in cell order, (shell, band, index), and the range is clipped to it; a
    chunk entirely beyond it yields an empty sample. Pure in (seed, count,
    atom index): any chunking concatenates to the identical full stream. A
    prefix of the stream is not a fair sample of the cloud, since its atoms
    come from the outermost shells first; the whole count-atom stream is.
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
