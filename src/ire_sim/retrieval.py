"""Stored-excitation amplitudes, fiber projection, and the efficiency estimator.

The retrieval efficiency is

    eta = |sum_j A_j R_j P_j|^2 / (sum_j |A_j|^2 + C (N-1)/N)

where A_j is the per-atom stored (spin-wave) amplitude, R_j the plane-wave
retrieval drive phase at the drifted position, P_j the paraxial projection
onto the backward collection fiber mode, and C the power of the
phase-matched lobe of the configuration-averaged emitted field. The pair
term C (N-1)/N is what the emitted-power normalization contributes beyond
the diagonal sum: the realized sphere norm of the emission pattern is
sum|A_j|^2 plus the coherent cross-term power of N(N-1) atom pairs, and at
N ~ 1e8+ that lobe dominates the norm. C is evaluated deterministically by
quadrature of the mean field (never subsampled: a Monte Carlo estimate of
the lobe power carries a full speckle mode of noise because the speckle
correlation angle of a ~30 um emitting column equals the lobe width).

The numerator runs over the full physical ensemble by default (streaming,
counter-based sampling). Each radial shell's atoms are walked band-major in
blocks of BLOCK_ATOMS atoms; a block draws, places, masks and projects the
atoms of the (shell, band) cells some scenario streams, and every sum is a
left fold over the blocks' partials in ascending (shell, block) order.
Chunks of CHUNK_ATOMS and the thread count only set how the blocks are
farmed out to processes, so the result is bit-identical for any of them.
A subsampled estimator of the same full-N quantity is available through
Scenario.mc_atoms for survey work: it streams the first atoms of each
cell the full stream would stream, and its numerator uses the
pair-statistics rescaling N_in^2 max(mean_offdiag, 0) + N_in mean_diag
over the m atoms of its strata, the cells whose bound clears
_STRATA_FLOOR, with N_in the full ensemble's atom count there; the
strata's cells that PRUNE_FLOOR skips count their atoms as zeros, so the
rescaling does not follow the floor. The clamp at 0
fires when the sampled off-diagonal mean comes out negative (it does at a
2 deg tilt and 200 us storage, where the coherent sum has decayed into its
noise), and the estimate is not bounded above by 1 at small subsamples.

No sweep axis moves the seed, the cloud width, the velocity spread or
the streamed count, so one stream can serve several scenarios: a block's
counter words, the Box-Muller radii of its words 0 and 2, its positions
and the kept atoms' velocities are taken once; each scenario adds up only
the atoms of its own cells, the skip mask and the stored amplitudes A_j
are built once for each distinct set of beams and tilt, and the
projection runs per scenario. The same stream serves the angular
reference path, whose projection is the emitted field on a sphere grid
(see ire_sim.angular). The lobe power C(t_m) is one reduction of a
per-node table cached without t_m.

Every beam mode peaks at 1, so |A_j| <= 1, and atoms whose stored
amplitude is at most PRUNE_FLOOR are skipped before the per-atom kernels.
Two steps decide, the first from less than the second: a (shell, band)
cell bounds its atoms' transverse radius and |z|, so one table per
scenario (_cell_table) skips the cells whose every atom the bound puts at
or below PRUNE_FLOOR, never drawing their words, and streams the rest;
every atom of a streamed cell is placed, its position decides exactly
(_prune), and the kept atoms keep that position and their radii: only the
rest of their velocities is mapped from their words afterwards. The
estimate records how many atoms were kept, a bound D on the summed
amplitude of the rest, and prune_bound, the most that skipping them can
move eta by, from D and the estimate's own sums (see EtaEstimate).
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beams import BeamMode, _mode_terms, cis, skew_transform, transverse_amplitude
from .ensemble import (
    BANDS,
    SHELLS,
    AtomSample,
    C_LIGHT,
    CloudSpec,
    SpeciesConstants,
    _GAUSS_VOLUME,
    _positions_from_raw,
    _radii,
    _raw_words,
    _segments,
    _velocities_from_raw,
    cell_counts,
    drift,
    sample_atoms,
    thermal_velocity_sigma,
)

# Atoms per block of one shell's band-major sequence, the stream's one
# summation unit, for both estimators: a worker draws, places, masks and
# projects one block at a time, and every sum is a left fold over the block
# partials in (shell, block) order (see _eta_stream). Fixed, so every
# accumulated bit is too.
BLOCK_ATOMS = 1 << 14

# Atoms per pool task: a whole number of blocks of one shell. Like the
# thread count, it only sets how the blocks are farmed out, and moves no bit.
CHUNK_ATOMS = 1 << 20

# An atom whose stored amplitude |A_j| is at most PRUNE_FLOOR (1 is the
# largest |A| any position can have) is skipped before the per-atom
# kernels. Each estimate bounds what the skip can move its eta by
# (EtaEstimate.prune_bound, from the dropped amplitude D), and the floor is
# the largest power of ten at which that bound stays at most 1e-7 at every
# tested point of the canonical cloud, a thousandth of the last digit any
# acceptance value prints (over acceptance criteria 1-6 and the benchmark
# workloads at seeds 1-3 it reads at most 1.4e-8, and 4.1e-7 at 1e-8). A
# module constant, not a setting: the bound travels with every result.
PRUNE_FLOOR = 1e-9
_LN_PRUNE_FLOOR = math.log(PRUNE_FLOOR)

# The strata of a subsample (_in_region): the cells whose _cell_table bound
# clears this level, whatever PRUNE_FLOOR skips, so that a subsample's
# rescaling to the full ensemble does not follow the floor. At most
# PRUNE_FLOOR, so the strata hold every streamed cell.
_STRATA_FLOOR = 1e-18

# Relative margin on the cell bound's levels. Rounding moves the sampled
# rho^2 and the computed ln|A_j| by about 1e-15 relative; a cell is skipped
# (or left out of the strata) only when its bound is at most the level's
# log times this margin, so every skipped atom's |A_j| is below PRUNE_FLOOR
# by e^-4e-5.
_CELL_MARGIN = 1.0 + 1e-6


@dataclass(frozen=True)
class Wavenumbers:
    """Wavenumbers of the four fields in rad/m.

    With omega_eg the write transition frequency, Delta the write detuning
    and omega_sg the signed ground-splitting:

        k_w = (omega_eg - Delta) / c           write
        k_s = (omega_eg - Delta - omega_sg)/c  signal  (c k_s = omega_w - omega_sg)
        k_r = (omega_eg - omega_sg) / c        read
        k_i = omega_eg / c                     idler   (c k_i = omega_r + omega_sg)
    """

    k_w: float
    k_s: float
    k_r: float
    k_i: float

    @property
    def residual_mismatch(self) -> float:
        """Longitudinal phase mismatch (k_w - k_s) + (k_i - k_r) = 2 omega_sg / c."""
        return (self.k_w - self.k_s) + (self.k_i - self.k_r)


def wavenumbers(species: SpeciesConstants) -> Wavenumbers:
    """Resolve the four wavenumbers from the species constants."""
    omega_eg = 2.0 * math.pi * C_LIGHT / species.transition_wavelength
    omega_w = omega_eg - species.detuning_delta
    omega_r = omega_eg - species.hyperfine_omega_sg
    return Wavenumbers(
        k_w=omega_w / C_LIGHT,
        k_s=(omega_w - species.hyperfine_omega_sg) / C_LIGHT,
        k_r=omega_r / C_LIGHT,
        k_i=(omega_r + species.hyperfine_omega_sg) / C_LIGHT,
    )


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulated experiment.

    The write beam (and the plane-wave read drive) live on the axis tilted
    by skew_theta about x; the signal and idler collection modes live on
    the lab z axis and share one waist, w_collect. The three modes are not
    stored: each is built from its waist and its wavenumber in
    wavenumbers(species) (k_w, k_s, k_i), so no scenario can carry a mode
    that disagrees with its species. Each mode peaks at 1: the efficiency is
    a ratio of powers, so an absolute amplitude would cancel from it. The
    cloud's atom mass must equal the species' (a species swap that leaves
    the cloud's mass, and so its velocity spread, behind is rejected).
    n_atoms is the cloud's atom count; mc_atoms, when set, makes the
    efficiency estimator subsample that many atoms of the same stream
    instead of streaming all of them, and rescale the sums to estimate the
    full-N value (see eta_paraxial for the clamp this uses).
    """

    species: SpeciesConstants
    cloud: CloudSpec
    w_write: float
    w_collect: float
    skew_theta: float
    storage_tm: float
    seed: int
    mc_atoms: int | None = None

    def __post_init__(self) -> None:
        # building the modes runs BeamMode's checks (paraxial guard) on both waists
        self.write_mode, self.signal_mode, self.idler_mode
        if self.cloud.atom_mass_m != self.species.atom_mass:
            raise ValueError(
                f"cloud atom mass {self.cloud.atom_mass_m!r} kg differs from the species' "
                f"{self.species.atom_mass!r} kg; build the scenario with make_scenario"
            )
        if not (abs(self.skew_theta) < 0.5 * math.pi):
            raise ValueError("skew_theta must satisfy |theta| < pi/2")
        if not 0.0 <= self.storage_tm < math.inf:
            raise ValueError("storage_tm must be finite and >= 0")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.mc_atoms is not None:
            if self.mc_atoms < 2:
                raise ValueError("mc_atoms must be >= 2 (pair statistics)")
            if self.mc_atoms > self.n_atoms:
                raise ValueError("mc_atoms cannot exceed n_atoms")

    @property
    def write_mode(self) -> BeamMode:
        """The write beam, in the tilted frame: waist w_write, wavenumber k_w."""
        return BeamMode(self.w_write, wavenumbers(self.species).k_w)

    @property
    def signal_mode(self) -> BeamMode:
        """The signal collection mode, in the lab frame: waist w_collect, wavenumber k_s."""
        return BeamMode(self.w_collect, wavenumbers(self.species).k_s)

    @property
    def idler_mode(self) -> BeamMode:
        """The idler collection mode, in the lab frame: waist w_collect, wavenumber k_i."""
        return BeamMode(self.w_collect, wavenumbers(self.species).k_i)

    @property
    def n_atoms(self) -> int:
        """Ensemble size: the cloud's implied atom count."""
        return self.cloud.atom_count

    @property
    def width_ratio(self) -> float:
        """Collection-to-control waist ratio W_i / W_w (= W_s / W_w)."""
        return self.w_collect / self.w_write


def make_scenario(
    species: SpeciesConstants,
    sigma_r0: float,
    temperature_t: float,
    w_write: float,
    w_signal: float,
    w_idler: float,
    skew_theta: float = 0.0,
    storage_tm: float = 0.0,
    seed: int = 1,
    *,
    peak_density_n0: float | None = None,
    target_od: float | None = None,
    n_atoms_override: int | None = None,
    mc_atoms: int | None = None,
) -> Scenario:
    """Build a validated Scenario, resolving the cloud density.

    The signal and idler waists must be equal: they are the one collection
    waist. Exactly one of peak_density_n0, target_od, n_atoms_override must
    be given. An atom-count override resolves the density from the count
    (a deliberately non-physical small instance for cross-checks).
    """
    from .ensemble import density_for_od

    given = [peak_density_n0 is not None, target_od is not None, n_atoms_override is not None]
    if sum(given) != 1:
        raise ValueError(
            "exactly one of peak_density_n0 | target_od | n_atoms_override must be given"
        )
    if w_signal != w_idler:
        raise ValueError(
            "signal and idler waists must be equal (single width-ratio convention)"
        )

    if n_atoms_override is not None:
        if n_atoms_override < 1:
            raise ValueError("n_atoms_override must be >= 1")
        n0 = n_atoms_override / (_GAUSS_VOLUME * sigma_r0**3)
    elif target_od is not None:
        template = CloudSpec(1e17, sigma_r0, temperature_t, species.atom_mass)
        probe = BeamMode(w_write, wavenumbers(species).k_w)
        n0 = density_for_od(target_od, template, species, probe)
    else:
        n0 = peak_density_n0
    cloud = CloudSpec(n0, sigma_r0, temperature_t, species.atom_mass)
    return Scenario(
        species=species,
        cloud=cloud,
        w_write=w_write,
        w_collect=w_signal,
        skew_theta=float(skew_theta),
        storage_tm=float(storage_tm),
        seed=int(seed),
        mc_atoms=mc_atoms,
    )


@dataclass(frozen=True)
class EtaEstimate:
    """Retrieval efficiency with the sums and run settings behind it.

    eta = numerator / denominator always holds; denominator is the diagonal
    norm sum|A|^2 plus the pair-term lobe power C (N-1)/N. n_atoms is the
    ensemble size.

    n_kept counts the atoms (of those streamed: mc_atoms when subsampling)
    whose stored amplitude cleared PRUNE_FLOOR and went through the
    per-atom kernel. dropped_amplitude D bounds sum |A_j| over the others:
    it is that sum over the skipped atoms of the streamed cells (_prune),
    plus, for each atom of a cell that was not streamed, exp of that cell's
    bound at its inner radius and largest |z| (_cell_table), which is at
    most PRUNE_FLOOR. Skipping them moves the streamed sums by at most

        |dS1| <= c_P D                (c_P = sqrt(2)/(k_i W_i) >= |P_j|)
        0 <= dSXX <= c_P^2 PRUNE_FLOOR D
        0 <= dS2 <= PRUNE_FLOOR D     (each dropped |A_j| <= PRUNE_FLOOR)

    and, for the angular estimate, the emitted field by at most
    D / sqrt(4 pi) at every node. D = 0 means nothing was dropped.

    prune_bound bounds |eta - eta_0|, where eta_0 is the same estimate with
    the dropped atoms put back into its sums (a subsample keeps its m and
    N_in): the largest distance from eta of the estimate's formula over
    every set of sums those bounds allow (_prune_bound). It holds for any
    subset of the dropped atoms put back, so also for the estimate at any
    lower floor, whose strata are the same (_in_region). A subsample's
    sums enter rescaled, as its numerator and denominator use them, and an
    angular estimate's overlap moves by at most
    sum_nodes w |g| D / sqrt(4 pi). It is taken in floating point, as a
    difference from eta, so it reads 0.0 where it falls below eta's
    rounding.

    clamped is True when a subsampled estimate's off-diagonal pair mean came
    out negative and was set to 0, so that numerator is the diagonal term
    N mean_diag alone (see eta_paraxial); it is False for every other
    estimate.

    lobe_fraction is the share of the denominator that is the pair term
    C (N-1)/N. The angular estimate's denominator is sum |A_j|^2 alone, so
    it reads 0.0 there.
    """

    eta: float
    numerator: float
    denominator: float
    n_atoms: int
    method: str
    seed: int
    n_kept: int
    dropped_amplitude: float = 0.0
    prune_bound: float = 0.0
    clamped: bool = False
    lobe_fraction: float = 0.0


def spinwave_amplitude(sample: AtomSample, scenario: Scenario) -> np.ndarray:
    """Per-atom stored amplitude A_j at the initial positions.

    A_j = Q_w(r~_j) conj(M_s(r_j)) e^{i (k_w z~_j - k_s z_j)}: the tilted
    write mode times the conjugate collection (signal) mode, with the
    longitudinal phases attached explicitly.
    """
    kn = wavenumbers(scenario.species)
    r = sample.r_initial
    rt = skew_transform(r, scenario.skew_theta)
    q_w = transverse_amplitude(scenario.write_mode, rt[:, 0], rt[:, 1], rt[:, 2])
    m_s = transverse_amplitude(scenario.signal_mode, r[:, 0], r[:, 1], r[:, 2])
    return q_w * np.conj(m_s) * cis(kn.k_w * rt[:, 2] - kn.k_s * r[:, 2])


def idler_projection(sample: AtomSample, scenario: Scenario) -> np.ndarray:
    """Per-atom retrieval drive and fiber projection P_j at drifted positions.

    P_j = c_P e^{i k_i z'} e^{-i k_r (y' sin + z' cos)} [1+z'^2/z_i^2]^{-1/2}
          exp(-rho'^2/(W_i^2 (1+z'^2/z_i^2)))
          exp(i [k_i rho'^2 z'/(2 (z'^2+z_i^2)) - atan(z'/z_i)])

    The phases are the conjugate of the backward collection mode (a
    projection), so they carry the forward sense; c_P = sqrt(2)/(k_i W_i)
    calibrates the single-atom-at-focus efficiency to 2/(k_i W_i)^2. The
    mode's terms are beams._mode_terms, as in transverse_amplitude.
    """
    if sample.r_drifted is None:
        raise ValueError("drift must be applied before projecting (r_drifted is None)")
    kn = wavenumbers(scenario.species)
    idler = scenario.idler_mode
    ct = math.cos(scenario.skew_theta)
    st = math.sin(scenario.skew_theta)
    x, y, z = sample.r_drifted[:, 0], sample.r_drifted[:, 1], sample.r_drifted[:, 2]
    exponent, spread, curvature, gouy = _mode_terms(idler, x * x + y * y, z)
    c_p = math.sqrt(2.0) / (kn.k_i * idler.waist_w0)
    env = c_p * np.exp(exponent) / spread
    del exponent, spread
    phase = kn.k_i * z + curvature - gouy - kn.k_r * (y * st + z * ct)
    del curvature, gouy
    return env * cis(phase)


def _prune(r: np.ndarray, scenario: Scenario) -> tuple[np.ndarray, float]:
    """Which atoms at initial positions r (n, 3) the kernels need.

    ln|A_j| is the sum of the log envelopes of the tilted write mode and the
    signal mode, ln[exp(-rho^2 / (w0^2 u)) / sqrt(u)] with u = 1 + z^2/z_R^2;
    each is at most 0, so |A_j| <= 1.
    Returns the mask of atoms with |A_j| > PRUNE_FLOOR and
    D = sum |A_j| over the rest. Decided atom by atom, so any chunking of
    the stream keeps the same atoms.
    """
    w, s = scenario.write_mode, scenario.signal_mode
    ct, st = math.cos(scenario.skew_theta), math.sin(scenario.skew_theta)
    x2, y, z = r[:, 0] ** 2, r[:, 1], r[:, 2]
    # term by term, in place, so that few block-sized temporaries live at once
    uw = 1.0 + ((y * st + z * ct) / w.rayleigh_z) ** 2
    yt = y * ct - z * st
    ln_a = -(x2 + yt * yt) / (w.waist_w0**2 * uw)
    del yt
    us = 1.0 + (z / s.rayleigh_z) ** 2
    ln_a -= (x2 + y * y) / (s.waist_w0**2 * us)
    uw *= us
    ln_a -= 0.5 * np.log(uw)
    keep = ln_a > _LN_PRUNE_FLOOR
    return keep, float(np.sum(np.exp(ln_a.compress(~keep))))


def _ln_bound(rho, y_max, z_max, scenario: Scenario):
    """Upper bound of ln|A_j| for atoms with x^2 + y^2 = rho^2, |y| <= y_max, |z| <= z_max.

    Every term of ln|A_j| in _prune is at most 0. The two envelope
    exponents are at most -rho^2 / a_s and -(x^2 + y~^2) / a_w with
    a = W^2 (1 + (largest |z| in that beam's frame / z_R)^2), where
    |z~| = |y sin + z cos| <= y_max |sin| + z_max cos. Since
    y~ = y cos - z sin, x^2 + y~^2 >= max(0, rho cos - z_max |sin|)^2, so

        ln|A_j| <= -rho^2 / a_s - max(0, rho cos - z_max |sin|)^2 / a_w,

    which falls as rho grows. Takes floats or arrays that broadcast
    together.
    """
    w, s = scenario.write_mode, scenario.signal_mode
    c, sn = math.cos(scenario.skew_theta), abs(math.sin(scenario.skew_theta))
    a_s = s.waist_w0**2 * (1.0 + (z_max / s.rayleigh_z) ** 2)
    a_w = w.waist_w0**2 * (1.0 + ((y_max * sn + z_max * c) / w.rayleigh_z) ** 2)
    return -(rho * rho) / a_s - np.maximum(rho * c - z_max * sn, 0.0) ** 2 / a_w


def _cell_table(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """(streamed, bound) of each (shell, band) cell: two (SHELLS, BANDS) arrays.

    An atom of shell k has rho = sqrt(x^2 + y^2) >= |y| between the edges
    r0 sqrt(-2 ln(j / SHELLS)) at j = k + 1 (inner) and j = k (outer), and
    an atom of band b has Z = r0 rad[1] >= |z| between the like edges of
    the bands; the edge at j = 0 is NORMAL_MAX r0, past which no normal
    reaches. _ln_bound falls as rho grows and rises with y_max and z_max,
    so bound = _ln_bound(inner rho, outer rho, largest Z) bounds ln|A_j|
    over the cell's atoms. A scenario skips the cells whose bound is at
    most ln PRUNE_FLOOR times _CELL_MARGIN (_prune would drop every atom,
    with |A_j| <= exp(bound)); streamed is True for the others.
    """
    r0 = scenario.cloud.sigma_r0

    def edges(n):
        return r0 * np.sqrt(-2.0 * np.log(np.maximum(np.arange(n + 1) / n, 2.0**-53)))

    rho, z = edges(SHELLS)[:, None], edges(BANDS)
    bound = _ln_bound(rho[1:], rho[:-1], z[:-1], scenario)
    return bound > _LN_PRUNE_FLOOR * _CELL_MARGIN, bound


def _in_region(scenario: Scenario) -> tuple[int, int, float]:
    """(m, N_in, D0) of the scenario's strata and of the cells its stream skips.

    The strata are the cells whose _cell_table bound clears _STRATA_FLOOR
    at the table's margin: every cell the stream does not skip, and
    more. m counts the atoms of the strata in the streamed count (mc_atoms when
    subsampling), and N_in the full ensemble's atoms there; neither
    follows PRUNE_FLOOR, so a subsample's rescaling keeps its bits when
    the floor moves. The stream skips the strata's cells whose bound is at
    or below PRUNE_FLOOR: their atoms count in m and add nothing to the
    sums. D0 bounds sum |A_j| over the streamed count's
    atoms in every cell the stream skips: each cell's count times exp of
    its bound.
    """
    cells, bound = _cell_table(scenario)
    skip = ~cells
    strata = bound > math.log(_STRATA_FLOOR) * _CELL_MARGIN
    streamed = _streamed_count(scenario)
    counts = cell_counts(scenario.seed, streamed)
    m = int(counts[strata].sum())
    n_in = m if streamed == scenario.n_atoms else int(
        cell_counts(scenario.seed, scenario.n_atoms)[strata].sum())
    return m, n_in, float(np.sum(counts[skip] * np.exp(bound[skip])))


def draw_sample(scenario: Scenario, n: int | None = None) -> AtomSample:
    """The atoms of the scenario's n-atom stream (default n_atoms), drift applied.

    Every cell, in cell order: the atoms eta_paraxial streams with
    mc_atoms = n are the ones of the cells its _cell_table does not skip,
    and those its estimate counts in m are the ones of its strata
    (_in_region), which hold every streamed cell and may hold cells the
    stream skips.
    """
    count = scenario.n_atoms if n is None else int(n)
    if count < 1 or count > scenario.n_atoms:
        raise ValueError(f"n must be in [1, {scenario.n_atoms}]")
    sample = sample_atoms(scenario.cloud, scenario.seed, 0, count, count=count)
    return drift(sample, scenario.storage_tm)


def _paraxial_sums(a, sample, scenario) -> tuple[float, float, float]:
    """The paraxial projection: Re S1, Im S1, SXX of x_j = A_j P_j after the storage time."""
    x = a * idler_projection(drift(sample, scenario.storage_tm), scenario)
    s1 = complex(np.sum(x))
    return s1.real, s1.imag, float(np.sum(x.real**2 + x.imag**2))


def _eta_worker(task):
    """The block partials of one chunk of one shell (top level for process pools).

    The task holds groups of scenarios, as _eta_stream plans them, each with
    its _cell_table streamed cells for the shell's bands; the shell, its
    cell counts and the chunk [lo, hi) of its band-major sequence; and
    project. A block draws the counter words of the bands some group
    streams and places those atoms once, and each group runs the exact
    skip mask (_prune) on the atoms of its own bands. The velocities of the
    atoms some group keeps are mapped once, and a group that keeps an atom
    builds its kept atoms' stored amplitudes A_j; project(A_j, kept atoms,
    scenario) then returns each scenario's sums. A scenario's block partial
    is those sums followed by S2 = sum |A_j|^2, D and n_kept over its
    group's kept atoms, or (D, 0) when the group keeps none of the atoms it
    streams in the block; D is _prune's sum |A_j| over the group's atoms it
    drops. Each partial comes from its group's own atoms alone, so no bit
    depends on which other groups share the block. Nothing outlives its
    block but its partials, and none is added here: returns, in block
    order, one dict per block that draws words, from scenario index to
    partial.
    """
    groups, shell, bands, lo, hi, project = task
    first = groups[0][2][0]
    seed, cloud = first.seed, first.cloud
    drawn = np.any([row for row, *_ in groups], axis=0)
    blocks = []
    for b in range(lo, hi, BLOCK_ATOMS):
        segments = [seg for seg in _segments(bands, b, min(b + BLOCK_ATOMS, hi)) if drawn[seg[0]]]
        if not segments:
            continue
        words = [_raw_words(seed, shell, *seg) for seg in segments]
        raw = words[0] if len(words) == 1 else np.concatenate(words)
        band = np.repeat([seg[0] for seg in segments], [len(w) for w in words])
        rad = _radii(raw)
        r = _positions_from_raw(raw, rad, cloud.sigma_r0)
        # compress, not a boolean index: the same rows, several times faster
        kept = []  # (indices, scenarios, keep, D) of each group with atoms here
        for row, idx, scns in groups:
            keep = row[band]
            if keep.any():
                mask, d = _prune(r.compress(keep, axis=0), scns[0])
                keep[np.flatnonzero(keep)] = mask
                kept.append((idx, scns, keep, d))
        some = np.logical_or.reduce([keep for _, _, keep, _ in kept])
        vel = None  # the velocities of the atoms some group keeps
        partials = {}
        for idx, scns, keep, d in kept:
            n = int(np.count_nonzero(keep))
            if n == 0:
                partials.update((i, (d, 0)) for i in idx)
                continue
            if vel is None:
                vel = _velocities_from_raw(
                    raw.compress(some, axis=0), rad.compress(some, axis=1), cloud)
            sample = AtomSample(r.compress(keep, axis=0), vel.compress(keep.compress(some), axis=0))
            a = spinwave_amplitude(sample, scns[0])
            s2 = float(np.sum(a.real**2 + a.imag**2))
            partials.update((i, (*project(a, sample, s), s2, d, n)) for i, s in zip(idx, scns))
        blocks.append(partials)
    return blocks


def _streamed_count(scenario: Scenario) -> int:
    return scenario.mc_atoms if scenario.mc_atoms is not None else scenario.n_atoms


def _stream_tail(total, d0: float) -> tuple[float, float, int]:
    """(S2, D + D0, n_kept) of a stream total: the projection's sums, then S2, D, n_kept.

    D0 is the scenario's _in_region(scenario)[2]; total is None when the
    scenario streamed no atom, and (D, 0) when it kept none.
    ArithmeticError when no atom cleared PRUNE_FLOOR (naming it) or S2 = 0.
    """
    dropped, n_kept = total[-2:] if total else (0.0, 0)
    dropped += d0
    if n_kept == 0:
        raise ArithmeticError(
            f"every streamed atom's stored amplitude is below PRUNE_FLOOR = "
            f"{PRUNE_FLOOR:g} of its peak (dropped sum |A_j| = {dropped:.3g})"
        )
    s2 = total[-3]
    if s2 <= 0.0:
        raise ArithmeticError("degenerate cloud: sum |A_j|^2 = 0, no stored amplitude")
    return s2, dropped, n_kept


def _prune_bound(eta, s, ds, den, dden, x=0.0, dx=0.0, alpha=1.0, beta=0.0) -> float:
    """Largest |eta - num(s', x') / den'| over the sums the dropped atoms allow.

    s' lies in [s - ds, s + ds], x' in [x, x + dx] and den' in
    [den, den + dden]. num(s, x) = alpha max(s^2 - x, 0) + beta x is an
    estimate's numerator from |S1| = s >= 0 and SXX = x (alpha = 1,
    beta = 0, x = dx = 0: |S1|^2), and den its denominator. num rises with
    s and is convex in x, so its largest value lies at s + ds and an end of
    x's range, and its smallest at max(s - ds, 0) and an end of that range
    or the kink x = s^2.
    """
    def num(s, x):
        return alpha * max(s * s - x, 0.0) + beta * x

    low = max(s - ds, 0.0)
    top = max(num(s + ds, x), num(s + ds, x + dx)) / den
    kink = min(max(low * low, x), x + dx)
    bottom = min(num(low, x), num(low, kink), num(low, x + dx)) / (den + dden)
    return max(top - eta, eta - bottom, 0.0)


def _estimate(scenario: Scenario, total, region) -> EtaEstimate:
    """The estimate of one scenario's stream total.

    total is (Re S1, Im S1, SXX, S2, dropped, n_kept), summed over the
    blocks of the scenario's cells as _eta_stream returns it (None when it
    streamed no atom), and region = (m, N_in, D0) is _in_region(scenario).
    A subsample's sums are rescaled from the m atoms of its strata to the
    N_in atoms of the full ensemble in the same cells.
    """
    n_total = scenario.n_atoms
    m, n_in, d0 = region
    s2, dropped, n_kept = _stream_tail(total, d0)
    s1r, s1i, sxx = total[:3]
    c_p = math.sqrt(2.0) / (wavenumbers(scenario.species).k_i * scenario.w_collect)
    clamped = False
    if _streamed_count(scenario) == n_total:
        numerator = s1r * s1r + s1i * s1i
        scale, pairs = 1.0, {}
    else:
        if m < 2:
            raise ArithmeticError(
                f"the subsample holds {m} atom(s) in its strata; "
                "pair statistics need 2"
            )
        mean_diag = sxx / m
        mean_offdiag = ((s1r * s1r + s1i * s1i) - sxx) / (m * (m - 1))
        clamped = mean_offdiag < 0.0
        numerator = n_in * n_in * max(mean_offdiag, 0.0) + n_in * mean_diag
        scale = n_in / m
        pairs = {"x": sxx, "dx": c_p * c_p * PRUNE_FLOOR * dropped,
                 "alpha": n_in * n_in / (m * (m - 1)), "beta": scale}
    lobe = coherent_lobe_power(scenario) * (n_total - 1) / n_total
    denominator = s2 * scale + lobe
    eta = numerator / denominator
    bound = _prune_bound(eta, math.hypot(s1r, s1i), c_p * dropped, denominator,
                         PRUNE_FLOOR * dropped * scale, **pairs)
    return EtaEstimate(
        eta=eta,
        numerator=numerator,
        denominator=denominator,
        n_atoms=n_total,
        method="paraxial",
        seed=scenario.seed,
        n_kept=n_kept,
        dropped_amplitude=dropped,
        prune_bound=bound,
        clamped=clamped,
        lobe_fraction=lobe / denominator,
    )


def _add(total, part):
    """Add a block partial to its scenario's running total (None: nothing added yet).

    The two are added entry by entry, aligned at their last entries: a
    partial of a block that kept no atom, or a total of such blocks alone,
    is (D, 0) and leaves the other's projection sums and S2 as they are.
    """
    if total is None:
        return part
    if len(total) < len(part):
        total, part = part, total
    head = len(total) - len(part)
    return total[:head] + tuple(t + p for t, p in zip(total[head:], part))


def _eta_stream(scenarios, threads: int = 1, project=_paraxial_sums):
    """Each scenario's block partials, summed in ascending (shell, block) order.

    Scenarios with the same seed, cloud width sigma_r0, velocity spread
    and streamed count (mc_atoms, else n_atoms) share one stream. Within a
    stream, the scenarios are grouped by what their kept atoms depend on:
    the species, the beams and the tilt, which with the stream's cloud
    width set one _cell_table per group. Each shell's atoms,
    band-major, are walked in blocks of BLOCK_ATOMS (_eta_worker), each
    scenario evaluated with project (_paraxial_sums, or the angular field).
    A pool task is a chunk of at most CHUNK_ATOMS atoms of one shell, a
    whole number of blocks, and carries the groups that stream a cell with
    atoms in it; a chunk no group streams makes no task. Every chunk of
    every stream goes through one pool.map on one process pool (none for
    one thread or one task). As each chunk's block partials arrive, in
    ascending (shell, block) order, _add adds them to their scenario's
    total. Returns one total per scenario, in input order (None when it
    streamed no atom): the total it gets streamed alone, bit-identical for
    every thread count and chunk size.
    """
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    # (seed, sigma_r0, velocity spread, streamed count) -> {group key: indices}
    streams: dict[tuple, dict] = {}
    for i, s in enumerate(scenarios):
        stream = streams.setdefault(
            (s.seed, s.cloud.sigma_r0, thermal_velocity_sigma(s.cloud), _streamed_count(s)), {})
        stream.setdefault((s.species, s.w_write, s.w_collect, s.skew_theta), []).append(i)
    tasks = []
    for (seed, _, _, count), keyed in streams.items():
        groups = [(_cell_table(scenarios[idx[0]])[0], tuple(idx),
                   tuple(scenarios[i] for i in idx)) for idx in keyed.values()]
        for shell, bands in enumerate(cell_counts(seed, count).tolist()):
            for lo in range(0, sum(bands), CHUNK_ATOMS):
                hi = min(lo + CHUNK_ATOMS, sum(bands))
                held = [band for band, *_ in _segments(bands, lo, hi)]
                own = tuple((row[shell], idx, scns) for row, idx, scns in groups
                            if row[shell][held].any())
                if own:
                    tasks.append((own, shell, tuple(bands), lo, hi, project))
    totals = [None] * len(scenarios)

    def add_up(results):
        for blocks in results:  # (shell, block) order per stream
            for partials in blocks:
                for i, part in partials.items():
                    totals[i] = _add(totals[i], part)
        return totals

    if threads == 1 or len(tasks) <= 1:
        return add_up(map(_eta_worker, tasks))
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return add_up(pool.map(_eta_worker, tasks, chunksize=1))


def eta_paraxial(scenario: Scenario, threads: int = 1) -> EtaEstimate:
    """Streaming paraxial estimate of the retrieval efficiency.

    Streams the cells that can hold an atom above PRUNE_FLOOR in blocks of
    BLOCK_ATOMS, accumulating S1 = sum A_j R_j P_j and the diagonal norms;
    block partials are added in ascending (shell, block) order, so the
    output is bit-identical for every thread count and chunk size. Atoms
    below PRUNE_FLOOR are skipped; the estimate records their summed
    amplitude (see EtaEstimate).

    With Scenario.mc_atoms = M set, the stream holds M atoms, of which the
    m in the scenario's cells are streamed, and the numerator is rescaled
    by pair statistics to estimate the full-N value,
    N_in^2 max(mean_offdiag, 0) + N_in mean_diag, with N_in the full
    ensemble's atom count in those cells. The clamp sets a negative
    sampled off-diagonal mean to 0, leaving the diagonal term alone, and
    the estimate records that it fired (EtaEstimate.clamped); the rescaled
    estimate can also read above 1 at small subsamples.
    """
    return _estimate(scenario, _eta_stream([scenario], threads)[0], _in_region(scenario))


# Quadrature of the lobe integral: polar node spacing (rad) and floor,
# azimuthal nodes per cap-width unit and floor, the (z, y) source grid's
# trapezoid nodes, and the z box half-width in units of r0. Against a
# reference with every density and floor 2x finer and a +-9 r0 box, C of
# the canonical cloud is within 1e-10 relative at 0 deg / 0 us and at
# 2 deg / 100 and 200 us (measured: <= 8e-13), where the lobe is 91 %,
# 57 % and 1 % of the denominator. A cold table takes 2.3-4.3 ms at 0-4
# deg on one BLAS thread, 0.3-0.6 ms of it in leggauss.
_LOBE_THETA_SPACING = 1.575e-3
_LOBE_N_THETA_MIN = 48
_LOBE_PHI_PER_CAP = 12.0
_LOBE_N_PHI_MIN = 24  # even, so the azimuth nodes pair up
_LOBE_N_Z, _LOBE_N_Y = 128, 128
_LOBE_Z_HALF_WIDTH = 7.0


def coherent_lobe_power(scenario: Scenario) -> float:
    """Power of the phase-matched lobe of the configuration-averaged field.

    Computes C = integral over the backward cap of |Fbar(khat)|^2 dOmega with

        Fbar(khat) = (4 pi)^{-1/2} integral d^3r n(r) A(r)
                     e^{-i k_r (y sin + z cos)} e^{-i k_i khat.r}

    damped by the exact thermal-motion average: the atom velocities enter
    only through plane-wave phases, so averaging the Maxwell-Boltzmann
    distribution multiplies Fbar by e^{-tm^2 sigma_v^2 |q|^2 / 2} with
    q = k_r (read axis) + k_i khat. The x integral is Gaussian and done in
    closed form with a complex width (envelopes plus curvature phases,
    transverse y-dependence of the x-width is negligible); (y, z) is a
    trapezoid grid; the cap uses Gauss-Legendre nodes in the polar angle
    and midpoint nodes in azimuth. Node counts and the z box follow from
    the module's quadrature constants; C is within 1e-10 relative of a
    quadrature with every density and floor 2x finer in a +-9 r0 box, at
    0 deg / 0 us and 2 deg / 100 and 200 us. The cap half-width adapts to
    the tilt so the lobe stays covered.

    The storage time enters only through that damping, so the quadrature
    is kept as a per-node table of w |Fbar_0|^2 (quadrature weight times
    the undamped lobe) and |q|^2, cached under a key without tm or the
    seed. C(tm) = sum w |Fbar_0|^2 e^{-tm^2 sigma_v^2 |q|^2} is one
    reduction over that table, the same on a cold call and on a cached
    one, so a storage sweep pays for the table once.
    """
    weight, q2 = _lobe_table(
        wavenumbers(scenario.species), scenario.write_mode, scenario.signal_mode,
        scenario.cloud.sigma_r0, scenario.cloud.peak_density_n0, scenario.skew_theta,
    )
    damp = (scenario.storage_tm * thermal_velocity_sigma(scenario.cloud)) ** 2
    return float(np.sum(weight * np.exp(-damp * q2)))


# The per-node table is deterministic in its arguments, and neither the
# storage time nor the seed is among them, so a storage sweep builds it
# once and every replicate and storage time reuses it.
@functools.lru_cache(maxsize=16)
def _lobe_table(
    kn: Wavenumbers, write: BeamMode, signal: BeamMode, r0: float, n0: float, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node w |Fbar_0|^2 and |q|^2 of coherent_lobe_power, one row per polar level.

    The y sums of all azimuth columns of several polar levels are one
    (n_z, n_y) x (n_y, levels x columns) product, so a table makes 5-10
    BLAS calls instead of one per level (48-77). The rest follows once per
    product, on (levels, n_z, columns) arrays: the x factors, the z sums
    (one stacked product, which makes the same vector-matrix BLAS call per
    level as a level alone) and the rows of weight and q2. Every phase
    factor, and the x factor's e^{i Im}, is cis's. The source grid (A_j at
    x = 0) and the x width compose the modes' beams._mode_terms.
    """
    w_eff = 1.0 / math.sqrt(1.0 / write.waist_w0**2 + 1.0 / signal.waist_w0**2)
    th_cap = abs(theta) + 12.0 / (kn.k_i * w_eff)
    n_theta = max(_LOBE_N_THETA_MIN, int(math.ceil(th_cap / _LOBE_THETA_SPACING)))
    n_phi = max(_LOBE_N_PHI_MIN, 2 * int(math.ceil(_LOBE_PHI_PER_CAP * th_cap / 0.0502 / 2.0)))
    ct, st = math.cos(theta), math.sin(theta)

    xg, wg = np.polynomial.legendre.leggauss(n_theta)
    thp = 0.5 * th_cap * (xg + 1.0)
    wth = 0.5 * th_cap * wg * np.sin(thp)
    # Fbar depends on kx only through kx^2, and n_phi is even, so the
    # azimuth nodes phi and pi - phi pair up; each pair is one column,
    # weighted twice.
    node = np.arange(n_phi)
    node = np.minimum(node, (n_phi // 2 - 1 - node) % n_phi)
    node, mult = np.unique(node, return_counts=True)
    phig = 2.0 * np.pi * (node + 0.5) / n_phi
    wphi = 2.0 * np.pi / n_phi * mult

    y_max = 6.615 * w_eff
    zs = np.linspace(-_LOBE_Z_HALF_WIDTH * r0, _LOBE_Z_HALF_WIDTH * r0, _LOBE_N_Z)
    ys = np.linspace(-y_max, y_max, _LOBE_N_Y)
    dz = zs[1] - zs[0]
    dy = ys[1] - ys[0]
    # the source at x = 0 on the (n_z, n_y) grid of column zg and row ys:
    # A_j's write and signal terms, one mode at a time, density, read phase
    zg = zs[:, None]
    zt = ys * st + zg * ct
    exponent, spread, curvature, gouy = _mode_terms(write, (ys * ct - zg * st) ** 2, zt)
    env = np.exp(exponent) / spread
    ph = kn.k_w * zt + curvature - gouy
    del exponent, spread, curvature, gouy
    exponent, spread, curvature, gouy = _mode_terms(signal, ys**2, zg)
    env *= np.exp(exponent)
    env /= spread
    env *= n0
    env *= np.exp(-(ys**2 + zg**2) / (2.0 * r0 * r0))
    ph -= kn.k_s * zg
    ph -= curvature
    ph += gouy
    ph -= kn.k_r * zt
    del exponent, spread, curvature, gouy, zt
    base = cis(ph)
    base *= env
    del env, ph

    # the x-direction Gaussian width beta, on axis: exponents and curvatures at rho^2 = 1
    ex_w, _, curv_w, _ = _mode_terms(write, 1.0, zs * ct)
    ex_s, _, curv_s, _ = _mode_terms(signal, 1.0, zs)
    beta = (-ex_w - ex_s + 1.0 / (2.0 * r0 * r0)).astype(complex)
    beta -= 1j * (curv_w - curv_s)
    xfac0 = np.sqrt(np.pi / beta)[:, None]
    inv_4beta = (0.25 / beta)[:, None]

    scale = dz * dy / math.sqrt(4.0 * math.pi)
    cols = phig.size
    weight = np.empty((n_theta, cols))
    q2 = np.empty((n_theta, cols))
    cphi, sphi = np.cos(phig), np.sin(phig)
    # the levels of one product: its (n_z, levels x cols) result is at most 256 kB
    per_product = max(1, (1 << 14) // (_LOBE_N_Z * cols))
    for lo in range(0, n_theta, per_product):
        rows = slice(lo, lo + per_product)
        sth = np.array([math.sin(th) for th in thp[rows]])[:, None]
        kz = np.array([-math.cos(th) for th in thp[rows]])[:, None]
        kx, ky = sth * cphi, sth * sphi
        kappa = kn.k_i * kx
        arg = -(kappa * kappa)[:, None, :] * inv_4beta  # the x factor is xfac0 e^arg
        # xf = inner * (xfac0 * (e^Re arg * cis(Im arg))), (levels, n_z, cols):
        # each level's y sums times its x factor, built in one array
        xf = cis(arg.imag)
        np.multiply(np.exp(arg.real), xf, out=xf)
        np.multiply(xfac0, xf, out=xf)
        del arg
        inner = base @ cis(np.outer(ys, ky) * -kn.k_i)
        np.multiply(inner.reshape(_LOBE_N_Z, -1, cols).transpose(1, 0, 2), xf, out=xf)
        fbar = (cis(-kn.k_i * kz * zs)[:, None, :] @ xf)[:, 0] * scale
        del inner, xf  # so that the next product's arrays do not meet these
        weight[rows] = wth[rows, None] * wphi * (fbar.real**2 + fbar.imag**2)
        q2[rows] = kappa**2 + (kn.k_r * st + kn.k_i * ky) ** 2 + (kn.k_r * ct + kn.k_i * kz) ** 2
    return weight, q2
