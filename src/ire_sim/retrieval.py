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
counter-based sampling). The atoms are drawn, placed, masked and projected
in blocks of BLOCK_ATOMS atoms of one shell, and every sum is a left fold
over the blocks' partials in ascending (shell, block) order. Chunks of
CHUNK_ATOMS and the thread count only set how the blocks are farmed out
to processes, so the result is bit-identical for any of them.
A subsampled estimator of the same full-N quantity is available through
Scenario.mc_atoms for survey work: it streams the first atoms of each
radial shell the full stream would stream, and its numerator uses the
pair-statistics rescaling N_in^2 max(mean_offdiag, 0) + N_in mean_diag,
with N_in the full ensemble's atom count in those shells. The clamp at 0
fires when the sampled off-diagonal mean comes out negative (it does at a
2 deg tilt and 200 us storage, where the coherent sum has decayed into its
noise), and the estimate is not bounded above by 1 at small subsamples.

No sweep axis moves the seed, the cloud width or the streamed count, so
one stream can serve several scenarios: a block's counter words and
positions are drawn once, each scenario adds up only the blocks of its own
shells, the skip mask and the stored amplitudes A_j are built once for
each distinct set of beams, tilt and velocity spread, and the projection
runs per scenario. The same stream serves the angular
reference path, whose projection is the emitted field on a sphere grid
(see ire_sim.angular). The lobe power C(t_m) is one reduction of a
per-node table cached without t_m.

Every beam mode peaks at 1, so |A_j| <= 1, and atoms whose stored
amplitude is at most PRUNE_FLOOR are skipped before the per-atom kernels.
Three steps decide, each from less than the next: the radial shell bounds
the transverse radius, so the shells whose every atom a bound puts at or
below PRUNE_FLOOR are never streamed (_screen_shell); in the other shells,
counter words 0 and 2 bound each atom's radius and |z|, and the atoms that
bound puts at or below PRUNE_FLOOR get no position (_screen_atoms); the
positions of the rest decide exactly (_prune), and the kept atoms keep
those positions: only their velocities are mapped from their words
afterwards. The estimate records how many atoms were kept and a bound on
the summed amplitude of the rest, which bounds what the skip can move (see
EtaEstimate).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beams import BeamMode, cis, skew_transform, transverse_amplitude
from .ensemble import (
    NORMAL_MAX,
    SHELLS,
    AtomSample,
    C_LIGHT,
    CloudSpec,
    SpeciesConstants,
    _GAUSS_VOLUME,
    _positions_from_raw,
    _raw_words,
    _uniform,
    _velocities_from_raw,
    drift,
    sample_atoms,
    shell_counts,
    thermal_velocity_sigma,
)

# Atoms per block of one shell, the stream's one summation unit, for both
# estimators: a worker draws, places, masks and projects one block at a
# time, and every sum is a left fold over the block partials in (shell,
# block) order (see _eta_stream). Fixed, so every accumulated bit is too.
BLOCK_ATOMS = 1 << 14

# Atoms per pool task: a whole number of blocks of one shell. Like the
# thread count, it only sets how the blocks are farmed out, and moves no bit.
CHUNK_ATOMS = 1 << 20

THREADS_ENV_VAR = "IRE_SIM_THREADS"

# An atom whose stored amplitude |A_j| is at most PRUNE_FLOOR (1 is the
# largest |A| any position can have) is skipped before the per-atom
# kernels. On the canonical cloud that is about 97 % of the atoms, and what
# they carry together is below 1e-15 of the total sum |A_j|. A module
# constant, not a setting: the estimates record the dropped amplitude, so
# the bound travels with every result.
PRUNE_FLOOR = 1e-18
_LN_PRUNE_FLOOR = math.log(PRUNE_FLOOR)

# Relative margin on the screens' level. Rounding moves the sampled rho^2
# and the computed ln|A_j| by about 1e-15 relative; the screens drop an
# atom only when its bound is at most ln PRUNE_FLOOR times this margin, so
# every screened-out atom's |A_j| is below PRUNE_FLOOR by e^-4e-5.
_SCREEN_MARGIN = 1.0 + 1e-6


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
    it is that sum over the skipped atoms that got positions (_prune), plus
    exp(bound) for each atom screened from its words 0 and 2
    (_screen_atoms), plus, for each atom of a shell that was not streamed,
    exp of that shell's bound at its inner radius (_shell_bounds). Each of
    those bounds is at most PRUNE_FLOOR. Skipping them moves the streamed
    sums by at most

        |dS1| <= c_P D          (c_P = sqrt(2)/(k_i W_i) >= |P_j|)
        |dS2| <= PRUNE_FLOOR D  (each dropped |A_j| <= PRUNE_FLOOR)

    and, for the angular estimate, the emitted field by at most
    D / sqrt(4 pi) at every node. D = 0 means nothing was dropped.

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
    calibrates the single-atom-at-focus efficiency to 2/(k_i W_i)^2.
    """
    if sample.r_drifted is None:
        raise ValueError("drift must be applied before projecting (r_drifted is None)")
    kn = wavenumbers(scenario.species)
    idler = scenario.idler_mode
    w_i, z_i = idler.waist_w0, idler.rayleigh_z
    ct = math.cos(scenario.skew_theta)
    st = math.sin(scenario.skew_theta)
    x, y, z = sample.r_drifted[:, 0], sample.r_drifted[:, 1], sample.r_drifted[:, 2]
    u = 1.0 + (z / z_i) ** 2
    rho2 = x * x + y * y
    c_p = math.sqrt(2.0) / (kn.k_i * w_i)
    env = c_p * np.exp(-rho2 / (w_i * w_i * u)) / np.sqrt(u)
    phase = (
        kn.k_i * z
        + kn.k_i * rho2 * z / (2.0 * (z * z + z_i * z_i))
        - np.arctan(z / z_i)
        - kn.k_r * (y * st + z * ct)
    )
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
    return keep, float(np.sum(np.exp(ln_a[~keep])))


def _ln_bound(rho, y_max, z_max, scenario: Scenario):
    """Upper bound of ln|A_j| for atoms with x^2 + y^2 = rho^2, |y| <= y_max, |z| <= z_max.

    Every term of ln|A_j| in _prune is at most 0. The two envelope
    exponents are at most -rho^2 / a_s and -(x^2 + y~^2) / a_w with
    a = W^2 (1 + (largest |z| in that beam's frame / z_R)^2), where
    |z~| = |y sin + z cos| <= y_max |sin| + z_max cos. Since
    y~ = y cos - z sin, x^2 + y~^2 >= max(0, rho cos - z_max |sin|)^2, so

        ln|A_j| <= -rho^2 / a_s - max(0, rho cos - z_max |sin|)^2 / a_w,

    which falls as rho grows. Takes floats or arrays of one shape.
    """
    w, s = scenario.write_mode, scenario.signal_mode
    c, sn = math.cos(scenario.skew_theta), abs(math.sin(scenario.skew_theta))
    a_s = s.waist_w0**2 * (1.0 + (z_max / s.rayleigh_z) ** 2)
    a_w = w.waist_w0**2 * (1.0 + ((y_max * sn + z_max * c) / w.rayleigh_z) ** 2)
    return -(rho * rho) / a_s - np.maximum(rho * c - z_max * sn, 0.0) ** 2 / a_w


def _shell_bounds(scenario: Scenario) -> np.ndarray:
    """_ln_bound of each shell at its inner radius: shape (SHELLS,).

    Atom i of shell k has u0 < (k + 1) / SHELLS, so x^2 + y^2 above
    r0^2 (-2 ln((k + 1) / SHELLS)), and no atom has |y| or |z| above
    NORMAL_MAX r0: every atom of shell k has ln|A_j| at most this bound.
    """
    r0 = scenario.cloud.sigma_r0
    big_z = NORMAL_MAX * r0
    rho = r0 * np.sqrt(-2.0 * np.log(np.arange(1, SHELLS + 1) / SHELLS))
    return _ln_bound(rho, big_z, big_z, scenario)


def _screen_shell(scenario: Scenario) -> int:
    """First shell the scenario streams: every atom below it has |A_j| <= PRUNE_FLOOR.

    The shells whose bound (_shell_bounds) is at most ln PRUNE_FLOOR times
    _SCREEN_MARGIN; the bound falls as the shell index falls, so they are
    the lowest ones. _prune would drop each of their atoms.
    """
    return int(np.count_nonzero(_shell_bounds(scenario) <= _LN_PRUNE_FLOOR * _SCREEN_MARGIN))


def _screen_atoms(raw: np.ndarray, r0: float, scenario: Scenario) -> tuple[np.ndarray, float]:
    """(survive, D) of counter words raw (n, 8), from each atom's words 0 and 2 alone.

    Word 0 gives rho = r0 sqrt(-2 ln u0) = sqrt(x^2 + y^2) >= |y|, and word
    2 gives Z = r0 sqrt(-2 ln u2) >= |z|, the bound _positions_from_raw's
    z = r0 (sqrt(-2 ln u2) cos(2 pi u3)) cannot exceed. An atom whose
    _ln_bound(rho, rho, Z) is at most ln PRUNE_FLOOR times _SCREEN_MARGIN
    is one _prune would drop, with |A_j| <= exp(bound) < PRUNE_FLOOR, and
    needs no position. survive marks the others; D is exp(bound) summed
    over the screened atoms.
    """
    rho = r0 * np.sqrt(-2.0 * np.log(_uniform(raw[:, 0])))
    big_z = r0 * np.sqrt(-2.0 * np.log(_uniform(raw[:, 2])))
    bound = _ln_bound(rho, rho, big_z, scenario)
    survive = bound > _LN_PRUNE_FLOOR * _SCREEN_MARGIN
    return survive, float(np.sum(np.exp(bound[~survive])))


def _screens_nothing(scenario: Scenario, shell: int) -> bool:
    """Whether _screen_atoms lets every atom of the shell through.

    Its bound _ln_bound(rho, rho, Z) falls as rho grows and rises with Z
    (as both envelope widths do), so over shell k it is lowest at the
    outer radius rho = r0 sqrt(-2 ln(k / SHELLS)) with Z = 0. When that is
    above ln PRUNE_FLOOR, every atom's bound clears the screen's level,
    ln PRUNE_FLOOR times _SCREEN_MARGIN, by far more than rounding moves it.
    """
    if shell == 0:
        return False
    rho = scenario.cloud.sigma_r0 * math.sqrt(-2.0 * math.log(shell / SHELLS))
    return bool(_ln_bound(rho, rho, 0.0, scenario) > _LN_PRUNE_FLOOR)


def _in_region(scenario: Scenario) -> tuple[int, int, float]:
    """(m, N_in, D0) of the scenario's shells, those at or above _screen_shell.

    m counts the atoms the scenario streams there (of mc_atoms when
    subsampling), N_in the full ensemble's atoms there, and D0 bounds
    sum |A_j| over the streamed count's atoms in the shells below: each
    shell's count times exp of its bound (_shell_bounds).
    """
    first = _screen_shell(scenario)
    streamed = _streamed_count(scenario)
    counts = shell_counts(scenario.seed, streamed)
    m = int(counts[first:].sum())
    n_in = m if streamed == scenario.n_atoms else int(
        shell_counts(scenario.seed, scenario.n_atoms)[first:].sum())
    d0 = float(np.sum(counts[:first] * np.exp(_shell_bounds(scenario)[:first])))
    return m, n_in, d0


def draw_sample(scenario: Scenario, n: int | None = None) -> AtomSample:
    """The atoms of the scenario's n-atom stream (default n_atoms), drift applied.

    Every shell, in shell-major order: the atoms eta_paraxial streams with
    mc_atoms = n are the ones of the shells at or above _screen_shell, the
    tail of this sample.
    """
    count = scenario.n_atoms if n is None else int(n)
    if count < 1 or count > scenario.n_atoms:
        raise ValueError(f"n must be in [1, {scenario.n_atoms}]")
    sample = sample_atoms(scenario.cloud, scenario.seed, 0, count, count=count)
    return drift(sample, scenario.storage_tm)


def resolve_threads(threads: int | None) -> int:
    """Thread count: explicit argument, else IRE_SIM_THREADS, else 1."""
    if threads is None:
        env = os.environ.get(THREADS_ENV_VAR, "").strip()
        threads = int(env) if env else 1
    threads = int(threads)
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    return threads


def _paraxial_sums(a, sample, scenario) -> tuple[float, float, float]:
    """The paraxial projection: Re S1, Im S1, SXX of x_j = A_j P_j after the storage time."""
    x = a * idler_projection(drift(sample, scenario.storage_tm), scenario)
    s1 = complex(np.sum(x))
    return s1.real, s1.imag, float(np.sum(x.real**2 + x.imag**2))


def _eta_worker(task):
    """The block partials of one chunk of one shell (top level for process pools).

    The task holds the scenarios of one stream that stream this shell
    (_eta_stream decides), grouped here by what their kept atoms depend
    on: the species, the beams, the tilt and the velocity spread. Each
    block's counter words are drawn once for all of them. For each
    block, each group screens the atoms from words 0 and 2 (_screen_atoms),
    unless that screen lets every atom of the shell through
    (_screens_nothing); only the atoms some group's screen lets through get
    positions, and each group runs the exact skip mask (_prune) on its own
    survivors. A group whose block keeps an atom maps its kept atoms'
    velocities from their words with the group's cloud and builds their
    stored amplitudes A_j; each scenario of the group then calls
    project(A_j, kept atoms, scenario), which returns a tuple of that
    method's sums. A scenario's block partial is the projection's sums
    followed by S2 = sum |A_j|^2, D and n_kept over its kept atoms, or
    (D, 0) alone for a block that keeps no atom. D is exp(bound) summed
    over the screened atoms plus _prune's sum |A_j| over the survivors it
    drops. Nothing outlives its block but its partials, and none is added
    here: returns them in block order, one list per block with one partial
    per scenario.
    """
    scenarios, shell, lo, hi, project = task
    r0 = scenarios[0].cloud.sigma_r0
    # what a scenario's kept atoms depend on -> the indices of the scenarios sharing it
    groups = {}
    for i, s in enumerate(scenarios):
        key = (s.species, s.w_write, s.w_collect, s.skew_theta, thermal_velocity_sigma(s.cloud))
        groups.setdefault(key, []).append(i)
    whole = [_screens_nothing(scenarios[idx[0]], shell) for idx in groups.values()]
    blocks = []
    for b in range(lo, hi, BLOCK_ATOMS):
        raw = _raw_words(scenarios[0].seed, shell, b, min(b + BLOCK_ATOMS, hi))
        screens = [(np.ones(len(raw), dtype=bool), 0.0) if w else
                   _screen_atoms(raw, r0, scenarios[idx[0]])
                   for w, idx in zip(whole, groups.values())]
        placed = np.logical_or.reduce([survive for survive, _ in screens])
        if not placed.all():  # else the block's words are placed as they are, uncopied
            raw = raw.compress(placed, axis=0)
        r = _positions_from_raw(raw, r0)
        partials = [None] * len(scenarios)
        for idx, (survive, d) in zip(groups.values(), screens):
            first = scenarios[idx[0]]
            keep = survive[placed]  # the group's survivors among the placed atoms
            kept, d_exact = _prune(r[keep], first)
            d += d_exact
            keep[keep] = kept
            n = int(np.count_nonzero(keep))
            if n == 0:
                part = [(d, 0)] * len(idx)
            else:
                sample = AtomSample(r[keep], _velocities_from_raw(raw[keep], first.cloud))
                a = spinwave_amplitude(sample, first)
                s2 = float(np.sum(a.real**2 + a.imag**2))
                part = [(*project(a, sample, scenarios[i]), s2, d, n) for i in idx]
            for i, p in zip(idx, part):
                partials[i] = p
        blocks.append(partials)
    return blocks


def _streamed_count(scenario: Scenario) -> int:
    return scenario.mc_atoms if scenario.mc_atoms is not None else scenario.n_atoms


def _stream_tail(scenario: Scenario, total) -> tuple[float, float, int]:
    """(S2, D + D0, n_kept) of a stream total: the projection's sums, then S2, D, n_kept.

    D0 is _in_region's; total is None when the scenario streamed no atom,
    and (D, 0) when it kept none. ArithmeticError when no atom cleared
    PRUNE_FLOOR (naming it) or S2 = 0.
    """
    dropped, n_kept = total[-2:] if total else (0.0, 0)
    dropped += _in_region(scenario)[2]
    if n_kept == 0:
        raise ArithmeticError(
            f"every streamed atom's stored amplitude is below PRUNE_FLOOR = "
            f"{PRUNE_FLOOR:g} of its peak (dropped sum |A_j| = {dropped:.3g})"
        )
    s2 = total[-3]
    if s2 <= 0.0:
        raise ArithmeticError("degenerate cloud: sum |A_j|^2 = 0, no stored amplitude")
    return s2, dropped, n_kept


def _estimate(scenario: Scenario, total) -> EtaEstimate:
    """The estimate of one scenario's stream total.

    total is (Re S1, Im S1, SXX, S2, dropped, n_kept), summed over the
    blocks of the scenario's shells as _eta_stream returns it (None when it
    streamed no atom). A subsample's sums are rescaled from the m atoms it
    streams to the N_in atoms of the full ensemble in the same shells
    (_in_region).
    """
    n_total = scenario.n_atoms
    s2, dropped, n_kept = _stream_tail(scenario, total)
    s1r, s1i, sxx = total[:3]
    m, n_in, _ = _in_region(scenario)
    clamped = False
    if _streamed_count(scenario) == n_total:
        numerator = s1r * s1r + s1i * s1i
        s2_full = s2
    else:
        if m < 2:
            raise ArithmeticError(
                f"the subsample holds {m} atom(s) in its streamed shells; "
                "pair statistics need 2"
            )
        mean_diag = sxx / m
        mean_offdiag = ((s1r * s1r + s1i * s1i) - sxx) / (m * (m - 1))
        clamped = mean_offdiag < 0.0
        numerator = n_in * n_in * max(mean_offdiag, 0.0) + n_in * mean_diag
        s2_full = s2 * (n_in / m)
    lobe = coherent_lobe_power(scenario) * (n_total - 1) / n_total
    denominator = s2_full + lobe
    return EtaEstimate(
        eta=numerator / denominator,
        numerator=numerator,
        denominator=denominator,
        n_atoms=n_total,
        method="paraxial",
        seed=scenario.seed,
        n_kept=n_kept,
        dropped_amplitude=dropped,
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


def _eta_stream(scenarios, threads=None, project=_paraxial_sums):
    """Each scenario's block partials, summed in ascending (shell, block) order.

    Scenarios with the same seed, cloud width sigma_r0 and streamed count
    (mc_atoms, else n_atoms) share one stream: it covers the shells from
    the lowest _screen_shell of its scenarios up, and each shell's atoms are
    drawn once in blocks of BLOCK_ATOMS, for the scenarios whose first
    shell is at or below it, each evaluated with project (_paraxial_sums,
    or the angular field; see _eta_worker). A pool task is a chunk of at
    most CHUNK_ATOMS atoms of one shell, a whole number of blocks, and
    every chunk of every stream goes through one pool.map on one process
    pool (none for one thread or one chunk). As each chunk's block
    partials arrive, in ascending (shell, block) order, _add adds them to
    their scenario's total. Returns one total per scenario, in input order
    (None when it streamed no atom): the total it gets streamed alone,
    bit-identical for every thread count and chunk size.
    """
    threads = resolve_threads(threads)
    streams: dict[tuple, list[int]] = {}  # (seed, sigma_r0, streamed count) -> indices
    for i, s in enumerate(scenarios):
        streams.setdefault((s.seed, s.cloud.sigma_r0, _streamed_count(s)), []).append(i)
    tasks, owners = [], []
    for (seed, _, count), idx in streams.items():
        first = {i: _screen_shell(scenarios[i]) for i in idx}
        counts = shell_counts(seed, count).tolist()
        for shell in range(min(first.values()), SHELLS):
            own = [i for i in idx if first[i] <= shell]
            shared = tuple(scenarios[i] for i in own)
            for lo in range(0, counts[shell], CHUNK_ATOMS):
                tasks.append((shared, shell, lo, min(lo + CHUNK_ATOMS, counts[shell]), project))
                owners.append(own)
    totals = [None] * len(scenarios)

    def add_up(results):
        for own, blocks in zip(owners, results):  # (shell, block) order per stream
            for partials in blocks:
                for i, part in zip(own, partials):
                    totals[i] = _add(totals[i], part)
        return totals

    if threads == 1 or len(tasks) <= 1:
        return add_up(map(_eta_worker, tasks))
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return add_up(pool.map(_eta_worker, tasks, chunksize=1))


def eta_paraxial(scenario: Scenario, threads: int | None = None) -> EtaEstimate:
    """Streaming paraxial estimate of the retrieval efficiency.

    Streams the shells that can hold an atom above PRUNE_FLOOR in blocks of
    BLOCK_ATOMS, accumulating S1 = sum A_j R_j P_j and the diagonal norms;
    block partials are added in ascending (shell, block) order, so the
    output is bit-identical for every thread count and chunk size. Atoms
    below PRUNE_FLOOR are skipped; the estimate records their summed
    amplitude (see EtaEstimate).

    With Scenario.mc_atoms = M set, the stream holds M atoms, of which the
    m in the scenario's shells are streamed, and the numerator is rescaled
    by pair statistics to estimate the full-N value,
    N_in^2 max(mean_offdiag, 0) + N_in mean_diag, with N_in the full
    ensemble's atom count in those shells. The clamp sets a negative
    sampled off-diagonal mean to 0, leaving the diagonal term alone, and
    the estimate records that it fired (EtaEstimate.clamped); the rescaled
    estimate can also read above 1 at small subsamples.
    """
    return _estimate(scenario, _eta_stream([scenario], threads)[0])


# Quadrature of the lobe integral: polar node spacing (rad) and floor,
# azimuthal nodes per cap-width unit and floor, the (z, y) source grid's
# trapezoid nodes, and the z box half-width in units of r0. Against a
# reference with every density and floor 2x finer and a +-9 r0 box, C of
# the canonical cloud is within 1e-10 relative at 0 deg / 0 us and at
# 2 deg / 100 and 200 us (measured: <= 8e-13), where the lobe is 91 %,
# 57 % and 1 % of the denominator. A table takes 0.01-0.02 s at 0-4 deg
# on one BLAS thread.
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
    BLAS calls instead of one per level (48-77); the x factor and the z sum
    follow per level.
    """
    w_w, w_s = write.waist_w0, signal.waist_w0
    z_w, z_s = write.rayleigh_z, signal.rayleigh_z
    w_eff = 1.0 / math.sqrt(1.0 / w_w**2 + 1.0 / w_s**2)
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
    zg, yg = np.meshgrid(zs, ys, indexing="ij")
    zt = yg * st + zg * ct
    yt = yg * ct - zg * st
    uw = 1.0 + (zt / z_w) ** 2
    us = 1.0 + (zg / z_s) ** 2
    # term by term, in place, so that few grid-sized temporaries live at once
    env = np.exp(-(yt**2) / (w_w**2 * uw))
    env /= np.sqrt(uw)
    env *= np.exp(-(yg**2) / (w_s**2 * us))
    env /= np.sqrt(us)
    env *= n0
    env *= np.exp(-(yg**2 + zg**2) / (2.0 * r0 * r0))
    del uw, us
    ph = kn.k_w * zt
    ph += kn.k_w * yt**2 * zt / (2.0 * (zt**2 + z_w**2))
    ph -= np.arctan(zt / z_w)
    ph -= kn.k_s * zg
    ph -= kn.k_s * yg**2 * zg / (2.0 * (zg**2 + z_s**2))
    ph += np.arctan(zg / z_s)
    ph -= kn.k_r * zt
    del zg, yg, zt, yt
    base = np.exp(1j * ph)
    base *= env
    del env, ph

    # x-direction Gaussian width (complex: envelopes + curvature), on axis
    zt0 = zs * ct
    uw0 = 1.0 + (zt0 / z_w) ** 2
    us0 = 1.0 + (zs / z_s) ** 2
    beta = (1.0 / (w_w**2 * uw0) + 1.0 / (w_s**2 * us0) + 1.0 / (2.0 * r0 * r0)).astype(complex)
    beta -= 1j * (
        kn.k_w * zt0 / (2.0 * (zt0**2 + z_w**2)) - kn.k_s * zs / (2.0 * (zs**2 + z_s**2))
    )
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
        sth = [math.sin(th) for th in thp[lo:lo + per_product]]
        phase = np.outer(ys, np.outer(sth, sphi)) * (-1j * kn.k_i)
        inner_all = base @ np.exp(phase, out=phase)
        for j, it in enumerate(range(lo, lo + len(sth))):
            kx = sth[j] * cphi
            ky = sth[j] * sphi
            kz = -math.cos(thp[it])
            kappa = kn.k_i * kx
            inner = inner_all[:, j * cols:(j + 1) * cols]
            inner = inner * (xfac0 * np.exp(-(kappa * kappa) * inv_4beta))
            fbar = np.exp(-1j * kn.k_i * kz * zs) @ inner * scale
            weight[it] = wth[it] * wphi * (fbar.real**2 + fbar.imag**2)
            q2[it] = kappa**2 + (kn.k_r * st + kn.k_i * ky) ** 2 + (kn.k_r * ct + kn.k_i * kz) ** 2
    return weight, q2
