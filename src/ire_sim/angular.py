"""Far-field angular reference path: sphere grids, emitted field, heatmaps.

This module evaluates the emitted idler field on a quadrature grid over the
full unit sphere,

    F(khat) = (4 pi)^{-1/2} sum_j A_j e^{i k_r khat_read . r'_j}
                                   e^{-i k_i khat . r'_j},

with khat_read = -(0, sin theta, cos theta) the backward direction of the
tilted read axis, and recovers the retrieval efficiency as the squared
overlap with the collection mode,

    eta_ref = |sum_nodes w g F|^2 / sum_j |A_j|^2.

No paraxial step enters, so this path cross-checks the streaming estimator
wherever both are affordable. Cost scales as atoms x nodes: each kept atom
costs n_levels (n_phi/2 + 1) phase factors (beams.cis) for even n_phi and
n_levels (n_phi + 1) for odd, plus one for its read phase, and one complex
multiply-add per node (see _field_sums). The field then differs from the
direct phase at every node by rounding only, under 1e-12 of max |F|. The
path is meant for ensembles up to about a million atoms on the default grid.

The atoms come from the paraxial estimator's stream (retrieval._eta_stream):
the same shells, blocks, counter words, skip mask and stored amplitudes,
with the field on the grid as the per-scenario projection, so a block's
partial holds a whole field and the fields are added in (shell, block)
order. A field, or each replicate of an angular sweep, streams once on at
most one process pool.

The sphere grid concentrates polar nodes in a cap around the backward axis
(where the phase-matched lobe lives) using Gauss-Legendre nodes in theta,
covers the rest of the sphere with Gauss-Legendre nodes in cos theta, and
uses uniform midpoint nodes in azimuth. Total weight is 4 pi to quadrature
accuracy.

A field holds the raw values, in the units of the stored amplitudes A_j,
so its overlap and sum |A_j|^2 share one scale; export_heatmap scales it
to sphere norm 1 for the rasters it writes.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .beams import cis
from .ensemble import drift
from .retrieval import EtaEstimate, Scenario, _eta_stream, _stream_tail, wavenumbers

@dataclass(frozen=True, eq=False)
class AngularGrid:
    """Quadrature grid over the unit sphere, polar-level by azimuth.

    Nodes are ordered level-major: node index = level * n_phi + phi_index,
    with polar levels ascending in theta and azimuth nodes at the uniform
    midpoints phi_j = 2 pi (j + 1/2) / n_phi. level_weight already carries
    the solid-angle jacobian, so the node weight is level_weight * 2pi/n_phi.
    """

    level_theta: np.ndarray
    level_weight: np.ndarray
    n_phi: int
    cap_theta_min: float
    k_times_w: float

    @property
    def n_levels(self) -> int:
        return self.level_theta.size

    @property
    def n_nodes(self) -> int:
        return self.level_theta.size * self.n_phi

    @property
    def phi(self) -> np.ndarray:
        return 2.0 * math.pi * (np.arange(self.n_phi) + 0.5) / self.n_phi

    @property
    def node_theta(self) -> np.ndarray:
        return np.repeat(self.level_theta, self.n_phi)

    @property
    def node_weight(self) -> np.ndarray:
        return np.repeat(self.level_weight, self.n_phi) * (2.0 * math.pi / self.n_phi)


def build_grid(
    k_i: float,
    w_i: float,
    n_cap: int = 256,
    n_base: int = 256,
    n_phi: int = 256,
    cap_mult: float = 20.0,
) -> AngularGrid:
    """Build the sphere grid for an idler of wavenumber k_i and waist w_i.

    The cap spans theta in [pi - cap_mult/(k_i w_i), pi] with n_cap
    Gauss-Legendre nodes in theta; the remaining sphere gets n_base
    Gauss-Legendre nodes in cos theta; azimuth gets n_phi midpoints. The
    collection-mode intensity has angular half-width ~ 2/(k_i w_i); the
    build refuses a grid with fewer than 10 polar levels inside one
    half-width of the backward axis (the lobe would be undersampled).
    """
    kw = k_i * w_i
    if kw < 50.0:
        raise ValueError(f"k_i*w_i = {kw:.3g} < 50: collection mode is not paraxial")
    if min(n_cap, n_base) < 8 or n_phi < 8:
        raise ValueError("grid needs at least 8 nodes along each direction")
    cap_width = cap_mult / kw
    if not 0.0 < cap_width < 0.5 * math.pi:
        raise ValueError(f"cap width {cap_width:.3g} rad out of range (cap_mult {cap_mult})")

    theta_lo = math.pi - cap_width
    xg, wg = np.polynomial.legendre.leggauss(n_cap)
    th_cap = theta_lo + 0.5 * cap_width * (xg + 1.0)
    w_cap = 0.5 * cap_width * wg * np.sin(th_cap)

    mu_lo = math.cos(theta_lo)
    xg2, wg2 = np.polynomial.legendre.leggauss(n_base)
    mu = mu_lo + 0.5 * (1.0 - mu_lo) * (xg2 + 1.0)
    w_base = 0.5 * (1.0 - mu_lo) * wg2
    th_base = np.arccos(mu)
    order = np.argsort(th_base)

    level_theta = np.concatenate([th_base[order], th_cap])
    level_weight = np.concatenate([w_base[order], w_cap])

    in_half_width = level_theta >= math.pi - 2.0 / kw
    if int(in_half_width.sum()) < 10:
        raise ValueError(
            "fewer than 10 polar levels within 2/(k_i w_i) of the backward axis; "
            "raise n_cap or lower cap_mult"
        )
    return AngularGrid(
        level_theta=level_theta,
        level_weight=level_weight,
        n_phi=int(n_phi),
        cap_theta_min=theta_lo,
        k_times_w=kw,
    )


def fiber_mode(grid: AngularGrid) -> np.ndarray:
    """Far-field collection-mode amplitude g on the grid nodes.

    Gaussian profile exp(-(k w sin theta)^2 / 4) on the backward hemisphere,
    zero on the forward one, normalized so sum w |g|^2 = 1 on this grid.
    """
    th = grid.node_theta
    prof = np.where(th > 0.5 * math.pi, np.exp(-((grid.k_times_w * np.sin(th)) ** 2) / 4.0), 0.0)
    norm = math.sqrt(float(np.sum(grid.node_weight * prof * prof)))
    if norm == 0.0:
        raise ArithmeticError("collection mode vanishes on this grid")
    return prof / norm


@dataclass(frozen=True, eq=False)
class AngularField:
    """Emitted field sampled on a grid's nodes, with the run that made it.

    values has one complex entry per node (level-major): the raw field, in
    the units of A. source_s2 is sum_j |A_j|^2 over the atoms that
    generated the field; it is the denominator of the reference efficiency.
    n_atoms is the ensemble size.

    n_kept atoms cleared PRUNE_FLOOR and were summed; dropped_amplitude D
    bounds sum |A_j| over the rest, as EtaEstimate's does: their exact sum
    over the skipped atoms that got positions, plus the bound that
    screened each of the others (at most PRUNE_FLOOR each). Skipping them
    moves the field by at most D / sqrt(4 pi) at every node and source_s2
    by at most PRUNE_FLOOR D. D = 0 means nothing was dropped.
    """

    values: np.ndarray
    source_s2: float
    n_atoms: int
    seed: int
    n_kept: int
    dropped_amplitude: float = 0.0


def _field_sums(amplitudes, positions, skew_theta, k_r, k_i, grid):
    """Raw partial field of atoms at drifted positions (n, 3), one value per node.

    Adds sum_j A_j e^{-i k_r (y'_j sin + z'_j cos)} e^{-i k_i khat.r'_j}
    atom by atom in index order, so every node sums in the same order.

    The phase -k_i khat.r' at level theta_l and azimuth phi_m splits into
    an axial part -k_i cos(theta_l) z', folded into the atom's level
    coefficient c_l = b_j e^{-i k_i cos(theta_l) z'_j} (b_j: A_j times its
    read phase), and a transverse part -k_i sin(theta_l) (x' cos phi_m +
    y' sin phi_m), which changes sign under phi -> phi + pi. For even n_phi
    the transverse factor t is evaluated on the first n_phi/2 columns, and
    column m + n_phi/2 adds c conj(t); for odd n_phi the paired block is
    empty and every column is evaluated. Every factor e^{i phase} is
    beams.cis's. A kept atom costs n_levels (n_phi/2 + 1) of them for even
    n_phi and n_levels (n_phi + 1) for odd, against n_levels n_phi for the
    direct phase, from which the sum differs by rounding only: on 200 atoms
    spread over millimetres in z, by 0.014-0.022 eps max_j (k_i + k_r)|r'_j|
    sum_j |A_j| (5e-13 to 8e-13 of max |F|) over 4 clouds, 2 tilts and
    n_phi = 64, 24, 33, the same as with np.exp; the tests allow 0.1 of
    that unit.
    """
    x, y, z = positions[:, 0], positions[:, 1], positions[:, 2]
    b = amplitudes * cis(-k_r * (y * math.sin(skew_theta) + z * math.cos(skew_theta)))
    half = grid.n_phi // 2 if grid.n_phi % 2 == 0 else 0
    phi = grid.phi[:grid.n_phi - half]
    k_perp = k_i * np.sin(grid.level_theta)[:, None]
    kx, ky = k_perp * np.cos(phi), k_perp * np.sin(phi)
    kz = k_i * np.cos(grid.level_theta)
    lead = np.zeros(kx.shape, dtype=np.complex128)
    paired = np.zeros((grid.n_levels, half), dtype=np.complex128)
    for j in range(b.shape[0]):
        c = (b[j] * cis(-kz * z[j]))[:, None]
        t = cis(-(kx * x[j] + ky * y[j]))
        lead += c * t
        paired += c * t[:, :half].conj()
    return np.concatenate([lead, paired], axis=1).ravel()


def field_from_atoms(
    amplitudes: np.ndarray,
    positions: np.ndarray,
    skew_theta: float,
    k_r: float,
    k_i: float,
    grid: AngularGrid,
    seed: int = 0,
) -> AngularField:
    """Emitted field of explicitly given stored amplitudes and positions.

    positions are the drifted (emission-time) coordinates, shape (n, 3).
    This is the single-block core of angular_field, without its skip of
    atoms below PRUNE_FLOOR; it is exposed so small hand-built
    configurations (one atom, two atoms) can be checked against closed forms.
    """
    amplitudes = np.ascontiguousarray(amplitudes, dtype=np.complex128)
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (n, 3)")
    if amplitudes.shape != (positions.shape[0],):
        raise ValueError("amplitudes and positions disagree on atom count")
    field = _field_sums(amplitudes, positions, skew_theta, k_r, k_i, grid)
    s2 = float(np.sum(amplitudes.real**2 + amplitudes.imag**2))
    return AngularField(
        values=field / math.sqrt(4.0 * math.pi),
        source_s2=s2,
        n_atoms=positions.shape[0],
        seed=seed,
        n_kept=len(positions),
    )


def _field_projection(grids, a, sample, scenario):
    """The angular projection: a 1-tuple, the atoms' raw partial field on the scenario's grid.

    grids maps idler modes to grids; the field is taken after the storage time.
    """
    kn = wavenumbers(scenario.species)
    r = drift(sample, scenario.storage_tm).r_drifted
    return (_field_sums(a, r, scenario.skew_theta, kn.k_r, kn.k_i, grids[scenario.idler_mode]),)


def _angular_method(grids):
    """The angular (project, estimate) pair on grids (idler mode -> grid).

    The counterpart of (_paraxial_sums, _estimate): project is
    _eta_stream's per-scenario projection, and estimate(scenario, total)
    reads the efficiency from a scenario's stream total.
    """
    def estimate(scenario, total):
        grid = grids[scenario.idler_mode]
        return _field_estimate(_as_field(scenario, total), grid)

    return partial(_field_projection, grids), estimate


def _as_field(scenario: Scenario, total) -> AngularField:
    """The emitted field of a scenario's stream total (field, S2, D, n_kept); see _stream_tail."""
    s2, dropped, n_kept = _stream_tail(scenario, total)
    return AngularField(
        values=total[0] / math.sqrt(4.0 * math.pi), source_s2=s2,
        n_atoms=scenario.n_atoms, seed=scenario.seed, n_kept=n_kept,
        dropped_amplitude=dropped,
    )


def angular_field(
    scenario: Scenario, grid: AngularGrid, threads: int | None = None
) -> AngularField:
    """Emitted field of the scenario's full ensemble on the grid.

    The one-scenario case of the paraxial estimator's stream (_eta_stream):
    the shells that can matter stream in blocks of retrieval.BLOCK_ATOMS
    atoms, farmed out in chunks on at most one process pool. Each block's
    partial field is added, in ascending (shell, block) order, to the total
    as its chunk arrives, so the result is bit-identical for every thread
    count and chunk size; a chunk's result holds one field per block (at
    most 2 under the CLI's atom cap). Atoms below PRUNE_FLOOR are skipped
    before the kernel, so the cost is kept atoms x nodes; the field records
    their summed amplitude (see AngularField), and a stream in which none
    clears it raises ArithmeticError. See the module docstring for the
    intended size range.
    """
    if scenario.mc_atoms is not None:
        raise ValueError(
            "the angular path has no subsample estimator (mc_atoms is set); "
            "build the scenario with n_atoms_override instead"
        )
    project, _ = _angular_method({scenario.idler_mode: grid})
    [total] = _eta_stream([scenario], threads, project)
    return _as_field(scenario, total)


def sphere_norm(field: AngularField, grid: AngularGrid) -> float:
    """Total emitted power sum_nodes w |F|^2 over the whole sphere."""
    v = field.values
    return float(np.sum(grid.node_weight * (v.real**2 + v.imag**2)))


def eta_reference(field: AngularField, grid: AngularGrid) -> float:
    """Reference efficiency: squared collection-mode overlap over source norm."""
    return _field_estimate(field, grid).eta


def _default_grid(scenario: Scenario) -> AngularGrid:
    """build_grid's default sphere grid for the scenario's idler."""
    return build_grid(wavenumbers(scenario.species).k_i, scenario.w_collect)


def eta_angular(
    scenario: Scenario, grid: AngularGrid | None = None, threads: int | None = None
) -> EtaEstimate:
    """Retrieval efficiency through the angular reference path.

    grid defaults to build_grid's default sphere grid for the scenario's idler.
    """
    if grid is None:
        grid = _default_grid(scenario)
    return _field_estimate(angular_field(scenario, grid, threads=threads), grid)


def _field_estimate(field: AngularField, grid: AngularGrid) -> EtaEstimate:
    """The estimate of a raw field: |sum_nodes w g F|^2 over sum |A_j|^2."""
    numerator = float(abs(np.sum(grid.node_weight * fiber_mode(grid) * field.values)) ** 2)
    denominator = field.source_s2
    if denominator <= 0.0:
        raise ArithmeticError("degenerate source: sum |A_j|^2 = 0")
    return EtaEstimate(
        eta=numerator / denominator,
        numerator=numerator,
        denominator=denominator,
        n_atoms=field.n_atoms,
        method="angular",
        seed=field.seed,
        n_kept=field.n_kept,
        dropped_amplitude=field.dropped_amplitude,
    )


def _nearest_level(level_theta: np.ndarray, theta: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(level_theta, theta)
    idx = np.clip(idx, 1, level_theta.size - 1)
    left = level_theta[idx - 1]
    right = level_theta[idx]
    return np.where(theta - left <= right - theta, idx - 1, idx)


def _raster_nodes(
    grid: AngularGrid, theta_axis: np.ndarray, phi_axis: np.ndarray
) -> np.ndarray:
    """Index of the grid node nearest each raster cell, shape (n_theta, n_phi)."""
    lvl = _nearest_level(grid.level_theta, theta_axis)
    dphi = 2.0 * math.pi / grid.n_phi
    pidx = np.mod(np.rint(phi_axis / dphi - 0.5).astype(np.int64), grid.n_phi)
    return lvl[:, None] * grid.n_phi + pidx[None, :]


def _write_raster(
    fh,
    values: np.ndarray,
    grid: AngularGrid,
    theta_axis: np.ndarray,
    phi_axis: np.ndarray,
) -> None:
    """Write raster rows `theta,phi,re,im`, each value as %.17g, to fh.

    Byte-identical to np.savetxt(fmt="%.17g", delimiter=",") of the same
    rows. Each cell copies its nearest node (_raster_nodes), so every theta
    row that maps to the same polar level holds the same `phi,re,im`
    cells. The cells of a level are built once, from that level's node
    values formatted once, when the level first appears (levels rise with
    theta); each row is then written as t + t.join(cells), t its `theta,`.
    Only the current level's cells are held, never a per-cell array.
    """
    row_level = _raster_nodes(grid, theta_axis, phi_axis[:1])[:, 0] // grid.n_phi
    column = (_raster_nodes(grid, theta_axis[:1], phi_axis)[0] % grid.n_phi).tolist()
    phi_txt = ["%.17g," % p for p in phi_axis.tolist()]
    level = cells = None
    for t, lvl in zip(theta_axis.tolist(), row_level.tolist()):
        if lvl != level:
            v = values[lvl * grid.n_phi:(lvl + 1) * grid.n_phi]
            node_txt = list(map("%.17g,%.17g\n".__mod__, zip(v.real.tolist(), v.imag.tolist())))
            cells = list(map(operator.add, phi_txt, map(node_txt.__getitem__, column)))
            level = lvl
        t_txt = "%.17g," % t
        fh.write(t_txt + t_txt.join(cells))


def export_heatmap(
    field: AngularField,
    grid: AngularGrid,
    out_dir: str,
    raster_n: int = 512,
) -> list[str]:
    """Write the field, scaled to sphere norm 1, as regular (theta, phi) CSV rasters.

    Produces two files in out_dir and returns their paths:

      heatmap_sphere.csv  raster over the full sphere
      heatmap_cap.csv     raster zoomed to the backward cap

    Raster rows are `theta_rad,phi_rad,re,im`, row-major in theta then phi,
    on uniform midpoint axes, each cell resampled from the nearest grid
    node of values / sqrt(sphere_norm(field, grid)). The rasters carry no
    timestamp, so a rerun writes the same bytes; `ire-sim angular` writes
    the run record beside them (heatmap_meta.txt, with that sphere_norm,
    so dropped_amplitude, in the units of the raw field, applies to the
    raster values after the same division). A vanishing or non-finite
    sphere norm raises ArithmeticError before any file is written.
    """
    norm = sphere_norm(field, grid)
    if norm <= 0.0 or not math.isfinite(norm):
        raise ArithmeticError("cannot scale a vanishing or non-finite field to sphere norm 1")
    values = field.values / math.sqrt(norm)
    if raster_n < 2:
        raise ValueError("raster_n must be >= 2")
    os.makedirs(out_dir, exist_ok=True)

    def axis(lo: float, hi: float, n: int) -> np.ndarray:
        return lo + (hi - lo) * (np.arange(n) + 0.5) / n

    header = "theta_rad,phi_rad,re,im"
    phi_axis = axis(0.0, 2.0 * math.pi, raster_n)
    paths = []
    for name, tlo, thi in (
        ("heatmap_sphere.csv", 0.0, math.pi),
        ("heatmap_cap.csv", grid.cap_theta_min, math.pi),
    ):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(header + "\n")
            _write_raster(fh, values, grid, axis(tlo, thi, raster_n), phi_axis)
        paths.append(path)
    return paths
