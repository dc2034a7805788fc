"""Map the emitted idler field over the sphere and export heatmap rasters.

The angular path evaluates every atom's plane wave on a Gauss-Legendre
sphere grid with a dense cap around the backward collection axis, where
the phase-matched lobe lives. That costs atoms x nodes, so it is meant for
reduced ensembles (here 50,000 atoms); its efficiency estimate is the
quadrature reference the fast paraxial path is validated against.

Writes heatmap_sphere.csv and heatmap_cap.csv into ./heatmap_out; rows
are theta_rad,phi_rad,re,im on a uniform midpoint raster, resampled from
the nearest grid node. The demo writes no run record; `ire-sim angular`
writes the same rasters from an INI plus heatmap_meta.txt.
"""

import math

import numpy as np

from ire_sim import (
    SpeciesConstants,
    angular_field,
    build_grid,
    eta_reference,
    export_heatmap,
    make_scenario,
    sphere_norm,
    wavenumbers,
)

SPECIES = SpeciesConstants(
    transition_wavelength=795e-9,
    detuning_delta=2.0 * math.pi * 1.0e7,
    hyperfine_omega_sg=-2.0 * math.pi * 6.8e9,
    cross_section_sigma0=1.082e-13,
)

N_ATOMS = 50_000
OUT_DIR = "heatmap_out"


def main():
    scn = make_scenario(
        SPECIES,
        sigma_r0=7.5e-4,
        temperature_t=30e-6,
        w_write=60e-6,
        w_signal=35e-6,
        w_idler=35e-6,
        seed=1,
        n_atoms_override=N_ATOMS,
    )
    kn = wavenumbers(SPECIES)
    grid = build_grid(kn.k_i, scn.idler_mode.waist_w0,
                      n_cap=128, n_base=96, n_phi=64)
    print(f"grid: {grid.n_levels} polar levels x {grid.n_phi} azimuths "
          f"= {grid.n_nodes} nodes, cap from theta = {grid.cap_theta_min:.4f} rad")

    field = angular_field(scn, grid)
    print(f"eta_reference = {eta_reference(field, grid):.6g}")
    print(f"sphere norm / sum|A|^2 = {sphere_norm(field, grid) / field.source_s2:.4f} "
          "(radiated power reconciles with the stored norm)")

    cap = grid.node_theta >= grid.cap_theta_min
    w = grid.node_weight
    intensity = np.abs(field.values) ** 2
    print(f"backward-cap power fraction = "
          f"{float(np.sum(w[cap] * intensity[cap]) / np.sum(w * intensity)):.4f}")

    paths = export_heatmap(field, grid, OUT_DIR, raster_n=256)
    for path in paths:
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
