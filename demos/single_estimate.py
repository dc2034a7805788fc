"""Estimate the retrieval efficiency of one memory configuration.

Walks the shortest path through the library: build the canonical scenario
(optical depth 24.7, r0 = 0.75 mm cloud at 30 uK, 60 um write beam, 35 um
collection beams), print what it resolves to, and run the streaming
estimator twice — once untilted, once with a 2 degree skew angle and
100 us of storage, where ballistic motion has dephased part of the stored
spin wave.

A 4e6-atom subsample of the 8.1e8-atom ensemble keeps this demo at a few
seconds, but it is a survey value: over seeds 1-12 it scatters with a
standard deviation of 0.023 untilted and 0.030 at 2 degrees and 100 us
(absolute, on eta near 0.89 and 0.51). Drop mc_atoms to stream every atom
(under a minute on one core, exact).
"""

import math

from ire_sim import eta_paraxial, make_scenario, resolution_report, SpeciesConstants

SPECIES = SpeciesConstants(
    transition_wavelength=795e-9,          # m
    detuning_delta=2.0 * math.pi * 1.0e7,  # rad/s
    hyperfine_omega_sg=-2.0 * math.pi * 6.8e9,  # rad/s, signed
    cross_section_sigma0=1.082e-13,        # m^2
)

MC_ATOMS = 4_000_000


def scenario(theta_deg=0.0, tm_us=0.0):
    return make_scenario(
        SPECIES,
        sigma_r0=7.5e-4,
        temperature_t=30e-6,
        w_write=60e-6,
        w_signal=35e-6,
        w_idler=35e-6,
        skew_theta=math.radians(theta_deg),
        storage_tm=tm_us * 1e-6,
        seed=1,
        target_od=24.7,
        mc_atoms=MC_ATOMS,
    )


def main():
    base = scenario()
    print("resolved configuration:")
    for key, value in resolution_report(base).items():
        print(f"  {key} = {value}")

    print("\nuntilted, no storage:")
    est = eta_paraxial(base)
    print(f"  eta = {est.eta:.4f}   (numerator {est.numerator:.4g}, "
          f"denominator {est.denominator:.4g})")

    print("\n2 degree skew, 100 us storage:")
    est2 = eta_paraxial(scenario(theta_deg=2.0, tm_us=100.0))
    print(f"  eta = {est2.eta:.4f}")
    print("\nthe tilt costs nothing by itself; moving atoms during storage "
          "walk out of the\ntilted phase-matching condition, which is what "
          "the second number shows.")


if __name__ == "__main__":
    main()
