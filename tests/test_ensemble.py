import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ire_sim import (
    BeamMode,
    CloudSpec,
    density_for_od,
    drift,
    most_probable_speed,
    optical_depth,
    sample_atoms,
    thermal_velocity_sigma,
)
from ire_sim.ensemble import ATOMIC_MASS_UNIT, K_BOLTZMANN

from conftest import R0, SPECIES, TEMP, W_WRITE

MASS_87 = 87.0 * ATOMIC_MASS_UNIT

# Values frozen from quadrature cross-checks done outside the package
# (adaptive 2-D integration of the density column against the probe
# intensity profile, and direct evaluation of the thermal-speed formulas).
OD_AT_1E17 = 20.308704208868928
DENSITY_FOR_OD_24P7 = 1.2162272760471526e17
SIGMA_V = 0.053544897760814225  # m/s at 30 uK, 87 amu
V_MOST_PROBABLE = 0.07572392060922425  # m/s
V_MEAN_3D = 0.08544529446624317  # m/s, = v_p * 2/sqrt(pi)


def cloud(n0=1e17):
    return CloudSpec(n0, R0, TEMP, MASS_87)


def probe():
    return BeamMode(W_WRITE, 2.0 * math.pi / SPECIES.transition_wavelength)


def test_atom_count_rounds_gaussian_volume_integral():
    c = cloud()
    expect = 1e17 * (2.0 * math.pi) ** 1.5 * R0**3
    assert expect == pytest.approx(664436669.5851645, rel=1e-12)
    assert c.atom_count == round(expect)


def single_atom_cloud():
    # density chosen so the Gaussian volume integral is exactly one atom
    n0 = 1.0 / ((2.0 * math.pi) ** 1.5 * (1e-6) ** 3)
    return CloudSpec(n0, 1e-6, TEMP, MASS_87)


def test_atom_count_below_one_is_rejected():
    assert single_atom_cloud().atom_count == 1
    with pytest.raises(ValueError):
        CloudSpec(1.0, 1e-6, TEMP, MASS_87)  # implies zero atoms


def test_cloud_validation():
    with pytest.raises(ValueError):
        CloudSpec(-1e17, R0, TEMP, MASS_87)
    with pytest.raises(ValueError):
        CloudSpec(1e17, 0.0, TEMP, MASS_87)
    with pytest.raises(ValueError):
        CloudSpec(1e17, R0, -1e-6, MASS_87)


def test_thermal_speed_formulas():
    c = cloud()
    assert thermal_velocity_sigma(c) == pytest.approx(SIGMA_V, rel=1e-12)
    assert most_probable_speed(c) == pytest.approx(V_MOST_PROBABLE, rel=1e-12)
    # consistency between the two definitions: v_p = sqrt(2) sigma_v
    assert most_probable_speed(c) == pytest.approx(
        math.sqrt(2.0) * thermal_velocity_sigma(c), rel=1e-14
    )
    assert thermal_velocity_sigma(c) == pytest.approx(
        math.sqrt(K_BOLTZMANN * TEMP / MASS_87), rel=1e-14
    )


def test_sampling_chunks_are_bit_identical_to_one_shot():
    # the 10,000-atom stream: every chunk size below crosses shell boundaries
    c = cloud()
    n = 10_000
    whole = sample_atoms(c, seed=42, chunk_index=0, chunk_size=n, count=n)
    for chunk_size in (97, 1024, 3000, n):
        n_chunks = math.ceil(n / chunk_size)
        parts_r = []
        parts_v = []
        for ci in range(n_chunks):
            s = sample_atoms(c, seed=42, chunk_index=ci, chunk_size=chunk_size, count=n)
            lo = ci * chunk_size
            hi = min(n, lo + chunk_size)
            parts_r.append(s.r_initial[: hi - lo])
            parts_v.append(s.velocity[: hi - lo])
        np.testing.assert_array_equal(np.concatenate(parts_r), whole.r_initial)
        np.testing.assert_array_equal(np.concatenate(parts_v), whole.velocity)


def test_sampling_differs_across_seeds():
    c = cloud()
    a = sample_atoms(c, seed=1, chunk_index=0, chunk_size=100)
    b = sample_atoms(c, seed=2, chunk_index=0, chunk_size=100)
    assert not np.array_equal(a.r_initial, b.r_initial)


def test_chunk_beyond_population_is_empty():
    tiny = single_atom_cloud()  # atom_count == 1
    s = sample_atoms(tiny, seed=1, chunk_index=5, chunk_size=100)
    assert s.r_initial.shape == (0, 3)
    assert s.velocity.shape == (0, 3)


def test_sample_moments_match_cloud_scales():
    c = cloud()
    n = 200_000
    s = sample_atoms(c, seed=3, chunk_index=0, chunk_size=n, count=n)
    # per-axis standard deviations: r0 for position, sigma_v for velocity
    np.testing.assert_allclose(s.r_initial.std(axis=0), R0, rtol=0.01)
    np.testing.assert_allclose(s.velocity.std(axis=0), SIGMA_V, rtol=0.01)
    # means vanish to within 5 standard errors
    assert np.all(np.abs(s.r_initial.mean(axis=0)) < 5.0 * R0 / math.sqrt(n))
    assert np.all(np.abs(s.velocity.mean(axis=0)) < 5.0 * SIGMA_V / math.sqrt(n))


def test_sampled_mean_speed():
    c = cloud()
    s = sample_atoms(c, seed=5, chunk_index=0, chunk_size=1_000_000, count=1_000_000)
    speeds = np.linalg.norm(s.velocity, axis=1)
    assert speeds.mean() == pytest.approx(V_MEAN_3D, rel=5e-3)


def test_drift_is_exact_ballistic_motion():
    c = cloud()
    s = sample_atoms(c, seed=7, chunk_index=0, chunk_size=500)
    t = 1.3e-4
    moved = drift(s, t)
    np.testing.assert_array_equal(moved.r_drifted, s.r_initial + s.velocity * t)
    np.testing.assert_array_equal(moved.r_initial, s.r_initial)
    np.testing.assert_array_equal(moved.velocity, s.velocity)
    zero = drift(s, 0.0)
    np.testing.assert_array_equal(zero.r_drifted, s.r_initial)


def test_drift_rejects_negative_time():
    c = cloud()
    s = sample_atoms(c, seed=7, chunk_index=0, chunk_size=10)
    with pytest.raises(ValueError):
        drift(s, -1e-6)


def test_optical_depth_frozen_value():
    od = optical_depth(cloud(1e17), SPECIES, probe())
    assert od == pytest.approx(OD_AT_1E17, rel=1e-8)


def test_optical_depth_cylindrical_closed_form():
    # Rayleigh range far beyond the cloud: the probe is a cylinder of waist
    # w and the power-weighted depth has the closed form
    #     OD = sqrt(2 pi) sigma0 n0 r0 / (1 + w^2 / (4 r0^2)).
    w, r0_small, n0 = 200e-6, 50e-6, 1e16
    small = CloudSpec(n0, r0_small, TEMP, MASS_87)
    probe_mode = BeamMode(w, 2.0 * math.pi / SPECIES.transition_wavelength)
    assert probe_mode.rayleigh_z > 1000.0 * r0_small  # cylindrical regime
    od = optical_depth(small, SPECIES, probe_mode)
    expect = (
        math.sqrt(2.0 * math.pi)
        * SPECIES.cross_section_sigma0
        * n0
        * r0_small
        / (1.0 + w**2 / (4.0 * r0_small**2))
    )
    assert od == pytest.approx(expect, rel=1e-4)


def test_optical_depth_linear_in_density():
    od1 = optical_depth(cloud(1e17), SPECIES, probe())
    od2 = optical_depth(cloud(2e17), SPECIES, probe())
    assert od2 == pytest.approx(2.0 * od1, rel=1e-10)


def test_density_for_od_frozen_and_round_trip():
    n0 = density_for_od(24.7, cloud(1e17), SPECIES, probe())
    assert n0 == pytest.approx(DENSITY_FOR_OD_24P7, rel=1e-12)
    back = optical_depth(cloud(n0), SPECIES, probe())
    assert back == pytest.approx(24.7, rel=1e-10)


def test_density_for_od_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        density_for_od(0.0, cloud(1e17), SPECIES, probe())


def test_import_leaves_scipy_unloaded():
    # optical_depth uses a fixed Gauss-Hermite rule, so the package needs
    # numpy alone; a fresh interpreter shows what `import ire_sim` loads.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ire_sim; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
