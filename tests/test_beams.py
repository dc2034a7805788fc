import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ire_sim import BeamMode, skew_transform, transverse_amplitude
from ire_sim.beams import cis

K_TEST = 7.9e6  # rad/m, typical optical wavenumber used throughout


def test_rayleigh_range():
    mode = BeamMode(35e-6, K_TEST)
    assert mode.rayleigh_z == pytest.approx(0.5 * K_TEST * 35e-6**2, rel=1e-15)


def test_transverse_amplitude_matches_hand_expansion():
    mode = BeamMode(42e-6, K_TEST)
    rng = np.random.default_rng(11)
    x = rng.normal(scale=30e-6, size=64)
    y = rng.normal(scale=30e-6, size=64)
    z = rng.normal(scale=5e-3, size=64)
    got = transverse_amplitude(mode, x, y, z)

    zr = mode.rayleigh_z
    u = 1.0 + (z / zr) ** 2
    rho2 = x * x + y * y
    env = np.exp(-rho2 / (42e-6**2 * u)) / np.sqrt(u)
    phase = K_TEST * rho2 * z / (2.0 * (z * z + zr * zr)) - np.arctan(z / zr)
    expect = env * np.exp(1j * phase)
    np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)


def test_transverse_amplitude_no_longitudinal_phase():
    # The longitudinal e^{ikz} factor is attached by the retrieval formulas,
    # not here: on axis the phase must be the pure (negative) Gouy term.
    mode = BeamMode(42e-6, K_TEST)
    val = transverse_amplitude(mode, 0.0, 0.0, 2e-3)
    assert np.angle(val) == pytest.approx(-math.atan(2e-3 / mode.rayleigh_z), rel=1e-12)


def test_amplitude_at_focus_is_peak():
    mode = BeamMode(42e-6, K_TEST)
    assert transverse_amplitude(mode, 0.0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_mode_validation():
    with pytest.raises(ValueError):
        BeamMode(-1e-6, K_TEST)
    with pytest.raises(ValueError):
        BeamMode(35e-6, -K_TEST)


def test_paraxiality_guard():
    # k w0 = 7.9 << 50: such a mode has no valid paraxial description.
    with pytest.raises(ValueError):
        BeamMode(1e-6, K_TEST)
    # boundary cases stay constructible
    BeamMode(50.0 / K_TEST * 1.0001, K_TEST)


def test_skew_transform_is_rotation_about_x():
    theta = math.radians(17.0)
    rng = np.random.default_rng(3)
    r = rng.normal(size=(32, 3))
    rt = skew_transform(r, theta)
    ct, st = math.cos(theta), math.sin(theta)
    np.testing.assert_allclose(rt[:, 0], r[:, 0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(rt[:, 1], r[:, 1] * ct - r[:, 2] * st, rtol=1e-14)
    np.testing.assert_allclose(rt[:, 2], r[:, 1] * st + r[:, 2] * ct, rtol=1e-14)
    # orthogonality: norms preserved, inverse angle restores the input
    np.testing.assert_allclose(
        np.linalg.norm(rt, axis=1), np.linalg.norm(r, axis=1), rtol=1e-13
    )
    np.testing.assert_allclose(skew_transform(rt, -theta), r, rtol=1e-12, atol=1e-18)


def test_skew_transform_identity_at_zero():
    r = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(skew_transform(r, 0.0), r)


def _cis_error():
    """Largest absolute error of cis's parts against math.cos and math.sin, in eps.

    Over |phase| up to 3e4 rad, and at the tangent's poles: every odd
    multiple of pi in that range, and +-pi/2.
    """
    rng = np.random.default_rng(5)
    poles = (2.0 * np.arange(-4775, 4775) + 1.0) * math.pi
    phase = np.concatenate([rng.uniform(-3e4, 3e4, 100_000), poles, [math.pi / 2, -math.pi / 2]])
    got = cis(phase)
    cos = np.array([math.cos(p) for p in phase.tolist()])
    sin = np.array([math.sin(p) for p in phase.tolist()])
    err = np.maximum(np.abs(got.real - cos), np.abs(got.imag - sin))
    return float(np.max(err)) / np.finfo(float).eps


def test_cis_is_within_4_eps_of_cos_and_sin():
    assert _cis_error() <= 4.0


def test_cis_of_scalars_and_zero():
    for zero in (0, 0.0, np.float64(0.0), np.array(0.0)):
        one = cis(zero)
        assert type(one) is complex and one == 1.0
    assert cis(math.pi / 3) == cis(np.array(math.pi / 3)) == complex(cis([math.pi / 3])[0])
    assert cis(np.zeros((2, 3))).shape == (2, 3)


def test_cis_holds_with_numpy_baseline_tan():
    # numpy picks a SIMD target for float64 tan at import; a fresh
    # interpreter with the AVX-512 target disabled (a no-op where the CPU
    # lacks it) must meet the same bound
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    code = (
        "from numpy.lib.introspect import opt_func_info\n"
        "from test_beams import _cis_error\n"
        "print(opt_func_info('^tan$', 'float64')['tan']['dd']['current'], _cis_error())\n"
    )
    env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES="X86_V4")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    target, error = out.stdout.split()
    assert target != "X86_V4"
    assert float(error) <= 4.0
