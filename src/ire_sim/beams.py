"""Gaussian beam modes and the rotated-frame coordinate transform.

All beams are ideal TEM00 modes focused at the origin of their own frame,
characterized by a focal waist w0 (the 1/e^2 intensity radius) and a
wavenumber k, with peak amplitude 1: the efficiency is a ratio of powers,
so an absolute amplitude would cancel from it. A mode carries no frame or
propagation sense: the scenario
(ire_sim.retrieval.Scenario) puts the write beam on the axis rotated by
theta about x (skew_transform carries lab positions into that frame) and
the signal and idler collection modes on the lab z axis, and the idler
projection writes the conjugate phase of the backward collection mode
itself.

Everything in this module is pure and stateless; identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Modes with k*w0 below this are rejected: every closed form used downstream
# is paraxial, and the error terms scale like (k*w0)^-2.
PARAXIAL_MIN_KW0 = 50.0


@dataclass(frozen=True)
class BeamMode:
    """One Gaussian beam or fiber mode.

    waist_w0        m, 1/e^2 intensity radius at focus
    wavenumber_k    rad/m
    """

    waist_w0: float
    wavenumber_k: float

    def __post_init__(self) -> None:
        if not (self.waist_w0 > 0.0):
            raise ValueError(f"waist_w0 must be positive, got {self.waist_w0}")
        if not (self.wavenumber_k > 0.0):
            raise ValueError(f"wavenumber_k must be positive, got {self.wavenumber_k}")
        kw0 = self.wavenumber_k * self.waist_w0
        if kw0 < PARAXIAL_MIN_KW0:
            raise ValueError(
                f"mode is not paraxial: k*w0 = {kw0:.3g} < {PARAXIAL_MIN_KW0}; "
                "increase the waist or the wavenumber"
            )

    @property
    def rayleigh_z(self) -> float:
        """Rayleigh range k*w0^2/2 in meters."""
        return 0.5 * self.wavenumber_k * self.waist_w0**2


def _mode_terms(mode: BeamMode, rho2, z):
    """A mode's envelope exponent, spread, curvature phase and Gouy phase at rho^2 and z.

    (-rho^2 / (w0^2 u), sqrt(u), k rho^2 z / (2 (z^2 + zr^2)), atan(z/zr))
    with u = 1 + z^2/zr^2; the curvature is the form of k rho^2/(2R) that is
    smooth at the focus. Floats or arrays that broadcast. Every mode
    profile composes these: transverse_amplitude, the idler projection and
    the lobe table's source grid and x width (ire_sim.retrieval).
    """
    zr = mode.rayleigh_z
    u = 1.0 + (z / zr) ** 2
    return (-rho2 / (mode.waist_w0**2 * u), np.sqrt(u),
            mode.wavenumber_k * rho2 * z / (2.0 * (z * z + zr * zr)), np.arctan(z / zr))


def transverse_amplitude(mode: BeamMode, x, y, z):
    """Complex transverse mode profile at (x, y, z) in the mode's own frame.

    Returns

        1 / sqrt(1+z^2/zr^2) * exp(-rho^2 / (w0^2 (1+z^2/zr^2)))
           * exp(i [k rho^2/(2 R(z)) - psi(z)])

    with rho^2 = x^2 + y^2, for a mode propagating along +z, composed from
    _mode_terms; the phase factor is cis's. The longitudinal plane-wave
    factor e^{ikz} is deliberately not included here; the retrieval
    formulas attach their own longitudinal phases.

    Accepts scalars or numpy arrays (broadcast together).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    exponent, spread, curvature, gouy = _mode_terms(mode, x * x + y * y, z)
    envelope = np.exp(exponent) / spread
    del exponent, spread
    out = envelope * cis(curvature - gouy)
    if out.ndim == 0:
        return complex(out)
    return out


def _cos_sin(phase, out=None):
    """(cos phase, sin phase) as two float64 arrays of phase's shape.

    With t = tan(phase / 2) and d = 2 / (1 + t^2), cos = d - 1 and
    sin = t d. numpy runs float64 tan on its SIMD targets, while np.exp of
    an imaginary argument goes through scalar sine and cosine. The pair
    takes one np.tan and two arrays, out if given (the angular kernel
    reuses one pair per call) or fresh ones: t turns into sin in place and
    d into cos, so out's sin array may hold phase itself. Each part is
    within 4 eps of cos and sin, absolute, for |phase| up to 3e4 rad and
    at the tangent's poles (phase = (2n + 1) pi), and phase 0 gives exactly
    (1, 0). This is the package's one half-angle tangent.
    """
    d, t = out if out is not None else (np.empty(np.shape(phase)), np.empty(np.shape(phase)))
    np.multiply(phase, 0.5, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=d)
    d += 1.0
    np.divide(2.0, d, out=d)
    t *= d
    d -= 1.0
    return d, t


def cis(phase):
    """e^{i phase} as complex128, filled from _cos_sin's pair.

    On an AVX-512 x86 core, 5-14 ns per element against about 35 ns for
    np.exp of an imaginary argument. Every phase factor of the package (A_j,
    the idler projection and the lobe table's source, y, x and z factors)
    is taken here; the angular kernel takes the pair itself.

    Accepts scalars or numpy arrays; a 0-d input gives a Python complex.
    """
    cos, sin = _cos_sin(phase)
    out = np.empty(cos.shape, dtype=np.complex128)
    out.real = cos
    out.imag = sin
    if out.ndim == 0:
        return complex(out)
    return out


def skew_transform(r, theta: float):
    """Rotate lab-frame positions into the frame tilted by theta about x.

        x~ = x
        y~ = y cos(theta) - z sin(theta)
        z~ = y sin(theta) + z cos(theta)

    Norm-preserving. `r` is array-like with the last axis of length 3
    (a single (3,) vector or a stack (..., 3)); the result has the same shape.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-1] != 3:
        raise ValueError(f"positions must have a trailing axis of length 3, got shape {r.shape}")
    ct = math.cos(theta)
    st = math.sin(theta)
    out = np.empty_like(r)
    out[..., 0] = r[..., 0]
    out[..., 1] = r[..., 1] * ct - r[..., 2] * st
    out[..., 2] = r[..., 1] * st + r[..., 2] * ct
    return out
