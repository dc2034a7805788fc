"""The cached lobe table: C(t_m) as one reduction over a per-node table.

coherent_lobe_power builds the cap quadrature once per geometry, keyed
without the storage time, and damps it per call. It must reproduce the
node-by-node quadrature it replaced, and give the same bits whether the
table was built by this call or an earlier one.
"""

import math

import numpy as np
import pytest

from ire_sim import coherent_lobe_power, thermal_velocity_sigma, wavenumbers
from ire_sim import retrieval

from conftest import canonical_scenario


def node_by_node_lobe(scenario, n_z=128, n_y=128):
    """The lobe quadrature as one mat-vec per cap node, with its own node counts."""
    kn = wavenumbers(scenario.species)
    cloud = scenario.cloud
    w_w = scenario.write_mode.waist_w0
    w_s = scenario.signal_mode.waist_w0
    z_w = scenario.write_mode.rayleigh_z
    z_s = scenario.signal_mode.rayleigh_z
    theta = scenario.skew_theta
    tm = scenario.storage_tm
    sig_v = thermal_velocity_sigma(cloud)
    w_eff = 1.0 / math.sqrt(1.0 / w_w**2 + 1.0 / w_s**2)
    th_cap = abs(theta) + 12.0 / (kn.k_i * w_eff)
    n_theta = max(48, int(math.ceil(th_cap / 1.575e-3)))
    n_phi = max(24, 2 * int(math.ceil(12.0 * th_cap / 0.0502 / 2.0)))
    ct, st = math.cos(theta), math.sin(theta)
    r0 = cloud.sigma_r0
    n0 = cloud.peak_density_n0

    xg, wg = np.polynomial.legendre.leggauss(n_theta)
    thp = 0.5 * th_cap * (xg + 1.0)
    wth = 0.5 * th_cap * wg * np.sin(thp)
    phig = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = 2.0 * np.pi / n_phi

    y_max = 6.615 * w_eff
    zs = np.linspace(-7.0 * r0, 7.0 * r0, n_z)
    ys = np.linspace(-y_max, y_max, n_y)
    dz = zs[1] - zs[0]
    dy = ys[1] - ys[0]
    zg, yg = np.meshgrid(zs, ys, indexing="ij")
    zt = yg * st + zg * ct
    yt = yg * ct - zg * st
    uw = 1.0 + (zt / z_w) ** 2
    us = 1.0 + (zg / z_s) ** 2
    env = (
        np.exp(-(yt**2) / (w_w**2 * uw)) / np.sqrt(uw)
        * np.exp(-(yg**2) / (w_s**2 * us)) / np.sqrt(us)
        * n0
        * np.exp(-(yg**2 + zg**2) / (2.0 * r0 * r0))
    )
    ph = (
        kn.k_w * zt
        + kn.k_w * yt**2 * zt / (2.0 * (zt**2 + z_w**2))
        - np.arctan(zt / z_w)
        - kn.k_s * zg
        - kn.k_s * yg**2 * zg / (2.0 * (zg**2 + z_s**2))
        + np.arctan(zg / z_s)
        - kn.k_r * zt
    )
    base = env * np.exp(1j * ph)
    zt0 = zs * ct
    uw0 = 1.0 + (zt0 / z_w) ** 2
    us0 = 1.0 + (zs / z_s) ** 2
    beta = (1.0 / (w_w**2 * uw0) + 1.0 / (w_s**2 * us0) + 1.0 / (2.0 * r0 * r0)).astype(complex)
    beta -= 1j * (
        kn.k_w * zt0 / (2.0 * (zt0**2 + z_w**2)) - kn.k_s * zs / (2.0 * (zs**2 + z_s**2))
    )
    xfac0 = np.sqrt(np.pi / beta)

    total = 0.0
    for it in range(n_theta):
        sth = math.sin(thp[it])
        cth = math.cos(thp[it])
        row = 0.0
        for ip in range(n_phi):
            kx = sth * math.cos(phig[ip])
            ky = sth * math.sin(phig[ip])
            kz = -cth
            kappa = kn.k_i * kx
            xfac = xfac0 * np.exp(-(kappa * kappa) / (4.0 * beta))
            inner = base @ np.exp(-1j * kn.k_i * ky * ys)
            fbar = (inner * xfac * np.exp(-1j * kn.k_i * kz * zs)).sum() * dz * dy
            fbar /= math.sqrt(4.0 * math.pi)
            q2 = (kappa**2 + (kn.k_r * st + kn.k_i * ky) ** 2
                  + (kn.k_r * ct + kn.k_i * kz) ** 2)
            fbar *= math.exp(-0.5 * tm * tm * sig_v * sig_v * q2)
            row += wphi * abs(fbar) ** 2
        total += wth[it] * row
    return total


@pytest.mark.parametrize("theta_deg, tm_us", [(0.0, 0.0), (2.0, 100.0), (4.0, 200.0)])
def test_table_matches_node_by_node_quadrature(theta_deg, tm_us):
    scn = canonical_scenario(skew_theta=math.radians(theta_deg), storage_tm=tm_us * 1e-6)
    expect = node_by_node_lobe(scn)
    assert coherent_lobe_power(scn) == pytest.approx(expect, rel=1e-14, abs=0.0)


def test_cached_table_gives_the_cold_bits():
    at_100 = canonical_scenario(skew_theta=math.radians(2.0), storage_tm=100e-6)
    retrieval._lobe_table.cache_clear()
    cold = coherent_lobe_power(at_100)
    retrieval._lobe_table.cache_clear()
    coherent_lobe_power(canonical_scenario(skew_theta=math.radians(2.0)))  # fills the table
    assert retrieval._lobe_table.cache_info().currsize == 1
    assert coherent_lobe_power(at_100) == cold
    # no second table for another storage time
    assert retrieval._lobe_table.cache_info().currsize == 1
