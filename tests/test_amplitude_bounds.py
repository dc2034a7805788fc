"""The amplitude bounds behind EtaEstimate, on drawn geometries.

EtaEstimate bounds what the skip moves each sum by from |A_j| <= 1 and
|P_j| <= c_P = sqrt(2)/(k_i W_i), and D = sum |A_j| over the dropped
atoms; _prune decides which atoms those are from its own log-domain copy
of the two envelopes. Each claim is checked on geometries drawn from a
fixed seed, against spinwave_amplitude and idler_projection.
"""

import math

import numpy as np
import pytest

from ire_sim import (
    PRUNE_FLOOR,
    AtomSample,
    draw_sample,
    idler_projection,
    make_scenario,
    spinwave_amplitude,
    wavenumbers,
)
from ire_sim.retrieval import _prune

from conftest import SPECIES, TEMP

EPS = np.finfo(np.float64).eps

# r0 10 um - 2 mm, write and collection waists 10 um - 1 mm (each
# log-uniform), tilt 0 - 10 deg and storage 0 - 300 us.
_DRAW = np.random.default_rng(40)
_N = 64
GEOMETRIES = [tuple(map(float, g)) for g in zip(
    10.0 ** _DRAW.uniform(-5.0, math.log10(2e-3), _N),
    10.0 ** _DRAW.uniform(-5.0, -3.0, _N),
    10.0 ** _DRAW.uniform(-5.0, -3.0, _N),
    _DRAW.uniform(0.0, 10.0, _N),
    _DRAW.uniform(0.0, 300e-6, _N),
)]
IDS = [f"drawn{i}" for i in range(_N)]

CLOUD_ATOMS = 1 << 11
BEAM_ATOMS = 1 << 11


def _scenario(r0, w_write, w_collect, theta_deg, storage_tm):
    return make_scenario(SPECIES, r0, TEMP, w_write, w_collect, w_collect,
                         skew_theta=math.radians(theta_deg), storage_tm=storage_tm,
                         seed=5, n_atoms_override=CLOUD_ATOMS)


def _atoms(scn):
    """(initial, drifted) positions: cloud atoms, atoms about the beams and one at the focus.

    The beam atoms lie within a few effective waists of the axis, so their
    |A_j| spans the floor; every mode focuses at the origin.
    """
    sample = draw_sample(scn, CLOUD_ATOMS)
    w_eff = 1.0 / math.hypot(1.0 / scn.w_write, 1.0 / scn.w_collect)
    rng = np.random.default_rng(scn.seed)
    beams = rng.standard_normal((BEAM_ATOMS, 3)) * [3.0 * w_eff, 3.0 * w_eff, 2.0 * scn.cloud.sigma_r0]
    focus = np.zeros((1, 3))
    return (np.concatenate([sample.r_initial, beams, focus]),
            np.concatenate([sample.r_drifted, beams, focus]))


def _amplitude(scn, r):
    return np.abs(spinwave_amplitude(AtomSample(r, np.zeros_like(r)), scn))


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
def test_no_amplitude_exceeds_its_peak(geometry):
    scn = _scenario(*geometry)
    r, r_drifted = _atoms(scn)
    a = _amplitude(scn, r)
    p = np.abs(idler_projection(AtomSample(r, np.zeros_like(r), r_drifted), scn))
    c_p = math.sqrt(2.0) / (wavenumbers(scn.species).k_i * scn.w_collect)
    assert a.max() <= 1.0 + 16 * EPS
    assert p.max() <= c_p * (1.0 + 16 * EPS)
    # the focus atom reaches both peaks
    assert a[-1] == pytest.approx(1.0, rel=16 * EPS)
    assert p[-1] == pytest.approx(c_p, rel=16 * EPS)


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=IDS)
def test_prune_keeps_the_atoms_above_the_floor_and_sums_the_rest(geometry):
    scn = _scenario(*geometry)
    r = _atoms(scn)[0]
    a = _amplitude(scn, r)
    keep, dropped = _prune(r, scn)
    clear = np.abs(a / PRUNE_FLOOR - 1.0) > 1e-12
    assert np.array_equal(keep[clear], a[clear] > PRUNE_FLOOR)
    assert dropped == pytest.approx(float(np.sum(a[~keep])), rel=1e-12, abs=0.0)


def test_the_drawn_atoms_span_the_floor():
    # most geometries keep some atoms and drop others, so that the mask is
    # checked on both sides of the floor
    spans = 0
    for geometry in GEOMETRIES:
        scn = _scenario(*geometry)
        keep = _prune(_atoms(scn)[0], scn)[0]
        spans += bool(keep.any() and not keep.all())
    assert spans >= 50
