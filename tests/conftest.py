import math
from pathlib import Path

import numpy as np
import pytest

import ire_sim.retrieval as retrieval
from ire_sim import SpeciesConstants, make_scenario
from ire_sim.ensemble import cell_counts

# Rubidium-like D1 memory: 795 nm transition, write detuned by 2pi x 10 MHz,
# 6.8 GHz ground splitting (signal red of the write, so omega_sg is signed
# negative here), sigma0 for the closed transition.
SPECIES = SpeciesConstants(
    transition_wavelength=795e-9,
    detuning_delta=2.0 * math.pi * 1.0e7,
    hyperfine_omega_sg=-2.0 * math.pi * 6.8e9,
    cross_section_sigma0=1.082e-13,
)

R0 = 7.5e-4
TEMP = 30e-6
W_WRITE = 60e-6
W_COLLECT = 35e-6


def canonical_scenario(**kwargs):
    """OD-24.7 cloud, 60/35 um beams; density knob overridable per test."""
    base = dict(
        skew_theta=0.0,
        storage_tm=0.0,
        seed=1,
        target_od=24.7,
    )
    if "n_atoms_override" in kwargs or "peak_density_n0" in kwargs:
        base.pop("target_od")
    base.update(kwargs)
    return make_scenario(SPECIES, R0, TEMP, W_WRITE, W_COLLECT, W_COLLECT, **base)


def largest_streamed_shell(scenario):
    """The most atoms any shell the scenario streams a cell of holds (of mc_atoms if set)."""
    count = scenario.mc_atoms if scenario.mc_atoms is not None else scenario.n_atoms
    streamed = retrieval._cell_table(scenario)[0].any(axis=1)
    return int(cell_counts(scenario.seed, count).sum(axis=1)[streamed].max())


def streamed_mask(scenario, count):
    """Which atoms of the count-atom stream, in draw_sample's cell order, the scenario streams.

    The atoms of the cells its cell table (retrieval._cell_table) does not skip.
    """
    streamed = retrieval._cell_table(scenario)[0]
    return np.repeat(streamed.ravel(), cell_counts(scenario.seed, count).ravel())


def strata_mask(scenario, count):
    """Which atoms of the count-atom stream, in draw_sample's cell order, lie in the scenario's strata.

    The cells whose cell table bound clears retrieval._STRATA_FLOOR at the
    table's margin (retrieval._in_region).
    """
    bound = retrieval._cell_table(scenario)[1]
    strata = bound > math.log(retrieval._STRATA_FLOOR) * retrieval._CELL_MARGIN
    return np.repeat(strata.ravel(), cell_counts(scenario.seed, count).ravel())


def read_meta(path):
    """A *_meta.txt run record as a dict, in file order; a key written twice fails."""
    meta = {}
    for line in Path(path).read_text().splitlines():
        key, value = line.split("=", 1)
        assert key not in meta, f"{path}: {key} written twice"
        meta[key] = value
    return meta


CANONICAL_INI = """\
[species]
wavelength_nm        = 795.0
delta_over_2pi_hz    = 1.0e7
omega_sg_over_2pi_hz = -6.8e9
sigma0_m2            = 1.082e-13
cg_sq                = 1.0
mass_amu             = 87.0

[cloud]
r0_m          = 7.5e-4
temperature_k = 30e-6
target_od     = 24.7

[beams]
w_write_m  = 60e-6
w_signal_m = 35e-6
w_idler_m  = 35e-6

[run]
theta_deg = 0.0
tm_us     = 0.0
seed      = 1
method    = paraxial
"""


@pytest.fixture(scope="session")
def species():
    return SPECIES


@pytest.fixture(scope="session")
def canonical_ini_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "canonical.ini"
    path.write_text(CANONICAL_INI)
    return str(path)


@pytest.fixture()
def small_chunks(monkeypatch):
    """Set the stream's chunk size (retrieval.CHUNK_ATOMS) for one test.

    Returns the setter, which returns the size it set. A test that uses it
    asserts that its chunks are smaller than the shells it streams, so the
    threads split shells between them. A chunk is a whole number of blocks,
    as in the stream itself: a test that needs chunks smaller than
    retrieval.BLOCK_ATOMS sets small_blocks first.
    """
    def set_chunk_atoms(atoms):
        assert atoms % retrieval.BLOCK_ATOMS == 0, (
            f"{atoms} atoms is not a whole number of {retrieval.BLOCK_ATOMS}-atom blocks")
        monkeypatch.setattr(retrieval, "CHUNK_ATOMS", atoms)
        return atoms

    return set_chunk_atoms


@pytest.fixture()
def small_blocks(monkeypatch):
    """Set the stream's block size, its summation unit (retrieval.BLOCK_ATOMS), for one test.

    Returns the setter, which returns the size it set. The size divides
    retrieval.CHUNK_ATOMS; the chunk size itself makes each chunk one block.
    """
    def set_block_atoms(atoms):
        assert retrieval.CHUNK_ATOMS % atoms == 0, (
            f"{atoms}-atom blocks do not divide {retrieval.CHUNK_ATOMS}-atom chunks")
        monkeypatch.setattr(retrieval, "BLOCK_ATOMS", atoms)
        return atoms

    return set_block_atoms


@pytest.fixture()
def created_pools(monkeypatch):
    """The max_workers of every process pool the stream builds, in order of creation."""
    created = []

    class CountingPool(retrieval.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(retrieval, "ProcessPoolExecutor", CountingPool)
    return created
