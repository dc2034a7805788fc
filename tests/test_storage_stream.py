"""A storage-time sweep streams each replicate once, on one process pool.

run_sweep on the storage_time axis with the paraxial method draws each
replicate's atoms and skip mask once and evaluates every valid storage
time on them. Its rows must carry the same bits as eta_paraxial at each
point, for any thread count; failures keep their narrow error rows.
"""

import math
from dataclasses import replace

import pytest

import ire_sim.experiments as experiments
import ire_sim.retrieval as retrieval
from ire_sim import SweepSpec, eta_paraxial, run_sweep, scenario_for_value
from ire_sim.retrieval import CHUNK_ATOMS

from conftest import canonical_scenario

# A negative value first and a NaN in the middle: both pass SweepSpec's
# ordering check and must become error rows of their own.
VALUES_US = (-5.0, 0.0, 50.0, math.nan, 100.0)


@pytest.fixture(scope="module")
def two_chunk_base():
    return canonical_scenario(
        skew_theta=math.radians(2.0), mc_atoms=CHUNK_ATOMS + 5000, seed=3
    )


@pytest.fixture(scope="module")
def per_point(two_chunk_base):
    """eta_paraxial at every valid value and replicate, on one process."""
    return {
        value: tuple(
            eta_paraxial(
                scenario_for_value(replace(two_chunk_base, seed=seed), "storage_time", value),
                threads=1,
            ).eta
            for seed in (3, 4)
        )
        for value in VALUES_US
        if value >= 0.0
    }


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_rows_are_bit_identical_to_per_point_estimates(two_chunk_base, per_point, threads):
    rows = run_sweep(
        SweepSpec(two_chunk_base, "storage_time", VALUES_US, replicates=2), threads=threads
    )
    assert len(rows) == len(VALUES_US)
    for row, value in zip(rows, VALUES_US):
        if value in per_point:
            assert row.error is None
            assert row.etas == per_point[value]
            assert row.tm_us == pytest.approx(value, abs=1e-12)
        else:
            assert row.error is not None and "storage_time" in row.error
            assert row.etas == ()
            assert math.isnan(row.eta_mean)


def test_storage_sweep_uses_one_pool(monkeypatch):
    created = []

    class CountingPool(retrieval.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(retrieval, "ProcessPoolExecutor", CountingPool)
    base = canonical_scenario(n_atoms_override=20_000, seed=5)
    rows = run_sweep(SweepSpec(base, "storage_time", (0.0, 40.0, 80.0), replicates=3), threads=2)
    assert all(r.error is None for r in rows)
    assert created == [2]  # 3 one-chunk replicates, all on one pool


def test_stream_error_fails_every_valid_value(monkeypatch):
    def all_dropped(jobs, threads=None):
        raise ArithmeticError("every streamed atom's stored amplitude is below PRUNE_FLOOR")

    monkeypatch.setattr(experiments, "_eta_stream", all_dropped)
    base = canonical_scenario(n_atoms_override=20_000)
    rows = run_sweep(SweepSpec(base, "storage_time", (-1.0, 0.0, 30.0), replicates=1))
    assert "storage_time" in rows[0].error
    assert all(r.error.startswith("ArithmeticError: every streamed") for r in rows[1:])


@pytest.mark.parametrize("axis, target", [("storage_time", "_eta_stream"),
                                          ("skew_angle", "_eta_stream"),
                                          ("skew_angle", "eta_angular")])
def test_programming_errors_propagate(monkeypatch, axis, target):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(experiments, target, broken)
    base = canonical_scenario(n_atoms_override=20_000)
    method = "angular" if target == "eta_angular" else "paraxial"
    with pytest.raises(TypeError, match="unsupported operand"):
        run_sweep(SweepSpec(base, axis, (0.0, 1.0), replicates=1, method=method))


def test_job_rebuilds_the_amplitudes_when_the_velocity_spread_changes():
    # No sweep axis moves the temperature, but one job may hold scenarios
    # that differ only there: each must be drifted with its own velocities.
    base = canonical_scenario(skew_theta=math.radians(2.0), storage_tm=100e-6,
                              mc_atoms=20_000, seed=3)
    hot = replace(base, cloud=replace(base.cloud, temperature_t=4.0 * base.cloud.temperature_t))
    job = (base, hot, base)
    got = retrieval._eta_stream([job], threads=1)[0]
    for scn, parts in zip(job, got):
        assert parts == retrieval._eta_stream([(scn,)], threads=1)[0][0]
    assert got[0] != got[1]
