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
from ire_sim import SweepSpec, eta_paraxial, make_scenario, run_sweep, scenario_for_value

from conftest import (R0, SPECIES, TEMP, W_COLLECT, W_WRITE, canonical_scenario,
                      largest_streamed_shell)

# A negative value first and an infinite one last: both pass SweepSpec's
# ordering check and must become error rows of their own.
VALUES_US = (-5.0, 0.0, 50.0, 100.0, math.inf)


@pytest.fixture(scope="module")
def two_block_base():
    """A stream of about 16.4k atoms per shell: one chunk, most of them of two blocks."""
    return canonical_scenario(skew_theta=math.radians(2.0), mc_atoms=(1 << 20) + 5000, seed=3)


@pytest.fixture(scope="module")
def per_point(two_block_base):
    """eta_paraxial at every valid value and replicate, on one process."""
    return {
        value: tuple(
            eta_paraxial(
                scenario_for_value(replace(two_block_base, seed=seed), "storage_time", value),
                threads=1,
            ).eta
            for seed in (3, 4)
        )
        for value in VALUES_US
        if 0.0 <= value < math.inf
    }


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_rows_are_bit_identical_to_per_point_estimates(two_block_base, per_point, threads):
    # a shell of several blocks, so the rows carry the block fold
    assert largest_streamed_shell(two_block_base) > retrieval.BLOCK_ATOMS
    rows = run_sweep(
        SweepSpec(two_block_base, "storage_time", VALUES_US, replicates=2), threads=threads
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


def test_storage_sweep_uses_one_pool(created_pools):
    base = canonical_scenario(n_atoms_override=20_000, seed=5)
    rows = run_sweep(SweepSpec(base, "storage_time", (0.0, 40.0, 80.0), replicates=3), threads=2)
    assert all(r.error is None for r in rows)
    assert created_pools == [2]  # 3 replicates of one chunk per shell, all on one pool


def test_stream_error_fails_every_valid_value(monkeypatch):
    def all_dropped(scenarios, threads, project):
        raise ArithmeticError("every streamed atom's stored amplitude is below PRUNE_FLOOR")

    monkeypatch.setattr(experiments, "_eta_stream", all_dropped)
    base = canonical_scenario(n_atoms_override=20_000)
    for method in ("paraxial", "angular"):
        spec = SweepSpec(base, "storage_time", (-1.0, 0.0, 30.0), replicates=1, method=method)
        rows = run_sweep(spec)
        assert "storage_time" in rows[0].error
        assert all(r.error.startswith("ArithmeticError: every streamed") for r in rows[1:])


@pytest.mark.parametrize("axis, method", [("storage_time", "paraxial"),
                                          ("skew_angle", "paraxial"),
                                          ("skew_angle", "angular")])
def test_programming_errors_propagate(monkeypatch, axis, method):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(experiments, "_eta_stream", broken)
    base = canonical_scenario(n_atoms_override=20_000)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_sweep(SweepSpec(base, axis, (0.0, 1.0), replicates=1, method=method))


def test_job_rebuilds_the_amplitudes_when_the_velocity_spread_changes():
    # No sweep axis moves the temperature, but one stream may serve scenarios
    # that differ only there: each must be drifted with its own velocities.
    base = canonical_scenario(skew_theta=math.radians(2.0), storage_tm=100e-6,
                              mc_atoms=20_000, seed=3)
    hot = replace(base, cloud=replace(base.cloud, temperature_t=4.0 * base.cloud.temperature_t))
    scenarios = [base, hot, base]
    got = retrieval._eta_stream(scenarios, threads=1)
    for scn, total in zip(scenarios, got):
        assert total == retrieval._eta_stream([scn], threads=1)[0]
    assert got[0] != got[1]


def test_one_call_groups_interleaved_scenarios_into_their_streams(created_pools):
    # Two seeds and two cloud widths, interleaved: the stream groups them by
    # (seed, width, streamed count) itself and returns one total per scenario,
    # in input order, each the total it gets streamed alone.
    def point(seed, r0, theta_deg):
        return make_scenario(SPECIES, r0, TEMP, W_WRITE, W_COLLECT, W_COLLECT,
                             skew_theta=math.radians(theta_deg), storage_tm=50e-6,
                             seed=seed, n_atoms_override=20_000)

    scenarios = [point(5, R0, 0.0), point(6, 5e-4, 2.0), point(6, R0, 2.0),
                 point(5, 5e-4, 0.0), point(5, R0, 2.0), point(6, 5e-4, 0.0)]
    alone = [retrieval._eta_stream([scn], threads=1)[0] for scn in scenarios]
    assert created_pools == []
    got = retrieval._eta_stream(scenarios, threads=2)
    assert created_pools == [2]
    assert got == alone
    assert len(set(alone)) == len(alone)
