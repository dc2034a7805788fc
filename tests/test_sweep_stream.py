"""Every sweep axis streams each replicate once, on one process pool.

run_sweep groups the values that stream the same atoms (same seed, cloud
width and streamed count) into one job, draws each chunk's counter words and
positions once and evaluates every value on them, with either method. Its
rows must carry the same bits as eta_paraxial, or eta_angular, at each
point, for any thread count, and a value whose own estimate fails must fail
alone.
"""

import math
from dataclasses import replace

import pytest

import ire_sim.experiments as experiments
import ire_sim.retrieval as retrieval
from ire_sim import SweepSpec, eta_angular, eta_paraxial, run_sweep, scenario_for_value

from conftest import canonical_scenario, largest_streamed_shell

# Small chunks of one block each, and streamed counts whose shells span two
# or more of them, so the ordered (shell, block) merge is exercised without
# streaming 2^20 atoms per shell.
SMALL_CHUNK = 1 << 6
STREAMED = 96 * SMALL_CHUNK + 1904

# Each sweep has one value out of its axis's range, first or last (the
# valid range is one interval, and the values must increase): it passes
# SweepSpec's ordering check and must become an error row of its own.
SWEEPS = {
    "skew_angle": ({"mc_atoms": STREAMED}, (0.0, 1.0, 2.0, 4.0, 90.0), 90.0),
    "width_ratio": ({"mc_atoms": STREAMED}, (0.3, 0.58, 1.0, math.inf), math.inf),
    "optical_depth": ({"mc_atoms": STREAMED}, (0.0, 5.0, 10.0, 24.7), 0.0),
    # no subsample: each value streams its own ensemble size (~4.3e3-7.9e3)
    "optical_depth_full": ({"n_atoms_override": STREAMED}, (0.0, 1.3e-4, 1.8e-4, 2.4e-4), 0.0),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_rows_match_per_point_estimates(small_blocks, small_chunks, case, threads):
    knobs, values, bad = SWEEPS[case]
    axis = case.removesuffix("_full")
    base = canonical_scenario(skew_theta=math.radians(2.0), storage_tm=100e-6, seed=3, **knobs)
    assert largest_streamed_shell(base) > small_chunks(small_blocks(SMALL_CHUNK))
    rows = run_sweep(SweepSpec(base, axis, values, replicates=2), threads=threads)
    assert len(rows) == len(values)
    streamed, firsts = set(), set()
    for row, value in zip(rows, values):
        if value == bad:
            assert row.error is not None and row.etas == ()
            continue
        point = scenario_for_value(base, axis, value)
        expected = tuple(
            eta_paraxial(replace(point, seed=seed), threads=1).eta for seed in (3, 4)
        )
        assert row.error is None
        assert row.etas == expected
        assert row.n_atoms == point.n_atoms
        streamed.add(retrieval._streamed_count(point))
        firsts.add(retrieval._cell_table(point)[0].tobytes())
    assert all(n > 64 * SMALL_CHUNK for n in streamed)
    assert len(streamed) == (3 if case == "optical_depth_full" else 1)
    # the values of one job fold from different streamed cells
    assert len(firsts) > 1 or axis in ("optical_depth",)


def test_tilt_sweep_uses_one_pool(created_pools):
    base = canonical_scenario(n_atoms_override=20_000, seed=5)
    rows = run_sweep(SweepSpec(base, "skew_angle", (0.0, 1.0, 2.0), replicates=3), threads=2)
    assert all(r.error is None for r in rows)
    assert created_pools == [2]  # 3 replicates of one chunk per shell, all on one pool


# The angular method on the default grid, with chunks small enough that most
# shells of each replicate (about 23 atoms each) span two of them.
ANGULAR_CHUNK = 1 << 4
ANGULAR_N = 64 * ANGULAR_CHUNK + 476
ANGULAR_SWEEPS = {  # the last value is out of the axis's range
    "skew_angle": (0.0, 2.0, 90.0),
    "width_ratio": (0.58, 1.0, math.inf),  # the grid changes with the value
}


def angular_base():
    return canonical_scenario(n_atoms_override=ANGULAR_N, skew_theta=math.radians(2.0),
                              storage_tm=100e-6, seed=3)


@pytest.fixture(scope="module")
def angular_per_point():
    """eta_angular at every valid value and replicate, on one process, in small chunks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retrieval, "BLOCK_ATOMS", ANGULAR_CHUNK)
        mp.setattr(retrieval, "CHUNK_ATOMS", ANGULAR_CHUNK)
        return {
            (axis, value): tuple(
                eta_angular(replace(scenario_for_value(angular_base(), axis, value), seed=seed),
                            threads=1).eta
                for seed in (3, 4)
            )
            for axis, values in ANGULAR_SWEEPS.items()
            for value in values[:-1]
        }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("axis", sorted(ANGULAR_SWEEPS))
def test_angular_sweep_rows_match_per_point_estimates(
    small_blocks, small_chunks, angular_per_point, axis, threads
):
    assert largest_streamed_shell(angular_base()) > small_chunks(small_blocks(ANGULAR_CHUNK))
    values = ANGULAR_SWEEPS[axis]
    spec = SweepSpec(angular_base(), axis, values, replicates=2, method="angular")
    rows = run_sweep(spec, threads=threads)
    assert len(rows) == len(values)
    for row, value in zip(rows, values):
        if value == values[-1]:
            assert row.error is not None and row.etas == ()
        else:
            assert row.error is None
            assert row.method == "angular"
            assert row.etas == angular_per_point[axis, value]


def test_angular_sweep_uses_one_pool(small_blocks, small_chunks, created_pools):
    assert largest_streamed_shell(angular_base()) > small_chunks(small_blocks(ANGULAR_CHUNK))
    spec = SweepSpec(angular_base(), "skew_angle", (0.0, 1.0, 2.0), replicates=3,
                     method="angular")
    rows = run_sweep(spec, threads=2)
    assert all(r.error is None for r in rows)
    assert created_pools == [2]  # 3 replicates of a chunk or two per shell, all on one pool


def test_value_error_of_one_estimate_fails_only_its_row(monkeypatch):
    estimate = experiments._estimate

    def fails_at_one_degree(scenario, partials, region):
        if scenario.skew_theta == math.radians(1.0):
            raise ArithmeticError("degenerate cloud: sum |A_j|^2 = 0, no stored amplitude")
        return estimate(scenario, partials, region)

    base = canonical_scenario(n_atoms_override=20_000, seed=5)
    spec = SweepSpec(base, "skew_angle", (0.0, 1.0, 2.0), replicates=2)
    clean = run_sweep(spec)
    monkeypatch.setattr(experiments, "_estimate", fails_at_one_degree)
    rows = run_sweep(spec)
    assert rows[1].error.startswith("ArithmeticError: degenerate cloud")
    assert rows[1].etas == () and math.isnan(rows[1].eta_mean)
    assert [rows[0].etas, rows[2].etas] == [clean[0].etas, clean[2].etas]

