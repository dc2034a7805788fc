"""Parameter sweeps with replicated seeds and a stable CSV record format.

A sweep takes a base scenario and varies exactly one axis:

    width_ratio    collection waist w_collect = value * w_write
    optical_depth  cloud density re-resolved so the write-axis OD = value
    storage_time   storage before retrieval, value in microseconds
    skew_angle     write/read axis tilt, value in degrees

Each value runs `replicates` times with seeds base, base+1, ..., each an
unsigned 64-bit integer (SweepSpec refuses a range past 2^64 - 1); a row
reports the replicate mean and the standard error of that mean (sample
standard deviation over sqrt(replicates), zero for a single replicate). A
value that fails with a ValueError or ArithmeticError produces an error
row and the sweep continues. A sweep of any method in METHODS streams
each replicate's atoms once for all the values that share its streamed
count, on one process pool: no axis moves the seed or the cloud width, and
only the optical depth moves the count. A gridded method evaluates each
value on the sphere grid of its idler (the default grid unless the caller
builds its own).
Numeric CSV fields carry 9 significant digits; reruns of the same spec
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .angular import _angular_method, _default_grid
from .ensemble import density_for_od, optical_depth
from .retrieval import Scenario, _estimate, _eta_stream, _in_region, _paraxial_sums

SWEEP_AXES = ("width_ratio", "optical_depth", "storage_time", "skew_angle")

# Each estimator method, declared once for the INI's method reader, --method,
# SweepSpec, run_sweep and the CLI's setup: pair(grids) gives its (project,
# estimate) on grids (idler mode -> sphere grid), gridded that it evaluates on
# one sphere grid per idler mode, and reads_mc_atoms that it reads mc_atoms.
Method = namedtuple("Method", "pair gridded reads_mc_atoms")
METHODS = {"paraxial": Method(lambda grids: (_paraxial_sums, _estimate), False, True),
           "angular": Method(_angular_method, True, False)}

SWEEP_CSV_COLUMNS = (
    "od",
    "wr",
    "theta_deg",
    "tm_us",
    "n_atoms",
    "method",
    "replicates",
    "eta_mean",
    "eta_stderr",
    "etas_json",
    "seed_base",
)


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep description over a base scenario."""

    base: Scenario
    axis: str
    values: tuple[float, ...]
    replicates: int = 5
    method: str = "paraxial"

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")
        values = tuple(float(v) for v in self.values)
        if len(values) == 0:
            raise ValueError("values must be non-empty")
        if not all(a < b for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        object.__setattr__(self, "values", values)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.base.seed + self.replicates > 2**64:
            raise ValueError(
                f"{self.replicates} replicates from seed {self.base.seed} take seeds past 2^64 - 1"
            )
        if self.base.mc_atoms is not None and not METHODS[self.method].reads_mc_atoms:
            raise ValueError(
                f"{self.method} sweeps have no subsample estimator; clear mc_atoms on the base"
            )


@dataclass(frozen=True)
class SweepRow:
    """Aggregated result at one sweep value.

    Descriptor columns are the resolved per-row values (the write-axis OD is
    recomputed from the row's cloud, so an optical_depth sweep shows its
    round trip). On failure, error holds the message, etas is empty, and the
    aggregates are NaN. n_in_strata is the number of atoms the row's
    estimates rest on: those of the value's strata (retrieval._in_region),
    summed over the replicates (0 for a failed row). prune_bound is the
    largest EtaEstimate.prune_bound over the replicates (NaN for a failed
    row).
    """

    od: float
    wr: float
    theta_deg: float
    tm_us: float
    n_atoms: int
    method: str
    replicates: int
    eta_mean: float
    eta_stderr: float
    etas: tuple[float, ...]
    seed_base: int
    error: str | None = None
    n_in_strata: int = 0
    prune_bound: float = math.nan


def aggregate(etas) -> tuple[float, float]:
    """Replicate mean and standard error of the mean (0 for one replicate)."""
    arr = np.asarray(list(etas), dtype=float)
    if arr.size == 0:
        raise ValueError("no replicate values to aggregate")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def scenario_for_value(base: Scenario, axis: str, value: float) -> Scenario:
    """Rebuild the base scenario with one axis moved to the given value."""
    value = float(value)
    if axis == "width_ratio":
        if not 0.0 < value < math.inf:
            raise ValueError("width_ratio must be finite and > 0")
        return replace(base, w_collect=value * base.w_write)
    if axis == "optical_depth":
        if value <= 0.0:
            raise ValueError("optical_depth must be > 0")
        n0 = density_for_od(value, base.cloud, base.species, base.write_mode)
        cloud = replace(base.cloud, peak_density_n0=n0)
        return replace(base, cloud=cloud)
    if axis == "storage_time":
        if not 0.0 <= value < math.inf:
            raise ValueError("storage_time must be finite and >= 0 (microseconds)")
        return replace(base, storage_tm=value * 1e-6)
    if axis == "skew_angle":
        return replace(base, skew_theta=math.radians(value))
    raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


# Each axis's own column among the _descriptors columns.
_AXIS_COLUMN = {"optical_depth": "od", "width_ratio": "wr", "skew_angle": "theta_deg",
                "storage_time": "tm_us"}


def _descriptors(scenario: Scenario) -> dict[str, float]:
    """The od, wr, theta_deg and tm_us columns of a result row at the scenario."""
    return {
        "od": optical_depth(scenario.cloud, scenario.species, scenario.write_mode),
        "wr": scenario.width_ratio,
        "theta_deg": math.degrees(scenario.skew_theta),
        "tm_us": scenario.storage_tm * 1e6,
    }


def run_sweep(spec: SweepSpec, threads: int = 1, make_grid=None) -> list[SweepRow]:
    """Run every sweep value; a value that fails becomes an error row, not an abort.

    Only ValueError and ArithmeticError become error rows; any other
    exception is a programming error and propagates. With any method,
    each replicate's atoms are drawn once for every valid value with the
    same streamed count (all of them, unless an optical_depth sweep streams
    the full ensemble), with all chunks on one process pool; each row is
    bit-identical to eta_paraxial, or eta_angular on the grid
    make_grid(scenario) (default: the idler's default grid), at its point.
    The methods differ only in their METHODS pair, the projection and the
    estimate. An error of that shared stream fails every valid value; an
    error of one value's estimate fails that value alone.
    """
    seeds = range(spec.base.seed, spec.base.seed + spec.replicates)
    points, failed = {}, {}  # keyed by the value's index
    method = METHODS[spec.method]
    grids = {}  # a gridded method's grid per idler mode
    make_grid = make_grid or _default_grid
    for i, value in enumerate(spec.values):
        try:
            scenario = scenario_for_value(spec.base, spec.axis, value)
            if method.gridded and scenario.idler_mode not in grids:
                grids[scenario.idler_mode] = make_grid(scenario)
            points[i] = (scenario, _descriptors(scenario))
        except (ValueError, ArithmeticError) as exc:
            failed[i] = exc
    project, estimate = method.pair(grids)
    scenarios = [(i, replace(points[i][0], seed=seed)) for seed in seeds for i in points]
    runs: dict[int, list] = {i: [] for i in points}  # (scenario, total) per seed
    try:
        totals = _eta_stream([scenario for _, scenario in scenarios], threads, project)
    except (ValueError, ArithmeticError) as exc:
        failed.update(dict.fromkeys(points, exc))
        runs = {}
    else:
        for (i, scenario), total in zip(scenarios, totals):
            runs[i].append((scenario, total))
    regions, estimates = {}, {}  # each seed's (m, N_in, D0) and estimate, per value
    for i, per_seed in runs.items():
        try:
            regions[i] = [_in_region(scenario) for scenario, _ in per_seed]
            estimates[i] = [estimate(scenario, total, region)
                            for (scenario, total), region in zip(per_seed, regions[i])]
        except (ValueError, ArithmeticError) as exc:
            failed[i] = exc

    rows: list[SweepRow] = []
    for i, value in enumerate(spec.values):
        if i in failed:
            # the base's descriptors, with the failed axis value echoed
            desc = {**_descriptors(spec.base), _AXIS_COLUMN[spec.axis]: value}
            error = f"{type(failed[i]).__name__}: {failed[i]}"
            rows.append(SweepRow(*desc.values(), spec.base.n_atoms, spec.method, spec.replicates,
                                 math.nan, math.nan, (), spec.base.seed, error))
        else:
            scenario, desc = points[i]
            etas = tuple(est.eta for est in estimates[i])
            rows.append(SweepRow(*desc.values(), scenario.n_atoms, spec.method, spec.replicates,
                                 *aggregate(etas), etas, spec.base.seed,
                                 n_in_strata=sum(m for m, _, _ in regions[i]),
                                 prune_bound=max(est.prune_bound for est in estimates[i])))
    return rows


def _g9(x: float) -> str:
    return f"{x:.9g}"


def write_rows(path: str, columns, records) -> None:
    """Write a CSV: the header `columns`, then one row per record.

    A record maps each column to its value (other keys are not written); a
    float is written with 9 significant digits and any other value with
    str, and a missing column raises KeyError. The writer emits unix
    newlines so reruns compare byte-for-byte.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            values = (record[column] for column in columns)
            writer.writerow(_g9(v) if isinstance(v, float) else str(v) for v in values)


def write_sweep_csv(rows, path: str) -> None:
    """Write sweep rows as CSV with the fixed column set.

    Column order is SWEEP_CSV_COLUMNS; numeric fields use 9 significant
    digits; etas_json is a JSON list of the per-replicate efficiencies, or a
    JSON object {"error": message} for a failed row.
    """

    def etas_json(row: SweepRow) -> str:
        if row.error is not None:
            return json.dumps({"error": row.error})
        return json.dumps([float(_g9(e)) for e in row.etas])

    write_rows(path, SWEEP_CSV_COLUMNS,
               ({**vars(row), "etas_json": etas_json(row)} for row in rows))
