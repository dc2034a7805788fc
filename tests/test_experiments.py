import json
import math

import pytest

from ire_sim import (
    SweepSpec,
    aggregate,
    optical_depth,
    run_sweep,
    scenario_for_value,
    write_sweep_csv,
)
from ire_sim.experiments import SWEEP_CSV_COLUMNS

from conftest import canonical_scenario


def small_base(**kwargs):
    return canonical_scenario(n_atoms_override=20_000, **kwargs)


def test_spec_validation():
    base = small_base()
    with pytest.raises(ValueError):
        SweepSpec(base, "detuning", (1.0, 2.0))
    with pytest.raises(ValueError):
        SweepSpec(base, "storage_time", (1.0, 2.0), method="exact")
    with pytest.raises(ValueError):
        SweepSpec(base, "storage_time", ())
    with pytest.raises(ValueError):
        SweepSpec(base, "storage_time", (2.0, 1.0))
    with pytest.raises(ValueError):
        SweepSpec(base, "storage_time", (1.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        # NaN compares false both ways, so it must not hide 0.5 > 0.3
        SweepSpec(base, "storage_time", (0.5, math.nan, 0.3))
    with pytest.raises(ValueError):
        SweepSpec(base, "storage_time", (1.0, 2.0), replicates=0)
    with pytest.raises(ValueError, match="2 replicates"):
        # the replicate seeds base, base + 1 must each fit in 64 bits
        SweepSpec(small_base(seed=2**64 - 1), "storage_time", (1.0, 2.0), replicates=2)
    with pytest.raises(ValueError):
        SweepSpec(
            canonical_scenario(n_atoms_override=100, mc_atoms=50),
            "storage_time",
            (0.0, 1.0),
            method="angular",
        )
    spec = SweepSpec(base, "storage_time", [0, 1])  # list coerces to float tuple
    assert spec.values == (0.0, 1.0)


def test_aggregate():
    assert aggregate([0.5]) == (0.5, 0.0)
    mean, se = aggregate([0.4, 0.6])
    assert mean == pytest.approx(0.5, rel=1e-15)
    assert se == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        aggregate([])


def test_scenario_for_value_semantics():
    base = small_base()

    wr = scenario_for_value(base, "width_ratio", 0.3)
    assert wr.signal_mode.waist_w0 == pytest.approx(0.3 * 60e-6, rel=1e-15)
    assert wr.idler_mode.waist_w0 == wr.signal_mode.waist_w0
    assert wr.write_mode.waist_w0 == base.write_mode.waist_w0
    assert wr.width_ratio == pytest.approx(0.3, rel=1e-15)

    od = scenario_for_value(base, "optical_depth", 10.0)
    assert optical_depth(od.cloud, od.species, od.write_mode) == pytest.approx(
        10.0, rel=1e-9
    )
    assert od.n_atoms == od.cloud.atom_count

    tm = scenario_for_value(base, "storage_time", 75.0)
    assert tm.storage_tm == pytest.approx(75e-6, rel=1e-15)

    th = scenario_for_value(base, "skew_angle", 2.0)
    assert th.skew_theta == pytest.approx(math.radians(2.0), rel=1e-15)

    with pytest.raises(ValueError):
        scenario_for_value(base, "width_ratio", -1.0)
    with pytest.raises(ValueError, match="width_ratio"):
        # an infinite collection waist is an error, not a row with eta = 0
        scenario_for_value(base, "width_ratio", math.inf)
    with pytest.raises(ValueError):
        scenario_for_value(base, "optical_depth", 0.0)


def test_run_sweep_replicates_and_descriptors():
    base = small_base(seed=10)
    spec = SweepSpec(base, "storage_time", (0.0, 40.0), replicates=3)
    rows = run_sweep(spec)
    assert len(rows) == 2
    for row, tm in zip(rows, (0.0, 40.0)):
        assert row.error is None
        assert row.tm_us == pytest.approx(tm, abs=1e-12)
        assert row.method == "paraxial"
        assert row.replicates == 3
        assert len(row.etas) == 3
        assert row.seed_base == 10
        assert row.n_atoms == 20_000
        mean, se = aggregate(row.etas)
        assert row.eta_mean == mean
        assert row.eta_stderr == se
        assert 0.0 < row.eta_mean < 1.0
    # distinct replicate seeds produce distinct efficiencies
    assert len(set(rows[0].etas)) == 3


def test_run_sweep_continues_past_error_rows():
    base = small_base()
    spec = SweepSpec(base, "storage_time", (-5.0, 0.0), replicates=1)
    rows = run_sweep(spec)
    assert len(rows) == 2
    bad, good = rows
    assert bad.error is not None and "storage_time" in bad.error
    assert math.isnan(bad.eta_mean) and math.isnan(bad.eta_stderr)
    assert bad.etas == ()
    assert bad.tm_us == -5.0  # the failed axis value is echoed in its column
    assert good.error is None
    assert good.eta_mean > 0.0


def test_sweep_csv_layout_and_determinism(tmp_path):
    base = small_base(seed=4)
    rows = run_sweep(SweepSpec(base, "storage_time", (-5.0, 0.0, 30.0), replicates=2))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_sweep_csv(rows, str(p1))
    write_sweep_csv(rows, str(p2))
    text = p1.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 1 + 3
    assert p1.read_bytes() == p2.read_bytes()
    assert "\r" not in text

    import csv as csv_mod

    with open(p1) as fh:
        parsed = list(csv_mod.DictReader(fh))
    failed = json.loads(parsed[0]["etas_json"])
    assert set(failed) == {"error"} and "storage_time" in failed["error"]
    etas = json.loads(parsed[1]["etas_json"])
    assert isinstance(etas, list) and len(etas) == 2
    assert float(parsed[1]["eta_mean"]) == pytest.approx(
        sum(etas) / 2.0, rel=1e-8
    )
    assert parsed[2]["method"] == "paraxial"
    assert parsed[2]["seed_base"] == "4"


def test_angular_sweep_method():
    base = canonical_scenario(n_atoms_override=3000, seed=2)
    rows = run_sweep(SweepSpec(base, "skew_angle", (0.0, 2.0), replicates=1, method="angular"))
    assert all(r.error is None for r in rows)
    assert all(r.method == "angular" for r in rows)
    assert all(0.0 <= r.eta_mean <= 1.02 for r in rows)


def test_write_rows_formats_by_type_and_requires_every_column(tmp_path):
    from ire_sim.experiments import write_rows

    path = tmp_path / "rows.csv"
    records = [{"x": 1.0 / 3.0, "n": 20_000, "ok": True, "name": "a,b", "extra": 1.0}]
    write_rows(str(path), ("x", "n", "ok", "name"), records)
    # floats at 9 significant digits, the rest through str; keys that are
    # not columns are not written
    assert path.read_bytes() == b'x,n,ok,name\n0.333333333,20000,True,"a,b"\n'
    with pytest.raises(KeyError):
        write_rows(str(path), ("x", "missing"), records)
