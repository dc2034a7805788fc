import csv
import json

import numpy as np
import pytest

from ire_sim import SweepSpec, __version__, build_grid, eta_angular, run_sweep, wavenumbers
from ire_sim.cli import ETA_CSV_COLUMNS, main
from ire_sim.ensemble import SHELLS
from ire_sim.experiments import SWEEP_CSV_COLUMNS
from ire_sim.retrieval import PRUNE_FLOOR, THREADS_ENV_VAR, _in_region

from conftest import CANONICAL_INI, canonical_scenario

SMALL_INI = CANONICAL_INI.replace("target_od     = 24.7", "n_atoms_override = 20000")

ANGULAR_INI = (
    CANONICAL_INI.replace("target_od     = 24.7", "n_atoms_override = 3000")
    + "grid_n_cap  = 64\ngrid_n_base = 48\ngrid_n_phi  = 32\nraster_n = 64\n"
)


@pytest.fixture()
def small_ini(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_INI)
    return str(path)


@pytest.fixture()
def angular_ini(tmp_path):
    path = tmp_path / "angular.ini"
    path.write_text(ANGULAR_INI)
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def read_meta(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def test_od_prints_report(canonical_ini_file, capsys):
    rc = main(["od", "--config", canonical_ini_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n_atoms = 808106001" in out
    assert "optical_depth = 24.7" in out
    assert "k_idler_rad_m = 7903377.744" in out


def test_eta_writes_csv_and_meta(small_ini, tmp_path, capsys):
    out_dir = tmp_path / "results"
    rc = main(["eta", "--config", small_ini, "--out", str(out_dir)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "eta = " in printed and "wrote" in printed

    csv_path = out_dir / "eta.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(ETA_CSV_COLUMNS)
    (row,) = read_rows(csv_path)
    assert row["method"] == "paraxial"
    assert row["seed"] == "1"
    assert row["n_atoms"] == "20000"
    eta = float(row["eta"])
    assert 0.0 < eta < 1.0
    assert eta == pytest.approx(
        float(row["numerator"]) / float(row["denominator"]), rel=1e-6
    )

    meta = (out_dir / "eta_meta.txt").read_text()
    assert "timestamp_utc=" in meta
    assert "config_path=" in meta
    assert f"package_version={__version__}" in meta
    # which stream made the estimate: the shell counts come from numpy's multinomial
    meta = read_meta(out_dir / "eta_meta.txt")
    assert meta["numpy_version"] == np.__version__
    assert meta["shells"] == str(SHELLS)
    streamed = _in_region(canonical_scenario(n_atoms_override=20000))[0]
    assert meta["streamed_in_region"] == str(streamed)
    assert 0 < int(meta["n_kept"]) <= streamed < 20000


def test_eta_rerun_is_byte_identical(small_ini, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["eta", "--config", small_ini, "--out", str(out_a)]) == 0
    assert main(["eta", "--config", small_ini, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "eta.csv").read_bytes() == (out_b / "eta.csv").read_bytes()


def test_eta_seed_and_mc_overrides(small_ini, tmp_path, capsys):
    out_dir = tmp_path / "o"
    rc = main(
        ["eta", "--config", small_ini, "--seed", "5", "--mc-atoms", "4000",
         "--out", str(out_dir)]
    )
    capsys.readouterr()
    assert rc == 0
    (row,) = read_rows(out_dir / "eta.csv")
    assert row["seed"] == "5"
    assert row["method"] == "paraxial"


def test_eta_angular_method(angular_ini, tmp_path, capsys):
    out_dir = tmp_path / "o"
    rc = main(
        ["eta", "--config", angular_ini, "--method", "angular", "--out", str(out_dir)]
    )
    capsys.readouterr()
    assert rc == 0
    (row,) = read_rows(out_dir / "eta.csv")
    assert row["method"] == "angular"
    assert 0.0 <= float(row["eta"]) <= 1.02


def test_eta_angular_rejects_subsampling(angular_ini, tmp_path, capsys):
    for command in (["eta"], ["sweep", "--sweep", "skew_angle", "--values", "0,1"]):
        rc = main(
            command + ["--config", angular_ini, "--method", "angular", "--mc-atoms", "100",
                       "--out", str(tmp_path / "o")]
        )
        err = capsys.readouterr().err
        assert rc == 2, command
        assert "paraxial" in err


def test_sweep_writes_csv(small_ini, tmp_path, capsys):
    out_dir = tmp_path / "o"
    rc = main(
        ["sweep", "--config", small_ini, "--sweep", "storage_time",
         "--values", "0,30", "--replicates", "2", "--out", str(out_dir)]
    )
    printed = capsys.readouterr().out
    assert rc == 0
    assert "eta=" in printed
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 3
    rows = read_rows(out_dir / "sweep.csv")
    assert [r["tm_us"] for r in rows] == ["0", "30"]
    assert all(r["replicates"] == "2" for r in rows)
    meta = (out_dir / "sweep_meta.txt").read_text()
    assert "axis=storage_time" in meta
    assert "values=0,30" in meta


def test_sweep_meta_records_threads_and_prune_floor(small_ini, tmp_path, monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    out_dir = tmp_path / "o"
    rc = main(
        ["sweep", "--config", small_ini, "--sweep", "skew_angle",
         "--values", "0,2", "--replicates", "1", "--out", str(out_dir)]
    )
    assert rc == 0
    meta = (out_dir / "sweep_meta.txt").read_text().splitlines()
    assert "threads=2" in meta
    assert f"prune_floor={PRUNE_FLOOR}" in meta
    meta = read_meta(out_dir / "sweep_meta.txt")
    assert meta["numpy_version"] == np.__version__
    assert meta["shells"] == str(SHELLS)
    # one count per value: the tilt moves the first streamed shell
    streamed = [_in_region(canonical_scenario(n_atoms_override=20000, skew_theta=np.radians(d)))[0]
                for d in (0.0, 2.0)]
    assert meta["streamed_in_region"] == ",".join(map(str, streamed))
    assert streamed[0] < streamed[1]


def test_angular_sweep_uses_the_ini_grid(tmp_path, capsys):
    ini = tmp_path / "grid.ini"
    ini.write_text(CANONICAL_INI.replace("target_od     = 24.7", "n_atoms_override = 3000")
                   + "grid_n_cap  = 48\ngrid_n_base = 32\ngrid_n_phi  = 24\n")
    common = ["--config", str(ini), "--method", "angular"]
    assert main(["eta", *common, "--out", str(tmp_path / "e")]) == 0
    assert main(["sweep", *common, "--sweep", "skew_angle", "--values", "0",
                 "--replicates", "1", "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    (eta_row,) = read_rows(tmp_path / "e" / "eta.csv")
    (sweep_row,) = read_rows(tmp_path / "s" / "sweep.csv")
    assert sweep_row["eta_mean"] == eta_row["eta"]
    assert json.loads(sweep_row["etas_json"]) == [float(eta_row["eta"])]
    # the value is that of the INI's 48/32/24 grid, and a sweep on that grid
    # carries the bits of eta_angular
    scn = canonical_scenario(n_atoms_override=3000)
    grid = build_grid(wavenumbers(scn.species).k_i, scn.idler_mode.waist_w0,
                      n_cap=48, n_base=32, n_phi=24)
    eta = eta_angular(scn, grid).eta
    assert float(eta_row["eta"]) == float(f"{eta:.9g}")
    spec = SweepSpec(scn, "skew_angle", (0.0,), replicates=1, method="angular")
    assert run_sweep(spec, make_grid=lambda _: grid)[0].etas == (eta,)
    meta = read_meta(tmp_path / "s" / "sweep_meta.txt")
    assert (meta["grid_n_cap"], meta["grid_n_base"], meta["grid_n_phi"]) == ("48", "32", "24")
    assert meta["grid_cap_mult"] == "20.0"


def test_sweep_rejects_garbled_values(small_ini, tmp_path, capsys):
    rc = main(
        ["sweep", "--config", small_ini, "--sweep", "storage_time",
         "--values", "a,b", "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "--values" in err


@pytest.mark.parametrize("flags", [
    ["--values", "3,1"],  # not increasing
    ["--values", "1,2", "--replicates", "0"],
    ["--values", "0.5,nan,0.3"],  # NaN hid the order
    ["--values", "0,inf"],  # not finite, as no INI number may be
])
def test_sweep_usage_errors_exit_2(small_ini, tmp_path, capsys, flags):
    out_dir = tmp_path / "o"
    rc = main(["sweep", "--config", small_ini, "--sweep", "storage_time", *flags,
               "--out", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


def test_sweep_rejects_unknown_axis(small_ini, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", small_ini, "--sweep", "detuning",
              "--values", "1,2", "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert exc.value.code == 2


def test_sweep_all_rows_failing_exits_nonzero(small_ini, tmp_path, capsys):
    rc = main(
        ["sweep", "--config", small_ini, "--sweep", "width_ratio",
         "--values=-2,-1", "--replicates", "1", "--out", str(tmp_path / "o")]
    )
    printed = capsys.readouterr().out
    assert rc == 1
    assert "row failed" in printed


def test_angular_writes_rasters(angular_ini, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    out_dir = tmp_path / "o"
    rc = main(["angular", "--config", angular_ini, "--out", str(out_dir)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "eta_reference = " in printed
    for name in ("heatmap_sphere.csv", "heatmap_cap.csv", "heatmap_meta.txt"):
        assert (out_dir / name).exists()
    header = (out_dir / "heatmap_sphere.csv").read_text().splitlines()[0]
    assert header == "theta_rad,phi_rad,re,im"
    # raster_n came from the config: 64 x 64 cells
    assert len((out_dir / "heatmap_cap.csv").read_text().splitlines()) == 1 + 64 * 64
    # the record names the stream that drew the atoms
    meta = read_meta(out_dir / "heatmap_meta.txt")
    assert meta["threads"] == "1"
    assert meta["numpy_version"] == np.__version__
    assert meta["shells"] == str(SHELLS)


def test_angular_guards_ensemble_size(canonical_ini_file, tmp_path, capsys):
    rc = main(["angular", "--config", canonical_ini_file, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "n_atoms_override" in err  # the remedy is named


@pytest.mark.parametrize("command", [
    ["eta", "--method", "angular"],
    ["sweep", "--method", "angular", "--sweep", "storage_time", "--values", "0,50",
     "--replicates", "1"],
    ["angular"],
])
def test_ini_grid_that_build_grid_rejects_is_a_usage_error(command, tmp_path, capsys):
    # the INI grammar takes grid_n_phi = 4; build_grid needs 8 azimuth nodes
    ini = tmp_path / "coarse.ini"
    ini.write_text(ANGULAR_INI.replace("grid_n_phi  = 32", "grid_n_phi  = 4"))
    out_dir = tmp_path / "o"
    rc = main([command[0], "--config", str(ini), *command[1:], "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "grid" in captured.err
    assert not (out_dir / "sweep.csv").exists()


def test_angular_env_thread_count_is_equivalent(angular_ini, tmp_path, capsys, monkeypatch):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    monkeypatch.delenv("IRE_SIM_THREADS", raising=False)
    assert main(["angular", "--config", angular_ini, "--out", str(out_a),
                 "--threads", "1"]) == 0
    monkeypatch.setenv("IRE_SIM_THREADS", "3")
    assert main(["angular", "--config", angular_ini, "--out", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("heatmap_sphere.csv", "heatmap_cap.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_missing_config_file(tmp_path, capsys):
    rc = main(["od", "--config", str(tmp_path / "nope.ini")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not found" in err


def test_bad_seed_override(small_ini, capsys):
    rc = main(["od", "--config", small_ini, "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--seed" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    capsys.readouterr()
    assert exc.value.code == 2
