import argparse
import csv
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

import ire_sim.experiments as experiments
from ire_sim import (ConfigDocument, SweepSpec, __version__, build_grid, build_scenario,
                     eta_angular, read_config, resolution_report, run_sweep, wavenumbers)
from ire_sim.cli import ANGULAR_MAX_ATOMS, ETA_CSV_COLUMNS, KERNEL_UFUNCS, _write_run_record, main
from ire_sim.config import _read_key
from ire_sim.ensemble import SHELLS
from ire_sim.experiments import SWEEP_CSV_COLUMNS
from ire_sim.retrieval import (BLOCK_ATOMS, CHUNK_ATOMS, PRUNE_FLOOR, THREADS_ENV_VAR,
                                _in_region)

from conftest import CANONICAL_INI, canonical_scenario, read_meta

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
    # and which SIMD target each per-atom ufunc ran on, one name:target pair each
    targets = dict(pair.split(":") for pair in meta["kernel_backend"].split())
    assert list(targets) == list(KERNEL_UFUNCS)
    assert targets["tan"] == opt_func_info("^tan$", "float64")["tan"]["dd"]["current"]
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
    # `angular` has no --method or --mc-atoms flag: it reads mc_atoms from the INI
    subsampled_ini = tmp_path / "subsampled.ini"
    subsampled_ini.write_text(ANGULAR_INI + "mc_atoms = 100\n")
    flags = ["--config", angular_ini, "--method", "angular", "--mc-atoms", "100"]
    for command in (["eta", *flags], ["sweep", "--sweep", "skew_angle", "--values", "0,1", *flags],
                    ["angular", "--config", str(subsampled_ini)]):
        rc = main(command + ["--out", str(tmp_path / "o")])
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
    ["--values", "0,,50"],  # an empty item is not a number
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


@pytest.mark.parametrize("seed", [12345678901234567, 2**53 + 1, 2**64 - 1])
def test_ini_seed_reads_as_the_seed_flag(seed, small_ini, tmp_path, capsys):
    # a seed read through a float would round to even past 2**53
    ini = tmp_path / "seeded.ini"
    ini.write_text(SMALL_INI.replace("seed      = 1", f"seed      = {seed}"))
    assert main(["od", "--config", str(ini)]) == 0
    from_ini = capsys.readouterr().out.splitlines()
    assert main(["od", "--config", small_ini, "--seed", str(seed)]) == 0
    from_flag = capsys.readouterr().out.splitlines()
    assert f"seed = {seed}" in from_ini
    assert from_ini == from_flag


@pytest.mark.parametrize("flags, named", [
    (["--seed", str(2**64)], "--seed"),
    (["--mc-atoms", "1"], "--mc-atoms"),
    (["--method", "meanfield"], "--method"),
])
def test_bad_override_names_its_flag(small_ini, tmp_path, capsys, flags, named):
    out_dir = tmp_path / "o"
    rc = main(["eta", "--config", small_ini, *flags, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert named in captured.err
    assert not out_dir.exists()


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


@pytest.mark.parametrize("line, value, named", [
    ("method    = paraxial", "method    = 50%", "[run] method"),
    ("w_signal_m = 35e-6", "w_signal_m = %(w_write_m)s", "[beams] w_signal_m"),
], ids=["method", "w_signal_m"])
def test_percent_in_a_value_is_literal(line, value, named, tmp_path, capsys):
    # no interpolation: '50%' is a bad method, and '%(w_write_m)s' is not
    # the write waist (which would run width ratio 1.0)
    ini = tmp_path / "percent.ini"
    ini.write_text(SMALL_INI.replace(line, value))
    rc = main(["od", "--config", str(ini)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert named in captured.err


def test_eta_meta_records_the_method_and_grid(small_ini, angular_ini, tmp_path, capsys):
    assert main(["eta", "--config", small_ini, "--out", str(tmp_path / "p")]) == 0
    assert main(["eta", "--config", angular_ini, "--method", "angular",
                 "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    # every record holds the INI's grid, here the defaults, whatever the method
    paraxial = read_meta(tmp_path / "p" / "eta_meta.txt")
    assert paraxial["method"] == "paraxial"
    grid = [paraxial[key] for key in ("grid_n_cap", "grid_n_base", "grid_n_phi", "grid_cap_mult")]
    assert grid == ["256", "256", "256", "20.0"]
    angular = read_meta(tmp_path / "a" / "eta_meta.txt")
    assert angular["method"] == "angular"
    grid = [angular[key] for key in ("grid_n_cap", "grid_n_base", "grid_n_phi", "grid_cap_mult")]
    assert grid == ["64", "48", "32", "20.0"]


def test_every_meta_opens_with_the_version_and_closes_with_the_time(
        small_ini, angular_ini, tmp_path, capsys):
    assert main(["eta", "--config", small_ini, "--out", str(tmp_path / "e")]) == 0
    assert main(["sweep", "--config", small_ini, "--sweep", "storage_time", "--values", "0",
                 "--replicates", "1", "--out", str(tmp_path / "s")]) == 0
    assert main(["angular", "--config", angular_ini, "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    for path in (tmp_path / "e" / "eta_meta.txt", tmp_path / "s" / "sweep_meta.txt",
                 tmp_path / "a" / "heatmap_meta.txt"):
        meta = read_meta(path)  # no key twice
        keys = list(meta)
        assert keys[0] == "package_version" and meta["package_version"] == __version__
        assert keys[-1] == "timestamp_utc"
        assert "config_path" in keys and "streamed_in_region" in keys
        # the stream's layout: chunks of the shells, blocks of the chunks
        assert (meta["chunk_atoms"], meta["block_atoms"]) == (str(CHUNK_ATOMS), str(BLOCK_ATOMS))


def test_heatmap_meta_records_the_stream(angular_ini, tmp_path, capsys):
    assert main(["angular", "--config", angular_ini, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    meta = read_meta(tmp_path / "o" / "heatmap_meta.txt")
    streamed = _in_region(canonical_scenario(n_atoms_override=3000))[0]
    assert meta["streamed_in_region"] == str(streamed)
    assert 0 < int(meta["n_kept"]) <= streamed < 3000


def _ini_part(meta):
    """The ConfigDocument a record holds, read back as the INI reader reads each value."""
    names = [key.name for key in fields(ConfigDocument)]
    keys = list(meta)
    # each field once, in declaration order, right after the version and the config path
    assert keys[:2 + len(names)] == ["package_version", "config_path", *names]
    return ConfigDocument(**{name: None if meta[name] == "None"
                             else _read_key(name, meta[name], name) for name in names})


@pytest.mark.parametrize("ini, command, record, overrides", [
    ("small_ini", ["eta", "--seed", "7", "--mc-atoms", "5000"], "eta_meta.txt",
     {"seed": 7, "mc_atoms": 5000}),
    ("small_ini", ["sweep", "--seed", "3", "--sweep", "storage_time", "--values", "0,30",
                   "--replicates", "1"], "sweep_meta.txt", {"seed": 3}),
    # the angular command is the angular method whatever the INI says
    ("angular_ini", ["angular"], "heatmap_meta.txt", {"method": "angular"}),
    # --method is read as the INI's method = Angular is (tests/test_config.py)
    ("angular_ini", ["eta", "--method", "Angular"], "eta_meta.txt", {"method": "angular"}),
], ids=["eta", "sweep", "angular", "eta-method-any-case"])
def test_record_holds_the_ini_as_the_run_read_it(ini, command, record, overrides, request,
                                                 tmp_path, capsys):
    path = request.getfixturevalue(ini)
    out = tmp_path / "o"
    assert main([command[0], "--config", path, *command[1:], "--out", str(out)]) == 0
    capsys.readouterr()
    assert _ini_part(read_meta(out / record)) == replace(read_config(path), **overrides)


@pytest.mark.parametrize("own, result, repeated", [
    ({"seed": 2}, {}, "seed"),  # an INI field
    ({"n_atoms": 5}, {}, "n_atoms"),  # a resolution-report key
    ({}, {"threads": 2}, "threads"),  # a stream key
], ids=["ini", "report", "stream"])
def test_run_record_rejects_a_repeated_key(own, result, repeated, small_ini, tmp_path):
    doc = read_config(small_ini)
    args = argparse.Namespace(config=small_ini, out=str(tmp_path), threads=1)
    with pytest.raises(ValueError, match=repeated):
        _write_run_record(args, doc, "x_meta.txt", own, resolution_report(build_scenario(doc)),
                          0, result)
    assert not (tmp_path / "x_meta.txt").exists()


def test_angular_sweep_checks_every_value_against_the_atom_cap(angular_ini, tmp_path, capsys,
                                                                monkeypatch):
    # the base holds 3,000 atoms; at 1000 times its optical depth a value holds 3 million
    def stream(*args, **kwargs):
        raise AssertionError("atoms were streamed")

    monkeypatch.setattr(experiments, "_eta_stream", stream)
    od = resolution_report(canonical_scenario(n_atoms_override=3000))["optical_depth"]
    out_dir = tmp_path / "o"
    rc = main(["sweep", "--config", angular_ini, "--method", "angular",
               "--sweep", "optical_depth", "--values", f"{od!r},{1000 * od!r}",
               "--replicates", "1", "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "optical_depth = " in err and str(ANGULAR_MAX_ATOMS) in err
    assert not (out_dir / "sweep.csv").exists()
