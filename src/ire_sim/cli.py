"""Command-line front end.

Four subcommands, all driven by an INI configuration file:

    eta       one efficiency estimate; prints the resolution report and the
              estimate, writes eta.csv plus a timestamped eta_meta.txt
    sweep     one-axis parameter sweep with replicated seeds; writes
              sweep.csv plus a timestamped sweep_meta.txt
    angular   emitted-field heatmap rasters over the sphere (and the
              backward cap), written through the angular reference path,
              plus a timestamped heatmap_meta.txt
    od        print the resolved cloud/beam report (no files)

Exit codes: 0 success, 1 runtime failure, 2 configuration or usage error.
The result CSVs and rasters are deterministic in (config, seed, flags); the
*_meta.txt companions carry the timestamp so reruns stay byte-comparable.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from dataclasses import fields, replace
from functools import partial

import numpy as np
from numpy.lib.introspect import opt_func_info

from ._version import __version__
from .angular import (
    _field_estimate,
    angular_field,
    build_grid,
    export_heatmap,
    sphere_norm,
)
from .config import (
    ConfigError,
    _as_float,
    _read_key,
    build_scenario,
    read_config,
    resolution_report,
)
from .experiments import (METHODS, SWEEP_AXES, SweepSpec, _descriptors, _g9, run_sweep,
                          scenario_for_value, write_rows, write_sweep_csv)
from .ensemble import BANDS, SHELLS
from .retrieval import (
    BLOCK_ATOMS,
    CHUNK_ATOMS,
    PRUNE_FLOOR,
    Scenario,
    _eta_stream,
    _in_region,
    wavenumbers,
)

ETA_CSV_COLUMNS = (
    "od",
    "wr",
    "theta_deg",
    "tm_us",
    "n_atoms",
    "method",
    "seed",
    "eta",
    "numerator",
    "denominator",
)

# The angular path touches every grid node for every atom; beyond a couple
# of million atoms that is no longer a cross-check but a mistake.
ANGULAR_MAX_ATOMS = 2_000_000

_EPILOG = """\
examples:
  ire-sim eta --config run.ini --out results
  ire-sim eta --config run.ini --method angular --out results
  ire-sim eta --config run.ini --mc-atoms 4000000 --threads 4 --out results
  ire-sim sweep --config run.ini --sweep width_ratio \\
      --values 0.3,0.58,1.0,1.3 --replicates 5 --out results
  ire-sim angular --config small.ini --out results
  ire-sim od --config run.ini

configuration:
  INI blocks [species], [cloud], [beams], [run]; grammar documented in
  README.md and in ire_sim.config. Interface units are degrees and
  microseconds. --seed, --method, and --mc-atoms override the [run] block.

threads:
  --threads N worker processes (default 1). Results are bit-identical for
  every thread count.
"""


def _add_common(sub: argparse.ArgumentParser, out_dir: bool = True) -> None:
    sub.add_argument("--config", required=True, metavar="PATH",
                     help="INI configuration file")
    sub.add_argument("--seed", default=None, metavar="U64",
                     help="override [run] seed")
    sub.add_argument("--threads", type=int, default=1, metavar="N",
                     help="worker processes (default 1)")
    if out_dir:
        sub.add_argument("--out", default="ire_sim_out", metavar="DIR",
                         help="output directory (default: ire_sim_out)")


def _add_estimator(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", default=None, metavar="NAME",
                     help=f"override [run] method: {' | '.join(METHODS)}")
    sub.add_argument("--mc-atoms", default=None, metavar="N",
                     help="override [run] mc_atoms (paraxial subsample size)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ire-sim",
        description="Intrinsic retrieval efficiency of a Gaussian-beam atomic-ensemble memory.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eta = subs.add_parser("eta", help="single efficiency estimate")
    _add_common(p_eta)
    _add_estimator(p_eta)
    p_eta.set_defaults(func=_cmd_eta)

    p_sweep = subs.add_parser("sweep", help="one-axis sweep with replicates")
    _add_common(p_sweep)
    p_sweep.add_argument("--sweep", required=True, choices=SWEEP_AXES, metavar="AXIS",
                         help=f"sweep axis: one of {', '.join(SWEEP_AXES)}")
    p_sweep.add_argument("--values", required=True, metavar="CSVLIST",
                         help="comma-separated, strictly increasing values")
    p_sweep.add_argument("--replicates", type=int, default=5, metavar="N",
                         help="seeds per value (default 5)")
    _add_estimator(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ang = subs.add_parser("angular", help="emitted-field heatmap rasters")
    _add_common(p_ang)
    p_ang.set_defaults(func=_cmd_angular)

    p_od = subs.add_parser("od", help="print the resolved cloud/beam report")
    _add_common(p_od, out_dir=False)
    p_od.set_defaults(func=_cmd_od)
    return parser


def _load(args):
    """The INI document, with the subcommand's overrides applied, and its scenario."""
    doc = read_config(args.config)
    updates = {}
    for name in ("seed", "method", "mc_atoms"):
        raw = getattr(args, name, None)
        if raw is not None:
            updates[name] = _read_key(name, raw, "--" + name.replace("_", "-"))
    if updates:
        doc = replace(doc, **updates)
    if args.threads < 1:
        raise ConfigError("--threads must be an integer >= 1")
    scenario = build_scenario(doc)
    return doc, scenario


# The float64 ufuncs of the per-atom physics whose results may follow the
# SIMD target numpy dispatches them to.
KERNEL_UFUNCS = ("tan", "exp", "log", "arctan", "sin", "cos")


def _stream_record(threads: int, atoms_in_strata) -> dict:
    """The meta keys that say which stream made a result.

    numpy does not promise the same Generator.multinomial draws across its
    versions (NEP 19), and those draws set how many atoms each of the
    shells x bands cells holds; atoms_in_strata counts the atoms of the
    run's strata (retrieval._in_region): every cell the run streamed, and
    the cells whose bound clears 1e-18 that it skips at PRUNE_FLOOR.
    numpy also picks each ufunc's SIMD target at import, from the CPU and
    NPY_DISABLE_CPU_FEATURES, and the last bits of per-atom values follow
    it: kernel_backend names the target of each of KERNEL_UFUNCS. The
    lobe power C and the angular field are summed through BLAS products,
    whose last bits follow the BLAS build numpy links: blas names it.
    The block size sets how every sum is added up; the chunk size, like
    the thread count, records only how the blocks were farmed out.
    """
    info = opt_func_info("^(" + "|".join(KERNEL_UFUNCS) + ")$", "float64")
    backend = " ".join(f"{name}:{info[name]['dd']['current']}" for name in KERNEL_UFUNCS)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"threads": threads, "chunk_atoms": CHUNK_ATOMS, "block_atoms": BLOCK_ATOMS,
            "bands": BANDS, "numpy_version": np.__version__, "kernel_backend": backend,
            "blas": f"{blas['name']} {blas['version']}", "shells": SHELLS,
            "prune_floor": PRUNE_FLOOR, "atoms_in_strata": atoms_in_strata}


def _print_report(report: dict) -> None:
    for key, value in report.items():
        print(f"{key} = {value}")


def _setup(doc, scenario: Scenario, axis=None, values=()):
    """The INI's sphere grid for a run of its method on the scenario, None if not gridded.

    ConfigError for what the method cannot run: a subsample, unless it reads
    mc_atoms; and for a gridded method, too many atoms in the scenario or at
    any sweep value along `axis` that resolves (one that does not becomes
    the sweep's error row), or a grid that build_grid rejects.
    """
    method = METHODS[doc.method]
    if scenario.mc_atoms is not None and not method.reads_mc_atoms:
        readers = " | ".join(name for name, m in METHODS.items() if m.reads_mc_atoms)
        raise ConfigError(f"mc_atoms applies to method = {readers} only; method = "
                          f"{doc.method} streams every atom, so drop it")
    if not method.gridded:
        return None
    points = [("", scenario)]
    for value in values:
        try:
            points.append((f"{axis} = {_g9(value)}: ", scenario_for_value(scenario, axis, value)))
        except (ValueError, ArithmeticError):
            pass  # run_sweep writes its error row
    for where, point in points:
        if point.n_atoms > ANGULAR_MAX_ATOMS:
            raise ConfigError(
                f"{where}method = {doc.method} over {point.n_atoms} atoms would evaluate "
                f"atoms x nodes plane waves; keep n_atoms <= {ANGULAR_MAX_ATOMS} "
                "(set [cloud] n_atoms_override for a reduced instance, or use "
                "method = paraxial)"
            )
    try:
        return build_grid(
            wavenumbers(scenario.species).k_i,
            scenario.w_collect,
            n_cap=doc.grid_n_cap,
            n_base=doc.grid_n_base,
            n_phi=doc.grid_n_phi,
            cap_mult=doc.grid_cap_mult,
        )
    except ValueError as exc:
        raise ConfigError(f"[run] grid_*: {exc}") from None


def _write_run_record(args, doc, name: str, own: dict, report: dict, in_strata, result: dict):
    """Write the run record `name` (a *_meta.txt) into the output directory; return its path.

    One `key=value` line per entry, in order: package_version, the config
    path, every ConfigDocument field as the run read it (after the flag
    overrides, under its INI name), the command's own keys, the resolution
    report (less seed and mc_atoms, which the INI part holds), the stream,
    the result, and timestamp_utc, the run's UTC time. A key that two
    parts declare raises ValueError before the file is written.
    """
    parts = (
        {"package_version": __version__, "config_path": os.path.abspath(args.config)},
        {key.name: getattr(doc, key.name) for key in fields(doc)},
        own,
        {key: value for key, value in report.items() if key not in ("seed", "mc_atoms")},
        _stream_record(args.threads, in_strata),
        result,
        {"timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()},
    )
    record = {}
    for part in parts:
        repeated = sorted(record.keys() & part.keys())
        if repeated:
            raise ValueError(f"{name} declares keys twice: {', '.join(repeated)}")
        record.update(part)
    path = os.path.join(args.out, name)
    with open(path, "w") as fh:
        fh.writelines(f"{key}={value}\n" for key, value in record.items())
    return path


def _cmd_eta(args) -> int:
    doc, scenario = _load(args)
    project, estimate = METHODS[doc.method].pair({scenario.idler_mode: _setup(doc, scenario)})
    report = resolution_report(scenario)
    _print_report(report)
    region = _in_region(scenario)
    est = estimate(scenario, _eta_stream([scenario], args.threads, project)[0], region)
    print(f"eta = {est.eta:.9g}")
    print(f"numerator = {est.numerator:.9g}")
    print(f"denominator = {est.denominator:.9g}")

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "eta.csv")
    write_rows(csv_path, ETA_CSV_COLUMNS, [{**_descriptors(scenario), **vars(est)}])
    # the fields of the estimate that eta.csv does not hold go to the record
    result = {key: value for key, value in vars(est).items() if key not in ETA_CSV_COLUMNS}
    _write_run_record(args, doc, "eta_meta.txt", {}, report, region[0], result)
    print(f"wrote {csv_path}")
    return 0


def _parse_values(raw: str) -> tuple[float, ...]:
    """Each comma-separated item of --values; an empty item is not a number."""
    return tuple(_as_float(tok, "--values") for tok in raw.split(","))


def _cmd_sweep(args) -> int:
    doc, scenario = _load(args)
    values = _parse_values(args.values)
    _setup(doc, scenario, args.sweep, values)  # a bad INI fails before any row
    try:
        spec = SweepSpec(scenario, args.sweep, values, args.replicates, doc.method)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = run_sweep(spec, threads=args.threads, make_grid=partial(_setup, doc))
    for row in rows:
        if row.error is not None:
            print(f"{args.sweep} row failed: {row.error}")
        else:
            print(
                f"od={row.od:.6g} wr={row.wr:.6g} theta_deg={row.theta_deg:.6g} "
                f"tm_us={row.tm_us:.6g} eta={row.eta_mean:.6g} +- {row.eta_stderr:.2g}"
            )
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    write_sweep_csv(rows, csv_path)
    own = {"axis": args.sweep, "values": ",".join(_g9(v) for v in values),
           "replicates": args.replicates}
    _write_run_record(args, doc, "sweep_meta.txt", own, resolution_report(scenario),
                      ",".join(str(row.n_in_strata) for row in rows),
                      {"prune_bound": ",".join(str(row.prune_bound) for row in rows)})
    print(f"wrote {csv_path}")
    if all(row.error is not None for row in rows):
        return 1
    return 0


def _cmd_angular(args) -> int:
    doc, scenario = _load(args)
    doc = replace(doc, method="angular")  # whatever the INI's method says
    grid = _setup(doc, scenario)
    field = angular_field(scenario, grid, threads=args.threads)
    est = _field_estimate(field, grid)
    print(f"eta_reference = {est.eta:.9g}")
    paths = export_heatmap(field, grid, args.out, raster_n=doc.raster_n)
    result = {"n_kept": field.n_kept, "dropped_amplitude": field.dropped_amplitude,
              "prune_bound": est.prune_bound,
              "sphere_norm": sphere_norm(field, grid), "grid_n_levels": grid.n_levels,
              "grid_cap_theta_min_rad": grid.cap_theta_min, "grid_k_times_w": grid.k_times_w}
    paths.append(_write_run_record(args, doc, "heatmap_meta.txt", {}, resolution_report(scenario),
                                   _in_region(scenario)[0], result))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_od(args) -> int:
    _, scenario = _load(args)
    _print_report(resolution_report(scenario))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
