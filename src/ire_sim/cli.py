"""Command-line front end.

Four subcommands, all driven by an INI configuration file:

    eta       one efficiency estimate; prints the resolution report and the
              estimate, writes eta.csv plus a timestamped eta_meta.txt
    sweep     one-axis parameter sweep with replicated seeds; writes
              sweep.csv plus a timestamped sweep_meta.txt
    angular   emitted-field heatmap rasters over the sphere (and the
              backward cap), written through the angular reference path
    od        print the resolved cloud/beam report (no files)

Exit codes: 0 success, 1 runtime failure, 2 configuration or usage error.
The result CSVs and rasters are deterministic in (config, seed, flags); the
*_meta.txt companions carry the timestamp so reruns stay byte-comparable.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from ._version import __version__
from .angular import (
    angular_field,
    build_grid,
    eta_angular,
    eta_reference,
    export_heatmap,
    write_meta,
)
from .config import (
    ConfigError,
    _as_float,
    _read_key,
    build_scenario,
    read_config,
    resolution_report,
)
from .experiments import (SWEEP_AXES, SWEEP_METHODS, SweepSpec, _descriptors, _g9, run_sweep,
                          write_rows, write_sweep_csv)
from .ensemble import SHELLS
from .retrieval import (
    PRUNE_FLOOR,
    THREADS_ENV_VAR,
    Scenario,
    _in_region,
    eta_paraxial,
    resolve_threads,
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
  --threads N, else the IRE_SIM_THREADS environment variable, else 1.
  Results are bit-identical for every thread count.
"""


def _add_common(sub: argparse.ArgumentParser, out_dir: bool = True) -> None:
    sub.add_argument("--config", required=True, metavar="PATH",
                     help="INI configuration file")
    sub.add_argument("--seed", default=None, metavar="U64",
                     help="override [run] seed")
    sub.add_argument("--threads", type=int, default=None, metavar="N",
                     help="worker processes (default: IRE_SIM_THREADS or 1)")
    if out_dir:
        sub.add_argument("--out", default="ire_sim_out", metavar="DIR",
                         help="output directory (default: ire_sim_out)")


def _add_estimator(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", choices=SWEEP_METHODS, default=None,
                     help="override [run] method")
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
    source = "--threads" if args.threads is not None else THREADS_ENV_VAR
    try:
        args.threads = resolve_threads(args.threads)
    except ValueError:
        raise ConfigError(f"{source} must be an integer >= 1") from None
    scenario = build_scenario(doc)
    return doc, scenario


def _stream_record(threads: int, streamed_in_region) -> dict:
    """The meta keys that say which stream made a result.

    numpy does not promise the same Generator.multinomial draw across its
    versions (NEP 19), and that draw sets how many atoms each shell holds.
    """
    return {"threads": threads, "numpy_version": np.__version__, "shells": SHELLS,
            "prune_floor": PRUNE_FLOOR, "streamed_in_region": streamed_in_region}


def _print_report(report: dict) -> None:
    for key, value in report.items():
        print(f"{key} = {value}")


_GRID_KEYS = ("grid_n_cap", "grid_n_base", "grid_n_phi", "grid_cap_mult")


def _grid_from_doc(doc, scenario: Scenario):
    """The INI's sphere grid for the scenario's idler; ConfigError if build_grid rejects it."""
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


def _angular_setup(doc, scenario: Scenario):
    """The INI's sphere grid for an angular run of the scenario.

    ConfigError for what the angular path cannot run: a subsample, too many
    atoms, or a grid that build_grid rejects.
    """
    if scenario.mc_atoms is not None:
        raise ConfigError(
            "mc_atoms applies to the paraxial estimator only; the angular path "
            "streams every atom, so drop it"
        )
    if scenario.n_atoms > ANGULAR_MAX_ATOMS:
        raise ConfigError(
            f"angular path over {scenario.n_atoms} atoms would evaluate "
            f"atoms x nodes plane waves; keep n_atoms <= {ANGULAR_MAX_ATOMS} "
            "(set [cloud] n_atoms_override for a reduced instance, or use "
            "method = paraxial)"
        )
    return _grid_from_doc(doc, scenario)


def _write_run_record(args, doc, name: str, own: dict, report: dict, streamed, result: dict):
    """Write the eta or sweep run record `name` into the output directory.

    In order: the config path, the command's own keys, the method (and for
    angular the INI's sphere grid), the resolution report, the stream and
    the result.
    """
    method = ("method", *_GRID_KEYS) if doc.method == "angular" else ("method",)
    record = {"config_path": os.path.abspath(args.config), **own}
    record.update({key: getattr(doc, key) for key in method})
    record.update({**report, **_stream_record(args.threads, streamed), **result})
    write_meta(os.path.join(args.out, name), record)


def _cmd_eta(args) -> int:
    doc, scenario = _load(args)
    if doc.method == "angular":
        estimate = partial(eta_angular, grid=_angular_setup(doc, scenario))
    else:
        estimate = eta_paraxial
    report = resolution_report(scenario)
    _print_report(report)
    est = estimate(scenario, threads=args.threads)
    print(f"eta = {est.eta:.9g}")
    print(f"numerator = {est.numerator:.9g}")
    print(f"denominator = {est.denominator:.9g}")

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "eta.csv")
    write_rows(csv_path, ETA_CSV_COLUMNS, [{**_descriptors(scenario), **vars(est)}])
    # the fields of the estimate that eta.csv does not hold go to the record
    result = {key: value for key, value in vars(est).items() if key not in ETA_CSV_COLUMNS}
    _write_run_record(args, doc, "eta_meta.txt", {}, report, _in_region(scenario)[0], result)
    print(f"wrote {csv_path}")
    return 0


def _parse_values(raw: str) -> tuple[float, ...]:
    values = tuple(_as_float(tok, "--values") for tok in raw.split(",") if tok.strip() != "")
    if not values:
        raise ConfigError("--values: empty list")
    return values


def _cmd_sweep(args) -> int:
    doc, scenario = _load(args)
    values = _parse_values(args.values)
    if doc.method == "angular":
        _angular_setup(doc, scenario)  # the base's grid: a bad INI grid fails before any row
    try:
        spec = SweepSpec(scenario, args.sweep, values, args.replicates, doc.method)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = run_sweep(spec, threads=args.threads, make_grid=partial(_grid_from_doc, doc))
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
                      ",".join(str(row.n_streamed) for row in rows), {})
    print(f"wrote {csv_path}")
    if all(row.error is not None for row in rows):
        return 1
    return 0


def _cmd_angular(args) -> int:
    doc, scenario = _load(args)
    grid = _angular_setup(doc, scenario)
    field = angular_field(scenario, grid, threads=args.threads)
    eta_ref = eta_reference(field, grid)
    print(f"eta_reference = {eta_ref:.9g}")
    paths = export_heatmap(
        field,
        grid,
        scenario,
        args.out,
        raster_n=doc.raster_n,
        extra={"config_path": os.path.abspath(args.config),
               **_stream_record(args.threads, _in_region(scenario)[0])},
    )
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
