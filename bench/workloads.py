"""The four workloads: set-up, timed body and checks of one round.

Each class resolves its inputs in __init__ (the set-up, timed as setup_s),
runs the user's job in body() (timed as wall_s) and checks the outputs in
check(). Every program call goes through the package's public names,
looked up at call time, so the wrappers of tracing.py see them. The checks
test properties and computations made here, apart from the package: the
paper's values, monotonicity, closed forms, the documented raster axes and
agreement between the two estimators. None compares against stored output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import traceback
from contextlib import redirect_stdout

import numpy as np

import ire_sim as irs
import ire_sim.cli  # noqa: F401  (not imported by the package itself)

# The canonical operating point: Rb-like D1 line, OD 24.7, r0 = 0.75 mm,
# 30 uK, 60 um write and 35 um collection waists.
WAVELENGTH = 795e-9
SPECIES = irs.SpeciesConstants(
    transition_wavelength=WAVELENGTH,
    detuning_delta=2.0 * math.pi * 1.0e7,
    hyperfine_omega_sg=-2.0 * math.pi * 6.8e9,
    cross_section_sigma0=1.082e-13,
)
R0, TEMP, OD = 7.5e-4, 30e-6, 24.7
W_WRITE, W_COLLECT = 60e-6, 35e-6

# Idler wavenumber omega_eg / c and the single-atom-at-focus efficiency,
# computed here rather than taken from the package.
K_I = 2.0 * math.pi / WAVELENGTH
SINGLE_ATOM_ETA = 2.0 / (K_I * W_COLLECT) ** 2

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
{density}

[beams]
w_write_m  = 60e-6
w_signal_m = 35e-6
w_idler_m  = 35e-6

[run]
theta_deg = 0.0
tm_us     = {tm_us}
seed      = {seed}
method    = paraxial
{extra}"""


def _canonical(**kwargs):
    """The canonical cloud and beams, with the given run settings."""
    return irs.make_scenario(SPECIES, R0, TEMP, W_WRITE, W_COLLECT, W_COLLECT, **kwargs)


class Ops:
    """Operations a round attempted and failed, with the failures' tracebacks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """One operation; returns None when it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.fail(f"{label}: {traceback.format_exc()}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def cli(self, argv: list[str]) -> tuple[int | None, str]:
        """One `ire-sim` invocation in this interpreter; (exit code, stdout)."""
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.call("ire-sim " + argv[0], irs.cli.main, argv)
        if code not in (0, None):
            self.fail(f"ire-sim {argv[0]} exited with {code}")
        return code, out.getvalue()


class Checks:
    """Failed checks of one round, as messages."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def rel(self, value: float, reference: float, tol: float, what: str) -> None:
        err = abs(value - reference) / abs(reference)
        self.expect(err <= tol, f"{what}: {value!r} vs {reference!r}, rel {err:.3g} > {tol}")


class SingleAtom:
    """One atom at the focus: both estimators must give 2/(k_i W_i)^2.

    The atom sits within a nanometre of the origin, where the write, read
    and collection phases all vanish.
    """

    def __init__(self) -> None:
        self.scenario = irs.make_scenario(
            SPECIES, 1e-9, 1e-12, W_WRITE, W_COLLECT, W_COLLECT, n_atoms_override=1)
        self.grid = irs.build_grid(irs.wavenumbers(SPECIES).k_i, W_COLLECT)

    def run(self, ops: Ops, checks: Checks) -> None:
        for name, estimator, args in (("eta_paraxial", irs.eta_paraxial, ()),
                                      ("eta_angular", irs.eta_angular, (self.grid,))):
            est = ops.call(f"{name} single atom", estimator, self.scenario, *args, threads=1)
            checks.expect(est is not None, f"single-atom {name} raised")
            if est is not None:
                checks.rel(est.eta, SINGLE_ATOM_ETA, 0.01, f"single-atom {name}")


def _write_ini(path: str, seed: int, density: str, tm_us: float, extra: str = "") -> str:
    with open(path, "w") as fh:
        fh.write(CANONICAL_INI.format(density=density, tm_us=tm_us, seed=seed, extra=extra))
    return path


def _read_bytes(path: str) -> bytes | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _read_sweep_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class StorageSweep:
    """eta against storage time at a 2 degree tilt: the paper's curve.

    One 4e6-atom estimate of eta(2 deg, 100 us) spreads by 0.043 over 30
    seeds (mean 0.507), so a replicate mean of three can leave the
    0.50 +- 0.07 window on the seed alone (0.7 % of runs). The window check
    allows 2 stderr, as the monotonicity check does; that fails on 0.03 %.
    """

    VALUES_US = (0.0, 25.0, 50.0, 75.0, 100.0, 200.0)
    REPLICATES = 3
    MC_ATOMS = 4_000_000
    THREADS = 2

    def __init__(self, seed: int, out_dir: str) -> None:
        self.csv_path = os.path.join(out_dir, "sweep.csv")
        base = _canonical(skew_theta=math.radians(2.0), seed=seed, target_od=OD,
                          mc_atoms=self.MC_ATOMS)
        self.spec = irs.SweepSpec(base, "storage_time", self.VALUES_US,
                                  replicates=self.REPLICATES)
        self.rows = None

    def body(self, ops: Ops) -> None:
        self.rows = ops.call("run_sweep", irs.run_sweep, self.spec, threads=self.THREADS)
        if self.rows is not None:
            errors = [f"tm_us={r.tm_us}: {r.error}" for r in self.rows if r.error is not None]
            if errors:
                ops.fail("run_sweep error rows: " + "; ".join(errors))
            ops.call("write_sweep_csv", irs.write_sweep_csv, self.rows, self.csv_path)

    def check(self, ops: Ops) -> list[str]:
        checks = Checks()
        ran = self.rows is not None and all(r.error is None for r in self.rows)
        checks.expect(ran, "run_sweep raised or gave error rows")
        if not ran:
            return checks.failures
        eta = dict(zip(self.VALUES_US, (r.eta_mean for r in self.rows)))
        se = dict(zip(self.VALUES_US, (r.eta_stderr for r in self.rows)))
        lo, hi = eta[100.0] - 2.0 * se[100.0], eta[100.0] + 2.0 * se[100.0]
        checks.expect(lo <= 0.57 and hi >= 0.43,
                      f"eta(2deg, 100us) = {eta[100.0]:.4f} +- {se[100.0]:.2g}, "
                      "need 0.50 +- 0.07 within 2 stderr")
        checks.expect(eta[200.0] <= 0.02, f"eta(2deg, 200us) = {eta[200.0]:.3g}, need <= 0.02")
        largest = max((tm for tm in self.VALUES_US if eta[tm] >= 0.80), default=None)
        checks.expect(largest in (25.0, 50.0, 75.0),
                      f"largest tm with eta >= 0.80 is {largest} us, need 25-75 us")
        for a, b in zip(self.VALUES_US, self.VALUES_US[1:]):
            slack = 2.0 * math.hypot(se[a], se[b])
            checks.expect(eta[b] <= eta[a] + slack,
                          f"eta rises from {a} to {b} us beyond 2 stderr")
        written = _read_sweep_csv(self.csv_path) if os.path.exists(self.csv_path) else []
        checks.expect([float(r["tm_us"]) for r in written] == list(self.VALUES_US),
                      "sweep.csv does not list the swept storage times")
        # The same point streamed on one process must give the same bits.
        scn = irs.scenario_for_value(self.spec.base, "storage_time", 100.0)
        est = ops.call("eta_paraxial threads=1", irs.eta_paraxial, scn, threads=1)
        checks.expect(est is not None, "eta_paraxial at threads=1 raised")
        if est is not None:
            first = self.rows[self.VALUES_US.index(100.0)].etas[0]
            checks.expect(est.eta == first,
                          f"threads=1 gives {est.eta!r}, threads={self.THREADS} gave {first!r}")
        return checks.failures


class AngularCrosscheck:
    """Paraxial against angular estimator on the N = 1e4 instance (criterion 7's shape)."""

    CONFIGS = ((0.0, 0.0), (2.0, 100.0))  # (tilt deg, storage us)
    N_ATOMS = 10_000

    def __init__(self, seed: int, out_dir: str) -> None:
        self.grid = irs.build_grid(irs.wavenumbers(SPECIES).k_i, W_COLLECT,
                                   n_cap=128, n_base=96, n_phi=64)
        self.scenarios = [
            _canonical(skew_theta=math.radians(theta), storage_tm=tm_us * 1e-6, seed=seed,
                       n_atoms_override=self.N_ATOMS)
            for theta, tm_us in self.CONFIGS
        ]
        self.single = SingleAtom()
        self.pairs = []

    def body(self, ops: Ops) -> None:
        for scn in self.scenarios:
            p = ops.call("eta_paraxial", irs.eta_paraxial, scn, threads=1)
            a = ops.call("eta_angular", irs.eta_angular, scn, self.grid, threads=1)
            self.pairs.append((p, a))

    def check(self, ops: Ops) -> list[str]:
        checks = Checks()
        for (theta, tm_us), (p, a) in zip(self.CONFIGS, self.pairs):
            checks.expect(p is not None and a is not None,
                          f"an estimator raised at ({theta} deg, {tm_us} us)")
            if p is not None and a is not None:
                checks.rel(p.eta, a.eta, 0.05, f"paraxial vs angular at ({theta} deg, {tm_us} us)")
        self.single.run(ops, checks)
        return checks.failures


class HeatmapExport:
    """`ire-sim angular` twice on an 8e3-atom INI: field, rasters and metadata.

    The second invocation writes to its own directory and must reproduce
    the rasters byte for byte, as export_heatmap documents; it doubles the
    timed work of a round at no extra import or check. At 2e3 atoms the
    speckle of the random cloud outshines the coherent lobe somewhere in
    the cap on 4 of 40 seeds, so the brightest-cell check would test the
    seed rather than the program; at 4e3 and 8e3 atoms it held on all 40.
    """

    N_ATOMS = 8_000
    GRID = (64, 48, 32)  # n_cap, n_base, n_phi
    RASTER_N = 512
    RASTERS = ("heatmap_sphere.csv", "heatmap_cap.csv")

    def __init__(self, seed: int, out_dir: str) -> None:
        n_cap, n_base, n_phi = self.GRID
        extra = (f"grid_n_cap  = {n_cap}\ngrid_n_base = {n_base}\n"
                 f"grid_n_phi  = {n_phi}\nraster_n    = {self.RASTER_N}\n")
        self.ini = _write_ini(os.path.join(out_dir, "heatmap.ini"), seed,
                              f"n_atoms_override = {self.N_ATOMS}", 0.0, extra)
        self.heat_dirs = (os.path.join(out_dir, "heatmap"), os.path.join(out_dir, "rerun"))
        doc, self.scenario, _ = irs.parse_and_validate(self.ini)
        self.cap_mult = doc.grid_cap_mult
        self.runs = []

    def body(self, ops: Ops) -> None:
        for out in self.heat_dirs:
            self.runs.append(ops.cli(
                ["angular", "--config", self.ini, "--threads", "1", "--out", out]))

    def check(self, ops: Ops) -> list[str]:
        checks = Checks()
        paraxial = ops.call("eta_paraxial", irs.eta_paraxial, self.scenario, threads=1)
        codes = [code for code, _ in self.runs]
        checks.expect(codes == [0, 0], f"ire-sim angular exit codes {codes}, need [0, 0]")
        if codes != [0, 0]:
            return checks.failures
        for name in self.RASTERS:
            first, again = (_read_bytes(os.path.join(d, name)) for d in self.heat_dirs)
            checks.expect(first is not None and first == again,
                          f"{name}: a second invocation did not reproduce the raster")
        printed = [ln.split("=", 1)[1] for ln in self.runs[0][1].splitlines()
                   if ln.startswith("eta_reference =")]
        checks.expect(len(printed) == 1, "no eta_reference line printed")
        eta_ref = float(printed[0]) if printed else math.nan
        checks.expect(paraxial is not None, "eta_paraxial on the INI raised")
        if paraxial is not None:
            checks.rel(eta_ref, paraxial.eta, 0.05, "printed eta_reference vs eta_paraxial")

        n = self.RASTER_N
        mid = (np.arange(n) + 0.5) / n
        half_width = 2.0 / (K_I * W_COLLECT)
        cap_lo = math.pi - self.cap_mult / (K_I * W_COLLECT)
        for name, theta_axis in zip(self.RASTERS,
                                    (math.pi * mid, cap_lo + (math.pi - cap_lo) * mid)):
            path = os.path.join(self.heat_dirs[0], name)
            if not os.path.exists(path):
                checks.expect(False, f"{name} was not written")
                continue
            rows = np.loadtxt(path, delimiter=",", skiprows=1)
            if rows.shape != (n * n, 4):
                checks.expect(False, f"{name}: shape {rows.shape}, need ({n * n}, 4)")
                continue
            checks.expect(bool(np.isfinite(rows).all()), f"{name}: non-finite values")
            checks.expect(np.allclose(rows[:, 0], np.repeat(theta_axis, n), rtol=0, atol=1e-12),
                          f"{name}: theta column is not the midpoint axis")
            checks.expect(np.allclose(rows[:, 1], np.tile(2.0 * math.pi * mid, n),
                                      rtol=0, atol=1e-12),
                          f"{name}: phi column is not the midpoint axis")
            if name == "heatmap_cap.csv":
                brightest = rows[np.argmax(rows[:, 2] ** 2 + rows[:, 3] ** 2), 0]
                checks.expect(math.pi - brightest <= half_width,
                              f"brightest cap cell {math.pi - brightest:.3g} rad off the "
                              f"backward axis, need <= {half_width:.3g}")
        return checks.failures


class TiltSurvey:
    """`ire-sim sweep` over the tilt at 100 us storage, 4 seeds of 2^19 atoms each.

    One 2^19-atom estimate per tilt is too noisy to order the tilts: over
    45 seeds it read eta > 1 at 0 deg twice and rose from 3 to 4 deg five
    times. Four replicates give the rows a standard error, and the checks
    allow 2 stderr, as criterion 5 does. Replicates of 2^17 atoms still
    failed that check on one round in twenty; of 2^19, on no bootstrap
    draw of the 45 seeds.
    """

    VALUES_DEG = "0,1,2,3,4"
    MC_ATOMS = 1 << 19
    REPLICATES = 4

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.ini = _write_ini(os.path.join(out_dir, "tilt.ini"), seed,
                              f"target_od     = {OD}", 100.0)
        self.sweep_dir = os.path.join(out_dir, "sweep")
        irs.parse_and_validate(self.ini)
        self.code = None

    def body(self, ops: Ops) -> None:
        self.code, _ = ops.cli(
            ["sweep", "--config", self.ini, "--sweep", "skew_angle",
             "--values", self.VALUES_DEG, "--replicates", str(self.REPLICATES),
             "--mc-atoms", str(self.MC_ATOMS), "--threads", "1", "--out", self.sweep_dir])

    def check(self, ops: Ops) -> list[str]:
        checks = Checks()
        csv_path = os.path.join(self.sweep_dir, "sweep.csv")
        checks.expect(self.code == 0, f"ire-sim sweep exited with {self.code}")
        checks.expect(self.code != 0 or os.path.exists(csv_path), "sweep.csv was not written")
        if self.code == 0 and os.path.exists(csv_path):
            rows = _read_sweep_csv(csv_path)
            values = [float(v) for v in self.VALUES_DEG.split(",")]
            checks.expect([float(r["theta_deg"]) for r in rows] == values,
                          "sweep.csv does not list the swept tilts")
            errors = [r["etas_json"] for r in rows if isinstance(json.loads(r["etas_json"]), dict)]
            checks.expect(not errors, "ire-sim sweep error rows: " + "; ".join(errors))
            if not errors:
                means = [float(r["eta_mean"]) for r in rows]
                ses = [float(r["eta_stderr"]) for r in rows]
                for deg, m, se in zip(values, means, ses):
                    checks.expect(-2.0 * se <= m <= 1.0 + 2.0 * se,
                                  f"eta({deg} deg) = {m:.4f} +- {se:.2g} outside [0, 1]")
                for i in range(len(rows) - 1):
                    slack = 2.0 * math.hypot(ses[i], ses[i + 1])
                    checks.expect(means[i + 1] <= means[i] + slack,
                                  f"eta rises from {values[i]} to {values[i + 1]} deg "
                                  "beyond 2 stderr")
            checks.expect({int(r["seed_base"]) for r in rows} == {self.seed},
                          "rows do not share the run's seed")
        return checks.failures


WORKLOADS = {
    "storage_sweep": StorageSweep,
    "angular_crosscheck": AngularCrosscheck,
    "heatmap_export": HeatmapExport,
    "tilt_survey": TiltSurvey,
}


def layer_probes(tracer, seed: int) -> None:
    """Time sampling and per-atom physics on one 2^20-atom chunk of the cloud.

    The streaming estimator does not call these public functions, so their
    cost is measured here, on the canonical cloud's geometry at 2 deg and
    100 us. The atom count only sets the density, which neither depends on.
    A probe whose functions are gone is reported absent.
    """
    n = 1 << 20
    scn = _canonical(skew_theta=math.radians(2.0), storage_tm=100e-6, seed=seed,
                     n_atoms_override=n)
    if not hasattr(irs, "sample_atoms"):
        tracer.absent += ["probe.sample_atoms", "probe.physics"]
        return
    sample = tracer.span("probe.sample_atoms", irs.sample_atoms, scn.cloud, seed, 0, n)
    tracer.counts["probe.sample_atoms.atoms"] += len(sample)
    if not all(hasattr(irs, f) for f in ("drift", "spinwave_amplitude", "idler_projection")):
        tracer.absent.append("probe.physics")
        return
    idx = tracer.begin("probe.physics")
    try:
        drifted = irs.drift(sample, scn.storage_tm)
        irs.spinwave_amplitude(drifted, scn)
        irs.idler_projection(drifted, scn)
    finally:
        tracer.end(idx)
