"""Spans and counts around the public functions of each ire_sim module.

The benchmark never edits the package. In a traced round it replaces, at
run time, each function named in TARGETS by a wrapper that records a span
(name, start, end, parent) and the counts that `count` hooks read from the
call's arguments and result. A function is replaced under every name an
ire_sim module holds it by (`from .retrieval import eta_paraxial` makes
experiments.eta_paraxial its own reference), so calls between modules are
seen too. A target that no longer exists is skipped and its metrics are
reported as absent.

An untraced round (no names) installs nothing.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter

def _n_atoms_streamed(args, kwargs, result):
    scenario = args[0] if args else kwargs["scenario"]
    n = scenario.mc_atoms if scenario.mc_atoms is not None else scenario.n_atoms
    return {"atoms": n}


def _grid_nodes(args, kwargs, result):
    return {"nodes": result.n_nodes}


def _atom_nodes(args, kwargs, result):
    return {"atom_nodes": result.n_atoms * result.values.size}


def _export_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _sweep_rows(args, kwargs, result):
    return {"rows": len(result), "error_rows": sum(r.error is not None for r in result)}


# span name -> (module, function, count hook or None)
TARGETS = {
    "config.read_config": ("ire_sim.config", "read_config", None),
    "config.build_scenario": ("ire_sim.config", "build_scenario", None),
    "config.resolution_report": ("ire_sim.config", "resolution_report", None),
    "cli.main": ("ire_sim.cli", "main", None),
    "ensemble.optical_depth": ("ire_sim.ensemble", "optical_depth", None),
    "retrieval.coherent_lobe_power": ("ire_sim.retrieval", "coherent_lobe_power", None),
    "retrieval.eta_paraxial": ("ire_sim.retrieval", "eta_paraxial", _n_atoms_streamed),
    "angular.build_grid": ("ire_sim.angular", "build_grid", _grid_nodes),
    "angular.angular_field": ("ire_sim.angular", "angular_field", _atom_nodes),
    "angular.eta_angular": ("ire_sim.angular", "eta_angular", None),
    "angular.export_heatmap": ("ire_sim.angular", "export_heatmap", _export_bytes),
    "experiments.run_sweep": ("ire_sim.experiments", "run_sweep", _sweep_rows),
    "experiments.write_sweep_csv": ("ire_sim.experiments", "write_sweep_csv", None),
}


class Tracer:
    """Spans of one round, kept in memory until the round writes them out."""

    def __init__(self, names):
        self.names = tuple(names)
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter(),
                           "end": None})
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span recorded from the benchmark's own code."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer.counts[name + ".calls"] += 1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        """Replace every target, under all its names, in loaded ire_sim modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ire_sim" or n.startswith("ire_sim."))]
        for name in self.names:
            module_name, attr, hook = TARGETS[name]
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self._replace(modules, original, self._wrap(name, original, hook))
        if self.names:
            self._install_pool(sys.modules.get("ire_sim.retrieval"))

    def uninstall(self) -> None:
        """Put every replaced name back."""
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _replace(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _install_pool(self, retrieval) -> None:
        """Time pool start (constructor, first submit) and shutdown in retrieval."""
        base = getattr(retrieval, "ProcessPoolExecutor", None)
        if base is None:
            self.absent.append("retrieval.pool")
            return
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.counts["retrieval.pool.calls"] += 1
                self._bench_started = False
                tracer.span("retrieval.pool", super().__init__, *args, **kwargs)

            def submit(self, *args, **kwargs):
                if self._bench_started:
                    return super().submit(*args, **kwargs)
                self._bench_started = True
                return tracer.span("retrieval.pool", super().submit, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                return tracer.span("retrieval.pool", super().shutdown, *args, **kwargs)

        self._patched.append((retrieval, "ProcessPoolExecutor", base))
        retrieval.ProcessPoolExecutor = TracedPool

    # -- reading ---------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def _children(self, idx: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == idx]

    def self_time(self, prefix: str) -> float:
        """Summed self time of the spans whose name starts with prefix."""
        total = 0.0
        for idx, s in enumerate(self.spans):
            if s["name"].startswith(prefix):
                inner = sum(c["end"] - c["start"] for c in self._children(idx))
                total += (s["end"] - s["start"]) - inner
        return total

    def time_without(self, name: str, child: str) -> float:
        """Summed time of spans `name` minus their direct `child` spans."""
        total = 0.0
        for idx, s in enumerate(self.spans):
            if s["name"] == name:
                inner = sum(c["end"] - c["start"] for c in self._children(idx)
                            if c["name"] == child)
                total += (s["end"] - s["start"]) - inner
        return total

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round; those of absent targets are left out."""
    c = tracer.counts

    def total(name: str) -> float:
        return sum(tracer.durations(name))

    def median(name: str) -> float:
        calls = tracer.durations(name)
        return statistics.median(calls) if calls else 0.0

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0.0 else 0.0

    stream_s = tracer.time_without("retrieval.eta_paraxial", "retrieval.coherent_lobe_power")
    atoms = c["retrieval.eta_paraxial.atoms"]
    field_s = total("angular.angular_field")
    atom_nodes = c["angular.angular_field.atom_nodes"]
    export_s = total("angular.export_heatmap")
    export_bytes = c["angular.export_heatmap.bytes"]
    # metric -> (the target or probe it comes from, value)
    metrics = {
        "config.load_s": ("config.read_config", tracer.self_time("config.")),
        "cli.self_s": ("cli.main", tracer.self_time("cli.main")),
        "ensemble.optical_depth_s": ("ensemble.optical_depth", total("ensemble.optical_depth")),
        "ensemble.optical_depth_calls": ("ensemble.optical_depth",
                                         c["ensemble.optical_depth.calls"]),
        "ensemble.sample_s": ("probe.sample_atoms", total("probe.sample_atoms")),
        "ensemble.atoms_sampled": ("probe.sample_atoms", c["probe.sample_atoms.atoms"]),
        "retrieval.lobe_s": ("retrieval.coherent_lobe_power",
                             total("retrieval.coherent_lobe_power")),
        "retrieval.lobe_calls": ("retrieval.coherent_lobe_power",
                                 c["retrieval.coherent_lobe_power.calls"]),
        "retrieval.stream_s": ("retrieval.eta_paraxial", stream_s),
        "retrieval.atoms_streamed": ("retrieval.eta_paraxial", atoms),
        "retrieval.stream_atoms_per_s": ("retrieval.eta_paraxial", rate(atoms, stream_s)),
        "retrieval.paraxial_call_s": ("retrieval.eta_paraxial", median("retrieval.eta_paraxial")),
        "retrieval.physics_s": ("probe.physics", total("probe.physics")),
        "retrieval.pools_created": ("retrieval.pool", c["retrieval.pool.calls"]),
        "retrieval.pool_s": ("retrieval.pool", total("retrieval.pool")),
        "angular.grid_s": ("angular.build_grid", total("angular.build_grid")),
        "angular.grid_nodes": ("angular.build_grid", c["angular.build_grid.nodes"]),
        "angular.field_s": ("angular.angular_field", field_s),
        "angular.atom_nodes": ("angular.angular_field", atom_nodes),
        "angular.atom_nodes_per_s": ("angular.angular_field", rate(atom_nodes, field_s)),
        "angular.angular_call_s": ("angular.eta_angular", median("angular.eta_angular")),
        "angular.export_s": ("angular.export_heatmap", export_s),
        "angular.export_bytes": ("angular.export_heatmap", export_bytes),
        "angular.export_mb_per_s": ("angular.export_heatmap", rate(export_bytes / 1e6, export_s)),
        "experiments.sweep_self_s": ("experiments.run_sweep",
                                     tracer.self_time("experiments.run_sweep")),
        "experiments.rows": ("experiments.run_sweep", c["experiments.run_sweep.rows"]),
        "experiments.error_rows": ("experiments.run_sweep",
                                   c["experiments.run_sweep.error_rows"]),
        "experiments.csv_s": ("experiments.write_sweep_csv",
                              total("experiments.write_sweep_csv")),
    }
    return {name: value for name, (source, value) in metrics.items()
            if source not in tracer.absent}
