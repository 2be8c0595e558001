"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions of nc_lab's modules. A wrapper replaces
the original wherever a module of the package holds it (the defining module
and every module that imported the name), so each call is counted once. A
stack of open spans gives each function its self time: its duration minus
the time of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# (module, qualified name) of every traced function.
TARGETS = (
    ("models", "make_blob_dataset"),
    ("models", "MLPModel.forward_backward"),
    ("models", "MLPModel.features"),
    ("models", "UFMModel.loss_and_grads"),
    ("models", "ce_loss_and_grad"),
    ("optim", "Optimizer.step"),
    ("optim", "step_signgd_coupled"),
    ("optim", "step_signgd_decoupled"),
    ("metrics", "all_metrics"),
    ("metrics", "compute_class_statistics"),
    ("metrics", "nc1_variability"),
    ("metrics", "nc4_agreement"),
    ("linalg", "singular_values"),
    ("linalg", "pseudo_inverse"),
    ("oracles", "coupled_signgd_scalar_step"),
    ("oracles", "rowsum_recursion_coupled"),
    ("harness", "run_training"),
    ("harness", "run_sweep"),
    ("harness", "write_sweep_outputs"),
    ("harness", "emit_csv"),
    ("harness", "emit_summary_json"),
    ("stats", "ols_fit"),
    ("cli", "main"),
)

# Functions that every workload calls. Only these report busy time in the
# result line: a function a workload never calls would report a constant
# 0 s there. Call counts are reported for every target.
TIMED_EVERYWHERE = (
    "models.make_blob_dataset",
    "models.MLPModel.forward_backward",
    "models.MLPModel.features",
    "models.ce_loss_and_grad",
    "optim.Optimizer.step",
    "metrics.all_metrics",
    "metrics.compute_class_statistics",
    "metrics.nc1_variability",
    "metrics.nc4_agreement",
    "linalg.singular_values",
    "linalg.pseudo_inverse",
    "harness.run_training",
    "harness.emit_csv",
    "harness.emit_summary_json",
)
PEAK_TRACKED = "metrics.all_metrics"
# tracemalloc slows every allocation it sees, so it watches only one call in
# this many; within a workload every call sees inputs of the same size.
PEAK_SAMPLE_EVERY = 32


def key_of(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def reported_metrics() -> list:
    """(name, unit) of each per-layer metric in the result line, in order."""
    out = [(key_of(m, q) + ".calls", "calls/round") for m, q in TARGETS]
    out += [(k + ".s", "s/round") for k in TIMED_EVERYWHERE]
    out += [("harness.run_training.self_s", "s/round"), (PEAK_TRACKED + ".peak_mb", "MB")]
    return out


class _Stat:
    __slots__ = ("calls", "total", "self_time", "peak")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.peak = 0


class Tracer:
    def __init__(self):
        self.stats = {key_of(m, q): _Stat() for m, q in TARGETS}
        self.absent = []
        self._stack = []
        self._patches = []   # (owner, attribute, original)

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        peak_key = key == PEAK_TRACKED

        def wrapper(*args, **kwargs):
            track_peak = peak_key and stat.calls % PEAK_SAMPLE_EVERY == 0
            frame = [0.0]
            stack.append(frame)
            if track_peak:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                if track_peak:
                    stat.peak = max(stat.peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        package = [m for n, m in sys.modules.items()
                   if n == "nc_lab" or n.startswith("nc_lab.")]
        self.absent = []
        for module_name, qualname in TARGETS:
            key = key_of(module_name, qualname)
            module = sys.modules.get(f"nc_lab.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round, keyed as in reported_metrics."""
        values = {}
        for key, stat in self.stats.items():
            values[key + ".calls"] = stat.calls / rounds
        for key in TIMED_EVERYWHERE:
            values[key + ".s"] = self.stats[key].total / rounds
        values["harness.run_training.self_s"] = self.stats["harness.run_training"].self_time / rounds
        values[PEAK_TRACKED + ".peak_mb"] = self.stats[PEAK_TRACKED].peak / 2**20
        return {name: {"value": values[name], "unit": unit}
                for name, unit in reported_metrics()}

    def table(self, rounds: int, round_s: float) -> list:
        """Text lines: every traced function with calls, busy and self time
        per round and its share of the traced round."""
        lines = [f"{'function':44s} {'calls/round':>12s} {'s/round':>10s} "
                 f"{'self_s':>10s} {'share':>7s}"]
        for key, stat in self.stats.items():
            if key in self.absent:
                lines.append(f"{key:44s} {'absent':>12s}")
                continue
            busy = stat.total / rounds
            lines.append(
                f"{key:44s} {stat.calls / rounds:12.1f} {busy:10.4f} "
                f"{stat.self_time / rounds:10.4f} {100.0 * busy / round_s:6.1f}%"
            )
        lines.append(f"{PEAK_TRACKED} peak_mb {self.stats[PEAK_TRACKED].peak / 2**20:.1f}")
        return lines
