#!/usr/bin/env python3
"""nc-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload (see workloads.py) until S seconds of
timed operations have passed, verifies every operation's output, and prints
one JSON line last: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
rounds alternate between untraced and traced; the metrics are the per-layer
ones from the traced rounds, and the text before the JSON line gives the
per-layer table and the tracing overhead. A copy of the result goes to
perfbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench_out")
SETUP_PROBES = 7
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("paper_checks", "stress_train"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import, build the first round's inputs, print 'ready' and exit")
    return p.parse_args(argv)


def load_workload(name: str, seed: int, workdir: str):
    """Everything a run does before its first timed operation."""
    sys.path[:0] = [SRC, HERE]
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl, wl.round_ops(0)


def setup_probe(args) -> int:
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    try:
        load_workload(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to the point where it could
    start its first timed operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def run_rounds(wl, first_ops, seconds: float, tracer, between_rounds):
    """Whole rounds until ``seconds`` of timed operations have passed. With a
    tracer, odd rounds are traced and even rounds are not, and at least one
    round of each kind runs. ``between_rounds(timed)`` runs untimed after
    each round."""
    plain = {"ops": [], "rounds": [], "steps": 0}
    traced = {"ops": [], "rounds": [], "steps": 0}
    attempted = failed = 0
    problems = []
    timed = 0.0
    r = 0
    while timed < seconds or (tracer is not None and r < 2):
        ops = first_ops if r == 0 else wl.round_ops(r)
        side = traced if tracer is not None and r % 2 == 1 else plain
        round_s = 0.0
        for op in ops:
            attempted += 1
            if side is traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                elapsed = time.perf_counter() - t0
                timed += elapsed
                if side is traced:
                    tracer.remove()
            side["ops"].append(elapsed)
            side["steps"] += op.steps
            round_s += elapsed
            try:
                problems += op.verify(out)
            except Exception as exc:   # output the checks cannot read is wrong output
                problems.append(f"verify raised {exc!r}")
        side["rounds"].append(round_s)
        between_rounds(timed)
        r += 1
    return plain, traced, attempted, failed, problems


def end_to_end(setup: list, plain: dict) -> dict:
    ops, rounds = plain["ops"], plain["rounds"]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(rounds) / len(rounds),
        "op_p50_ms": 1000.0 * statistics.median(ops),
        "steps_per_s": plain["steps"] / sum(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nc_lab", "__init__.py")):
        print(f"error: nc_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    setup = []

    def probe(timed: float) -> None:
        # The host's speed drifts over seconds, so the set-up probes are
        # spread over the run instead of taken back to back.
        while not args.trace and len(setup) < SETUP_PROBES and (
                timed >= len(setup) * args.seconds / SETUP_PROBES):
            setup.append(measure_setup(args))

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl, first_ops = load_workload(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            import layer_trace
            tracer = layer_trace.Tracer()
        plain, traced, attempted, failed, problems = run_rounds(
            wl, first_ops, args.seconds, tracer, probe)
        probe(float("inf"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} plain_rounds={len(plain['rounds'])} "
          f"traced_rounds={len(traced['rounds'])} setup_probes={len(setup)}")
    if not plain["ops"]:
        print("error: no operation completed", file=sys.stderr)
        return 1
    plain_round = sum(plain["rounds"]) / len(plain["rounds"])
    if tracer is None:
        metrics = end_to_end(setup, plain)
        print(f"op_p50_ms over {len(plain['ops'])} ops, wall_s is the mean of "
              f"{len(plain['rounds'])} rounds")
    else:
        n = len(traced["rounds"])
        traced_round = sum(traced["rounds"]) / n
        for line in tracer.table(n, traced_round):
            print(line)
        print(f"tracing overhead: traced round {traced_round:.4f} s, untraced round "
              f"{plain_round:.4f} s ({100.0 * (traced_round / plain_round - 1.0):+.1f}%)")
        metrics = tracer.metrics(n)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, setup_samples=setup, op_samples=plain["ops"],
                       round_samples=plain["rounds"]), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
