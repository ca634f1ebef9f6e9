#!/usr/bin/env python3
"""End-to-end wall-clock benchmark: simulator sweep to cluster front.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--profile]
    python3 benchmarks/e2e/run.py --regen-expected

Each workload runs in its own fresh, single-threaded Python process
(``PYTHONHASHSEED=0``, ``src`` on ``PYTHONPATH``), one after another;
without ``--workload`` all four run, and without ``--seconds`` each
measures for ``run_seconds`` of BENCHMARK.json. Every end-to-end metric
and every timing is printed by name with its unit, one JSON result per
run is written to
``--out``, and with a single ``--workload`` the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 1`` the metrics are the per-layer ones: the timed phase runs
half untraced and half traced, and the difference is the tracing
overhead. The exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

WORKLOAD_NAMES = (
    "sim-sweep",
    "kv-zipf-read",
    "kv-durable-update",
    "kv-cluster-tiered",
)

#: (name, unit) of every end-to-end metric, reported by every workload.
END_TO_END = (
    ("hit_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

#: (name, unit) of the timed phase's throughput and latency, taken with
#: tracing off. On a shared host they spread too far from run to run to
#: carry a bound (see README), so they are per-layer metrics: every run
#: reports them, and no bound gates them.
TIMINGS = (
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
)

#: Layer entry points wrapped by the traced run. Each yields
#: ``<name>.calls_per_op`` and ``<name>.self_pct`` (self time as a share
#: of the traced phase); a layer a workload never calls reads 0.
LAYER_FUNCTIONS = (
    "workloads.build_workload",
    "cpu.compile_workload",
    "cpu.simulate",
    "cache.access_decomposed",
    "perf.columnar_hit_stream",
    "online.resilience.get_or_compute",
    "online.resilience.put",
    "online.persistence.get_or_compute",
    "online.persistence.put",
    "online.persistence.encode_record",
    "online.persistence.write_snapshot",
    "os.fsync",
    "online.engine.get",
    "online.engine.put",
    "online.engine.get_or_compute",
    "online.shard.get",
    "online.shard.put",
    "online.shard.get_or_compute",
    "online.shard.peek_stale",
    "policy.observe",
    "policy.on_hit",
    "policy.victim",
    "policy.on_fill",
    "policy.on_invalidate",
    "loader",
    "tiers.fetch",
    "tiers.put",
    "tiers.local.get",
    "tiers.local.put",
    "cluster.get",
    "cluster.put",
    "cluster.delete",
    "cluster.route",
    "cluster.node.get",
    "cluster.node.put",
    "cluster.node.peek",
)

#: (name, unit) of per-layer counters and ratios.
LAYER_COUNTERS = (
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("persistence.wal_bytes_per_op", "B/op"),
    ("recovery.live_over_stw", "ratio"),
    ("tiers.near_hit_ratio", "ratio"),
    ("cluster.read_repairs_per_op", "count/op"),
    ("cluster.hedged_reads_per_op", "count/op"),
    ("cluster.failed_writes_per_op", "count/op"),
)

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
SCHEMA = 1


def per_layer_metrics() -> List[tuple]:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = list(TIMINGS)
    for name in LAYER_FUNCTIONS:
        out.append((f"{name}.calls_per_op", "count/op"))
        out.append((f"{name}.self_pct", "%"))
    return out + list(LAYER_COUNTERS)


# ----------------------------------------------------------------------
# Child: one workload in this process
# ----------------------------------------------------------------------


def _layer_values(tracer, traced, details: dict) -> Dict[str, float]:
    wall_ns = int(traced.wall_s * 1e9)
    summary = tracer.summary(wall_ns, traced.ops)
    values = {}
    for name in LAYER_FUNCTIONS:
        row = summary.get(name, {"calls_per_op": 0.0, "self_pct": 0.0})
        values[f"{name}.calls_per_op"] = row["calls_per_op"]
        values[f"{name}.self_pct"] = row["self_pct"]
    recover_s = details.get("recover_s")
    values["trace.coverage_pct"] = 100.0 * tracer.self_ns_total() / wall_ns
    values["persistence.wal_bytes_per_op"] = (
        tracer.counters.get("persistence.wal_bytes", 0) / traced.ops
    )
    values["recovery.live_over_stw"] = details["live_finish_s"] / recover_s if recover_s else 0.0
    for name in (
        "tiers.near_hit_ratio",
        "cluster.read_repairs_per_op",
        "cluster.hedged_reads_per_op",
        "cluster.failed_writes_per_op",
    ):
        values[name] = details.get(name.split(".", 1)[1], 0.0)
    return values


def _check_pins(workload, seed: int) -> str:
    """Compare the run's pins with ``expected/``; mismatches fail."""
    path = EXPECTED / f"{workload.name}.json"
    try:
        with open(path, encoding="utf-8") as handle:
            expected = json.load(handle)
    except FileNotFoundError:
        return "unpinned"
    pins = expected["seeds"].get(str(seed))
    if expected["config"] != workload.pin_config or pins is None:
        return "unpinned"
    workload.outcomes.add_attempts(len(pins))
    for key, value in pins.items():
        if workload.pins.get(key) != value:
            workload.outcomes.add_failure("pin mismatch")
    return "pinned"


def _time_import() -> float:
    """Seconds to start a fresh interpreter and import the workloads.

    The interpreter times itself against the system-wide monotonic
    clock: waiting with a timeout polls in steps of up to 50 ms, too
    coarse to time the wait from here.
    """
    code = "import sys, time, workloads; print(time.monotonic_ns() - int(sys.argv[1]))"
    command = [sys.executable, "-c", code, str(time.monotonic_ns())]
    completed = subprocess.run(
        command, cwd=str(HERE), check=True, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S
    )
    return int(completed.stdout) / 1e9


def run_child(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
    size: str = "full",
    spawned_ns: Optional[int] = None,
    profile: bool = False,
    check_pins: bool = True,
) -> dict:
    """Set up, measure and check one workload in this process."""
    start_ns = spawned_ns if spawned_ns is not None else time.monotonic_ns()
    import workloads
    from metrics import git_commit, latency_summary, machine_context
    from spans import Tracer

    import_runs = [(time.monotonic_ns() - start_ns) / 1e9]
    if spawned_ns is not None and not trace:
        import_runs += [_time_import() for _ in range(SETUP_REPEATS - 1)]
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, size, workdir)
    profiler = None
    try:
        setup_runs = []
        for _ in range(1 if trace else SETUP_REPEATS):
            began = time.perf_counter()
            workload.setup()
            setup_runs.append(time.perf_counter() - began)
        if profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        budget = seconds / 2 if trace else seconds
        measured = workload.measure(budget)
        tracer = None
        traced = None
        if trace:
            tracer = Tracer()
            with tracer:
                workload.instrument(tracer)
                traced = workload.measure(budget, tracer)
        if profiler is not None:
            profiler.disable()
        details = dict(measured.details)
        details.update(workload.close())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correctness = _check_pins(workload, seed) if check_pins else "unchecked"
    outcomes = workload.outcomes
    latency = latency_summary(measured.latencies_ns)
    end_to_end = {
        "hit_ratio": workload.hit_ratio,
        "peak_rss_mb": workload.rss_mb,
        "setup_s": statistics.median(import_runs) + statistics.median(setup_runs),
    }
    timings = {
        "ops_per_s": measured.ops / measured.wall_s,
        "p50_us": latency["p50_us"],
        "p99_us": latency["p99_us"],
    }
    result = {
        "schema": SCHEMA,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": trace,
        "commit": git_commit(str(ROOT)),
        "machine": machine_context(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "correct": outcomes.failed == 0,
        "correctness": correctness,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "error_rate": outcomes.error_rate,
        "failure_reasons": outcomes.reasons,
        "end_to_end": end_to_end,
        "timings": timings,
        "latency": latency,
        "setup": {"imports_s": import_runs, "runs_s": setup_runs},
        "ops": measured.ops,
        "wall_s": measured.wall_s,
        "details": details,
        "pins": workload.pins,
        "pin_config": workload.pin_config,
    }
    if trace:
        overhead = 100.0 * (timings["ops_per_s"] * traced.wall_s / traced.ops - 1.0)
        result["trace_overhead_pct"] = overhead
        result["per_layer"] = _layer_values(tracer, traced, details)
        result["per_layer"].update(timings)
        result["per_layer"]["trace.overhead_pct"] = overhead
        result["layers"] = tracer.summary(int(traced.wall_s * 1e9), traced.ops)
        result["spans_kept"] = tracer.write_spans(os.path.join(out_dir, f"{name}.spans.jsonl"))
        result["spans_dropped"] = tracer.dropped
    if profiler is not None:
        import pstats

        path = os.path.join(out_dir, f"{name}.profile.txt")
        with open(path, "w", encoding="utf-8") as handle:
            pstats.Stats(profiler, stream=handle).sort_stats("tottime").print_stats(25)
    return result


# ----------------------------------------------------------------------
# Parent: one fresh process per workload
# ----------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    # Single-threaded: no BLAS or OpenMP worker pools behind numpy.
    for pool in ("OMP", "OPENBLAS", "MKL", "NUMEXPR"):
        env[f"{pool}_NUM_THREADS"] = "1"
    return env


def spawn(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
    profile: bool = False,
    check_pins: bool = True,
) -> dict:
    """Run one workload in a fresh interpreter; returns its result."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    command += ["--out", out_dir, "--spawned-ns", str(time.monotonic_ns())]
    if profile:
        command.append("--profile")
    if not check_pins:
        command.append("--no-pins")
    completed = subprocess.run(
        command,
        env=_child_env(),
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    lines = completed.stdout.decode().strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: worker exited with code {completed.returncode}")
    return json.loads(lines[-1])


def _write_result(out_dir: str, result: dict) -> str:
    stem = f"{result['workload']}.seed{result['seed']}"
    suffix = ".trace.json" if result["trace"] else ".json"
    index = 0
    while os.path.exists(os.path.join(out_dir, f"{stem}.{index}{suffix}")):
        index += 1
    path = os.path.join(out_dir, f"{stem}.{index}{suffix}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def _metrics_line(result: dict) -> dict:
    """The last output line: end-to-end metrics untraced, per-layer traced."""
    if result["trace"]:
        units = dict(per_layer_metrics())
        values = result["per_layer"]
    else:
        units = dict(END_TO_END)
        values = result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _print_table(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(
        f"== {result['workload']} (seed {result['seed']}, {mode}, "
        f"correctness {result['correctness']}, "
        f"{result['failed']}/{result['attempted']} failed)"
    )
    for name, unit in END_TO_END:
        print(f"  {name:<14} {result['end_to_end'][name]:>14.6g} {unit}")
    for name, unit in TIMINGS:
        print(f"  {name:<14} {result['timings'][name]:>14.6g} {unit} (no bound)")
    if result["trace"]:
        coverage = result["per_layer"]["trace.coverage_pct"]
        print(
            f"  trace overhead {result['trace_overhead_pct']:.1f} %, "
            f"layer self time covers {coverage:.1f} %"
        )


def _regen_expected(out_dir: str, seconds: float) -> int:
    """Rewrite ``expected/`` from seeds 0 and 1 of this commit."""
    os.makedirs(EXPECTED, exist_ok=True)
    for name in WORKLOAD_NAMES:
        seeds = {}
        for seed in (0, 1):
            result = spawn(name, seed, seconds, False, out_dir, check_pins=False)
            if not result["correct"]:
                print(f"{name} seed {seed}: run failed, not pinned", file=sys.stderr)
                return 1
            seeds[str(seed)] = result["pins"]
        with open(EXPECTED / f"{name}.json", "w", encoding="utf-8") as handle:
            pinned = {"config": result["pin_config"], "seeds": seeds}
            json.dump(pinned, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"pinned {name}")
    return 0


def _run_seconds() -> float:
    """The measured budget per run: ``run_seconds`` in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_run_seconds())
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument(
        "--profile", action="store_true", help="write a cProfile top-25 table per workload"
    )
    parser.add_argument(
        "--regen-expected",
        action="store_true",
        help="rewrite the correctness pins for seeds 0 and 1",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-ns", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--no-pins", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    out_dir = os.path.abspath(args.out)

    if args.child:
        result = run_child(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            out_dir,
            spawned_ns=args.spawned_ns,
            profile=args.profile,
            check_pins=not args.no_pins,
        )
        print(json.dumps(result))
        return 0

    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    if args.regen_expected:
        return _regen_expected(out_dir, args.seconds)

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    all_correct = True
    result = None
    for name in names:
        try:
            result = spawn(
                name, args.seed, args.seconds, bool(args.trace), out_dir, profile=args.profile
            )
        except (RuntimeError, subprocess.TimeoutExpired) as error:
            print(f"run.py: {error}", file=sys.stderr)
            return 3
        _write_result(out_dir, result)
        _print_table(result)
        all_correct = all_correct and result["correct"]
    if args.workload:
        print(json.dumps(_metrics_line(result)))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
