"""Command-line entry point: ``repro-experiments``.

Examples::

    repro-experiments fig3                 # scaled-down default
    repro-experiments fig4 --scale paper   # Table 1 geometry (slow)
    repro-experiments all --scale mini     # everything, quickly
    repro-experiments fig7 --render-map    # ASCII Figure 7 maps
    repro-experiments all --keep-going --resume
                                           # survive crashes, checkpoint
                                           # progress, resume after ^C

Robustness (see docs/robustness.md): each experiment runs crash-
isolated with optional retries (exponential backoff, jittered, capped)
and a wall-clock timeout; with ``--resume``/``--checkpoint`` the sweep
records every completed (experiment, workload, policy) cell in an
atomically-written JSON file and a re-invocation skips finished work.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.tables import render_table
from repro.experiments import base
from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments import runner as runner_mod
from repro.experiments import (
    ablations,
    ext_cluster,
    ext_dip,
    ext_faults,
    ext_online,
    ext_prefetch,
    ext_serve,
    ext_skew,
    ext_tiers,
    ext_validate,
    ext_shared,
    fig3_mpki,
    fig4_cpi,
    fig5_partial_tags,
    fig6_capacity,
    fig7_setmaps,
    fig8_fifo_mru,
    fig9_associativity,
    fig10_store_buffer,
    sec44_five_policy,
    sec46_l1,
    seed_sensitivity,
    sec47_sbar,
    storage,
    theory,
)

EXPERIMENTS = {
    "fig3": fig3_mpki,
    "fig4": fig4_cpi,
    "fig5": fig5_partial_tags,
    "fig6": fig6_capacity,
    "fig7": fig7_setmaps,
    "fig8": fig8_fifo_mru,
    "fig9": fig9_associativity,
    "fig10": fig10_store_buffer,
    "sec44": sec44_five_policy,
    "sec46": sec46_l1,
    "sec47": sec47_sbar,
    "storage": storage,
    "theory": theory,
    "ablations": ablations,
    "ext-shared": ext_shared,
    "ext-prefetch": ext_prefetch,
    "ext-dip": ext_dip,
    "ext-skew": ext_skew,
    "ext-validate": ext_validate,
    "ext-faults": ext_faults,
    "ext-online": ext_online,
    "ext-serve": ext_serve,
    "ext-cluster": ext_cluster,
    "ext-tiers": ext_tiers,
    "seeds": seed_sensitivity,
}

# Experiments whose run() does not take a Setup.
_SETUP_FREE = {"storage", "theory"}

DEFAULT_CHECKPOINT = ".repro-checkpoint.json"


def _run_result(name: str, args: argparse.Namespace):
    module = EXPERIMENTS[name]
    if name in _SETUP_FREE:
        return module.run()
    setup = base.make_setup(args.scale, accesses=args.accesses)
    kwargs = {}
    # ext-online takes key-stream names, not suite workload names, so the
    # suite-wide --workloads restriction does not apply to it either.
    if args.workloads and name not in ("fig7", "ext-shared", "ext-skew",
                                       "ext-online", "ext-cluster",
                                       "ext-tiers", "ext-serve"):
        kwargs["workloads"] = args.workloads
    if name == "ext-online" and getattr(args, "snapshot_dir", None):
        kwargs["snapshot_dir"] = args.snapshot_dir
    if name == "ext-serve":
        kwargs["seed"] = args.seed
        if args.quick:
            kwargs["quick"] = True
    return module.run(setup=setup, **kwargs)


def _run_one(name: str, args: argparse.Namespace) -> str:
    result = _run_result(name, args)
    text = result.render()
    if name == "fig7" and args.render_map:
        for workload in ("ammp", "mgrid"):
            setup = base.make_setup(args.scale, accesses=args.accesses)
            setmap, _policy = fig7_setmaps.collect(workload, setup)
            text += (
                f"\n\n{workload} per-set map "
                "('#'=LRU-majority, '.'=LFU-majority):\n"
            )
            text += setmap.render()
    return text


def _non_negative_int(text: str) -> int:
    """argparse type for ``--retries``: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for ``--timeout``: a number of seconds > 0."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for ``--workers``: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The repro-experiments argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of 'Adaptive "
        "Caches: Effective Shaping of Cache Behavior to Workloads' "
        "(MICRO 2006).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "report", "policies", "golden", "perf", "recover",
           "cluster", "serve"],
        help="which table/figure to regenerate ('report' writes a "
        "markdown report of everything; 'policies' lists the "
        "registered replacement policies; 'golden' checks or "
        "regenerates the pinned golden-trace digests; 'perf' "
        "benchmarks the hot path and sweep and writes BENCH_perf.json; "
        "'recover' rebuilds a persisted online cache from --snapshot-dir "
        "and prints its stats digest; 'cluster' streams a replicated "
        "durable cluster under --cluster-dir with an acked-write "
        "ledger, or with --verify recovers every member from disk and "
        "asserts zero acked-write loss; 'serve' runs the open-loop "
        "serving harness across the five regimes — steady, overload, "
        "degraded, live recovery under traffic, tiered front — "
        "and writes BENCH_serve.json)",
    )
    parser.add_argument(
        "--out",
        default="reproduction-report.md",
        help="output path for the 'report' command",
    )
    parser.add_argument(
        "--scale",
        choices=["mini", "scaled", "paper"],
        default="scaled",
        help="cache geometry and trace length (default: scaled)",
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=None,
        help="memory references per workload (default: per-scale)",
    )
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="restrict to these suite workloads",
    )
    parser.add_argument(
        "--render-map",
        action="store_true",
        help="with fig7: also print the ASCII per-set maps",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="with 'all': keep running after an experiment fails; a "
        "failure summary is printed and the exit status is non-zero",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="record completed cells in a checkpoint file and skip "
        f"them on re-invocation (default file: {DEFAULT_CHECKPOINT})",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file to use (implies --resume semantics)",
    )
    parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=0,
        help="retry a crashed experiment up to N times with jittered "
        "exponential backoff (default: 0)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock timeout (POSIX main thread only)",
    )
    golden_group = parser.add_mutually_exclusive_group()
    golden_group.add_argument(
        "--check",
        action="store_true",
        help="with 'golden': verify the pinned digests (the default)",
    )
    golden_group.add_argument(
        "--regen",
        action="store_true",
        help="with 'golden': recompute and rewrite the pinned digests",
    )
    parser.add_argument(
        "--golden-path",
        default=None,
        metavar="PATH",
        help="with 'golden': digest file to check/regen "
        "(default: tests/golden/golden.json)",
    )
    parser.add_argument(
        "--trace-cache",
        default=None,
        metavar="DIR",
        help="cache built traces as .npz files in DIR; corrupt or "
        "truncated entries are detected and regenerated",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for policy sweeps (default 1 = serial; "
        "results are byte-identical at any worker count)",
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="with 'ext-online': run the adaptive cells through the "
        "crash-safe persistent engine, state under DIR/<workload>; "
        "with 'recover': the persistence directory to rebuild from",
    )
    parser.add_argument(
        "--finish",
        action="store_true",
        help="with 'recover': after recovery, resume the key stream "
        "recorded in the directory and run it to completion (a fresh "
        "directory starts the stream from scratch), so the printed "
        "digest is comparable to an uninterrupted run's",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="with 'recover': recover by live (chunked, serve-through) "
        "WAL replay instead of stop-the-world; the printed digest must "
        "be identical either way",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="with 'perf', 'serve' and 'ext-serve': shorter streams "
        "and a smaller sweep (CI mode)",
    )
    parser.add_argument(
        "--cluster-dir",
        default=None,
        metavar="DIR",
        help="with 'cluster': directory holding the member state "
        "directories and the ACKS.jsonl acked-write ledger",
    )
    parser.add_argument(
        "--cluster-nodes",
        type=_positive_int,
        default=5,
        metavar="N",
        help="with 'cluster': cluster membership (default 5)",
    )
    parser.add_argument(
        "--replication",
        type=_positive_int,
        default=3,
        metavar="N",
        help="with 'cluster': replicas per key (default 3; the write "
        "quorum is the majority)",
    )
    parser.add_argument(
        "--cluster-ops",
        type=_positive_int,
        default=2000,
        metavar="N",
        help="with 'cluster': operations to stream (default 2000)",
    )
    parser.add_argument(
        "--cluster-keys",
        type=_positive_int,
        default=48,
        metavar="N",
        help="with 'cluster': closed key-space size; member capacity "
        "is sized above it so acked writes cannot be evicted "
        "(default 48)",
    )
    parser.add_argument(
        "--kill-node",
        default=None,
        metavar="ID",
        help="with 'cluster': crash this member (WAL buffer dropped "
        "un-flushed) at the stream midpoint and leave it down",
    )
    parser.add_argument(
        "--partition-node",
        default=None,
        metavar="ID",
        help="with 'cluster': partition this member at the 1/3 mark "
        "and heal it at the 2/3 mark",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="with 'cluster': recover every member directory from its "
        "snapshot+WAL chain and assert every ledger entry survives "
        "(exit 1 on any acked-write loss)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="with 'cluster', 'serve' and 'ext-serve': stream and "
        "placement seed (default 0)",
    )
    parser.add_argument(
        "--perf-out",
        default="BENCH_perf.json",
        metavar="PATH",
        help="with 'perf': where to write the benchmark report JSON",
    )
    parser.add_argument(
        "--serve-out",
        default="BENCH_serve.json",
        metavar="PATH",
        help="with 'serve': where to write the SLO report JSON",
    )
    return parser


def _open_checkpoint(
    args: argparse.Namespace,
) -> Optional[checkpoint_mod.SweepCheckpoint]:
    """The sweep checkpoint implied by the flags, or None."""
    if not (args.resume or args.checkpoint):
        return None
    path = args.checkpoint or DEFAULT_CHECKPOINT
    # A damaged checkpoint must not kill the sweep it exists to
    # protect: open_or_reset sets it aside and starts a fresh one.
    return checkpoint_mod.SweepCheckpoint.open_or_reset(path)


def _failure_summary(failures: List[runner_mod.CellOutcome]) -> str:
    """Render the per-experiment failure table for ``all --keep-going``."""
    rows = [
        [
            outcome.name,
            outcome.attempts,
            f"{type(outcome.error).__name__}: {outcome.error}",
        ]
        for outcome in failures
    ]
    return render_table(
        ["experiment", "attempts", "error"],
        rows,
        title=f"{len(failures)} experiment(s) failed",
    )


def _run_policies() -> int:
    """Print the registered policies and the composite kinds."""
    from repro.policies.registry import policy_summaries

    rows = [list(row) for row in policy_summaries()]
    print(render_table(["name", "class", "summary"], rows,
                       title="registered replacement policies"))
    print(
        "\nComposite kinds (built on the above): 'adaptive' "
        "(Algorithm 1 over any two components), 'adaptive5' "
        "(five-component variant), 'sbar' (leader sets + global "
        "selector). The online engine (ext-online) accepts any "
        "registered name plus 'adaptive' and 'sampled'."
    )
    return 0


def _run_golden(args: argparse.Namespace) -> int:
    """Check (default) or regenerate the pinned golden-trace digests."""
    from repro.oracle import golden

    if args.regen:
        path = golden.regen_golden(args.golden_path)
        print(f"wrote golden digests to {path}")
        return 0
    ok, message = golden.check_golden(args.golden_path)
    print(message, file=sys.stdout if ok else sys.stderr)
    return 0 if ok else 1


def _run_perf(args: argparse.Namespace) -> int:
    """Benchmark the hot path and sweep; write the report JSON."""
    from repro.perf.bench import render_perf, run_perf

    workers_counts = (1, args.workers) if args.workers > 1 else (1, 4)
    report = run_perf(
        path=args.perf_out, quick=args.quick, workers_counts=workers_counts
    )
    print(render_perf(report))
    print(f"wrote {args.perf_out}")
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    """Rebuild a persisted online cache; print its stats and digest.

    With ``--finish`` the key stream recorded in the directory is
    resumed to completion first (see
    :func:`repro.experiments.ext_online.persistent_replay`), so after
    a SIGKILL the printed digest must equal an uninterrupted run's —
    the CI kill-and-recover smoke compares exactly these two lines.
    """
    from repro.experiments import ext_online
    from repro.online.persistence import kv_stats_digest, recover

    if not args.snapshot_dir:
        print("recover requires --snapshot-dir DIR", file=sys.stderr)
        return 2
    try:
        if args.finish:
            stats = ext_online.persistent_replay(
                args.snapshot_dir,
                setup=base.make_setup(args.scale, accesses=args.accesses),
                live=args.live,
            )
            verb = ("recovered+finished (live)" if args.live
                    else "recovered+finished")
        elif args.live:
            from repro.online.liverecovery import LiveRecoveringKVCache

            cache = LiveRecoveringKVCache(args.snapshot_dir)
            cache.finish()
            stats = cache.stats()
            cache.close()
            verb = "recovered (live)"
        else:
            cache = recover(args.snapshot_dir)
            stats = cache.stats()
            cache.close()
            verb = "recovered"
    except FileNotFoundError as exc:
        print(
            f"recover: no persisted state in {args.snapshot_dir} ({exc})",
            file=sys.stderr,
        )
        return 1
    print(
        f"{verb}: gets={stats.gets} hits={stats.hits} "
        f"misses={stats.misses} switches={stats.policy_switches}"
    )
    print(f"digest: {kv_stats_digest(stats)}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Run the open-loop serving harness; write BENCH_serve.json."""
    from repro.experiments.ext_serve import to_result
    from repro.serve.harness import run_serve
    from repro.utils.atomicio import atomic_write_text

    report = run_serve(quick=args.quick, seed=args.seed)
    print(to_result(report).render())
    atomic_write_text(args.serve_out, report.to_json())
    print(f"wrote {args.serve_out}")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report
    from repro.utils.atomicio import atomic_write_text

    results = [_run_result(name, args) for name in sorted(EXPERIMENTS)]
    text = build_report(
        results,
        title="Adaptive Caches (MICRO 2006) — reproduction report",
        preamble=[
            f"Scale: `{args.scale}`"
            + (f", {args.accesses} references/workload"
               if args.accesses else ""),
            "Regenerate with `repro-experiments report --scale "
            f"{args.scale}`.",
        ],
    )
    atomic_write_text(args.out, text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.trace_cache:
        base.set_default_trace_dir(args.trace_cache)
    if args.workers > 1:
        from repro.perf.parallel import set_default_workers

        set_default_workers(args.workers)
    try:
        if args.experiment == "policies":
            return _run_policies()
        if args.experiment == "report":
            return _run_report(args)
        if args.experiment == "golden":
            return _run_golden(args)
        if args.experiment == "perf":
            return _run_perf(args)
        if args.experiment == "recover":
            return _run_recover(args)
        if args.experiment == "serve":
            return _run_serve(args)
        if args.experiment == "cluster":
            from repro.experiments.cluster_cli import run_cluster

            return run_cluster(args)
        return _run_experiments(args)
    finally:
        if args.trace_cache:
            base.set_default_trace_dir(None)
        if args.workers > 1:
            from repro.perf.parallel import set_default_workers

            set_default_workers(1)


def _run_experiments(args: argparse.Namespace) -> int:
    """Run one experiment or the whole sweep with crash isolation."""
    names = (
        sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    ckpt = _open_checkpoint(args)
    retry = runner_mod.RetryPolicy(attempts=args.retries + 1)
    failures: List[runner_mod.CellOutcome] = []

    for index, name in enumerate(names):
        done_key = checkpoint_mod.SweepCheckpoint.cell_key(
            "done", name, args.scale
        )
        if ckpt is not None:
            restored = ckpt.get(done_key)
            if restored is not None:
                print(f"[checkpoint] {name}: already complete, skipping")
                print(restored)
                print()
                continue

        def compute(name=name):
            with checkpoint_mod.active_checkpoint(ckpt, experiment=name):
                return _run_one(name, args)

        try:
            outcome = runner_mod.run_cell(
                compute,
                name=name,
                retry=retry,
                timeout=args.timeout,
                seed=index,
            )
        except KeyboardInterrupt:
            if ckpt is not None:
                print(
                    f"\n[checkpoint] interrupted during {name!r}; "
                    f"{len(ckpt)} completed cell(s) saved in {ckpt.path} — "
                    "re-run with --resume to continue",
                    file=sys.stderr,
                )
            else:
                print(
                    f"\ninterrupted during {name!r} (run with --resume to "
                    "make interruptions recoverable)",
                    file=sys.stderr,
                )
            return 130

        if outcome.failed:
            if args.experiment == "all" and args.keep_going:
                print(
                    f"[failed] {name}: {type(outcome.error).__name__}: "
                    f"{outcome.error} (after {outcome.attempts} attempt(s))",
                    file=sys.stderr,
                )
                failures.append(outcome)
                continue
            print(
                f"experiment {name!r} failed after {outcome.attempts} "
                f"attempt(s): {type(outcome.error).__name__}: "
                f"{outcome.error}",
                file=sys.stderr,
            )
            return 1

        print(outcome.value)
        print()
        if ckpt is not None:
            ckpt.put(done_key, outcome.value)

    if failures:
        print(_failure_summary(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
