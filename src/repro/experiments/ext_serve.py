"""Extension experiment: open-loop serving SLOs over the online cache.

The paper shapes cache *behavior* to workloads; a serving system cares
about the consequence: tail latency under real arrival processes. This
experiment drives the async serving front
(:mod:`repro.serve`) with seeded open-loop streams
(:mod:`repro.workloads.keystreams`) on a virtual-time event loop and
reports the SLO picture — p50/p99/p999, goodput, shed/timeout rates
and the stale-serve fraction — across five regimes:

* **steady**: offered load well under capacity (the baseline SLO);
* **overload**: bursty MMPP arrivals past capacity with a bounded
  queue — the load-shedding knob trades refused requests for a held
  tail;
* **degraded**: a flaky, browning-out backend plus shards quarantined
  mid-run and rebuilt — the resilient ladder answers stale-but-true
  values and never a wrong one;
* **recovery**: a persistent cache is seeded, killed, and restarted
  *under traffic* as a live-recovering cache — chunked WAL replay
  serves reads shard by shard while admission backpressure sheds the
  excess, and the end-of-regime digest must match a stop-the-world
  recovery of the same directory (zero acked-write loss);
* **steady_tiered**: the near/far tiered front under the steady
  arrival process — the two-tier hit path through the same admission
  front.

Everything runs in virtual time, so the experiment is fast, and with a
fixed seed the whole report — every latency percentile included — is
byte-identical run to run. ``repro-experiments serve`` writes the same
numbers as ``BENCH_serve.json`` for the bench-regression gate.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, Setup
from repro.serve.harness import ServeReport, run_serve


def run(setup: Setup, seed: int, quick: bool) -> ExperimentResult:
    """The five-regime serving report as an :class:`ExperimentResult`.

    Args:
        setup: experiment scale; ``mini`` maps to the quick (CI-sized)
            harness, anything else to the full one. The cache geometry
            itself is fixed by the regime plans — serving SLOs are
            about load versus capacity, not L2 bytes.
        seed: master seed for streams, chaos and service jitter.
        quick: the quick harness at any ``setup``.
    """
    report = run_serve(quick=quick or setup.name == "mini", seed=seed)
    return to_result(report)


def to_result(report: ServeReport) -> ExperimentResult:
    """Render a :class:`~repro.serve.harness.ServeReport` as the
    standard experiment table."""
    result = ExperimentResult(
        experiment="ext-serve",
        description="Open-loop serving SLOs over the resilient online "
        "cache: tail latency, goodput, shedding and stale serving "
        "across steady / overload / degraded / recovery / tiered "
        "regimes (virtual time, deterministic per seed)",
        headers=[
            "regime", "offered rps", "goodput rps", "p50 ms", "p99 ms",
            "p999 ms", "shed %", "timeout %", "stale %", "wrong",
        ],
    )
    for regime in report.regimes.values():
        result.add_row(
            regime.name,
            regime.offered_rps,
            regime.goodput_rps,
            regime.p50_ms,
            regime.p99_ms,
            regime.p999_ms,
            100.0 * regime.shed_rate,
            100.0 * regime.timeout_rate,
            100.0 * regime.stale_fraction,
            regime.wrong_values,
        )

    steady = report.regimes.get("steady")
    overload = report.regimes.get("overload")
    degraded = report.regimes.get("degraded")
    if steady is not None and overload is not None:
        result.add_note(
            f"Overload shed {100.0 * overload.shed_rate:.1f}% of "
            f"arrivals to hold p99 at {overload.p99_ms:.1f} ms while "
            f"goodput saturated at {overload.goodput_rps:.0f} rps "
            f"(steady baseline: p99 {steady.p99_ms:.1f} ms at "
            f"{steady.goodput_rps:.0f} rps)."
        )
    if degraded is not None:
        result.add_note(
            f"Degraded regime (flaky backend, {degraded.breaker_trips} "
            f"breaker trips, shards quarantined then rebuilt) served "
            f"{100.0 * degraded.stale_fraction:.2f}% of completions "
            f"stale — every one a previously-true value: "
            f"{degraded.wrong_values} wrong values observed; "
            f"{degraded.retries_denied} retries denied by the shared "
            "retry budget."
        )
    recovery = report.regimes.get("recovery")
    if recovery is not None:
        result.add_note(
            f"Recovery regime: {recovery.replay_applied_ops} of "
            f"{recovery.replay_total_ops} WAL records replayed live in "
            f"{recovery.recovery_complete_s:.2f} s while serving "
            f"(p99 during replay {recovery.replay_p99_ms:.1f} ms); "
            f"honest outcomes only — {recovery.refused_recovering} "
            f"refusals, {recovery.recovering_stale} stale-marked "
            f"serves, {recovery.deferred_writes} writes deferred then "
            "applied in order. Digest match vs stop-the-world "
            f"recovery: {bool(recovery.recovered_digest_match)} "
            "(must be True — no acked write lost)."
        )
    tiered = report.regimes.get("steady_tiered")
    if tiered is not None:
        result.add_note(
            f"Tiered front under steady load: hit ratio "
            f"{100.0 * tiered.hit_ratio:.1f}% through the near/far "
            f"pair at p99 {tiered.p99_ms:.1f} ms, "
            f"{tiered.wrong_values} wrong values."
        )
    total_wrong = sum(r.wrong_values for r in report.regimes.values())
    result.add_note(
        "Sketch vs exact percentiles agree within the configured 1% "
        "relative error in every regime; wrong values across all "
        f"regimes: {total_wrong} (must be 0)."
    )
    result.add_note(
        f"Seed {report.seed}, {'quick' if report.quick else 'full'} "
        "scale; the identical seed reproduces this table byte for byte "
        "(virtual-time event loop — no wall-clock in any number)."
    )
    return result
