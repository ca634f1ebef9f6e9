"""The open-loop SLO harness: measurement loop, reports and floors.

Regime *construction* — :class:`~repro.serve.stack.RegimePlan` and
:func:`~repro.serve.stack.build_stack` — lives in
:mod:`repro.serve.stack`; this module drives the stream and builds
the reports.

This is the measurement the ROADMAP's "open-loop service benchmark"
item asks for. A seeded request stream (:mod:`repro.workloads.keystreams`)
arrives on its own schedule at an :class:`~repro.serve.front.AsyncServingFront`
over a :class:`~repro.online.resilience.ResilientKVCache`, all on a
virtual-time event loop (:mod:`repro.serve.vloop`) — so a multi-second
traffic simulation replays in milliseconds and a fixed seed reproduces
a byte-identical report.

Five regimes tell the serving story:

* **steady** — offered load well under capacity: the baseline SLO
  (p50/p99/p999, goodput ~= offered, nothing shed);
* **overload** — bursty MMPP arrivals beyond service capacity with a
  bounded queue: the load-shedding knob holds tail latency while
  goodput saturates at capacity and excess arrivals are shed;
* **degraded** — a flaky backend (seeded failure bursts) plus shards
  quarantined mid-run and rebuilt later: the resilient ladder serves
  stale-but-true values (stale fraction > 0) and **never** a wrong one;
* **recovery** — a persistent cache is seeded with a request prefix and
  killed, then restarted as a
  :class:`~repro.online.liverecovery.LiveRecoveringKVCache` *under
  traffic*: a background task replays the WAL in bounded chunks while
  the stream keeps arriving. The report carries the replay-window tail
  (``replay_p99_ms``), the honest-degradation counters (refusals,
  recovering stale serves, deferred writes), the virtual time to full
  recovery, and ``recovered_digest_match`` — the live-recovered state
  checked byte-identical against a stop-the-world
  :func:`~repro.online.persistence.recover` of the same directory
  (which proves zero acked-write loss: accepted writes were
  dual-logged, so the reference replay contains them too);
* **steady_tiered** — the steady stream served through the resilient
  ladder over :func:`~repro.tiers.kv.tiered_front` (a near shard over
  the adaptive engine) behind the same admission front, so the
  near/far topology has an open-loop SLO row of its own.

Per-request latency lands in a streaming
:class:`~repro.serve.sketch.LatencySketch` *and* an exact-quantile
reference list; both are reported, so sketch drift would be visible in
the report itself. ``repro-experiments serve`` writes the committed
``BENCH_serve.json``; :func:`check_floors` gates it (and CI re-runs)
against ``benchmarks/baselines.json``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.online.liverecovery import (
    LiveRecoveringKVCache,
    RecoveryInProgress,
)
from repro.online.persistence import kv_stats_digest, recover
from repro.online.resilience import (
    LoaderUnavailable,
    ResilientKVCache,
    RetryBudget,
)
from repro.serve.front import AsyncServingFront, RequestShed, RequestTimeout
from repro.serve.sketch import LatencySketch, exact_quantile
from repro.serve.stack import (
    REPLAY_INTERVAL,
    RegimePlan,
    backend_value,
    build_stack,
    default_plans,
)
from repro.serve.vloop import VirtualTimeEventLoop
from repro.tiers.kv import TieredKVCache

#: Report schema version for BENCH_serve.json.
SCHEMA = 1

#: The quantiles every regime reports.
QUANTILES = (0.5, 0.99, 0.999)


@dataclass
class RegimeReport:
    """What one regime measured (virtual time; fully deterministic)."""

    name: str
    requests: int = 0
    offered_rps: float = 0.0
    completed: int = 0
    shed: int = 0
    timeouts: int = 0
    unavailable: int = 0
    wrong_values: int = 0
    stale_serves: int = 0
    goodput_rps: float = 0.0
    shed_rate: float = 0.0
    timeout_rate: float = 0.0
    stale_fraction: float = 0.0
    mean_ms: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    p999_ms: float = 0.0
    exact_p50_ms: float = 0.0
    exact_p99_ms: float = 0.0
    exact_p999_ms: float = 0.0
    breaker_trips: int = 0
    retries_denied: int = 0
    hit_ratio: float = 0.0
    # Recovery-regime extras (zero everywhere else; kept in every
    # row so the report schema is uniform).
    replay_total_ops: int = 0
    replay_applied_ops: int = 0
    recovery_complete_s: float = 0.0
    refused_recovering: int = 0
    recovering_stale: int = 0
    deferred_writes: int = 0
    replay_p99_ms: float = 0.0
    recovered_digest_match: int = 0

    def to_dict(self) -> dict:
        """JSON-stable dict (floats rounded deterministically)."""
        out = {}
        for key, value in vars(self).items():
            out[key] = round(value, 6) if isinstance(value, float) else value
        return out


@dataclass
class _Accumulator:
    """Measured-phase tallies collected by the driver (internal)."""

    arrivals: int = 0
    ok: int = 0
    shed: int = 0
    timeouts: int = 0
    unavailable: int = 0
    wrong: int = 0
    refused: int = 0
    sketch: LatencySketch = field(default_factory=LatencySketch)
    latencies: List[float] = field(default_factory=list)
    boundary: Optional[object] = None


@dataclass
class _RecoveryTracker:
    """Live-recovery instrumentation for one regime run (internal)."""

    live: LiveRecoveringKVCache
    interval: float
    sketch: LatencySketch = field(default_factory=LatencySketch)
    start: Optional[float] = None
    completed_at: Optional[float] = None


async def _chaos_schedule(resilient: ResilientKVCache,
                          plan: RegimePlan) -> None:
    """Quarantine the plan's shards, then rebuild them empty."""
    await asyncio.sleep(plan.quarantine_at)
    for shard in plan.quarantine_shards:
        resilient.quarantine(shard)
    if plan.rebuild_at is not None:
        await asyncio.sleep(plan.rebuild_at - plan.quarantine_at)
        for shard in plan.quarantine_shards:
            resilient.rebuild(shard)


async def _one_request(front: AsyncServingFront, loader, request,
                       measured: bool, acc: _Accumulator, loop,
                       recovery: Optional[_RecoveryTracker] = None) -> None:
    """Serve one arrival; classify and (if measured) record it."""
    arrived = loop.time()
    in_replay = recovery is not None and recovery.live.recovering
    outcome = "ok"
    value = None
    try:
        if request.op == "read":
            value = await front.handle(request.key, loader)
        else:
            await front.write(request.key, backend_value(request.key))
    except RequestShed:
        outcome = "shed"
    except RequestTimeout:
        outcome = "timeout"
    except RecoveryInProgress:
        outcome = "refused"
    except LoaderUnavailable:
        outcome = "unavailable"
    if not measured:
        return
    latency = loop.time() - arrived
    if outcome == "ok":
        acc.ok += 1
        if request.op == "read" and value != backend_value(request.key):
            acc.wrong += 1
    elif outcome == "shed":
        acc.shed += 1
        return  # refused instantly; no latency to record
    elif outcome == "timeout":
        acc.timeouts += 1
    elif outcome == "refused":
        acc.refused += 1
    else:
        acc.unavailable += 1
    acc.sketch.add(latency)
    acc.latencies.append(latency)
    if in_replay:
        recovery.sketch.add(latency)


async def _replay_schedule(recovery: _RecoveryTracker) -> None:
    """Step live WAL replay on its cadence until recovery completes."""
    loop = asyncio.get_running_loop()
    live = recovery.live
    while live.recovering:
        await asyncio.sleep(recovery.interval)
        live.step()
    recovery.completed_at = loop.time()


async def _drive(plan: RegimePlan, front: AsyncServingFront, loader,
                 recovery: Optional[_RecoveryTracker] = None
                 ) -> _Accumulator:
    """Replay the plan's stream open-loop; return the measured tallies."""
    loop = asyncio.get_running_loop()
    acc = _Accumulator()
    start = loop.time()
    horizon = plan.warmup + plan.duration
    chaos = None
    if plan.quarantine_at is not None:
        chaos = loop.create_task(_chaos_schedule(front.resilient, plan))
    replay = None
    if recovery is not None:
        recovery.start = start
        replay = loop.create_task(_replay_schedule(recovery))
    tasks = []
    for request in plan.spec.requests():
        if request.at >= horizon:
            break
        delay = (start + request.at) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        measured = request.at >= plan.warmup
        if measured:
            if acc.boundary is None:
                acc.boundary = front.resilient.engine.stats()
            acc.arrivals += 1
        tasks.append(loop.create_task(
            _one_request(front, loader, request, measured, acc, loop,
                         recovery)
        ))
    if tasks:
        await asyncio.gather(*tasks)
    if chaos is not None:
        await chaos
    if replay is not None:
        # Replay keeps stepping (in virtual time) past the stream's end
        # if it has not drained yet; completion time is still recorded.
        await replay
    return acc


def run_regime(plan: RegimePlan) -> RegimeReport:
    """Run one regime on a fresh virtual-time loop; return its report."""
    loop = VirtualTimeEventLoop()
    recovery = None
    directory = None
    try:
        if plan.recover_ops > 0:
            directory = tempfile.mkdtemp(prefix="repro-serve-recovery-")
        front, loader, budget, live = build_stack(plan, loop.time, directory)
        if live is not None:
            recovery = _RecoveryTracker(live, REPLAY_INTERVAL)

        async def main():
            return await _drive(plan, front, loader, recovery)

        acc = loop.run_until_complete(main())
        loop.close()
        report = _build_report(plan, front, budget, acc)
        if recovery is not None:
            _finish_recovery_report(report, recovery, acc, directory)
        return report
    finally:
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)


def _finish_recovery_report(report: RegimeReport,
                            recovery: _RecoveryTracker, acc: _Accumulator,
                            directory: str) -> None:
    """Recovery-only report fields, ending in the digest cross-check."""
    live = recovery.live
    report.replay_total_ops = live.recovery.total_records
    report.replay_applied_ops = live.recovery.applied_records
    if recovery.completed_at is not None and recovery.start is not None:
        report.recovery_complete_s = recovery.completed_at - recovery.start
    report.refused_recovering = acc.refused
    report.recovering_stale = live.recovery.stale_serves
    report.deferred_writes = live.recovery.deferred_writes
    if recovery.sketch.count:
        report.replay_p99_ms = recovery.sketch.quantile(0.99) * 1000.0
    # The honesty proof: the live-recovered state must be byte-identical
    # to a stop-the-world recovery of the same directory — which also
    # replays the dual-logged writes accepted mid-replay, so a match
    # means zero acked-write loss.
    live.sync()
    live_digest = kv_stats_digest(live.stats())
    reference = recover(directory)
    match = live_digest == kv_stats_digest(reference.stats())
    report.recovered_digest_match = 1 if match else 0
    reference.close()
    live.close()


def _build_report(plan: RegimePlan, front: AsyncServingFront,
                  budget: Optional[RetryBudget],
                  acc: _Accumulator) -> RegimeReport:
    report = RegimeReport(name=plan.name)
    report.requests = acc.arrivals
    report.offered_rps = acc.arrivals / plan.duration
    report.completed = acc.ok
    report.shed = acc.shed
    report.timeouts = acc.timeouts
    report.unavailable = acc.unavailable
    report.wrong_values = acc.wrong
    report.goodput_rps = acc.ok / plan.duration
    if acc.arrivals:
        report.shed_rate = acc.shed / acc.arrivals
        report.timeout_rate = acc.timeouts / acc.arrivals
    resilient = front.resilient
    before = acc.boundary
    stale_before = before.stale_hits if before is not None else 0
    report.stale_serves = resilient.engine.stats().stale_hits - stale_before
    if acc.ok:
        report.stale_fraction = report.stale_serves / acc.ok
    # The hit ratio is the request-facing store's: the tier walk's
    # (near or far) over a tiered front, the engine's otherwise.
    served = resilient.stats()
    if isinstance(resilient.cache, TieredKVCache):
        gets, hits = served["gets"], served["tier_hits"]
    else:
        gets, hits = served.gets, served.hits
    if gets:
        report.hit_ratio = hits / gets
    if acc.sketch.count:
        report.mean_ms = acc.sketch.mean * 1000.0
        p50, p99, p999 = acc.sketch.quantiles(QUANTILES)
        report.p50_ms = p50 * 1000.0
        report.p99_ms = p99 * 1000.0
        report.p999_ms = p999 * 1000.0
        report.exact_p50_ms = exact_quantile(acc.latencies, 0.5) * 1000.0
        report.exact_p99_ms = exact_quantile(acc.latencies, 0.99) * 1000.0
        report.exact_p999_ms = (
            exact_quantile(acc.latencies, 0.999) * 1000.0
        )
    report.breaker_trips = sum(b.trips for b in resilient.breakers)
    report.retries_denied = budget.denied if budget is not None else 0
    return report


@dataclass
class ServeReport:
    """All regimes of one harness run, plus provenance."""

    seed: int
    quick: bool
    regimes: Dict[str, RegimeReport]

    def to_dict(self) -> dict:
        """The full report as a JSON-ready dict (schema-versioned)."""
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "quick": self.quick,
            "regimes": {
                name: report.to_dict()
                for name, report in self.regimes.items()
            },
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys — byte-identical per seed)."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def render(self) -> str:
        """Human-readable regime table."""
        from repro.analysis.tables import render_table

        rows = []
        for report in self.regimes.values():
            rows.append([
                report.name,
                report.offered_rps,
                report.goodput_rps,
                report.p50_ms,
                report.p99_ms,
                report.p999_ms,
                100.0 * report.shed_rate,
                100.0 * report.timeout_rate,
                100.0 * report.stale_fraction,
                report.wrong_values,
            ])
        return render_table(
            ["regime", "offered rps", "goodput rps", "p50 ms", "p99 ms",
             "p999 ms", "shed %", "timeout %", "stale %", "wrong"],
            rows,
            float_digits=2,
            title="open-loop serving SLOs (virtual time, deterministic)",
        )


def run_serve(quick: bool = False, seed: int = 0) -> ServeReport:
    """Run all five regimes; the engine behind ``repro-experiments
    serve`` and ``BENCH_serve.json``."""
    regimes = {}
    for plan in default_plans(quick=quick, seed=seed):
        regimes[plan.name] = run_regime(plan)
    return ServeReport(seed=seed, quick=quick, regimes=regimes)


def check_floors(report: dict, floors: dict) -> List[str]:
    """SLO floors for a :meth:`ServeReport.to_dict` report.

    ``floors`` is the ``"serve"`` section of
    ``benchmarks/baselines.json``: per-regime bounds named
    ``min_<metric>`` / ``max_<metric>``, plus the derived
    ``min_goodput_fraction`` (goodput over offered). Returns the list
    of violations (empty = gate passes).
    """
    problems = []
    for regime, bounds in floors.items():
        if regime.startswith("_"):
            continue
        cell = report.get("regimes", {}).get(regime)
        if cell is None:
            problems.append(f"{regime}: missing from report")
            continue
        for bound, limit in bounds.items():
            if bound.startswith("_"):
                continue
            if bound == "min_goodput_fraction":
                offered = cell.get("offered_rps", 0.0)
                actual = (
                    cell.get("goodput_rps", 0.0) / offered if offered else 0.0
                )
                metric = "goodput_fraction"
                low = True
            elif bound.startswith("min_"):
                metric = bound[4:]
                actual = cell.get(metric, 0.0)
                low = True
            elif bound.startswith("max_"):
                metric = bound[4:]
                actual = cell.get(metric, 0.0)
                low = False
            else:
                problems.append(f"{regime}: unknown bound {bound!r}")
                continue
            if low and actual < limit:
                problems.append(
                    f"{regime}: {metric} {actual:.4f} below floor {limit}"
                )
            elif not low and actual > limit:
                problems.append(
                    f"{regime}: {metric} {actual:.4f} above ceiling {limit}"
                )
    return problems
