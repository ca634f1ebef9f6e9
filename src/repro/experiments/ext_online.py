"""Extension experiment: the online KV engine vs fixed policies.

Replays key-stream workloads (Zipf skew, hot-set + scan, LRU-hostile
loops, phase changes, and a bridged simulator trace) through the online
engine in each of its modes — per-shard adaptive, SBAR-style sampled,
and fixed policies — plus :func:`functools.lru_cache` as the standard-
library baseline, reporting hit rate and throughput (ops/sec). This is
the serving-shaped analogue of the paper's Figure 3 sweep: the claim
under test is that per-shard adaptation tracks the better component on
every regime, including the phase-change workload where each fixed
policy has a losing phase.

Hit counts are deterministic (fingerprints and generators are seeded);
throughput naturally varies run to run. With an active sweep
checkpoint, each completed (workload, engine) cell is persisted and
restored on resume.

:func:`persistent_replay` serves one adaptive stream through the
crash-safe :class:`~repro.online.persistence.PersistentKVCache`
(periodic snapshots + write-ahead log). It is the engine behind
``repro-experiments recover --snapshot-dir``, which rebuilds a killed
run from its persisted state and finishes the stream with
byte-identical stats; the experiment's own cells never persist.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from repro.experiments import checkpoint as checkpoint_mod
from repro.experiments.base import ExperimentResult, Setup, make_setup
from repro.online.engine import AdaptiveKVCache
from repro.workloads.keystreams import (
    keys_from_trace,
    loop_keys,
    phase_change_keys,
    scan_keys,
    zipf_keys,
)
from repro.workloads.suite import build_workload

#: Engine specs compared by the experiment. ``lru_cache`` is the
#: standard library's memoizer, everything else an AdaptiveKVCache mode.
ENGINES = ("adaptive", "sampled", "lru", "lfu", "fifo", "lru_cache")

#: The phase-change workload the acceptance check runs on.
PHASE_WORKLOAD = "phase-zipf"

#: The key streams replayed, one row group each.
WORKLOADS = ("zipf", "scan-hot", "loop", PHASE_WORKLOAD, "trace-ammp")

#: Fixed policies the adaptive modes are judged against.
FIXED_BASELINES = ("lru", "lfu", "fifo")

NUM_SHARDS = 8

#: Stream-coordinate sidecar written into a persistence directory so
#: ``repro-experiments recover`` can resume the exact same key stream.
STREAM_FILE = "STREAM.json"

#: Persistence cadences for :func:`persistent_replay` — frequent enough
#: that a mini-scale kill-and-recover smoke crosses several generations.
SNAPSHOT_EVERY = 2_000
WAL_FLUSH_OPS = 16


def build_key_stream(
    name: str, capacity: int, setup: Setup, seed: int = 0
) -> List[str]:
    """The named key-stream workload, sized relative to ``capacity``.

    Args:
        name: one of :data:`WORKLOADS`.
        capacity: engine entry capacity the stream is scaled against.
        setup: experiment scale (trace length; geometry for the
            ``trace-*`` bridge workloads).
        seed: generator seed.
    """
    accesses = setup.accesses
    if name == "zipf":
        return zipf_keys(4 * capacity, accesses, seed=seed)
    if name == "scan-hot":
        return scan_keys(
            capacity // 2, 8 * capacity, accesses,
            hot_fraction=0.6, seed=seed,
        )
    if name == "loop":
        return loop_keys(capacity + capacity // 4, accesses)
    if name == PHASE_WORKLOAD:
        return phase_change_keys(
            2 * capacity, capacity + capacity // 4, accesses,
            phases=6, seed=seed,
        )
    if name.startswith("trace-"):
        trace = build_workload(
            name[len("trace-"):], setup.l2, accesses=accesses
        )
        return keys_from_trace(trace)
    raise ValueError(f"unknown key-stream workload {name!r}")


def replay(engine: str, keys: Sequence[str], capacity: int) -> Dict[str, float]:
    """Replay ``keys`` through one engine; returns the metrics cell.

    Every access is a ``get_or_compute`` with a trivial loader, so hit
    counts measure retention quality and ops/sec measures the engine's
    full locked get-miss-fill path.
    """
    start = time.perf_counter()
    if engine == "lru_cache":
        loader = lru_cache(maxsize=capacity)(lambda key: key)
        for key in keys:
            loader(key)
        info = loader.cache_info()
        hits, misses, switches = info.hits, info.misses, 0
    else:
        cache = AdaptiveKVCache(
            capacity_entries=capacity,
            num_shards=NUM_SHARDS,
            policy=engine,
        )
        for key in keys:
            cache.get_or_compute(key, lambda k: k)
        stats = cache.stats()
        if stats.hits + stats.misses != stats.gets != len(keys):
            raise RuntimeError(
                f"inconsistent stats from {engine}: {stats.hits} hits + "
                f"{stats.misses} misses != {stats.gets} gets"
            )
        hits, misses, switches = stats.hits, stats.misses, stats.policy_switches
    elapsed = time.perf_counter() - start
    ops = len(keys) / elapsed if elapsed > 0 else 0.0
    return {
        "hits": hits,
        "misses": misses,
        "hit_pct": 100.0 * hits / len(keys) if keys else 0.0,
        "ops_per_sec": ops,
        "switches": switches,
    }


def persistent_replay(
    directory: str,
    setup: Optional[Setup] = None,
    live: bool = False,
):
    """Crash-safe adaptive replay of the ``zipf`` key stream at seed 0;
    resumes after kills.

    A fresh ``directory`` gets a persistent adaptive engine, a
    ``STREAM.json`` sidecar recording the stream coordinates, and a
    full replay. A directory holding prior state is *recovered*
    instead (newest intact snapshot + WAL replay, torn tails
    truncated) and the deterministic stream resumes at the recovered
    operation count — every access is a ``get_or_compute``, so
    ``stats().gets`` is exactly the stream position. Finishing after a
    SIGKILL therefore yields stats (and a
    :func:`~repro.online.persistence.kv_stats_digest`) identical to an
    uninterrupted run — the contract the kill-and-recover smoke checks.

    The cache snapshots every :data:`SNAPSHOT_EVERY` operations and
    flushes its WAL every :data:`WAL_FLUSH_OPS`.

    Args:
        directory: persistence directory (snapshots, WALs, manifest,
            stream sidecar). The recorded coordinates (workload, scale,
            accesses, seed) override ``setup`` on resume.
        setup: experiment scale; default ``scaled``.
        live: recover through
            :class:`~repro.online.liverecovery.LiveRecoveringKVCache`
            instead of stop-the-world — the stream resumes *while* the
            WAL replays in chunks (an access for a still-replaying
            shard steps replay until its shard is promoted, keeping
            every access applied and logged), and the final digest
            must still equal the uninterrupted run's.

    Returns:
        The final :class:`~repro.online.stats.KVCacheStats`.
    """
    from repro.online.liverecovery import LiveRecoveringKVCache
    from repro.online.persistence import PersistentKVCache, recover
    from repro.utils.atomicio import atomic_write_text

    meta_path = os.path.join(directory, STREAM_FILE)
    recovering_live = False
    workload, seed = "zipf", 0
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        workload, seed = meta["workload"], int(meta["seed"])
        setup = make_setup(meta["scale"], accesses=int(meta["accesses"]))
        if live:
            cache = LiveRecoveringKVCache(
                directory,
                snapshot_every=SNAPSHOT_EVERY,
                wal_flush_ops=WAL_FLUSH_OPS,
            )
            recovering_live = cache.recovering
        else:
            cache = recover(
                directory,
                snapshot_every=SNAPSHOT_EVERY,
                wal_flush_ops=WAL_FLUSH_OPS,
            )
    else:
        setup = setup or make_setup()
        os.makedirs(directory, exist_ok=True)
        atomic_write_text(
            meta_path,
            json.dumps({
                "workload": workload,
                "scale": setup.name,
                "accesses": setup.accesses,
                "seed": seed,
            }),
        )
        cache = PersistentKVCache(
            AdaptiveKVCache(
                capacity_entries=setup.l2.num_lines,
                num_shards=NUM_SHARDS,
                policy="adaptive",
                seed=seed,
            ),
            directory,
            snapshot_every=SNAPSHOT_EVERY,
            wal_flush_ops=WAL_FLUSH_OPS,
        )
    capacity = setup.l2.num_lines
    keys = build_key_stream(workload, capacity, setup, seed=seed)
    if recovering_live:
        # The stream's resume position is where *finished* replay will
        # land: every record here is one logged access.
        remaining = (cache.recovery.total_records
                     - cache.recovery.applied_records)
        position = cache.stats().gets + remaining
        for key in keys[position:]:
            # Serve through the recovering cache: ready shards answer
            # (and log) immediately. A key on a still-replaying shard
            # would be served stale or refused *without logging*, so
            # step replay until its shard is promoted — exact stream
            # order, every access applied and logged.
            while not cache.key_serving(key):
                cache.step()
            cache.get_or_compute(key, lambda k: k)
        cache.finish()  # drain any replay the stream did not force
    else:
        for key in keys[cache.stats().gets:]:
            cache.get_or_compute(key, lambda k: k)
    cache.close()
    return cache.stats()


#: The fields :func:`run` reads from a cell; a checkpointed cell
#: missing any of them is discarded and recomputed.
CELL = checkpoint_mod.dict_cell(
    "hits", "misses", "hit_pct", "ops_per_sec", "switches"
)


def run(
    setup: Setup, checkpoint: Optional[checkpoint_mod.SweepCheckpoint]
) -> ExperimentResult:
    """Hit rate and throughput of every :data:`WORKLOADS` key stream
    and :data:`ENGINES` engine, at seed 0.

    Args:
        setup: experiment scale; capacity is the L2's line count, so
            the engine holds as many entries as the simulated cache
            held blocks.
        checkpoint: restores and records each cell under
            ``cell/ext-online/...`` keys (the CLI's ``--resume``).
    """
    capacity = setup.l2.num_lines

    result = ExperimentResult(
        experiment="ext-online",
        description="online KV engine: adaptive vs fixed policies vs "
        f"functools.lru_cache ({capacity} entries, {NUM_SHARDS} shards)",
        headers=["workload", "engine", "hits", "misses", "hit %",
                 "ops/sec", "switches"],
    )
    table: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in WORKLOADS:
        keys = build_key_stream(workload, capacity, setup)
        table[workload] = {}
        for engine in ENGINES:
            compute = lambda e=engine: replay(e, keys, capacity)  # noqa: E731
            cell = checkpoint_mod.checkpointed_cell(
                checkpoint, "ext-online", setup, (workload, engine), compute, CELL
            )
            table[workload][engine] = cell
            result.add_row(
                workload, engine, cell["hits"], cell["misses"],
                cell["hit_pct"], cell["ops_per_sec"], cell["switches"],
            )

    for workload, cells in table.items():
        fixed = {e: cells[e]["hit_pct"] for e in FIXED_BASELINES if e in cells}
        if not fixed or "adaptive" not in cells:
            continue
        best_name = max(fixed, key=fixed.get)
        worst = min(fixed.values())
        adaptive = cells["adaptive"]["hit_pct"]
        verdict = "matches/beats" if adaptive >= fixed[best_name] - 0.5 else "trails"
        result.add_note(
            f"{workload}: adaptive {adaptive:.1f}% {verdict} best fixed "
            f"({best_name} {fixed[best_name]:.1f}%; worst fixed {worst:.1f}%)."
        )
    return result

