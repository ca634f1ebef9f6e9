"""Columnar-kernel differential lane for the oracle campaign.

The columnar batch kernel (:mod:`repro.perf.kernel`) promises *decision
identity*: replaying a batch through the kernel's fused per-set loop
must leave every observable piece of state — :class:`CacheStats`,
per-set miss counters, the full policy ``state_dict()``, the resident
:class:`~repro.cache.cache_set.CacheSet` contents — byte-identical to
the scalar per-access loop, and must report the same per-access hit
stream. This lane proves it the same way the spec campaign proves the
engines: seeded random streams, every supported duel pair, first
divergence reported with its replayable seed.

Each run builds two identical adaptive caches, drives one through the
scalar :meth:`~repro.cache.cache.SetAssociativeCache.access` loop and
the other through chained
:func:`~repro.perf.kernel.columnar_access_many` batches (with the
per-access hit record enabled), and compares everything. The streams
are sized so selector windows fill, saturate and flip mid-stream,
because the saturation-skip guard is the one optimization whose
correctness rests on an argument rather than shared code. Each pair
runs two families of seeded streams.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Sequence, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.multi import make_adaptive
from repro.oracle.harness import CampaignReport, Divergence
from repro.oracle.streams import hardware_stream
from repro.perf.kernel import columnar_access_many

#: Component kinds the kernel supports; the lane covers every
#: ordered pair (16 duels).
KERNEL_KINDS = ("lru", "fifo", "lfu", "mru")

#: Every ordered duel pair the kernel supports.
DUEL_PAIRS: Tuple[Tuple[str, str], ...] = tuple(
    product(KERNEL_KINDS, KERNEL_KINDS)
)

#: Batches the columnar side splits each stream into. The batches after
#: the first start from warm state, so the lane also checks how the
#: kernel reads back what an earlier batch wrote (e.g. LFU fill order
#: from stamps).
CHAINED_BATCHES = 3


def _build_cache(
    components: Sequence[str], num_sets: int, ways: int, seed: int
) -> SetAssociativeCache:
    """One adaptive cache inside the kernel's supported envelope."""
    config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways)
    policy = make_adaptive(num_sets, ways, tuple(components), seed=seed)
    return SetAssociativeCache(config, policy)


def _addresses(
    events: Sequence[Tuple[int, int, bool]], config: CacheConfig
) -> Tuple[List[int], List[bool]]:
    """Byte addresses (and write flags) mapping to the events' sets/tags."""
    offset_bits, _, tag_shift = config.decomposition()
    addresses = []
    writes = []
    for set_index, tag, is_write in events:
        addresses.append((tag << tag_shift) | (set_index << offset_bits))
        writes.append(is_write)
    return addresses, writes


def _observable_state(cache: SetAssociativeCache) -> dict:
    """Everything the kernel contract says must match, as one dict."""
    stats = cache.stats
    return {
        "stats": {
            "accesses": stats.accesses,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "writebacks": stats.writebacks,
            "per_set_misses": list(stats.per_set_misses),
        },
        "policy": cache.policy.state_dict(),
        "sets": [cache_set.state_dict() for cache_set in cache.sets],
    }


def run_columnar_differential(
    components: Sequence[str],
    events: Sequence[Tuple[int, int, bool]],
    num_sets: int = 4,
    ways: int = 4,
    seed: Optional[int] = None,
) -> Optional[Divergence]:
    """Scalar vs columnar on one stream; returns the first divergence.

    The scalar cache replays the stream through per-access ``access``
    calls (the reference semantics by construction); the columnar cache
    replays it as :data:`CHAINED_BATCHES` ``columnar_access_many`` calls
    with the hit record enabled, so each batch after the first starts
    from the shadow directories and clocks the previous one wrote back.
    The per-access hit streams are compared first — a mismatch there
    reports the offending step — then the full observable state.
    """
    label = f"columnar:{'+'.join(components)}"
    scalar = _build_cache(components, num_sets, ways, seed or 0)
    columnar = _build_cache(components, num_sets, ways, seed or 0)
    addresses, writes = _addresses(events, scalar.config)

    scalar_hits = [
        scalar.access(address, is_write=write).hit
        for address, write in zip(addresses, writes)
    ]
    record: List[bool] = []
    size = max(1, -(-len(addresses) // CHAINED_BATCHES))
    for lo in range(0, len(addresses), size):
        chunk = slice(lo, lo + size)
        part = [False] * len(addresses[chunk])
        columnar_access_many(
            columnar, addresses[chunk], writes=writes[chunk], record=part
        )
        record += part

    for step, (want, got) in enumerate(zip(scalar_hits, record)):
        if want != got:
            return Divergence(
                step=step, event=tuple(events[step]), engine=None, spec=None,
                label=label, seed=seed,
                detail=f"hit stream: scalar={want} columnar={got}",
            )
    scalar_state = _observable_state(scalar)
    columnar_state = _observable_state(columnar)
    if scalar_state != columnar_state:
        for key in scalar_state:
            if scalar_state[key] != columnar_state[key]:
                break
        return Divergence(
            step=len(events), event=(), engine=None, spec=None,
            label=label, seed=seed,
            detail=(
                f"observable state mismatch in {key!r}: "
                f"scalar={scalar_state[key]!r} "
                f"columnar={columnar_state[key]!r}"
            ),
        )
    return None


def columnar_campaign(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    streams_per_combo: int = 4,
    stream_length: int = 600,
    num_sets: int = 4,
    ways: int = 4,
    base_seed: int = 0,
) -> CampaignReport:
    """Differential-test the columnar kernel over every duel pair.

    Args:
        pairs: (kindA, kindB) duel pairs to cover; defaults to all 16
            ordered pairs over {lru, fifo, lfu, mru}.
        streams_per_combo: independent streams per (pair, seed family).
        stream_length: accesses per stream — sized so selector windows
            fill, saturate, and flip mid-stream.
        num_sets, ways: cache geometry.
        base_seed: offset folded into each stream's seed.

    Returns:
        A :class:`~repro.oracle.harness.CampaignReport`; each failing
        run contributes its first :class:`Divergence` and the campaign
        continues, covering both seed families for every pair.
    """
    if pairs is None:
        pairs = DUEL_PAIRS
    report = CampaignReport()
    for pair_index, pair in enumerate(pairs):
        for family in (1, 0):
            for stream_index in range(streams_per_combo):
                seed = (base_seed + 7919 * pair_index
                        + 311 * family + stream_index)
                events = hardware_stream(seed, num_sets, ways, stream_length)
                report.runs += 1
                report.events += len(events)
                divergence = run_columnar_differential(
                    pair, events, num_sets=num_sets, ways=ways, seed=seed
                )
                if divergence is not None:
                    report.divergences.append(divergence)
    return report
