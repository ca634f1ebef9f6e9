"""The differential harness: real engines versus reference specs.

A *pair* couples one real engine with the reference spec configured
identically, and replays both from the same event stream. Every event
yields two :class:`~repro.oracle.spec.Decision` records — hit/miss,
evicted tag, and (for adaptive policies) the imitated component and the
miss-history state — which must agree exactly; afterwards the resident
contents are compared too. The first disagreement is reported as a
:class:`Divergence` carrying the step, the event and the replayable
stream seed.

Three entry points:

* :func:`run_differential` — one pair, one stream, first divergence;
* :func:`differential_campaign` — every registered policy (plus the
  adaptive combination) x {hardware set array, online shard} over many
  seeded streams;
* :func:`check_cross_engine` — the same policy instance driving a 1-set
  :class:`~repro.cache.cache.SetAssociativeCache` and a
  :class:`~repro.online.shard.CacheShard` from one key stream, proving
  the two engines are the same cache in different clothes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.adaptive import AdaptivePolicy
from repro.core.multi import make_adaptive
from repro.online.keyspace import key_fingerprint, partial_fingerprint_transform
from repro.online.policies import build_shard_policy
from repro.online.shard import CacheShard
from repro.oracle.placement_spec import (
    PlacementDecision,
    SpecTieredKV,
    make_placement_spec,
    placement_spec_names,
)
from repro.oracle.spec import Decision, SpecCache, make_adaptive_spec, make_spec
from repro.oracle.streams import hardware_stream, shard_ops
from repro.policies.registry import available_policies, make_policy
from repro.tiers.adaptive import AdaptivePlacement
from repro.tiers.kv import KVTier, TieredKVCache
from repro.tiers.placement import make_placement

#: Policies whose constructors take a ``seed`` argument.
_SEEDED_POLICIES = ("random", "bip")

#: Default shadow-directory width for adaptive shard policies.
_SHARD_PARTIAL_BITS = 16


@dataclass(frozen=True)
class Divergence:
    """First point where an engine and its spec disagreed.

    Attributes:
        step: 0-based index of the offending event in the stream.
        event: the event itself (a hardware triple or a shard op pair).
        engine: the real engine's decision.
        spec: the reference spec's decision.
        label: which pair diverged (policy and engine kind).
        seed: stream seed; replaying it reproduces the divergence.
        detail: extra context — e.g. a resident-contents mismatch found
            after the decisions themselves agreed.
    """

    step: int
    event: tuple
    engine: Decision
    spec: Decision
    label: str
    seed: Optional[int] = None
    detail: str = ""

    def describe(self) -> str:
        """Human-readable one-paragraph report of the divergence."""
        lines = [
            f"[{self.label}] diverged at step {self.step} "
            f"on event {self.event!r} (seed={self.seed})",
            f"  engine: {self.engine}",
            f"  spec:   {self.spec}",
        ]
        if self.detail:
            lines.append(f"  detail: {self.detail}")
        return "\n".join(lines)


def _adaptive_decision(
    policy: AdaptivePolicy, set_index: int, hit: bool,
    evicted_tag: Optional[int],
) -> Decision:
    """Assemble an engine-side Decision with adaptive introspection.

    The imitated component equals ``best_component()`` read *after* the
    access: the history is recorded in ``observe`` (before the victim
    choice) and untouched until the next access, so the post-access
    reading reproduces the choice ``victim`` made, ties included.
    """
    selector = policy.selectors[set_index]
    history = tuple(
        selector.history.misses(i) for i in range(len(policy.components))
    )
    imitated = None
    if evicted_tag is not None:
        imitated = selector.best_component()
    return Decision(hit=hit, evicted_tag=evicted_tag, imitated=imitated,
                    history=history)


def _seed_kwargs(name: str, seed: int) -> dict:
    """Constructor kwargs carrying the seed, for policies that take one."""
    return {"seed": seed} if name in _SEEDED_POLICIES else {}


class HardwarePair:
    """A :class:`SetAssociativeCache` coupled with its reference spec.

    Events are ``(set_index, tag, is_write)`` triples (see
    :func:`repro.oracle.streams.hardware_stream`).
    """

    def __init__(self, cache: SetAssociativeCache, spec: SpecCache,
                 label: str):
        self.cache = cache
        self.spec = spec
        self.label = label

    @property
    def policy(self):
        """The real engine's replacement policy (fault-injection surface)."""
        return self.cache.policy

    def apply(self, event: Tuple[int, int, bool]) -> Tuple[Decision, Decision]:
        """Replay one access through both sides; returns their decisions."""
        set_index, tag, is_write = event
        result = self.cache.access_decomposed(set_index, tag, is_write)
        if isinstance(self.cache.policy, AdaptivePolicy):
            engine = _adaptive_decision(
                self.cache.policy, set_index, result.hit, result.evicted_tag
            )
        else:
            engine = Decision(hit=result.hit, evicted_tag=result.evicted_tag)
        spec = self.spec.access(set_index, tag, is_write)
        return engine, spec

    def verify_state(self, event: Tuple[int, int, bool]) -> Optional[str]:
        """Way-exact resident-contents check of the touched set."""
        set_index = event[0]
        engine_slots = [
            self.cache.sets[set_index].tag_at(w)
            for w in range(self.cache.config.ways)
        ]
        spec_slots = list(self.spec.slots[set_index])
        if engine_slots != spec_slots:
            return (f"set {set_index} contents differ: engine={engine_slots} "
                    f"spec={spec_slots}")
        return None


class ShardPair:
    """A :class:`CacheShard` coupled with its reference spec.

    Events are ``(op, key)`` pairs (see
    :func:`repro.oracle.streams.shard_ops`); the shard is observed purely
    through its public API — a sentinel default detects ``get`` misses, a
    recording loader detects demand fills, and
    ``resident_keys()`` diffs expose evictions.
    """

    _MISS = object()

    def __init__(self, shard: CacheShard, spec: SpecCache, label: str):
        self.shard = shard
        self.spec = spec
        self.label = label

    @property
    def policy(self):
        """The shard's replacement policy (fault-injection surface)."""
        return self.shard.policy

    def _evicted_fingerprint(self, before: set, after: set) -> Optional[int]:
        """Fingerprint of the key that left the shard, if any."""
        gone = before - after
        if not gone:
            return None
        (key,) = gone
        return key_fingerprint(key)

    def apply(self, event: Tuple[str, int]) -> Tuple[Decision, Decision]:
        """Replay one shard operation through both sides."""
        op, key = event
        fingerprint = key_fingerprint(key)

        if op == "get":
            value = self.shard.get(key, default=self._MISS)
            hit = value is not self._MISS
            engine = self._engine_decision(hit, None)
            spec = self.spec.access(0, fingerprint, False, fill_on_miss=False)
        elif op == "get_or_compute":
            before = set(self.shard.resident_keys())
            computed = []

            def loader(k):
                """Record that the shard missed and demanded a fill."""
                computed.append(k)
                return ("value", k)

            self.shard.get_or_compute(key, loader)
            after = set(self.shard.resident_keys())
            engine = self._engine_decision(
                not computed, self._evicted_fingerprint(before, after)
            )
            spec = self.spec.access(0, fingerprint, False)
        elif op == "put":
            before = set(self.shard.resident_keys())
            self.shard.put(key, ("value", key))
            after = set(self.shard.resident_keys())
            engine = self._engine_decision(
                key in before, self._evicted_fingerprint(before, after)
            )
            spec = self.spec.access(0, fingerprint, True)
        elif op == "delete":
            removed = self.shard.delete(key)
            engine = Decision(hit=removed)
            spec = self.spec.remove(0, fingerprint)
        else:
            raise ValueError(f"unknown shard op {op!r}")
        return engine, spec

    def _engine_decision(self, hit: bool, evicted: Optional[int]) -> Decision:
        """Wrap an observed shard outcome, adding adaptive introspection."""
        if isinstance(self.shard.policy, AdaptivePolicy):
            return _adaptive_decision(self.shard.policy, 0, hit, evicted)
        return Decision(hit=hit, evicted_tag=evicted)

    def verify_state(self, event: Tuple[str, int]) -> Optional[str]:
        """Resident fingerprints must match the spec's resident tags."""
        engine = sorted(
            key_fingerprint(k) for k in self.shard.resident_keys()
        )
        spec = sorted(self.spec.resident_in_way_order(0))
        if engine != spec:
            return f"residency differs: engine={engine} spec={spec}"
        return None


def build_hardware_pair(
    policy_name: str,
    num_sets: int = 4,
    ways: int = 4,
    seed: int = 0,
    components: Sequence[str] = ("lru", "lfu"),
) -> HardwarePair:
    """Couple a hardware cache and its spec for one registry policy.

    ``policy_name`` may be any registered policy or ``"adaptive"``
    (Algorithm 1 over ``components``, full tags). Seeded policies get
    ``seed`` on both sides, so the coupled RNG streams stay in lockstep.
    """
    config = CacheConfig(size_bytes=num_sets * ways * 64, ways=ways)
    if policy_name == "adaptive":
        component_kwargs = {
            name: _seed_kwargs(name, seed + 1) for name in components
        }
        policy = make_adaptive(
            num_sets, ways, components, seed=seed,
            component_kwargs=component_kwargs,
        )
        spec = make_adaptive_spec(
            num_sets, ways, components, seed=seed,
            component_kwargs=component_kwargs,
        )
    else:
        kwargs = _seed_kwargs(policy_name, seed)
        policy = make_policy(policy_name, num_sets, ways, **kwargs)
        spec = make_spec(policy_name, num_sets, ways, **kwargs)
    cache = SetAssociativeCache(config, policy)
    spec_cache = SpecCache(num_sets, ways, spec, allocation="lowest")
    return HardwarePair(cache, spec_cache, f"hardware:{policy_name}")


def build_shard_pair(
    policy_name: str,
    capacity: int = 8,
    seed: int = 0,
    components: Sequence[str] = ("lru", "lfu"),
    partial_bits: Optional[int] = _SHARD_PARTIAL_BITS,
) -> ShardPair:
    """Couple an online shard and its spec for one policy kind.

    Mirrors :func:`repro.online.policies.build_shard_policy` exactly:
    adaptive shards use partial (by default 16-bit) fingerprint shadow
    directories, and only ``random`` components receive the seed.
    """
    policy = build_shard_policy(policy_name, capacity,
                                components=components,
                                partial_bits=partial_bits, seed=seed)
    shard = CacheShard(capacity, policy)
    if policy_name == "adaptive":
        spec = make_adaptive_spec(
            1, capacity, components,
            tag_transform=partial_fingerprint_transform(partial_bits),
            seed=seed,
            component_kwargs={"random": {"seed": seed}},
        )
    else:
        kwargs = {"seed": seed} if policy_name == "random" else {}
        spec = make_spec(policy_name, 1, capacity, **kwargs)
    spec_cache = SpecCache(1, capacity, spec, allocation="stack")
    return ShardPair(shard, spec_cache, f"shard:{policy_name}")


def run_differential(pair, events: Sequence[tuple],
                     seed: Optional[int] = None) -> Optional[Divergence]:
    """Replay ``events`` through a pair; returns the first divergence.

    Each event's two decisions are compared field-for-field, then the
    pair's resident contents are checked, so a silent state drift is
    caught at the access that introduced it rather than when it later
    changes a victim choice.
    """
    for step, event in enumerate(events):
        engine, spec = pair.apply(event)
        if engine != spec:
            return Divergence(step=step, event=event, engine=engine,
                              spec=spec, label=pair.label, seed=seed)
        detail = pair.verify_state(event)
        if detail is not None:
            return Divergence(step=step, event=event, engine=engine,
                              spec=spec, label=pair.label, seed=seed,
                              detail=detail)
    return None


@dataclass
class CampaignReport:
    """Outcome of a differential campaign.

    Attributes:
        runs: number of (pair, stream) runs executed.
        events: total events replayed across all runs.
        divergences: every first-divergence found (empty = all agree).
    """

    runs: int = 0
    events: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every stream agreed on every decision."""
        return not self.divergences

    def summary(self) -> str:
        """One line for logs, or full divergence reports on failure."""
        if self.ok:
            return (f"differential campaign: {self.runs} runs / "
                    f"{self.events} events, no divergence")
        reports = "\n".join(d.describe() for d in self.divergences)
        return (f"differential campaign: {len(self.divergences)} of "
                f"{self.runs} runs diverged\n{reports}")


def differential_campaign(
    policies: Optional[Sequence[str]] = None,
    engines: Sequence[str] = ("hardware", "shard"),
    streams_per_combo: int = 16,
    stream_length: int = 150,
) -> CampaignReport:
    """Differential-test policies x engines over seeded random streams.

    The hardware pairs are 4 sets x 4 ways; the shard pairs hold 8
    entries.

    Args:
        policies: policy names to cover; defaults to every registered
            policy plus ``"adaptive"``.
        engines: ``"hardware"`` and/or ``"shard"``.
        streams_per_combo: independent streams per (policy, engine).
        stream_length: events per stream.

    Returns:
        A :class:`CampaignReport`; a failing run contributes its first
        :class:`Divergence` (with the replayable seed) and the campaign
        continues, so one report shows every broken combination.
    """
    if policies is None:
        policies = available_policies() + ["adaptive"]
    report = CampaignReport()
    for policy_index, policy_name in enumerate(policies):
        for engine_index, engine in enumerate(engines):
            for stream_index in range(streams_per_combo):
                seed = 10007 * policy_index + 101 * engine_index + stream_index
                if engine == "hardware":
                    pair = build_hardware_pair(policy_name, 4, 4, seed=seed)
                    events = hardware_stream(seed, 4, 4, stream_length)
                elif engine == "shard":
                    pair = build_shard_pair(policy_name, 8, seed=seed)
                    events = shard_ops(seed, 8, stream_length)
                else:
                    raise ValueError(f"unknown engine {engine!r}")
                report.runs += 1
                report.events += len(events)
                divergence = run_differential(pair, events, seed=seed)
                if divergence is not None:
                    report.divergences.append(divergence)
    return report


def check_cross_engine(
    policy_name: str,
    capacity: int = 8,
    length: int = 400,
    seed: int = 0,
) -> Optional[Divergence]:
    """Prove a 1-set hardware cache and an online shard decide alike.

    Two identically-constructed shard policies (adaptive ones over LRU
    and LFU) drive, respectively, a 1 x ``capacity``
    :class:`~repro.cache.cache.SetAssociativeCache` and a
    :class:`~repro.online.shard.CacheShard`; both replay the same key
    stream of demand fills (``get_or_compute`` vs a read access) and
    writes (``put`` vs a write access). Deletes are excluded: without
    them both engines allocate ways in the same ascending order and
    evict in place, so even way-sensitive policies (random, srrip) must
    agree tag-for-tag.

    Returns:
        None on full agreement, else a :class:`Divergence` whose
        ``engine`` side is the hardware cache and ``spec`` side the
        shard.
    """
    hw_policy = build_shard_policy(policy_name, capacity, seed=seed)
    shard_policy = build_shard_policy(policy_name, capacity, seed=seed)
    config = CacheConfig(size_bytes=capacity * 64, ways=capacity)
    cache = SetAssociativeCache(config, hw_policy)
    shard = CacheShard(capacity, shard_policy)

    ops = shard_ops(seed, capacity, length)
    label = f"cross:{policy_name}"
    for step, (op, key) in enumerate(ops):
        if op == "delete":
            op = "put"
        elif op == "get":
            op = "get_or_compute"
        fingerprint = key_fingerprint(key)
        is_write = op == "put"
        result = cache.access_decomposed(0, fingerprint, is_write)
        if isinstance(hw_policy, AdaptivePolicy):
            hw_decision = _adaptive_decision(
                hw_policy, 0, result.hit, result.evicted_tag
            )
        else:
            hw_decision = Decision(hit=result.hit,
                                   evicted_tag=result.evicted_tag)

        before = set(shard.resident_keys())
        if is_write:
            shard.put(key, ("value", key))
            hit = key in before
        else:
            computed = []
            shard.get_or_compute(
                key, lambda k: (computed.append(k), ("value", k))[1]
            )
            hit = not computed
        after = set(shard.resident_keys())
        gone = before - after
        evicted = key_fingerprint(next(iter(gone))) if gone else None
        if isinstance(shard_policy, AdaptivePolicy):
            shard_decision = _adaptive_decision(shard_policy, 0, hit, evicted)
        else:
            shard_decision = Decision(hit=hit, evicted_tag=evicted)

        if hw_decision != shard_decision:
            return Divergence(step=step, event=(op, key), engine=hw_decision,
                              spec=shard_decision, label=label, seed=seed)
    return None


# ---------------------------------------------------------------------------
# Placement differential: the tiered KV walker versus its reference spec.


class TieredKVPair:
    """A :class:`~repro.tiers.kv.TieredKVCache` coupled with its spec.

    Events are the same ``(op, key)`` pairs the shard pairs replay
    (:func:`repro.oracle.streams.shard_ops`): the real walker runs over
    LRU-policy shard tiers, the spec restates the same topology as
    plain recency lists, and every operation's
    :class:`~repro.oracle.placement_spec.PlacementDecision` — serving level and
    admitted tiers — must agree, then the full per-tier residency (and,
    for adaptive placement, the per-partition votes).
    """

    def __init__(self, cache, spec, label: str):
        self.cache = cache
        self.spec = spec
        self.label = label

    def apply(self, event: Tuple[str, int]) -> Tuple[
            "PlacementDecision", "PlacementDecision"]:
        """Replay one operation through both sides."""
        op, key = event
        if op == "get":
            result = self.cache.get_detailed(key)
            engine = PlacementDecision(result.found, result.served_by,
                                       result.admitted)
            spec = self.spec.get(key)
        elif op == "get_or_compute":
            result = self.cache.fetch(key, lambda k: ("value", k))
            engine = PlacementDecision(result.found, result.served_by,
                                       result.admitted)
            spec = self.spec.fetch(key)
        elif op == "put":
            result = self.cache.put(key, ("value", key))
            engine = PlacementDecision(result.found, result.served_by,
                                       result.admitted)
            spec = self.spec.put(key)
        elif op == "delete":
            engine = PlacementDecision(found=self.cache.delete(key))
            spec = self.spec.delete(key)
        else:
            raise ValueError(f"unknown tiered op {op!r}")
        return engine, spec

    def verify_state(self, event: Tuple[str, int]) -> Optional[str]:
        """Per-tier residency (and adaptive votes) must match the spec."""
        for index, tier in enumerate(self.cache.tiers):
            engine_keys = sorted(tier.store.resident_keys())
            spec_keys = self.spec.resident(index)
            if engine_keys != spec_keys:
                return (f"tier {tier.name!r} residency differs: "
                        f"engine={engine_keys} spec={spec_keys}")
        if isinstance(self.cache.placement, AdaptivePlacement):
            engine_votes = self.cache.placement.votes()
            spec_votes = self.spec.placement.votes()
            if engine_votes != spec_votes:
                return (f"adaptive votes differ: engine={engine_votes} "
                        f"spec={spec_votes}")
        return None


def build_tiered_kv_pair(
    placement_name: str,
    tier_capacities: Sequence[int] = (4, 12),
    seed: int = 0,
) -> TieredKVPair:
    """Couple a tiered KV cache and its spec for one placement strategy.

    Every tier is an LRU :class:`~repro.online.shard.CacheShard` (the
    spec restates LRU tiers only — replacement-policy variety is the
    policy campaign's job; here the variable under test is placement).
    """
    caps = list(tier_capacities)
    tiers = [
        KVTier(f"t{index}", CacheShard(cap, build_shard_policy("lru", cap)),
               cap)
        for index, cap in enumerate(caps)
    ]
    cache = TieredKVCache(
        tiers,
        placement=make_placement(
            placement_name, tier_capacities=caps, seed=seed
        ),
    )
    spec = SpecTieredKV(
        [tier.name for tier in tiers],
        caps,
        make_placement_spec(placement_name, tier_capacities=caps, seed=seed),
    )
    label = f"tiered[{'x'.join(map(str, caps))}]:{placement_name}"
    return TieredKVPair(cache, spec, label)


#: The tier-capacity shapes :func:`placement_campaign` covers: two and
#: three tiers.
PLACEMENT_TOPOLOGIES = ((4, 12), (3, 6, 18))


def placement_campaign(
    placements: Optional[Sequence[str]] = None,
    streams_per_combo: int = 16,
    stream_length: int = 150,
) -> CampaignReport:
    """Differential-test placement strategies over seeded op streams.

    The placement analogue of :func:`differential_campaign`: every
    placement strategy with a spec (LCE, LCD, probabilistic LCD and the
    adaptive duel), on each of :data:`PLACEMENT_TOPOLOGIES`, over
    independent seeded streams — first divergences are collected, the
    campaign continues.
    """
    if placements is None:
        placements = placement_spec_names()
    report = CampaignReport()
    for placement_index, placement_name in enumerate(placements):
        for topo_index, tier_capacities in enumerate(PLACEMENT_TOPOLOGIES):
            for stream_index in range(streams_per_combo):
                seed = 10007 * placement_index + 101 * topo_index + stream_index
                pair = build_tiered_kv_pair(
                    placement_name, tier_capacities, seed=seed
                )
                events = shard_ops(
                    seed, sum(tier_capacities), stream_length
                )
                report.runs += 1
                report.events += len(events)
                divergence = run_differential(pair, events, seed=seed)
                if divergence is not None:
                    report.divergences.append(divergence)
    return report
