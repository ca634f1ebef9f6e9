"""Golden-trace regression digests for the named workload suite.

A *golden digest* pins the exact integer behaviour of the simulator on
a small, fast slice of the named suite: per (workload, policy) —
accesses, misses, MPKI, evictions, writebacks, and for the adaptive
policy the per-set selector votes, switch count and fallback evictions
(for SBAR: the PSEL counter, its switch count and the leader, follower
and fallback eviction counts).
The digest lives under ``tests/golden/golden.json`` and is compared
bit-for-bit, so any change to policy decisions, workload generation or
the adaptive selector shows up as a named (workload, policy, field)
difference instead of a silently shifted MPKI.

Workflow (also via ``repro-experiments golden``):

* ``golden --check`` — recompute and diff against the pinned file;
* ``golden --regen`` — rewrite the pinned file (the JSON is rendered
  with sorted keys and fixed float rounding, so regeneration is
  byte-deterministic and diffs are reviewable).

Timing simulation is deliberately excluded: the digest covers the cache
decision machinery the oracle proves correct, and stays cheap enough to
run in tier-1 tests.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.core.adaptive import AdaptivePolicy
from repro.core.sbar import SbarPolicy
from repro.experiments.base import build_l2_policy, make_setup
from repro.utils.atomicio import atomic_write_text
from repro.workloads.suite import build_workload

#: Scale and trace length the digests are pinned at (small on purpose —
#: the digest guards decisions, not performance claims).
GOLDEN_SCALE = "mini"
GOLDEN_ACCESSES = 4000

#: Workloads covered: the paper's headline behaviours — LRU-friendly,
#: LFU-friendly, phase-changing, set-divergent and dithering.
GOLDEN_WORKLOADS = ("lucas", "art-1", "ammp", "mcf", "mgrid", "unepic")

#: Policies digested per workload.
GOLDEN_POLICIES = ("lru", "lfu", "adaptive", "sbar")

#: Placement strategies digested over the tiered KV topology, and the
#: key stream they replay (the phase-changing stream exercises every
#: adaptive partition selector).
GOLDEN_PLACEMENTS = ("lce", "lcd", "problcd", "adaptive")
GOLDEN_TIER_WORKLOAD = "phase-zipf"

#: Format tag bumped whenever the digest schema itself changes.
GOLDEN_FORMAT = 2


def default_golden_path() -> str:
    """Repo-relative pinned digest location (``tests/golden/golden.json``)."""
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    return str(repo_root / "tests" / "golden" / "golden.json")


def _digest_one(workload: str, policy_kind: str) -> Dict:
    """Digest one (workload, policy) cell of the golden matrix."""
    setup = make_setup(GOLDEN_SCALE, accesses=GOLDEN_ACCESSES)
    trace = build_workload(workload, setup.l2, accesses=GOLDEN_ACCESSES)
    policy = build_l2_policy(setup.l2, policy_kind)
    cache = SetAssociativeCache(setup.l2, policy)
    addresses, writes = trace.memory_stream()
    cache.access_many(addresses, writes)

    stats = cache.stats
    kilo_instructions = trace.instruction_count / 1000.0
    digest = {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "writebacks": stats.writebacks,
        "mpki": round(stats.misses / kilo_instructions, 6),
    }
    if isinstance(policy, AdaptivePolicy):
        decisions = policy.drain_decisions()
        votes = [sum(row[i] for row in decisions)
                 for i in range(len(policy.components))]
        majority = "".join(
            "-" if sum(row) == 0
            else str(max(range(len(row)), key=row.__getitem__))
            for row in decisions
        )
        digest["selector"] = {
            "votes": votes,
            "per_set_majority": majority,
            "switches": policy.selector_switches(),
            "fallback_evictions": policy.fallback_evictions,
            "component_misses": policy.component_misses(),
        }
    elif isinstance(policy, SbarPolicy):
        digest["sbar"] = {
            "psel": policy.selector.value,
            "switches": policy.selector.switches,
            "leader_evictions": policy.leader_evictions,
            "follower_evictions": policy.follower_evictions,
            "fallback_evictions": policy.fallback_evictions,
        }
    return digest


def _digest_tiers(placement_name: str) -> Dict:
    """Digest one placement strategy over the tiered KV topology.

    Replays the pinned key stream through the near/far topology of the
    ext-tiers experiment and records the integer serving counters —
    where every access was served from, what the backing absorbed, and
    the exact latency total — plus, for the adaptive strategy, the
    per-partition placement votes, majority and switch count. Any
    change to a placement decision or to the tier walk moves one of
    these fields.
    """
    from repro.experiments.ext_online import build_key_stream
    from repro.experiments.ext_tiers import build_topology

    setup = make_setup(GOLDEN_SCALE, accesses=GOLDEN_ACCESSES)
    capacity = setup.l2.num_lines
    keys = build_key_stream(GOLDEN_TIER_WORKLOAD, capacity, setup)
    front = build_topology(placement_name, capacity)
    for key in keys:
        front.get_or_compute(key, lambda k: k)
    stats = front.stats()
    digest = {
        "gets": stats["gets"],
        "tier_hits": stats["tier_hits"],
        "backing_fetches": stats["backing_fetches"],
        "serves": dict(stats["serves"]),
        "total_latency": stats["total_latency"],
    }
    placement = stats["placement"]
    if placement_name == "adaptive":
        digest["placement"] = {
            "components": placement["components"],
            "votes": placement["votes"],
            "majority": placement["majority"],
            "switches": placement["switches"],
            "decisions": placement["decisions"],
        }
    return digest


def compute_digests() -> Dict:
    """The full golden digest for the pinned scale/workloads/policies."""
    digests = {
        "format": GOLDEN_FORMAT,
        "scale": GOLDEN_SCALE,
        "accesses": GOLDEN_ACCESSES,
        "experiments": {},
        "tiers": {
            placement: _digest_tiers(placement)
            for placement in GOLDEN_PLACEMENTS
        },
    }
    for workload in GOLDEN_WORKLOADS:
        digests["experiments"][workload] = {
            policy: _digest_one(workload, policy)
            for policy in GOLDEN_POLICIES
        }
    return digests


def render_digests(digests: Dict) -> str:
    """Canonical byte-deterministic JSON rendering of a digest tree."""
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


def _flatten(tree: Dict, prefix: str = "") -> Dict[str, object]:
    """Flatten a digest tree to dotted-path leaves for precise diffs."""
    flat: Dict[str, object] = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, path))
        else:
            flat[path] = value
    return flat


def diff_digests(pinned: Dict, current: Dict) -> List[str]:
    """Leaf-level differences between two digest trees, one per line."""
    flat_pinned = _flatten(pinned)
    flat_current = _flatten(current)
    lines = []
    for path in sorted(set(flat_pinned) | set(flat_current)):
        old = flat_pinned.get(path, "<absent>")
        new = flat_current.get(path, "<absent>")
        if old != new:
            lines.append(f"{path}: pinned={old!r} current={new!r}")
    return lines


def check_golden(path: Optional[str] = None) -> Tuple[bool, str]:
    """Compare the pinned digest file against freshly computed digests.

    Returns:
        ``(ok, message)`` — on failure the message lists every leaf
        difference and how to regenerate.
    """
    path = path or default_golden_path()
    try:
        pinned = json.loads(pathlib.Path(path).read_text())
    except FileNotFoundError:
        return False, (f"no golden file at {path}; run "
                       "'repro-experiments golden --regen' to create it")
    except json.JSONDecodeError as exc:
        return False, f"golden file {path} is not valid JSON: {exc}"
    current = compute_digests()
    differences = diff_digests(pinned, current)
    if differences:
        body = "\n".join(f"  {line}" for line in differences)
        return False, (
            f"golden digests diverged from {path} "
            f"({len(differences)} field(s)):\n{body}\n"
            "If the change is intended, re-pin with "
            "'repro-experiments golden --regen'."
        )
    return True, f"golden digests match {path}"


def regen_golden(path: Optional[str] = None) -> str:
    """Recompute and atomically rewrite the pinned digest file.

    Returns:
        The path written. Rendering is canonical (sorted keys, fixed
        rounding), so two regenerations of the same code produce
        byte-identical files.
    """
    path = path or default_golden_path()
    pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, render_digests(compute_digests()))
    return path
