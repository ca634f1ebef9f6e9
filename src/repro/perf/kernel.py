"""Columnar shadow-directory kernel for the adaptive hotpath.

The scalar hotpath (:meth:`repro.cache.cache.SetAssociativeCache.access_many`)
pays Algorithm 1's full price on every reference: two shadow tag-array
lookups, a miss-history update, and the victim imitation dance, all through
per-access method dispatch. This module replays the same batch *columnar*:

* the address batch is decomposed and grouped by set with numpy
  (``argsort``/``bincount``/``cumsum`` — a struct-of-arrays view of the
  access stream: one column of tags, one of arrival ranks, one of write
  flags);
* each touched set is then simulated to completion in one fused Python
  loop whose state — the real set's tag dict, both shadow directories,
  and the selector's bit-vector window — has been hoisted into local
  scalars, dicts and flat lists (the shadow directories' struct-of-arrays
  form: a key list per way for LFU ranks, a recency-ordered dict for LRU,
  stamp rows for MRU);
* the loop body is *generated* per (policyA, policyB) duel pair, so each
  registered pair gets a specialized fast path with no per-access
  polymorphism, and compiled once per process.

Decision identity
-----------------

The kernel is byte-identical to the scalar path in every observable
output: ``CacheStats``, per-set miss counters, the full policy
``state_dict()`` (component metadata, shadow contents, selector windows,
switch counts, decision counters, fallback evictions) and the resulting
``CacheSet`` tags/dirty bits. The golden digests and the differential
oracle campaign run with the kernel on and must not move. Two kinds
of *non-observable* internal state are allowed to differ, exactly as
they are after a ``load_state_dict`` round-trip (both are excluded from
``state_dict()``):

* the kernel ends with ``AdaptivePolicy.drop_derived_state()``: it
  forgets the last access's replay outcomes (they only carry
  information between ``observe`` and ``victim`` within one access)
  and each set's row of stored real tags (kept by ``on_fill``, which
  the kernel bypasses when it writes ``CacheSet._tags``; the next
  scalar ``victim`` rebuilds a row from the set itself);
* the LRU shadow ``TagArray``'s per-set dict iteration order is recency
  order rather than fill order (the dict is an index, not state;
  ``state_dict`` serializes the way-indexed tag list).

Saturation skipping
-------------------

When a set's selector window is full and unanimous, a decisive event
that blames the *same* loser shifts the window into itself: the window,
the counts and the imitated component are all unchanged, so the kernel
elides the history update. The guard fails on a phase change (the first
decisive event blaming the other component), so the window resumes
recording with no re-arm protocol. Unlike SBAR's leader-set sampling,
nothing else may be skipped without breaking byte-identity: the shadow
directories themselves are observable state.

When the scalar path is used
----------------------------

One rule picks the kernel, from what the code can observe: a batch runs
columnar exactly when :func:`kernel_plan` accepts the cache and the
batch has at least :data:`AUTO_MIN_BATCH` accesses. :func:`kernel_plan`
returns None for anything outside the specialized envelope: non-adaptive
policies, more or fewer than two components, unregistered component
kinds, non-identity tag transforms, a random fallback, counter
histories, and an attached fault injector or vote sink.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import AdaptivePolicy
from repro.core.history import BitVectorHistory
from repro.core.selector import PolicySelector
from repro.perf.kernel_codegen import build_duel_source
from repro.policies.fifo import FIFOPolicy
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.mru import MRUPolicy

#: Batches below this size stay on the scalar path: the numpy
#: decompose/sort setup costs more than it saves.
AUTO_MIN_BATCH = 512

_COMPONENT_KINDS = {
    LRUPolicy: "lru",
    FIFOPolicy: "fifo",
    LFUPolicy: "lfu",
    MRUPolicy: "mru",
}


def kernel_plan(cache) -> Optional[Tuple[str, str]]:
    """The (kindA, kindB) duel pair the kernel would specialize for
    ``cache``, or None when the cache is outside the supported envelope
    and the scalar path must be used.

    The envelope (checked exactly, on concrete types, so subclasses with
    overridden behavior never silently take the fast path): an
    :class:`~repro.core.adaptive.AdaptivePolicy` over exactly two
    components drawn from {lru, fifo, lfu, mru}, identity tag transform,
    ``lru`` fallback, per-set :class:`PolicySelector` instances over
    :class:`BitVectorHistory` windows, and no fault injector or vote
    sink attached.
    """
    policy = cache.policy
    if type(policy) is not AdaptivePolicy:
        return None
    if policy.fault_injector is not None or policy.vote_sink is not None:
        return None
    if not policy._identity or policy.fallback != "lru":
        return None
    components = policy.components
    if len(components) != 2:
        return None
    kind_a = _COMPONENT_KINDS.get(type(components[0]))
    kind_b = _COMPONENT_KINDS.get(type(components[1]))
    if kind_a is None or kind_b is None:
        return None
    for selector in policy.selectors:
        if type(selector) is not PolicySelector:
            return None
        if type(selector.history) is not BitVectorHistory:
            return None
    return (kind_a, kind_b)


def _columnar_plan(cache, batch_size: int) -> Optional[Tuple[str, str]]:
    """The selection rule: the duel pair a batch of ``batch_size``
    accesses against ``cache`` runs columnar on, or None for the scalar
    loop."""
    if batch_size < AUTO_MIN_BATCH:
        return None
    return kernel_plan(cache)


def kernel_name(cache, batch_size: int) -> str:
    """Which kernel a batch against ``cache`` would run on, as a label
    for benchmark output: ``"columnar"`` or ``"scalar"``."""
    return "scalar" if _columnar_plan(cache, batch_size) is None else "columnar"


_DUEL_FNS: dict = {}


def _duel_fn(plan: Tuple[str, str]):
    fn = _DUEL_FNS.get(plan)
    if fn is None:
        source = build_duel_source(*plan)
        namespace = {"deque": deque, "np": np}
        exec(compile(source, f"<columnar {plan[0]}+{plan[1]}>", "exec"), namespace)
        fn = namespace["_kernel"]
        _DUEL_FNS[plan] = fn
    return fn


def _run(plan, cache, addresses, writes, rec) -> int:
    offset_bits, index_mask, tag_shift = cache.config.decomposition()
    arr = np.asarray(addresses, dtype=np.int64)
    sets_arr = (arr >> offset_bits) & index_mask
    order = np.argsort(sets_arr, kind="stable")
    counts = np.bincount(sets_arr, minlength=cache.config.num_sets)
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    writes_sorted = None
    if writes is not None:
        writes_sorted = np.asarray(writes, dtype=bool)[order].tolist()
    return _duel_fn(plan)(
        cache,
        len(arr),
        np.flatnonzero(counts).tolist(),
        starts.tolist(),
        (arr >> tag_shift)[order].tolist(),
        order.tolist(),
        writes_sorted,
        rec,
    )


def maybe_columnar(cache, addresses, writes=None) -> Optional[int]:
    """The dispatch hook behind ``SetAssociativeCache.access_many``.

    Returns the hit count when the columnar kernel ran the batch, or
    None when the scalar loop should (see :func:`_columnar_plan`).
    ``writes``, when given, must match ``addresses`` in length;
    ``access_many`` checks that before dispatching.
    """
    plan = _columnar_plan(cache, len(addresses))
    if plan is None:
        return None
    return _run(plan, cache, addresses, writes, None)


def columnar_access_many(
    cache,
    addresses: Sequence[int],
    writes: Optional[Sequence[bool]] = None,
    record: Optional[List[bool]] = None,
) -> int:
    """Run one batch through the columnar kernel unconditionally.

    Unlike :func:`maybe_columnar` this ignores the batch threshold, and
    raises ValueError for unsupported caches — the entry point for
    differential tests and the oracle's columnar lane.

    Args:
        record: optional ``[False] * len(addresses)`` list; the kernel
            sets ``record[i]`` True for every hit, in original access
            order.
    """
    plan = kernel_plan(cache)
    if plan is None:
        raise ValueError(
            "columnar kernel does not support this cache; see kernel_plan() "
            "for the supported envelope"
        )
    if writes is not None and len(writes) != len(addresses):
        raise ValueError("writes must have the same length as addresses")
    return _run(plan, cache, addresses, writes, record)


def columnar_hit_stream(
    cache,
    addresses: Sequence[int],
    writes: Optional[Sequence[bool]] = None,
) -> Optional[List[bool]]:
    """Advance ``cache`` through a whole batch, returning the per-access
    hit stream — or None when the scalar path should run.

    The timing model replays its compiled L2 records and only consumes
    ``result.hit`` per access, so it can precompute the whole hit stream
    here and keep its cycle-accounting loop unchanged.
    """
    plan = _columnar_plan(cache, len(addresses))
    if plan is None:
        return None
    rec = [False] * len(addresses)
    _run(plan, cache, addresses, writes, rec)
    return rec
