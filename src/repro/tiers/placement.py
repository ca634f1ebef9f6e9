"""Placement strategies: which tiers keep a copy of a value.

The paper adapts *which eviction policy* each cache set runs; this
module adds the orthogonal axis — *where* a value lands across a
multi-tier topology. A :class:`PlacementStrategy` is consulted by the
tier walker (:class:`~repro.tiers.kv.TieredKVCache`) after every access
is resolved and answers one question: given that the request was served
by tier ``served_index`` (or by the backing store), which tiers above
the serving one should admit a copy?

The fixed strategies are the classical on-path content-placement
family (Laoutaris et al., and icarus's ``onpath.py``):

* **LCE** (leave-copy-everywhere) — every tier on the path admits a
  copy; the inclusive-hierarchy default.
* **LCD** (leave-copy-down) — only the tier one level above the
  serving one admits a copy, so content climbs one tier per hit and
  single-use values never pollute the upper tiers.
* **probabilistic LCD** — LCD where each copy-down happens with
  probability ``p`` (seeded, deterministic), damping the climb rate.

:class:`~repro.tiers.adaptive.AdaptivePlacement` (its own module)
duels these strategies with the paper's selector machinery.

Tier indices are path positions: 0 is the tier closest to the client,
``num_tiers`` denotes the backing store.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

from repro.utils.rng import DeterministicRNG


class PlacementStrategy(abc.ABC):
    """Decides which tiers admit a copy after each resolved access.

    Subclasses set :attr:`name` and implement :meth:`copy_tiers`.
    Strategies are consulted in stream order by a single walker, so
    stateful strategies (seeded RNGs, adaptive selectors) are
    deterministic for a given access stream.
    """

    name: str = "abstract"

    def observe_access(self, key, is_write: bool = False) -> None:
        """Pre-decision hook, called once per walked access.

        Fixed strategies ignore it; the adaptive strategy replays the
        access through its per-component shadow topologies here,
        mirroring how :class:`~repro.core.adaptive.AdaptivePolicy`
        updates its shadow tag arrays in ``observe``.
        """

    @abc.abstractmethod
    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        """Tier indices (ascending) that should admit a copy of ``key``.

        Args:
            num_tiers: cache tiers on the walked path; ``served_index``
                equal to ``num_tiers`` means the backing store served.
            served_index: path position that served the request.
            key: the key (or block address) being placed.
        """

    def state_summary(self) -> dict:
        """Small JSON-friendly introspection blob (digests, reports)."""
        return {"name": self.name}


class LeaveCopyEverywhere(PlacementStrategy):
    """LCE: every tier above the serving one admits a copy."""

    name = "lce"

    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        if served_index == 0:
            return ()  # a top-tier hit, the common case: nothing above
        return tuple(range(min(served_index, num_tiers)))


class LeaveCopyDown(PlacementStrategy):
    """LCD: only the tier one level above the serving one admits.

    Content climbs one tier per hit: a backing fetch lands in the
    bottom cache tier, a bottom-tier hit promotes into the tier above
    it, and so on — so only genuinely re-referenced values ever reach
    the top tier.
    """

    name = "lcd"

    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        if served_index < 1:
            return ()
        return (min(served_index, num_tiers) - 1,)


class ProbabilisticLCD(PlacementStrategy):
    """LCD where each copy-down happens with probability ``p``.

    Args:
        p: copy-down probability in [0, 1].
        seed: RNG seed; the draw sequence is a pure function of the
            access stream, which is what lets the oracle spec replay
            it exactly.
    """

    name = "problcd"

    def __init__(self, p: float = 0.5, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self._rng = DeterministicRNG(seed)

    def copy_tiers(self, num_tiers: int, served_index: int, key
                   ) -> Tuple[int, ...]:
        if served_index < 1:
            return ()
        if self._rng.random() < self.p:
            return (min(served_index, num_tiers) - 1,)
        return ()

    def state_summary(self) -> dict:
        return {"name": self.name, "p": self.p}


#: Names accepted by :func:`make_placement`.
FIXED_PLACEMENTS = ("lce", "lcd", "problcd")


def make_placement(
    name: str,
    tier_capacities: Optional[Sequence[int]] = None,
    seed: int = 0,
    **kwargs,
) -> PlacementStrategy:
    """Build a placement strategy from its registry name.

    Args:
        name: ``"lce"``, ``"lcd"``, ``"problcd"`` or ``"adaptive"``.
        tier_capacities: per-tier entry capacities of the topology the
            strategy will drive; required by ``"adaptive"`` (its shadow
            topologies are sized from them) and ignored by the fixed
            strategies.
        seed: deterministic seed for stochastic strategies.
        kwargs: forwarded to the strategy constructor (e.g. ``p`` for
            ``problcd``, ``components``/``num_partitions`` for
            ``adaptive``).
    """
    if name == "lce":
        return LeaveCopyEverywhere(**kwargs)
    if name == "lcd":
        return LeaveCopyDown(**kwargs)
    if name == "problcd":
        return ProbabilisticLCD(seed=seed, **kwargs)
    if name == "adaptive":
        from repro.tiers.adaptive import AdaptivePlacement

        if tier_capacities is None:
            raise ValueError(
                "adaptive placement needs tier_capacities to size its "
                "shadow topologies"
            )
        return AdaptivePlacement(tier_capacities, seed=seed, **kwargs)
    known = ", ".join(FIXED_PLACEMENTS + ("adaptive",))
    raise ValueError(f"unknown placement strategy {name!r}; known: {known}")
