"""First-In-First-Out replacement."""

from __future__ import annotations

from repro.policies.lru import _LinkedOrderPolicy


class FIFOPolicy(_LinkedOrderPolicy):
    """FIFO: evict the valid block that was *installed* longest ago.

    The same intrusive list as :class:`~repro.policies.lru.LRUPolicy`,
    except that hits do not move a way — a block's position is fixed at
    fill time.
    """

    name = "fifo"

    def on_hit(self, set_index: int, way: int) -> None:
        self._check_slot(set_index, way)
