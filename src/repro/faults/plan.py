"""Fault plans: *what* to corrupt, *how often*, and *when*.

A :class:`FaultPlan` is a declarative description of an injection
campaign against the adaptive machinery's auxiliary state. It names
fault sites (shadow tag arrays, per-set miss-history buffers, the SBAR
selector counter), a per-access injection rate for each, and an
optional access-index window. The plan is inert data; a
:class:`~repro.faults.injector.FaultInjector` arms it on a policy.

The paper's structural claim (Section 3.2) makes this safe by
construction: all of the targeted state is performance-only. Faults can
shift which component policy gets imitated — costing misses — but the
real cache's tag/data arrays are never touched, so a hit always returns
the right block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

SITE_SHADOW_TAGS = "shadow-tags"
SITE_HISTORY = "history"
SITE_SELECTOR = "selector"

ALL_SITES: Tuple[str, ...] = (SITE_SHADOW_TAGS, SITE_HISTORY, SITE_SELECTOR)

HISTORY_MODES: Tuple[str, ...] = ("scramble", "clear")


@dataclass(frozen=True)
class FaultSpec:
    """One fault site with its rate and access-window.

    Attributes:
        site: one of :data:`ALL_SITES`.
        rate: probability of injecting one fault at this site per
            policy access (0 disables the site, 1 faults every access).
        start: first access index (inclusive) at which the site fires.
        stop: access index (exclusive) after which the site goes quiet,
            or None for the whole run.
        bits: for ``shadow-tags``, number of tag bits flipped per event.
        mode: for ``history``, ``"scramble"`` (replace with random
            decisive events) or ``"clear"`` (wipe the buffer).
    """

    site: str
    rate: float
    start: int = 0
    stop: Optional[int] = None
    bits: int = 1
    mode: str = "scramble"

    def __post_init__(self):
        if self.site not in ALL_SITES:
            known = ", ".join(ALL_SITES)
            raise ValueError(f"unknown fault site {self.site!r}; known: {known}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError(
                f"stop ({self.stop}) must exceed start ({self.start})"
            )
        if self.bits <= 0:
            raise ValueError(f"bits must be positive, got {self.bits}")
        if self.mode not in HISTORY_MODES:
            known = ", ".join(HISTORY_MODES)
            raise ValueError(f"unknown history mode {self.mode!r}; known: {known}")

    def active_at(self, access_index: int) -> bool:
        """Whether this site can fire at ``access_index``."""
        if access_index < self.start:
            return False
        return self.stop is None or access_index < self.stop


@dataclass(frozen=True)
class FaultPlan:
    """A set of fault specs plus the campaign's RNG seed.

    Attributes:
        specs: the fault sites to exercise.
        seed: seed of the injector's deterministic RNG, so identical
            plans produce bit-identical corruption sequences.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """One default-shaped spec per site, all at the same ``rate``."""
        return cls(
            specs=tuple(FaultSpec(site, rate) for site in ALL_SITES),
            seed=seed,
        )


@dataclass
class FaultLog:
    """Counters of what an injector actually did.

    Attributes:
        accesses: policy accesses observed while armed.
        shadow_tag_flips: resident shadow tags corrupted.
        shadow_tag_aliased: flips whose new tag collided with a resident
            tag, dropping the block (absorbed by aliasing tolerance).
        shadow_tag_vacant: flip attempts that found an empty target set.
        history_scrambles: history buffers replaced with random events.
        history_clears: history buffers wiped.
        selector_writes: SBAR selector corruptions.
        inapplicable: events targeting a site the armed policy lacks
            (e.g. ``selector`` on a plain adaptive policy).
    """

    accesses: int = 0
    shadow_tag_flips: int = 0
    shadow_tag_aliased: int = 0
    shadow_tag_vacant: int = 0
    history_scrambles: int = 0
    history_clears: int = 0
    selector_writes: int = 0
    inapplicable: int = 0

    def injected(self) -> int:
        """Total faults actually landed in auxiliary state."""
        return (
            self.shadow_tag_flips
            + self.history_scrambles
            + self.history_clears
            + self.selector_writes
        )
