"""Key streams: workloads for the online key-value engine.

The online engine (:mod:`repro.online`) is driven by *keys*, not
addresses. These generators re-express the locality classes of
:mod:`repro.workloads.synth` as key streams — Zipf skew (the pattern
LFU exploits), one-pass scans over a hot set (LRU's nemesis), loops
slightly larger than the cache (LRU-thrashing), and phase changes that
flip between those regimes, the workload shape the adaptive scheme
exists for. A bridge, :func:`keys_from_trace`, replays the simulator's
address traces as key streams so the same named benchmarks (ammp, mcf,
...) can exercise the engine.

Keys are strings (``"prefix:line"``) so generators compose without
colliding: distinct prefixes are distinct key universes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import (
    ClassVar,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.utils.rng import DeterministicRNG
from repro.workloads.synth import (
    linear_loop,
    scan_with_hot,
    zipf_stream,
)
from repro.workloads.trace import Trace


def _name(prefix: str, lines: Sequence[int]) -> List[str]:
    """Render a line stream as namespaced string keys."""
    return [f"{prefix}:{line}" for line in lines]


def zipf_keys(
    universe: int, accesses: int, seed: int = 0, prefix: str = "z"
) -> List[str]:
    """Zipf(1.1)-distributed keys: few hot keys, a long cold tail.

    The canonical web/memoization key distribution — frequency skew
    that LFU-style retention exploits.
    """
    return _name(prefix, zipf_stream(universe, accesses, seed=seed))


def loop_keys(
    footprint: int, accesses: int, prefix: str = "loop"
) -> List[str]:
    """A cyclic sweep over ``footprint`` keys.

    With a footprint slightly above capacity this thrashes LRU (every
    access misses) while MRU/LFU retain a stable resident subset.
    """
    return _name(prefix, linear_loop(footprint, accesses))


def scan_keys(
    hot: int,
    scan: int,
    accesses: int,
    hot_fraction: float = 0.5,
    seed: int = 0,
) -> List[str]:
    """A reused hot set interleaved with a one-pass scan.

    The media/batch pattern: LFU keeps the hot set resident, LRU lets
    the single-use scan flush it.
    """
    return _name(
        "s",
        scan_with_hot(hot, scan, accesses, hot_fraction=hot_fraction, seed=seed),
    )


def phase_change_keys(
    hot_universe: int,
    loop_footprint: int,
    accesses: int,
    phases: int = 4,
    seed: int = 0,
) -> List[str]:
    """Alternating Zipf and loop phases over disjoint key universes.

    Even phases draw Zipf-skewed keys from one universe (frequency
    locality — LFU's regime); odd phases sweep a loop over another
    (recency-hostile — where LFU's stale counts hurt and an adaptive
    cache must switch). This is the workload class the paper's Figure 7
    shows for ammp, expressed over keys; the ``ext-online`` acceptance
    check runs on it. Keys are ``"p-hot:<n>"`` and ``"p-loop:<n>"``.
    """
    if phases <= 0:
        raise ValueError(f"phases must be positive, got {phases}")
    per_phase = -(-accesses // phases)
    stream: List[str] = []
    for phase in range(phases):
        want = min(per_phase, accesses - len(stream))
        if want <= 0:
            break
        if phase % 2 == 0:
            stream.extend(
                zipf_keys(hot_universe, want, seed=seed + phase,
                          prefix="p-hot")
            )
        else:
            stream.extend(
                loop_keys(loop_footprint, want, prefix="p-loop")
            )
    return stream


# ----------------------------------------------------------------------
# Open-loop load generation (the serving harness's event layer)
# ----------------------------------------------------------------------
#
# A closed-loop replay issues the next key as soon as the previous one
# answers; production serving is *open-loop* — requests arrive on their
# own schedule whether or not the server keeps up. The generators below
# produce timestamped request events for :mod:`repro.serve`: Poisson or
# bursty MMPP arrivals, Zipf popularity, YCSB-style A-D op mixes,
# per-client rate skew via a beta mixture (icarus's
# ``StationaryPacketLevelWorkload`` client model), and a trace-driven
# mode that replays a saved simulator trace on a Poisson clock.
#
# Everything is deterministic: a stream is a pure function of its spec
# and seed, regenerated from fresh forked RNGs on every iteration, so
# the same spec yields bit-identical events no matter how (or how many
# times, or in what chunking) it is consumed.


class Request(NamedTuple):
    """One open-loop request event.

    Attributes:
        at: arrival time in seconds from stream start (monotonically
            non-decreasing within a stream).
        key: the cache key addressed.
        op: ``"read"``, ``"update"`` or ``"insert"`` (YCSB verbs).
        client: issuing client id in ``[0, clients)``.
    """

    at: float
    key: str
    op: str
    client: int


#: YCSB core workload op mixes (read/update/insert fractions). D's
#: inserts grow the key universe and its reads skew toward the newest
#: keys ("read latest").
YCSB_MIXES = {
    "A": (("read", 0.5), ("update", 0.5)),
    "B": (("read", 0.95), ("update", 0.05)),
    "C": (("read", 1.0),),
    "D": (("read", 0.95), ("insert", 0.05)),
}


def poisson_arrivals(rate: float, seed: int = 0) -> Iterator[float]:
    """Unbounded Poisson arrival times at ``rate`` per second.

    Inter-arrivals are i.i.d. exponential with mean ``1/rate`` — the
    open-loop arrival model where the offered load is independent of
    how fast the server drains it.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = DeterministicRNG(seed).fork(11)
    now = 0.0
    while True:
        now += rng.expovariate(rate)
        yield now


def mmpp_arrivals(
    rate: float,
    burst_rate: float,
    seed: int = 0,
    mean_dwell: float = 2.0,
    burst_dwell: float = 0.5,
) -> Iterator[float]:
    """Two-state Markov-modulated Poisson arrivals (bursty traffic).

    The process alternates a *base* state (Poisson at ``rate``, mean
    dwell ``mean_dwell`` seconds) with a *burst* state (Poisson at
    ``burst_rate``, mean dwell ``burst_dwell``); dwell times are
    exponential. An arrival that would land past the current state's
    end is discarded and redrawn in the next state — the standard
    state-switch construction, kept deterministic by drawing every
    quantity from one forked stream.
    """
    if rate <= 0 or burst_rate <= 0:
        raise ValueError(
            f"rates must be positive, got {rate} and {burst_rate}"
        )
    if mean_dwell <= 0 or burst_dwell <= 0:
        raise ValueError(
            f"dwell times must be positive, got {mean_dwell} and "
            f"{burst_dwell}"
        )
    rng = DeterministicRNG(seed).fork(13)
    now = 0.0
    bursting = False
    switch_at = rng.expovariate(1.0 / mean_dwell)
    while True:
        gap = rng.expovariate(burst_rate if bursting else rate)
        while now + gap >= switch_at:
            now = switch_at
            bursting = not bursting
            dwell = burst_dwell if bursting else mean_dwell
            switch_at = now + rng.expovariate(1.0 / dwell)
            gap = rng.expovariate(burst_rate if bursting else rate)
        now += gap
        yield now


class ZipfSampler:
    """Zipf(alpha) rank sampling by inversion over cumulative weights.

    Rank 0 is the most popular item. Sampling consumes exactly one
    uniform per draw, so streams sharing an RNG stay aligned.
    """

    def __init__(self, universe: int, alpha: float):
        if universe <= 0:
            raise ValueError(f"universe must be positive, got {universe}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.universe = universe
        self.alpha = alpha
        total = 0.0
        cumulative = []
        for rank in range(1, universe + 1):
            total += rank ** -alpha
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: DeterministicRNG) -> int:
        """One rank in ``[0, universe)``."""
        return bisect.bisect_left(
            self._cumulative, rng.random() * self._total
        )


def beta_client_weights(
    clients: int, alpha: float, beta: float, seed: int
) -> List[float]:
    """Per-client request-share weights from a Beta(alpha, beta) draw.

    Models heterogeneous client demand (a few heavy clients, a long
    tail of light ones); weights are normalized to sum to 1. A draw of
    exactly zero is nudged to a tiny floor so no client is silently
    dropped from the mixture.
    """
    if clients <= 0:
        raise ValueError(f"clients must be positive, got {clients}")
    rng = DeterministicRNG(seed).fork(17)
    weights = [max(rng.betavariate(alpha, beta), 1e-9)
               for _ in range(clients)]
    total = sum(weights)
    return [w / total for w in weights]


@dataclass(frozen=True)
class StreamSpec:
    """Deterministic open-loop request-stream specification.

    A spec is inert data; :meth:`requests` builds a fresh event
    iterator from it. Two iterations of the same spec are bit-identical
    (fresh forked RNGs each time), and chunked consumption cannot
    perturb the stream.

    Attributes:
        rate: mean arrival rate, requests/second.
        mix: YCSB mix letter (``"A"``-``"D"``).
        clients: number of issuing clients.
        process: ``"poisson"`` or ``"mmpp"``.
        burst_rate: MMPP burst-state rate (default ``4 * rate``).
        mean_dwell: MMPP base-state mean dwell, seconds.
        seed: master seed; every sub-stream forks from it.

    Keys are ``"r:<rank>"``, and ``"r:new:<n>"`` for inserted keys.
    """

    #: Initial key-universe size (Zipf-ranked).
    universe: ClassVar[int] = 512
    #: Zipf skew exponent.
    alpha: ClassVar[float] = 1.0
    #: Beta(a, b) shape of the per-client rate skew.
    client_beta: ClassVar[Tuple[float, float]] = (2.0, 5.0)
    #: MMPP burst-state mean dwell, seconds.
    burst_dwell: ClassVar[float] = 0.5

    rate: float = 100.0
    mix: str = "C"
    clients: int = 8
    process: str = "poisson"
    burst_rate: Optional[float] = None
    mean_dwell: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.mix not in YCSB_MIXES:
            raise ValueError(
                f"unknown YCSB mix {self.mix!r}; use one of "
                f"{sorted(YCSB_MIXES)}"
            )
        if self.process not in ("poisson", "mmpp"):
            raise ValueError(
                f"unknown arrival process {self.process!r}; use "
                "'poisson' or 'mmpp'"
            )

    def arrivals(self) -> Iterator[float]:
        """The spec's arrival-time stream (fresh iterator each call)."""
        if self.process == "mmpp":
            return mmpp_arrivals(
                self.rate,
                self.burst_rate if self.burst_rate else 4.0 * self.rate,
                seed=self.seed,
                mean_dwell=self.mean_dwell,
                burst_dwell=self.burst_dwell,
            )
        return poisson_arrivals(self.rate, seed=self.seed)

    def requests(self) -> Iterator[Request]:
        """The spec's request events, lazily and deterministically.

        Arrival times, popularity ranks, op choices and client
        assignment each draw from an independently forked RNG, so the
        marginal statistics of one dimension are unaffected by the
        others (and testable in isolation).
        """
        sampler = ZipfSampler(self.universe, self.alpha)
        op_rng = DeterministicRNG(self.seed).fork(19)
        pop_rng = DeterministicRNG(self.seed).fork(23)
        client_rng = DeterministicRNG(self.seed).fork(29)
        weights = beta_client_weights(
            self.clients, self.client_beta[0], self.client_beta[1],
            self.seed,
        )
        client_cumulative = []
        total = 0.0
        for weight in weights:
            total += weight
            client_cumulative.append(total)
        mix = YCSB_MIXES[self.mix]
        inserted = 0
        for at in self.arrivals():
            draw = op_rng.random()
            op = mix[-1][0]
            acc = 0.0
            for name, fraction in mix:
                acc += fraction
                if draw < acc:
                    op = name
                    break
            client = bisect.bisect_left(
                client_cumulative, client_rng.random() * total
            )
            client = min(client, self.clients - 1)
            if op == "insert":
                key = f"r:new:{inserted}"
                inserted += 1
            else:
                rank = sampler.sample(pop_rng)
                if self.mix == "D":
                    # Read-latest: rank 0 is the *newest* key. Inserts
                    # prepend to the recency order; the initial universe
                    # forms its tail.
                    index = (self.universe + inserted) - 1 - min(
                        rank, self.universe + inserted - 1
                    )
                    key = (
                        f"r:new:{index - self.universe}"
                        if index >= self.universe
                        else f"r:{index}"
                    )
                else:
                    key = f"r:{rank}"
            yield Request(at, key, op, client)


def keys_from_trace(trace: Trace) -> List[str]:
    """Replay a simulator address trace as a key stream.

    Each memory record becomes the key of its 64-byte cache line, so the
    engine sees exactly the block-reuse structure the set-indexed
    simulator saw — the bridge that lets the named suite workloads
    (ammp, mcf, lucas, ...) exercise the online engine.
    """
    return _name("blk", trace.block_addresses(64))
