"""Address-pattern primitives.

Each generator returns a list of *line numbers* (cache-line-granular
addresses). The builder later scales them to byte addresses and wraps
them with instruction gaps, stores and branches.

The primitives correspond to the locality classes the paper's Section
2.1 discusses:

* :func:`working_set` — "scattered data with good temporal locality":
  near-optimal for LRU, bad for nothing.
* :func:`linear_loop` — "a linear loop slightly larger than the cache is
  bad for a set-associative, LRU-managed cache" (and great for MRU/LFU).
* :func:`zipf_stream` / :func:`scan_with_hot` — "LFU is ideal for
  separating large regions of blocks that are only used once from
  commonly accessed data — a common pattern in media-management
  applications".
* :func:`pointer_chase` — pointer-intensive codes (mcf and friends).
* :func:`strided_sweep` — array codes that skip elements (mgrid's RPRJ3).
"""

from __future__ import annotations

from typing import List

import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def linear_loop(footprint_lines: int, accesses: int) -> List[int]:
    """Repeatedly sweep a contiguous region of ``footprint_lines`` lines.

    With a footprint slightly larger than (its share of) the cache this
    is the canonical LRU-thrashing pattern: every reference misses under
    LRU while MRU/LFU retain a stable prefix of the loop.
    """
    if footprint_lines <= 0 or accesses < 0:
        raise ValueError("footprint_lines must be positive, accesses >= 0")
    reps = -(-accesses // footprint_lines)
    stream = np.tile(np.arange(footprint_lines, dtype=np.int64), reps)[:accesses]
    return stream.tolist()


def working_set(
    hot_lines: int,
    accesses: int,
    seed: int = 0,
    locality: float = 0.0,
) -> List[int]:
    """Random references within a hot set of ``hot_lines`` lines.

    ``locality`` in [0, 1) mixes in stack-distance locality: with
    probability ``locality`` the next reference repeats one of the 4 most
    recent distinct lines, concentrating reuse the way integer codes do.
    """
    if hot_lines <= 0 or accesses < 0:
        raise ValueError("hot_lines must be positive, accesses >= 0")
    if not 0.0 <= locality < 1.0:
        raise ValueError(f"locality must be in [0, 1), got {locality}")
    rng = _rng(seed)
    uniform = rng.integers(0, hot_lines, size=accesses)
    if locality == 0.0:
        return uniform.tolist()
    stream: List[int] = []
    recent: List[int] = []
    reuse = rng.random(accesses)
    picks = rng.integers(0, 4, size=accesses)
    for i in range(accesses):
        if recent and reuse[i] < locality:
            line = recent[picks[i] % len(recent)]
        else:
            line = int(uniform[i])
        stream.append(line)
        if not recent or recent[-1] != line:
            recent.append(line)
            if len(recent) > 4:
                recent.pop(0)
    return stream


def zipf_stream(
    universe_lines: int,
    accesses: int,
    alpha: float = 1.1,
    seed: int = 0,
) -> List[int]:
    """Zipf-distributed references over ``universe_lines`` lines.

    A few lines receive most references while a long tail is touched
    rarely — the frequency-skewed behaviour LFU exploits. Ranks are
    shuffled across the address space so the hot lines spread over all
    cache sets instead of clustering at low set indices.
    """
    if universe_lines <= 0 or accesses < 0:
        raise ValueError("universe_lines must be positive, accesses >= 0")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = _rng(seed)
    weights = 1.0 / np.power(np.arange(1, universe_lines + 1, dtype=np.float64), alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(accesses))
    ranks = rng.permutation(universe_lines)[ranks]
    return ranks.astype(np.int64).tolist()


def scan_with_hot(
    hot_lines: int,
    scan_lines: int,
    accesses: int,
    hot_fraction: float = 0.5,
    seed: int = 0,
) -> List[int]:
    """Interleave a reused hot set with a one-pass streaming scan.

    The media-management pattern: ``hot_fraction`` of references go to a
    small, heavily reused region (the first ``hot_lines`` lines); the
    rest stream
    through fresh lines exactly once. LFU keeps the hot set resident;
    LRU lets the single-use scan evict it.
    """
    if hot_lines <= 0 or scan_lines <= 0 or accesses < 0:
        raise ValueError("hot_lines and scan_lines must be positive")
    if not 0.0 < hot_fraction < 1.0:
        raise ValueError(f"hot_fraction must be in (0, 1), got {hot_fraction}")
    rng = _rng(seed)
    hot_picks = rng.integers(0, hot_lines, size=accesses)
    is_hot = rng.random(accesses) < hot_fraction
    stream: List[int] = []
    scan_pos = 0
    for i in range(accesses):
        if is_hot[i]:
            stream.append(int(hot_picks[i]))
        else:
            stream.append(hot_lines + scan_pos % scan_lines)
            scan_pos += 1
    return stream


def drifting_working_set(
    hot_lines: int,
    accesses: int,
    drift_per_kaccess: float = 8.0,
    seed: int = 0,
) -> List[int]:
    """A hot window that slides slowly across the address space.

    References are uniform within the current window; the window's base
    advances ``drift_per_kaccess`` lines per thousand accesses. Recency
    tracks the drift immediately (LRU-friendly), while frequency counts
    accumulated on the old window keep stale blocks resident under LFU —
    the behaviour the paper reports for lucas ("much better miss rates
    with an LRU policy").
    """
    if hot_lines <= 0 or accesses < 0:
        raise ValueError("hot_lines must be positive, accesses >= 0")
    if drift_per_kaccess < 0:
        raise ValueError(f"drift must be >= 0, got {drift_per_kaccess}")
    rng = _rng(seed)
    offsets = rng.integers(0, hot_lines, size=accesses)
    bases = (
        np.arange(accesses, dtype=np.float64) * (drift_per_kaccess / 1000.0)
    ).astype(np.int64)
    return (bases + offsets).tolist()


def pointer_chase(nodes: int, accesses: int, seed: int = 0) -> List[int]:
    """Random walk over a fixed pointer graph of ``nodes`` nodes.

    Each node occupies one line; following a pointer touches the
    successor node's line. The successor table is fixed per seed, so the
    walk revisits nodes with the skewed reuse typical of pointer codes
    (mcf, ft, ks).
    """
    if nodes <= 0 or accesses < 0:
        raise ValueError("nodes must be positive, accesses >= 0")
    rng = _rng(seed)
    successors = rng.integers(0, nodes, size=(nodes, 2))
    pick = rng.integers(0, 2, size=accesses)
    stream: List[int] = []
    node = 0
    for i in range(accesses):
        stream.append(node)
        node = int(successors[node][pick[i]])
    return stream


def strided_sweep(
    footprint_lines: int,
    stride_lines: int,
    accesses: int,
) -> List[int]:
    """Sweep a region with a fixed stride, wrapping around.

    Strides that are multiples of the number of sets concentrate
    pressure on a subset of sets — the spatially varying behaviour of
    mgrid's subroutines (Figure 7b).
    """
    if footprint_lines <= 0 or stride_lines <= 0 or accesses < 0:
        raise ValueError("footprint_lines and stride_lines must be positive")
    idx = (np.arange(accesses, dtype=np.int64) * stride_lines) % footprint_lines
    return idx.tolist()
