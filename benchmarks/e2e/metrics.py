"""Measurement helpers shared by the end-to-end workloads.

Percentiles over exact samples, the read-correctness judge, failure
accounting, peak memory and the machine context every result records.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import resource
import sys
from typing import Dict, Optional, Sequence


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ascending samples."""
    if not sorted_samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    rank = math.ceil(q * len(sorted_samples))
    return sorted_samples[max(rank, 1) - 1]


def latency_summary(samples_ns: Sequence[int]) -> Dict[str, float]:
    """p50/p99/p99.9 in microseconds plus the counts that qualify them.

    ``beyond_p99`` is how many samples lie above the p99 value; a tail
    percentile resting on fewer than ten such samples is noise, so
    readers check it before trusting ``p99_us``.
    """
    ordered = sorted(samples_ns)
    p99 = percentile(ordered, 0.99)
    return {
        "count": len(ordered),
        "p50_us": percentile(ordered, 0.50) / 1e3,
        "p99_us": p99 / 1e3,
        "p999_us": percentile(ordered, 0.999) / 1e3,
        "beyond_p99": len(ordered) - bisect.bisect_right(ordered, p99),
    }


class Outcomes:
    """Attempted and failed operation counts, with failure reasons.

    A failure is a wrong or stale value, an exception, a shed or a
    timeout, or a pinned result that did not reproduce.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def add_attempts(self, count: int = 1) -> None:
        """Record ``count`` operations attempted."""
        self.attempted += count

    def add_failure(self, reason: str, count: int = 1) -> None:
        """Record that ``count`` of the attempted operations failed."""
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def error_rate(self) -> float:
        """Failed over attempted operations (0.0 when nothing ran)."""
        return self.failed / self.attempted if self.attempted else 0.0


class Reference:
    """The last-written value of every key: backing store and judge.

    The workloads' loader reads ``values``, and every read must return
    the key's value there. A write takes a fresh value from
    :meth:`issue` and becomes the key's value on :meth:`commit`, once
    the stack has applied it; a write that raised never commits.
    Written values are unique increasing integers and initial values
    negative, so a read returning another key's value, or an
    overwritten one, is caught.
    """

    def __init__(self, keys: Sequence[str]):
        self.values = {key: -(index + 1) for index, key in enumerate(keys)}
        self._seq = 0

    def issue(self) -> int:
        """A fresh value to write."""
        self._seq += 1
        return self._seq

    def commit(self, key: str, value: int) -> None:
        """Record that the stack applied ``key = value``."""
        self.values[key] = value


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_context() -> Dict[str, object]:
    """CPU count, interpreter and OS: what a timing is meaningless without."""
    uname = platform.uname()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": f"{uname.system}-{uname.release}-{uname.machine}",
    }


def git_commit(root: str) -> Optional[str]:
    """The commit checked out at ``root``, read from ``.git`` directly.

    Returns None outside a git work tree. Only files under ``root`` are
    read; no ``git`` process is started, so a checkout nested in some
    other repository never reports that repository's commit.
    """
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head or None
    ref = head.removeprefix("ref: ")
    try:
        with open(os.path.join(git_dir, ref), encoding="utf-8") as handle:
            return handle.read().strip() or None
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None
