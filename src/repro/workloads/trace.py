"""Trace container and record kinds.

A trace is three parallel numpy columns with one entry per record, in
program order:

* ``kinds`` (int8) — one of the ``KIND_*`` constants below.
* ``addresses`` (int64) — byte address for memory records, branch PC
  for branches.
* ``gaps`` (int32) — number of plain (non-memory, non-branch)
  instructions that execute before this record.

These are the dtypes of the ``.npz`` trace format
(:mod:`repro.workloads.io`): 13 bytes per record. Loops that walk the
records one at a time iterate the trace, which yields ``(kind, address,
gap)`` tuples of Python ints built one bounded chunk at a time
(:meth:`Trace.chunks`), so no per-record object outlives its chunk. The
:class:`Trace` wrapper also carries the name, derived statistics and
helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, List, Tuple

import numpy as np

KIND_LOAD = 0
KIND_STORE = 1
KIND_BRANCH_TAKEN = 2
KIND_BRANCH_NOT_TAKEN = 3

Record = Tuple[int, int, int]

#: The record columns and their dtypes, in record-field order.
COLUMN_DTYPES = {"kinds": np.int8, "addresses": np.int64, "gaps": np.int32}

#: Records per chunk when a trace is walked record by record.
CHUNK_RECORDS = 1 << 14


@dataclass(eq=False)
class Trace:
    """A named instruction/memory trace.

    Attributes:
        name: workload name (benchmark names mirror the paper's).
        kinds / addresses / gaps: the record columns, in program order
            (coerced to int8 / int64 / int32).
    """

    name: str
    kinds: np.ndarray = ()
    addresses: np.ndarray = ()
    gaps: np.ndarray = ()

    def __post_init__(self):
        for column, dtype in COLUMN_DTYPES.items():
            setattr(self, column, np.ascontiguousarray(getattr(self, column), dtype=dtype))
        if not len(self.kinds) == len(self.addresses) == len(self.gaps):
            raise ValueError(
                f"trace columns differ in length (kinds={len(self.kinds)}, "
                f"addresses={len(self.addresses)}, gaps={len(self.gaps)})"
            )

    @classmethod
    def from_records(cls, name: str, records: Iterable[Record]) -> "Trace":
        """A trace from ``(kind, address, gap)`` tuples, for hand-written
        traces."""
        columns = tuple(zip(*records)) or ((), (), ())
        return cls(name, *columns)

    @property
    def instruction_count(self) -> int:
        """Total instructions: every record is one instruction plus its gap."""
        return int(self.gaps.sum(dtype=np.int64)) + len(self)

    def __len__(self) -> int:
        return len(self.kinds)

    def chunks(self) -> Iterator[Iterator[Record]]:
        """The records as a series of ``(kind, address, gap)`` iterators,
        each over at most :data:`CHUNK_RECORDS` records."""
        for lo in range(0, len(self), CHUNK_RECORDS):
            hi = lo + CHUNK_RECORDS
            yield zip(
                self.kinds[lo:hi].tolist(),
                self.addresses[lo:hi].tolist(),
                self.gaps[lo:hi].tolist(),
            )

    def __iter__(self) -> Iterator[Record]:
        return chain.from_iterable(self.chunks())

    def memory_records(self) -> Iterator[Record]:
        """Only the load/store records, in order."""
        return (r for r in self if r[0] <= KIND_STORE)

    def _is_memory(self) -> np.ndarray:
        return self.kinds <= KIND_STORE

    def memory_stream(self) -> Tuple[List[int], List[bool]]:
        """Addresses and write flags of the load/store records, in order.

        The shape :meth:`~repro.cache.cache.SetAssociativeCache.access_many`
        consumes; replay loops that only need aggregate statistics
        extract the stream once and hand it to the batched entry point.
        """
        memory = self._is_memory()
        return (
            self.addresses[memory].tolist(),
            (self.kinds[memory] == KIND_STORE).tolist(),
        )

    def memory_access_count(self) -> int:
        """Number of load/store records."""
        return int(np.count_nonzero(self._is_memory()))

    def store_count(self) -> int:
        """Number of store records."""
        return int(np.count_nonzero(self.kinds == KIND_STORE))

    def branch_count(self) -> int:
        """Number of branch records."""
        return int(np.count_nonzero(self.kinds >= KIND_BRANCH_TAKEN))

    def _blocks(self, line_bytes: int) -> np.ndarray:
        shift = line_bytes.bit_length() - 1
        return self.addresses[self._is_memory()] >> shift

    def footprint_lines(self, line_bytes: int = 64) -> int:
        """Number of distinct cache lines touched by memory records."""
        if line_bytes <= 0:
            raise ValueError(f"line_bytes must be positive, got {line_bytes}")
        return len(np.unique(self._blocks(line_bytes)))

    def block_addresses(self, line_bytes: int = 64) -> List[int]:
        """Line-granular addresses of the memory records, in order."""
        return self._blocks(line_bytes).tolist()
