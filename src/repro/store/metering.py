"""Chunk-granularity I/O accounting shared by the store and the cache.

Lives in its own leaf module (no repro imports) so both
:mod:`repro.store.array_store` and :mod:`repro.raid.cache` can meter with
the same counters without an import cycle: the cache sits *inside* the
store's write path but is defined in the raid package the store imports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

__all__ = ["IoCounters", "SyscallCounters"]


@dataclass
class IoCounters:
    """Chunk-granularity I/O accounting, split by element role.

    Counts chunks actually transferred to/from backing files. EMPTY
    (structural-zero) elements are not counted: they carry no information
    and no real layout would allocate them.
    """

    data_chunks_read: int = 0
    parity_chunks_read: int = 0
    data_chunks_written: int = 0
    parity_chunks_written: int = 0

    @property
    def chunks_read(self) -> int:
        """Total chunks read (data + parity)."""
        return self.data_chunks_read + self.parity_chunks_read

    @property
    def chunks_written(self) -> int:
        """Total chunks written (data + parity)."""
        return self.data_chunks_written + self.parity_chunks_written

    @property
    def total_chunks(self) -> int:
        """Total chunk I/Os (reads + writes)."""
        return self.chunks_read + self.chunks_written

    def reset(self) -> None:
        """Zero all counters in place."""
        self.data_chunks_read = 0
        self.parity_chunks_read = 0
        self.data_chunks_written = 0
        self.parity_chunks_written = 0

    def snapshot(self) -> "IoCounters":
        """An independent copy of the current counts."""
        return replace(self)

    def __add__(self, other: "IoCounters") -> "IoCounters":
        return IoCounters(
            self.data_chunks_read + other.data_chunks_read,
            self.parity_chunks_read + other.parity_chunks_read,
            self.data_chunks_written + other.data_chunks_written,
            self.parity_chunks_written + other.parity_chunks_written,
        )

    @classmethod
    def merged(cls, counters: Iterable["IoCounters"]) -> "IoCounters":
        """Sum an iterable of counters into one (the per-shard →
        per-volume aggregation; an empty iterable merges to zeros)."""
        total = cls()
        for item in counters:
            total.data_chunks_read += item.data_chunks_read
            total.parity_chunks_read += item.parity_chunks_read
            total.data_chunks_written += item.data_chunks_written
            total.parity_chunks_written += item.parity_chunks_written
        return total

    def __sub__(self, other: "IoCounters") -> "IoCounters":
        return IoCounters(
            self.data_chunks_read - other.data_chunks_read,
            self.parity_chunks_read - other.parity_chunks_read,
            self.data_chunks_written - other.data_chunks_written,
            self.parity_chunks_written - other.parity_chunks_written,
        )


@dataclass
class SyscallCounters:
    """Backing-file syscall accounting, orthogonal to :class:`IoCounters`.

    ``IoCounters`` meters *logical* chunk transfers — the paper's 1+3
    accounting contract, identical whether chunks move one ``pread`` at
    a time or coalesced into spans. These counters meter the *physical*
    syscalls those transfers cost, which is what span coalescing
    reduces: ``reads``/``writes`` count ``os.pread``/``os.pwrite``
    calls (whole-column transfers, element I/O, fault-injected spans),
    ``vector_reads``/``vector_writes`` count ``os.preadv``/
    ``os.pwritev`` calls (one each per coalesced span).
    """

    reads: int = 0
    writes: int = 0
    vector_reads: int = 0
    vector_writes: int = 0

    @property
    def total(self) -> int:
        """All backing-file syscalls issued."""
        return (
            self.reads + self.writes + self.vector_reads + self.vector_writes
        )

    def snapshot(self) -> "SyscallCounters":
        """An independent copy of the current counts."""
        return replace(self)

    def __add__(self, other: "SyscallCounters") -> "SyscallCounters":
        return SyscallCounters(
            self.reads + other.reads,
            self.writes + other.writes,
            self.vector_reads + other.vector_reads,
            self.vector_writes + other.vector_writes,
        )

    def __sub__(self, other: "SyscallCounters") -> "SyscallCounters":
        return SyscallCounters(
            self.reads - other.reads,
            self.writes - other.writes,
            self.vector_reads - other.vector_reads,
            self.vector_writes - other.vector_writes,
        )
