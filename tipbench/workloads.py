"""The three benchmark workloads.

Each workload makes all of its inputs from the seed before anything is
timed, sets its array up from an empty directory (timed), then runs a
fixed number of *units*: segments of requests on a healthy array
(``rmw-4k``, ``volume-journal``) or, in ``degraded-rebuild``, a fresh
disk-triple failure with its degraded reads and rebuild. The first two
rebuild from fresh triples only after their request phase, so no recovery
work lands between timed segments. The amount of work depends only on
``--seconds`` and the seed, never on how fast the host is, so counts and
cache sizes repeat exactly. Every read, every rebuild (a clean scrub) and
the final image are checked against a plain byte model. A failed check
counts the operation as failed; it never stops the run.
"""

from __future__ import annotations

import copy
import itertools
import shutil
import threading
import time
from pathlib import Path

import numpy as np

from layers import io_delta, proc_io
from repro.codes.registry import make_code
from repro.service import BlockService, VolumeService
from repro.store import ArrayStore
from repro.traces.synthetic import generate_trace
from repro.volume import ShardSpec, VolumeManager, VolumeMapping

#: Consecutive completions per measurement window. Throughput, p50 and p99
#: are medians over windows, which damps host-speed drift lasting a few
#: seconds; 1000 samples leave 10 beyond each window's p99.
WINDOW_REQUESTS = 1000
#: Kernel read/write syscalls a counting window may show beyond the
#: store's ledger (the ``/proc/self/io`` reads are already taken out).
SYSCALL_SLACK = 2
#: Bytes of seeded payload that write data is cut from.
POOL_BYTES = 2 << 20
#: A run whose units are still going after this many seconds stops and
#: counts the stop as a failed operation: the host is too slow for the
#: fixed amount of work, so the run's figures are not comparable.
UNITS_DEADLINE_S = 120.0

perf = time.perf_counter


def fold(offset: int, length: int, base: int, size: int) -> tuple[int, int]:
    """Fold a trace request into the region ``[base, base + size)``."""
    length = min(length, size)
    offset %= size
    if offset + length > size:
        offset = size - length
    return base + offset, length


def fold_trace(trace, base: int, size: int, chunk: int):
    """Trace requests as ``(is_write, offset, length, one_chunk)``."""
    out = []
    for request in trace:
        offset, length = fold(request.offset, request.length, base, size)
        one_chunk = offset // chunk == (offset + length - 1) // chunk
        out.append((request.is_write, offset, length, one_chunk))
    return out


class Block:
    """What one block of units produced."""

    def __init__(self) -> None:
        self.traced = False
        self.requests = 0
        self.writes = 0
        self.write_bytes = 0
        self.user_bytes = 0
        self.started_s = perf()
        self.wall_s = 0.0
        #: Time spent outside requests (degraded-rebuild's failure set-up
        #: and rebuilds); completion times are kept on a clock that
        #: excludes it.
        self.gap_s = 0.0
        self.latencies_ms: list[float] = []
        self.done_s: list[float] = []
        #: (requests, seconds, latencies_ms) per measurement window.
        self.windows: list[tuple[int, float, list[float]]] = []

    @property
    def request_s(self) -> float:
        return self.wall_s - self.gap_s

    def absorb(self, part: "Block") -> None:
        """Add one client's share of a segment."""
        self.requests += part.requests
        self.writes += part.writes
        self.write_bytes += part.write_bytes
        self.user_bytes += part.user_bytes
        self.latencies_ms += part.latencies_ms
        self.done_s += part.done_s

    def finish(self) -> None:
        """Close the block and cut its completions into windows of
        WINDOW_REQUESTS (a short tail is left out)."""
        self.wall_s = perf() - self.started_s
        pairs = sorted(zip(self.done_s, self.latencies_ms))
        last = self.started_s
        for first in range(0, len(pairs) - WINDOW_REQUESTS + 1,
                           WINDOW_REQUESTS):
            chunk = pairs[first : first + WINDOW_REQUESTS]
            self.windows.append(
                (len(chunk), chunk[-1][0] - last, [lat for _, lat in chunk])
            )
            last = chunk[-1][0]


class Window:
    """Counts over the request segments: kernel bytes and syscalls from
    ``/proc/self/io`` next to the stores' chunk and syscall ledgers."""

    def __init__(self) -> None:
        self.kernel_bytes = 0
        self.kernel_syscalls = 0
        self.ledger_syscalls = 0
        self.chunk_ios = 0
        self.data_writes = 0
        self.parity_writes = 0
        self.requests = 0
        self.user_bytes = 0
        self.pairs = 0

    def begin(self, stores) -> None:
        self._stores = stores
        self._io = [copy.copy(store.io) for store in stores]
        self._sys = [store.syscalls.total for store in stores]
        self._kernel = proc_io()

    def end(self, requests: int, user_bytes: int) -> None:
        kernel = io_delta(self._kernel, proc_io())
        self.kernel_bytes += kernel["rchar"] + kernel["wchar"]
        self.kernel_syscalls += kernel["syscr"] + kernel["syscw"]
        for store, io, calls in zip(self._stores, self._io, self._sys):
            now = store.io
            self.chunk_ios += (now.chunks_read + now.chunks_written
                               - io.chunks_read - io.chunks_written)
            self.data_writes += now.data_chunks_written - io.data_chunks_written
            self.parity_writes += (now.parity_chunks_written
                                   - io.parity_chunks_written)
            self.ledger_syscalls += store.syscalls.total - calls
        self.requests += requests
        self.user_bytes += user_bytes
        self.pairs += 1


class Workload:
    """Shared bookkeeping: failures, units, rebuild cycles, set-ups."""

    name = ""
    setups = 3
    #: Nominal seconds of one unit on a 2-vCPU host; ``--seconds`` maps
    #: to ``round(seconds / UNIT_S)`` units.
    UNIT_S = 1.0
    #: True when an on-disk journal issues syscalls the store ledger
    #: does not meter.
    journaled = False
    #: Fresh-triple rebuild cycles after the request phase.
    REBUILDS = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.window = Window()
        #: Per rebuild cycle: (logical bytes made healthy, seconds).
        self.rebuilds: list[tuple[int, float]] = []
        self.rebuild_kernel_bytes = 0
        self.scrubs: list[tuple[int, float]] = []
        self.fresh_sets = 0
        self.cycle = 0
        self.directory: Path | None = None
        self._fail_lock = threading.Lock()

    def units(self, seconds: float) -> int:
        return max(6, round(seconds / self.UNIT_S))

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def trace_seed(self, stream: int) -> int:
        return self.seed * 1000 + stream

    @staticmethod
    def triples(cols: int) -> list[tuple[int, ...]]:
        """Every disk triple of a ``cols``-disk array in one fixed
        shuffled order. The order does not follow the seed: decode and
        rebuild cost differ between failure patterns, so every run fails
        the same triples and the seed varies only data and traffic."""
        combos = list(itertools.combinations(range(cols), 3))
        order = np.random.default_rng(cols).permutation(len(combos))
        return [combos[i] for i in order]

    def fail(self, message: str) -> None:
        with self._fail_lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    def discard(self) -> None:
        """Close the current set-up and delete its files."""
        self.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)

    def check_syscalls(self) -> None:
        """The kernel's read/write syscall count over the request segments
        must match the stores' ledger within a fixed slack. Journal
        appends are outside the ledger, so a journaled workload only
        checks that the kernel saw at least the ledger's calls."""
        gap = self.window.kernel_syscalls - self.window.ledger_syscalls
        limit = None if self.journaled else SYSCALL_SLACK * self.window.pairs
        if gap < 0 or (limit is not None and gap > limit):
            self.fail(f"kernel syscalls differ from the store ledger by {gap}")

    # -- units -----------------------------------------------------------
    def run_block(self, units: int, started_s: float) -> Block:
        """Run ``units`` units; ``started_s`` is when the first block of
        the run began, for the deadline."""
        block = Block()
        for done in range(units):
            if perf() - started_s > UNITS_DEADLINE_S:
                self.fail(f"stopped after {UNITS_DEADLINE_S:.0f} s with "
                          f"{units - done} units of this block left: the "
                          f"host is too slow for the requested work")
                break
            self.run_unit(block)
        block.finish()
        return block

    def run_unit(self, block: Block) -> None:
        """One request segment on the healthy array."""
        self.window.begin(self.stores())
        before = block.requests, block.user_bytes
        self.run_segment(block)
        self.window.end(block.requests - before[0],
                        block.user_bytes - before[1])

    def rebuild_phase(self) -> None:
        """After the request phase: REBUILDS cycles, each failing the next
        unused triple of every store and rebuilding it; a cycle's time
        covers all stores."""
        cycles = min([self.REBUILDS] + [len(order) for order in self.orders])
        for _ in range(cycles):
            seconds = 0.0
            for store, order in zip(self.stores(), self.orders):
                seconds += self.fail_and_build(store, order[self.cycle])
                seconds += self.rebuild_and_scrub(store)
            self.rebuilds.append(
                (sum(store.capacity_bytes for store in self.stores()), seconds)
            )
            self.cycle += 1

    def fail_and_build(self, store: ArrayStore, triple) -> float:
        """Fail ``triple`` and build its decoder and recovery plan, as the
        first reconstruction after a failure does; returns seconds."""
        for disk in triple:
            store.fail_disk(disk)
        started = perf()
        store.code.decoder_for(triple).compiled_plan()
        self.fresh_sets += 1
        return perf() - started

    def rebuild_and_scrub(self, store: ArrayStore) -> float:
        """Rebuild, then require a clean scrub; returns rebuild seconds."""
        self.attempted += 2
        before = proc_io()
        started = perf()
        try:
            store.rebuild()
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.fail(f"rebuild raised {exc!r}")
            return perf() - started
        took = perf() - started
        moved = io_delta(before, proc_io())
        self.rebuild_kernel_bytes += moved["rchar"] + moved["wchar"]
        started = perf()
        corrupt = store.scrub()
        self.scrubs.append((store.capacity_bytes, perf() - started))
        if corrupt:
            self.fail(f"scrub after rebuild found stripes {corrupt[:8]}")
        return took

    def verify_image(self, read, model, step: int) -> None:
        """Compare the whole image with the model, ``step`` bytes at a
        time."""
        for offset in range(0, self.capacity, step):
            length = min(step, self.capacity - offset)
            self.attempted += 1
            try:
                got = bytes(read(offset, length))
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                self.fail(f"final read at {offset} raised {exc!r}")
                continue
            if got != model[offset : offset + length]:
                self.fail(f"final image differs in [{offset}, "
                          f"{offset + length})")


class ClosedLoop:
    """One closed-loop client replaying a fixed request list in passes."""

    def __init__(self, workload: Workload, requests, pool: bytes,
                 model: bytearray, service) -> None:
        self.w = workload
        self.requests = requests
        self.pool = pool
        self.model = model
        self.service = service
        self.cursor = 0
        self.passes = 0
        #: Store whose ``last_io`` checks the 1 data + 3 parity write
        #: cost of single-chunk writes (single-client stores only).
        self.check_store: ArrayStore | None = None
        self.checked_writes = 0

    def payload(self, index: int, length: int) -> bytes:
        start = (index * 7919 + self.passes * 104729) % (
            len(self.pool) - length + 1
        )
        return self.pool[start : start + length]

    def run(self, block: Block, count: int) -> None:
        for _ in range(count):
            self.step(block)

    def step(self, block: Block) -> None:
        """Issue the next request; wraps to a new pass at the end."""
        is_write, offset, length, one_chunk = self.requests[self.cursor]
        block.requests += 1
        block.user_bytes += length
        try:
            if is_write:
                data = self.payload(self.cursor, length)
                started = perf()
                self.service.write(offset, data)
                took = perf() - started
                self.model[offset : offset + length] = data
                block.writes += 1
                block.write_bytes += length
                if one_chunk and self.check_store is not None:
                    self._check_cost(offset)
            else:
                started = perf()
                got = self.service.read(offset, length)
                took = perf() - started
                if got != self.model[offset : offset + length]:
                    self.w.fail(f"read at {offset}+{length} differs from "
                                f"model")
            block.latencies_ms.append(took * 1e3)
            block.done_s.append(started + took - block.gap_s)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.w.fail(f"request at {offset}+{length} raised {exc!r}")
        self.cursor += 1
        if self.cursor == len(self.requests):
            self.cursor = 0
            self.passes += 1

    def _check_cost(self, offset: int) -> None:
        """A write inside one chunk must meter exactly 1 data + 3 parity
        chunk writes: TIP's optimal update complexity."""
        self.checked_writes += 1
        io = self.check_store.last_io
        if (io.data_chunks_written, io.parity_chunks_written) != (1, 3):
            self.w.fail(
                f"single-chunk write at {offset} metered "
                f"{io.data_chunks_written} data + "
                f"{io.parity_chunks_written} parity chunk writes"
            )


# ----------------------------------------------------------------------
class Rmw4k(Workload):
    """One synchronous client, TIP n=8, 4 KiB chunks, prxy_0 traffic."""

    name = "rmw-4k"
    setups = 9
    N, CHUNK, STRIPES = 8, 4096, 256
    PASS, SEGMENT, WARMUP = 12000, 3000, 256
    UNIT_S = 1.1
    REBUILDS = 30

    def prepare(self) -> None:
        self.code = make_code("tip", self.N)
        self.capacity = self.code.num_data * self.CHUNK * self.STRIPES
        self.fill = self.rng(1).bytes(self.capacity)
        self.pool = self.rng(2).bytes(POOL_BYTES)
        self.requests = fold_trace(
            generate_trace("prxy_0", self.PASS, seed=self.trace_seed(3)),
            0, self.capacity, self.CHUNK,
        )
        self.warmup = fold_trace(
            generate_trace("prxy_0", self.WARMUP, seed=self.trace_seed(4)),
            0, self.capacity, self.CHUNK,
        )
        self.orders = [self.triples(self.code.cols)]
        self.store = self.service = None

    def reset(self) -> None:
        self.model = bytearray(self.fill)

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.store = ArrayStore(self.code, directory, stripes=self.STRIPES,
                                chunk_bytes=self.CHUNK)
        fill = np.frombuffer(self.fill, dtype=np.uint8)
        step = 16 * self.code.num_data * self.CHUNK
        for offset in range(0, self.capacity, step):
            self.store.write_bytes(offset, fill[offset : offset + step])
        self.service = BlockService(self.store, workers=1)
        warm = Block()
        ClosedLoop(self, self.warmup, self.pool, self.model,
                   self.service).run(warm, len(self.warmup))
        self.attempted += warm.requests
        self.client = ClosedLoop(self, self.requests, self.pool, self.model,
                                 self.service)
        self.client.check_store = self.store

    def stores(self) -> list[ArrayStore]:
        return [self.store]

    def run_segment(self, block: Block) -> None:
        self.client.run(block, self.SEGMENT)

    def finish(self) -> None:
        if not self.client.checked_writes:
            self.fail("no single-chunk write had its 1 + 3 cost checked")
        self.verify_image(self.service.read, self.model, 1 << 20)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        if self.store is not None:
            self.store.close()
        self.store = self.service = None


# ----------------------------------------------------------------------
class DegradedRebuild(Workload):
    """TIP n=12, 64 KiB chunks: fresh triple, degraded reads, rebuild."""

    name = "degraded-rebuild"
    setups = 5
    N, CHUNK, STRIPES = 12, 65536, 32
    READS, READ_CHUNKS, WARMUP = 256, 4, 16
    UNIT_S = 1.75

    def prepare(self) -> None:
        self.code = make_code("tip", self.N)
        self.stripe_bytes = self.code.num_data * self.CHUNK
        self.capacity = self.stripe_bytes * self.STRIPES
        self.read_bytes = self.READ_CHUNKS * self.CHUNK
        self.fill = self.rng(1).bytes(self.capacity)
        self.order = self.triples(self.code.cols)
        rng = self.rng(3)
        cols = [col for _, col in self.code.data_positions]
        last = self.code.num_data - self.READ_CHUNKS
        self.reads = []
        for triple in self.order:
            # Every read reconstructs: it covers a data chunk of a failed
            # disk, so latency has one population, not two.
            offsets = []
            while len(offsets) < self.READS:
                stripe = int(rng.integers(0, self.STRIPES))
                first = int(rng.integers(0, last + 1))
                if set(cols[first : first + self.READ_CHUNKS]) & set(triple):
                    offsets.append(stripe * self.stripe_bytes
                                   + first * self.CHUNK)
            self.reads.append(offsets)
        warm = self.rng(4)
        self.warmup = [
            int(warm.integers(0, self.capacity // self.CHUNK
                              - self.READ_CHUNKS)) * self.CHUNK
            for _ in range(self.WARMUP)
        ]
        self.store = self.service = None

    def units(self, seconds: float) -> int:
        return min(super().units(seconds), len(self.order))

    def rebuild_phase(self) -> None:
        """Every unit already rebuilt its own triple."""

    def reset(self) -> None:
        """Degraded reads never write: the fill stays the model."""

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.store = ArrayStore(self.code, directory, stripes=self.STRIPES,
                                chunk_bytes=self.CHUNK)
        fill = np.frombuffer(self.fill, dtype=np.uint8)
        for offset in range(0, self.capacity, self.stripe_bytes):
            self.store.write_bytes(
                offset, fill[offset : offset + self.stripe_bytes]
            )
        self.service = BlockService(self.store, workers=1)
        warm = Block()
        for offset in self.warmup:
            self._read(offset, warm)
        self.attempted += warm.requests

    def stores(self) -> list[ArrayStore]:
        return [self.store]

    def _read(self, offset: int, block: Block) -> None:
        length = self.read_bytes
        block.requests += 1
        block.user_bytes += length
        started = perf()
        try:
            got = self.service.read(offset, length)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.fail(f"degraded read at {offset} raised {exc!r}")
            return
        took = perf() - started
        block.latencies_ms.append(took * 1e3)
        block.done_s.append(started + took - block.gap_s)
        if got != self.fill[offset : offset + length]:
            self.fail(f"degraded read at {offset} differs from model")

    def run_unit(self, block: Block) -> None:
        """Fail a fresh triple and build its decoder, read, rebuild."""
        paused = perf()
        build_s = self.fail_and_build(self.store, self.order[self.cycle])
        block.gap_s += perf() - paused
        self.window.begin([self.store])
        for offset in self.reads[self.cycle]:
            self._read(offset, block)
        self.window.end(self.READS, self.READS * self.read_bytes)
        paused = perf()
        rebuild_s = self.rebuild_and_scrub(self.store)
        self.rebuilds.append((self.capacity, build_s + rebuild_s))
        self.cycle += 1
        block.gap_s += perf() - paused

    def finish(self) -> None:
        self.verify_image(self.service.read, self.fill, self.stripe_bytes)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        if self.store is not None:
            self.store.close()
        self.store = self.service = None


# ----------------------------------------------------------------------
class VolumeJournal(Workload):
    """Two clients over a journaled two-shard volume, usr_0 traffic."""

    name = "volume-journal"
    setups = 3
    journaled = True
    SHARDS = (ShardSpec("tip", 8, 128, 4096), ShardSpec("tip", 6, 128, 4096))
    EXTENT, GROUP_COMMIT = 16384, 8
    CLIENTS, PASS, SEGMENT, WARMUP = 2, 6000, 500, 64
    UNIT_S = 1.5
    REBUILDS = 20

    def prepare(self) -> None:
        self.capacity = VolumeMapping(
            [spec.capacity_bytes() for spec in self.SHARDS], self.EXTENT
        ).volume_bytes
        half = self.capacity // self.CLIENTS // self.EXTENT * self.EXTENT
        chunk = self.SHARDS[0].chunk_bytes
        self.fill = self.rng(1).bytes(self.capacity)
        self.pool = self.rng(2).bytes(POOL_BYTES)
        self.streams = [
            fold_trace(generate_trace("usr_0", self.PASS,
                                      seed=self.trace_seed(10 + c)),
                       c * half, half, chunk)
            for c in range(self.CLIENTS)
        ]
        self.warmups = [
            fold_trace(generate_trace("usr_0", self.WARMUP,
                                      seed=self.trace_seed(20 + c)),
                       c * half, half, chunk)
            for c in range(self.CLIENTS)
        ]
        self.orders = [self.triples(spec.n) for spec in self.SHARDS]
        self.volume = self.service = None

    def reset(self) -> None:
        self.model = bytearray(self.fill)

    def setup(self, directory: Path) -> None:
        self.directory = directory
        self.volume = VolumeManager.create(
            directory, self.SHARDS, extent_bytes=self.EXTENT,
            group_commit=self.GROUP_COMMIT,
        )
        fill = np.frombuffer(self.fill, dtype=np.uint8)
        step = 1 << 20
        for offset in range(0, self.capacity, step):
            self.volume.write_bytes(offset, fill[offset : offset + step])
        self.service = VolumeService(self.volume, workers=self.CLIENTS)
        warm = Block()
        for warmup in self.warmups:
            ClosedLoop(self, warmup, self.pool, self.model,
                       self.service).run(warm, len(warmup))
        self.attempted += warm.requests
        self.clients = [
            ClosedLoop(self, stream, self.pool, self.model, self.service)
            for stream in self.streams
        ]

    def stores(self) -> list[ArrayStore]:
        return self.volume.shards

    def run_segment(self, block: Block) -> None:
        """Each client issues SEGMENT requests on its own thread."""
        parts = [Block() for _ in self.clients]
        for part in parts:
            part.gap_s = block.gap_s
        barrier = threading.Barrier(len(self.clients))

        def drive(client: ClosedLoop, part: Block) -> None:
            barrier.wait()
            try:
                client.run(part, self.SEGMENT)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                self.fail(f"client thread raised {exc!r}")

        threads = [
            threading.Thread(target=drive, args=(client, part))
            for client, part in zip(self.clients, parts)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for part in parts:
            block.absorb(part)

    def finish(self) -> None:
        """Close, reopen from disk, compare every byte and scrub."""
        self.service.close()
        self.service = None
        self.attempted += 2
        try:
            self.volume = VolumeManager.open(
                self.directory, group_commit=self.GROUP_COMMIT
            )
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.volume = None
            self.fail(f"reopen raised {exc!r}")
            return
        self.verify_image(self.volume.read_bytes, self.model, 1 << 20)
        corrupt = self.volume.scrub()
        if corrupt:
            self.fail(f"scrub after reopen found {corrupt}")

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        elif self.volume is not None:
            self.volume.close()
        self.volume = self.service = None


WORKLOADS = {cls.name: cls for cls in (Rmw4k, DegradedRebuild, VolumeJournal)}
