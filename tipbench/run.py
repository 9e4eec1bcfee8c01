"""TIP-code request-path benchmark.

Usage (from the repository root):

    python3 tipbench/run.py --workload rmw-4k --seed 1 --seconds 20 --trace 0

Sets the workload's array up several times from an empty directory,
runs the timed request phase, rebuilds from fresh disk-triple failures,
checks every output against a byte model, and prints one JSON object as
its last line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced blocks and reports the per-layer metrics
(see ``layers.py``). Workload descriptions, the predicted layer to
end-to-end links and the pinned engine host profile are in
``design.json``. Working files live under ``.tipbench_work/`` and are
removed on exit; span files go to ``.tipbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Traced runs alternate untraced and traced blocks this many times each.
TRACE_PAIRS = 3


def nearest_rank(ordered: list[float], fraction: float) -> float:
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def pin_host_profile(values: dict) -> None:
    """Pin the XOR engine's host calibration so tile sizes are the same
    in every run (the engine otherwise measures the host per process)."""
    from repro.bitmatrix import tuning

    tuning.set_host_profile(tuning.HostProfile(**values))


class Traced:
    """Counter growth over the traced stretches of a run, kept apart for
    the request blocks and for the rebuild phase."""

    FIELDS = ("wchar", "syscall_bytes", "lock_wait_ms", "gc_ms",
              "fresh_sets", "wall_s")

    def __init__(self, tracer, workload) -> None:
        self.tracer = tracer
        self.workload = workload
        self.requests = dict.fromkeys(self.FIELDS, 0)
        self.rebuilds = dict.fromkeys(self.FIELDS, 0)

    def _snapshot(self) -> tuple:
        from layers import proc_io

        return (proc_io()["wchar"], self.tracer.syscall_bytes(),
                self.tracer.lock_wait_ms(), self.tracer.gc_ns * 1e-6,
                self.workload.fresh_sets, time.perf_counter())

    def run(self, into: dict, fn):
        before = self._snapshot()
        self.tracer.install()
        try:
            result = fn()
        finally:
            self.tracer.uninstall()
        for key, old, new in zip(self.FIELDS, before, self._snapshot()):
            into[key] += new - old
        return result


def run_blocks(workload, seconds: float, traced: Traced | None):
    """The measured units: one untraced block, or alternating untraced
    and traced blocks when tracing; then the rebuild phase (traced when
    tracing)."""
    units = workload.units(seconds)
    if traced is None:
        plan = [(units, False)]
    else:
        share = max(1, units // (2 * TRACE_PAIRS))
        plan = [(share, False), (share, True)] * TRACE_PAIRS
    started = time.perf_counter()
    blocks = []
    for count, with_trace in plan:
        if with_trace:
            block = traced.run(traced.requests,
                               lambda: workload.run_block(count, started))
        else:
            block = workload.run_block(count, started)
        block.traced = with_trace
        blocks.append(block)
    if traced is None:
        workload.rebuild_phase()
    else:
        traced.run(traced.rebuilds, workload.rebuild_phase)
    return blocks


def end_to_end(workload, setup_s, blocks) -> dict:
    """Throughput, p50 and p99 are medians over measurement windows of
    1000 consecutive requests."""
    from layers import peak_rss_mib

    (block,) = blocks
    windows = block.windows
    if not windows:
        raise SystemExit("error: fewer requests than one measurement "
                         "window; raise --seconds")
    per_window = [sorted(latencies) for _, _, latencies in windows]
    rates = [nbytes / seconds / (1 << 20) for nbytes, seconds in
             workload.rebuilds]
    print(f"# {workload.name}: {len(block.latencies_ms)} latency samples in "
          f"{len(windows)} windows of 1000 (10 beyond each p99), "
          f"{block.requests} requests in {block.request_s:.3f} s of "
          f"{block.wall_s:.3f} s, {len(rates)} rebuild cycles, set-ups "
          f"{[round(s, 4) for s in setup_s]} s")
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "throughput_iops": (
            statistics.median(n / seconds for n, seconds, _ in windows),
            "req/s"),
        "p50_ms": (statistics.median(nearest_rank(w, 0.5)
                                     for w in per_window), "ms"),
        "p99_ms": (statistics.median(nearest_rank(w, 0.99)
                                     for w in per_window), "ms"),
        "rebuild_mib_s": (statistics.median(rates), "MiB/s"),
        "io_amp": (workload.window.kernel_bytes / workload.window.user_bytes,
                   "ratio"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def per_layer(workload, traced_run: Traced, blocks) -> dict:
    """Per-request figures come from the traced request blocks; decoder,
    plan, rebuild and scrub figures from every traced stretch."""
    tracer = traced_run.tracer
    in_blocks = traced_run.requests
    traced = [b for b in blocks if b.traced]
    untraced = [b for b in blocks if not b.traced]
    requests = sum(b.requests for b in traced)
    writes = sum(b.writes for b in traced)
    write_bytes = sum(b.write_bytes for b in traced)
    request_ns = sum(sum(b.latencies_ms) for b in traced) * 1e6
    totals = tracer.totals()

    def get(layer, field, in_request=True):
        return totals.get((layer, in_request), [0, 0, 0, 0])[field]

    def both(layer, field):
        return get(layer, field, True) + get(layer, field, False)

    def per(value, base, scale=1.0):
        return value / base * scale if base else 0.0

    calls, total, self_ns, nbytes = range(4)
    window = workload.window
    fresh = in_blocks["fresh_sets"] + traced_run.rebuilds["fresh_sets"]
    layers = {layer for layer, _ in totals}
    below_service = layers - {"service"}
    # Journal appends are buffered file writes, not the store's
    # positional syscalls, so they are the rest of the kernel's wchar.
    journal_bytes = max(in_blocks["wchar"] - in_blocks["syscall_bytes"], 0)
    scrub_rates = [nbytes_ / s / (1 << 20) for nbytes_, s in workload.scrubs]
    rebuilt = sum(nbytes_ for nbytes_, _ in workload.rebuilds)
    rate = per(requests, sum(b.request_s for b in traced))
    base_rate = per(sum(b.requests for b in untraced),
                    sum(b.request_s for b in untraced))
    return {
        "service.self_us": (per(get("service", self_ns), requests, 1e-3), "us"),
        "service.lock_wait_ms": (per(in_blocks["lock_wait_ms"], requests,
                                     1e3),
                                 "ms/1k_req"),
        "volume.self_us": (per(get("volume", self_ns), requests, 1e-3), "us"),
        "volume.store_calls_per_req": (
            per(get("store", calls), requests) if get("volume", calls) else 0.0,
            "count"),
        "raid.plan_us": (per(get("raid", total), requests, 1e-3), "us"),
        "store.self_us": (per(get("store", self_ns), requests, 1e-3), "us"),
        "store.meter_us": (per(get("meter", total), requests, 1e-3), "us"),
        "store.syscall_us": (per(get("syscall", total), requests, 1e-3),
                             "us"),
        "store.syscalls_per_req": (per(window.ledger_syscalls,
                                       window.requests), "count"),
        "store.chunk_ios_per_req": (per(window.chunk_ios, window.requests),
                                    "count"),
        "store.parity_writes_per_write": (
            per(window.parity_writes, window.data_writes), "ratio"),
        "store.rebuild_bytes_per_byte": (
            per(workload.rebuild_kernel_bytes, rebuilt), "ratio"),
        "store.scrub_mib_s": (
            statistics.median(scrub_rates) if scrub_rates else 0.0, "MiB/s"),
        "journal.us": (per(get("journal", total), requests, 1e-3), "us"),
        "journal.fsync_us": (per(get("fsync", total), requests, 1e-3), "us"),
        "journal.fsyncs_per_write": (per(get("fsync", calls), writes),
                                     "count"),
        "journal.bytes_per_user_byte": (per(journal_bytes, write_bytes),
                                        "ratio"),
        "codes.decoder_build_ms": (per(both("codes", total), fresh, 1e-6),
                                   "ms"),
        "bitmatrix.compile_ms": (per(both("bitmatrix", total), fresh, 1e-6),
                                 "ms"),
        "codec.decode_us": (per(get("codec", total), requests, 1e-3), "us"),
        "codec.decode_gib_s": (
            per(both("codec", nbytes), both("codec", total), 1e9 / (1 << 30)),
            "GiB/s"),
        "runtime.gc_ms_per_s": (per(in_blocks["gc_ms"], in_blocks["wall_s"]),
                                "ms/s"),
        "trace.closure": (
            per(sum(get(layer, self_ns) for layer in layers), request_ns),
            "ratio"),
        "trace.below_service": (
            per(sum(get(layer, self_ns) for layer in below_service),
                request_ns),
            "ratio"),
        "trace.overhead": (per(rate, base_rate), "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    design = json.loads((HERE / "design.json").read_text())
    pin_host_profile(design["pinned_host_profile"])

    from layers import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".tipbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed)
    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.register_locks()
        traced = Traced(tracer, workload)
    try:
        workload.prepare()
        setup_s = []
        for index in range(workload.setups):
            if index:
                workload.discard()
            workload.reset()
            gc.collect()
            started = time.perf_counter()
            workload.setup(workdir / f"setup{index}")
            setup_s.append(time.perf_counter() - started)
        gc.collect()
        blocks = run_blocks(workload, args.seconds, traced)
        workload.finish()
        workload.check_syscalls()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".tipbench_work").rmdir()
        except OSError:
            pass

    if traced is None:
        metrics = end_to_end(workload, setup_s, blocks)
    else:
        metrics = per_layer(workload, traced, blocks)
        spans = traced.tracer.write_spans(
            ROOT / ".tipbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        )
        print(f"# {spans} spans written to .tipbench_out/")
    for message in workload.errors:
        print(f"# FAILED: {message}")
    attempted = workload.attempted + sum(b.requests for b in blocks)
    correct = workload.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
