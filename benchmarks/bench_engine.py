"""Execution-engine ablation: interpreted vs compiled.

Not a figure of the paper — this tracks the *engine* itself: the same
XOR schedules executed by the interpreted reference
(``XorSchedule.apply``) and by the compiled zero-allocation plan
(``StripeCodec.encode_into`` / ``decode_into``), both single-threaded
like the paper's encoder, on the Fig. 14 geometry (tip, n=12, 4 KiB
packets, 32 MiB region).

Methodology — two things make the paired ratio reproducible where
independently timed single passes swing by 40% on a noisy host:

1. Every engine is timed over the *same* warm buffers in alternating
   round-robin passes. Each round yields one paired ratio (interpreted
   time / compiled time), and the speedup is the **median over rounds
   of those per-round ratios**: host drift hits both engines of a round
   alike and cancels in the ratio, and the median sheds the odd
   disturbed round. Comparing per-engine best rounds instead pairs
   timings taken up to a whole round apart, which at smoke size flips
   the guard on noise. Reported GiB/s are each engine's best round.
2. The measurement runs in a **fresh subprocess**. The interpreted
   engine allocates its outputs and temporaries on every pass, so its
   cost depends on allocator state: in a fresh process glibc serves the
   large buffers by mmap and every pass pays the page faults, while
   after enough allocation churn (e.g. a long pytest run) it adaptively
   raises its mmap threshold and recycles arenas, hiding that cost.
   The compiled engine preallocates everything once and is immune
   either way — that immunity is the point of the design, and the
   fresh-process protocol is what a short-lived encode tool sees.

Byte-level equivalence of the engines is asserted here on the benchmark
geometry (the exhaustive check lives in tests/test_compiled_engine.py);
throughputs land in ``results/`` and, when ``REPRO_BENCH_JSON`` is set,
in the JSON file the CI smoke job publishes, so the perf trajectory is
tracked from this PR on.
"""

import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

N = 12
PACKET = 4096
ROUNDS = 7
DECODE_PATTERNS = 4

#: Acceptance bar for the compiled engine (single-threaded encode).
MIN_ENCODE_SPEEDUP = 1.5

#: Full-size decode bar: the fused two-stage plan (sparse syndromes +
#: back-substitution in one blocked sweep, run-fused wide-word kernels)
#: must clearly beat interpreted dense decoding, like encode does.
MIN_DECODE_SPEEDUP = 1.5

#: Paired smoke guard — asserted at *every* size, so CI's small-data
#: smoke run fails on a real slowdown instead of deferring to the rare
#: full-size run. It is exact (compiled >= interpreted even at smoke
#: size: fewer XORs and no per-pass allocation leave no excuse).
MIN_DECODE_SMOKE_RATIO = 1.0

#: Re-acquiring a decode plan after decoder-LRU eviction must be far
#: cheaper than solving from scratch (the code-level plan caches).
MIN_PLAN_CACHE_SPEEDUP = 3.0


def _timed_rounds(passes, rounds=ROUNDS):
    """Per-engine wall times of ``rounds`` round-robin rounds."""
    for do_pass in passes.values():  # warm plans and page cache
        do_pass()
    times = {name: [] for name in passes}
    for _ in range(rounds):
        for name, do_pass in passes.items():
            start = time.perf_counter()
            do_pass()
            times[name].append(time.perf_counter() - start)
    return times


def _roofline():
    """Measured host ceilings (:func:`repro.bitmatrix.tuning.host_profile`).

    ``xor_gib_s`` is the streaming XOR rate (bytes of destination per
    second of one in-place ``np.bitwise_xor`` far larger than any
    cache); ``xor_cached_gib_s`` is the same XOR over a cache-resident
    working set. The compiled engine sizes its column tiles from the
    same profile so that a tile's rows stay in cache across the plan's
    passes: the cached rate is the ceiling those passes can reach.
    """
    from repro.bitmatrix.tuning import host_profile

    profile = host_profile()
    return {
        "memcpy_gib_s": profile.memcpy_gib_s,
        "xor_gib_s": profile.xor_gib_s,
        "xor_cached_gib_s": profile.xor_cached_gib_s,
    }


def _encode_probe(data_bytes):
    """Paired encode timings; returns per-round seconds per engine."""
    from repro.codec import StripeCodec
    from repro.codes import make_code

    code = make_code("tip", N)
    codec = StripeCodec(code, PACKET)
    stripes = -(-data_bytes // codec.data_bytes_per_stripe)
    width = stripes * PACKET
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, size=(code.num_data, width), dtype=np.uint8)
    out = np.empty((code.num_parity, width), dtype=np.uint8)
    out.fill(0)
    packets = [data[i] for i in range(code.num_data)]

    passes = {
        "interpreted": lambda: codec.encode_packets(packets),
        "compiled": lambda: codec.encode_into(data, out),
    }
    return {
        "payload_bytes": code.num_data * width,
        "xors_per_element": codec.encode_xors / code.num_data,
        # Full-width row sweeps the compiled plan performs per data row:
        # converts payload GiB/s into achieved XOR-stream GiB/s.
        "passes_per_data_row": codec.encode_plan.memory_passes
        / code.num_data,
        "rounds": _timed_rounds(passes),
        "roofline": _roofline(),
    }


def _decode_probe(data_bytes):
    """Paired decode timings over sampled failure patterns.

    Each round's time per engine sums that round over every pattern, so
    a round's paired ratio covers the whole pattern mix.
    """
    from repro.codec import StripeCodec
    from repro.codes import make_code

    code = make_code("tip", N)
    codec = StripeCodec(code, PACKET)
    stripes = -(-data_bytes // codec.data_bytes_per_stripe)
    width = stripes * PACKET
    rng_np = np.random.default_rng(3)
    combos = random.Random(3).sample(
        list(itertools.combinations(range(code.cols), code.faults)),
        DECODE_PATTERNS,
    )
    total = {name: [0.0] * ROUNDS for name in ("interpreted", "compiled")}
    total_passes = 0
    for combo in combos:
        decoder = code.decoder_for(combo)
        total_passes += decoder.compiled_plan().memory_passes
        known = rng_np.integers(
            0,
            256,
            size=(len(decoder.plan.known_positions), width),
            dtype=np.uint8,
        )
        out = np.empty(
            (len(decoder.plan.unknown_positions), width), dtype=np.uint8
        )
        out.fill(0)
        packets = [known[i] for i in range(known.shape[0])]
        passes = {
            "interpreted": lambda: decoder.plan.schedule.apply(packets),
            "compiled": lambda: codec.decode_into(combo, known, out),
        }
        for name, times in _timed_rounds(passes).items():
            for i, seconds in enumerate(times):
                total[name][i] += seconds
    count = len(combos)
    return {
        "payload_bytes": code.num_data * width * count,
        # Dense-schedule XORs: the paper's decode cost metric (what the
        # interpreted engine executes).
        "xors_per_element": sum(
            code.decoder_for(c).xor_count for c in combos
        )
        / (code.num_data * count),
        # Fused two-stage XORs: what the compiled engine executes.
        "fused_xors_per_element": sum(
            code.decoder_for(c).fused_xor_count for c in combos
        )
        / (code.num_data * count),
        "passes_per_data_row": total_passes / (code.num_data * count),
        "rounds": total,
        "plan_seconds": _plan_probe(combos),
        "roofline": _roofline(),
    }


def _plan_probe(combos, rounds=3):
    """Decode-plan acquisition cost: cold vs warm vs after LRU eviction.

    ``cold`` solves the recovery system and lowers the schedule from
    scratch on a fresh code instance. ``warm`` hits the decoder LRU.
    ``evicted`` is the satellite case: a decoder cache of 1 forces every
    ``decoder_for`` to re-create the Decoder, but the code-level
    recovery/compiled plan caches hand back the solved artifacts — this
    used to cost the same as cold.
    """
    from repro.codes import make_code

    def best_over(prepare, body):
        best = float("inf")
        for _ in range(rounds):
            state = prepare()
            start = time.perf_counter()
            body(state)
            best = min(best, time.perf_counter() - start)
        return best

    cold = best_over(
        lambda: [make_code("tip", N) for _ in combos],
        lambda codes: [
            c.decoder_for(combo).compiled_plan()
            for c, combo in zip(codes, combos)
        ],
    )

    warm_code = make_code("tip", N)
    for combo in combos:
        warm_code.decoder_for(combo).compiled_plan()
    warm = best_over(
        lambda: warm_code,
        lambda c: [c.decoder_for(combo).compiled_plan() for combo in combos],
    )

    evicted_code = make_code("tip", N)
    evicted_code.decoder_cache_size = 1
    for combo in combos:
        evicted_code.decoder_for(combo).compiled_plan()
    evicted = best_over(
        lambda: evicted_code,
        lambda c: [c.decoder_for(combo).compiled_plan() for combo in combos],
    )
    return {"cold": cold, "warm": warm, "evicted": evicted}


def _fresh_probe(kind, data_bytes):
    """Run a probe in a fresh interpreter so allocator state is fixed.

    Inherits the parent's environment and working directory, so a
    relative ``PYTHONPATH=src`` keeps resolving; the probe itself only
    imports ``repro`` and numpy.
    """
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), kind, str(data_bytes)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def _speeds(probe):
    """Best-round payload GiB/s per engine."""
    return {
        name: probe["payload_bytes"] / min(times) / (1 << 30)
        for name, times in probe["rounds"].items()
    }


def _paired_speedup(probe):
    """Median over rounds of the per-round compiled/interpreted speed
    ratio (interpreted seconds over compiled seconds of one round)."""
    rounds = probe["rounds"]
    return statistics.median(
        slow / fast
        for slow, fast in zip(rounds["interpreted"], rounds["compiled"])
    )


def _engine_rows(speed, speedup):
    """Table rows: best-round GiB/s and the paired-median ratio."""
    return [
        ["interpreted", f"{speed['interpreted']:.3f}", "1.00"],
        ["compiled", f"{speed['compiled']:.3f}", f"{speedup:.2f}"],
    ]


def _roofline_fields(probe, speed):
    """Roofline record: measured ceilings + the compiled engine's share.

    ``achieved_fraction`` rescales the compiled payload throughput into
    XOR-stream bandwidth (payload GiB/s x memory passes per data row)
    and divides by the cache-resident XOR ceiling — the tiled sweep
    keeps hot rows in cache, so the uncached stream rate (recorded as
    ``roofline_stream_gib_s``) is not a ceiling for it.
    """
    roofline = probe["roofline"]
    stream = speed["compiled"] * probe["passes_per_data_row"]
    return {
        "roofline_memcpy_gib_s": round(roofline["memcpy_gib_s"], 3),
        "roofline_stream_gib_s": round(roofline["xor_gib_s"], 3),
        "roofline_gib_s": round(roofline["xor_cached_gib_s"], 3),
        "passes_per_data_row": round(probe["passes_per_data_row"], 4),
        "roofline_achieved_fraction": round(
            stream / roofline["xor_cached_gib_s"], 3
        ),
    }


if __name__ == "__main__":
    _kind, _bytes = sys.argv[1], int(sys.argv[2])
    _probe = _encode_probe if _kind == "encode" else _decode_probe
    print(json.dumps(_probe(_bytes)))
    sys.exit(0)


from _common import emit, format_table, record_json, scaled_bytes  # noqa: E402

DATA_BYTES = scaled_bytes(32 << 20)

#: The perf-regression assertions only run at full benchmark size: on
#: the tiny CI smoke size the fixed per-call overheads dominate and the
#: ratios are meaningless.
FULL_SIZE = DATA_BYTES >= 16 << 20


def test_engine_encode_ablation():
    probe = _fresh_probe("encode", DATA_BYTES)
    speed = _speeds(probe)
    speedup = _paired_speedup(probe)
    roofline = _roofline_fields(probe, speed)
    emit(
        "engine_encode_ablation",
        [
            f"code=tip n={N} data_mb={DATA_BYTES >> 20} "
            f"rounds={ROUNDS} host_cpus={os.cpu_count()}",
            *format_table(
                ["engine", "GiB/s", "vs interpreted"],
                _engine_rows(speed, speedup),
            ),
            f"roofline_gib_s={roofline['roofline_gib_s']:.2f} "
            f"achieved={roofline['roofline_achieved_fraction']:.2f}",
        ],
    )
    record_json(
        "engine_encode_ablation",
        {
            "code": "tip",
            "n": N,
            "data_bytes": DATA_BYTES,
            "rounds": ROUNDS,
            "host_cpus": os.cpu_count(),
            "xors_per_element": round(probe["xors_per_element"], 4),
            "compiled_speedup": round(speedup, 3),
            **{
                f"{name}_gib_s": round(value, 4)
                for name, value in speed.items()
            },
            **roofline,
        },
    )
    assert speed["compiled"] > 0
    # A roofline is a ceiling: the engine cannot beat cache-resident XOR.
    assert roofline["roofline_achieved_fraction"] <= 1, roofline
    if FULL_SIZE:
        assert speedup >= MIN_ENCODE_SPEEDUP, (speedup, probe["rounds"])


def test_engine_decode_ablation():
    probe = _fresh_probe("decode", DATA_BYTES)
    speed = _speeds(probe)
    speedup = _paired_speedup(probe)
    plan = probe["plan_seconds"]
    plan_cache_speedup = plan["cold"] / max(plan["evicted"], 1e-9)
    roofline = _roofline_fields(probe, speed)
    emit(
        "engine_decode_ablation",
        [
            f"code=tip n={N} data_mb={DATA_BYTES >> 20} "
            f"patterns={DECODE_PATTERNS} rounds={ROUNDS} "
            f"host_cpus={os.cpu_count()}",
            *format_table(
                ["engine", "GiB/s", "vs interpreted"],
                _engine_rows(speed, speedup),
            ),
            f"xors/elem dense={probe['xors_per_element']:.2f} "
            f"fused={probe['fused_xors_per_element']:.2f}",
            f"roofline_gib_s={roofline['roofline_gib_s']:.2f} "
            f"achieved={roofline['roofline_achieved_fraction']:.2f}",
            f"plan_cold_ms={plan['cold'] * 1e3:.2f}",
            f"plan_warm_us={plan['warm'] * 1e6:.1f}",
            f"plan_evicted_us={plan['evicted'] * 1e6:.1f}",
            f"plan_cache_speedup={plan_cache_speedup:.0f}",
        ],
    )
    record_json(
        "engine_decode_ablation",
        {
            "code": "tip",
            "n": N,
            "data_bytes": DATA_BYTES,
            "rounds": ROUNDS,
            "host_cpus": os.cpu_count(),
            "xors_per_element": round(probe["xors_per_element"], 4),
            "fused_xors_per_element": round(
                probe["fused_xors_per_element"], 4
            ),
            "compiled_speedup": round(speedup, 3),
            **{
                f"{name}_gib_s": round(value, 4)
                for name, value in speed.items()
            },
            **roofline,
            "plan_cold_ms": round(plan["cold"] * 1e3, 3),
            "plan_warm_us": round(plan["warm"] * 1e6, 1),
            "plan_evicted_us": round(plan["evicted"] * 1e6, 1),
            "plan_cache_speedup": round(plan_cache_speedup, 1),
        },
    )
    assert speed["compiled"] > 0
    # A roofline is a ceiling: the engine cannot beat cache-resident XOR.
    assert roofline["roofline_achieved_fraction"] <= 1, roofline
    # Guards at every size: the compiled fused path must never fall
    # behind the interpreted dense engine (it executes fewer XORs and
    # allocates nothing per pass), and re-acquiring a decode plan after
    # decoder-LRU eviction must skip the algebra entirely.
    assert speedup >= MIN_DECODE_SMOKE_RATIO, (speedup, probe["rounds"])
    assert plan_cache_speedup >= MIN_PLAN_CACHE_SPEEDUP, plan
    if FULL_SIZE:
        assert speedup >= MIN_DECODE_SPEEDUP, (speedup, probe["rounds"])


def test_engine_paths_byte_identical():
    """Both engines produce the same bytes on the bench geometry."""
    from repro.codec import StripeCodec
    from repro.codes import make_code

    code = make_code("tip", N)
    codec = StripeCodec(code, packet_size=PACKET)
    rng = np.random.default_rng(5)
    width = PACKET * 8
    data = rng.integers(0, 256, size=(code.num_data, width), dtype=np.uint8)
    reference = codec.encode_packets([data[i] for i in range(len(data))])
    compiled = codec.encode_into(data)
    assert all(
        np.array_equal(compiled[i], reference[i])
        for i in range(code.num_parity)
    )

    combo = (0, 1, 2)
    decoder = code.decoder_for(combo)
    known = rng.integers(
        0,
        256,
        size=(len(decoder.plan.known_positions), width),
        dtype=np.uint8,
    )
    single = codec.decode_into(combo, known)
    # The compiled engine executes the fused two-stage plan; it must be
    # byte-identical to the interpreted dense schedule it replaced.
    dense = decoder.plan.schedule.apply(
        [known[i] for i in range(known.shape[0])]
    )
    assert all(
        np.array_equal(single[i], dense[i]) for i in range(len(dense))
    )
