"""Turns one raw driver record into the benchmark's metrics.

The driver (driver.cpp) writes raw samples; everything statistical lives
here so it can be unit-tested without building anything
(python3 -m unittest discover -s perfbench).
"""

import math

# End-to-end metrics, reported with tracing off: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "seed_spread": ("vertices", "higher"),
}

# Per-layer metrics, reported by the traced run: name -> (unit, better).
PER_LAYER = {
    "workloads.graph_ingest_s": ("s", "lower"),
    "core.build_rrr_pool_ms": ("ms", "lower"),
    "core.sampling_ms": ("ms", "lower"),
    "core.probe_select_ms": ("ms", "lower"),
    "core.martingale_rounds": ("count", "lower"),
    "core.theta": ("count", "lower"),
    "rrr.sets": ("count", "lower"),
    "rrr.members_per_set": ("count", "lower"),
    "rrr.bitmap_sets": ("count", "higher"),
    "rrr.sets_per_s": ("1/s", "higher"),
    "rrr.pool_mb": ("MiB", "lower"),
    "seedselect.final_select_ms": ("ms", "lower"),
    "seedselect.rebuild_rounds": ("count", "lower"),
    "serve.store_build_s": ("s", "lower"),
    "io.snapshot_save_ms": ("ms", "lower"),
    "io.snapshot_mb": ("MiB", "lower"),
    "io.snapshot_load_ms": ("ms", "lower"),
    "io.bytes_copied": ("count", "lower"),
    "serve.engine_verify_ms": ("ms", "lower"),
    "serve.reload_ms": ("ms", "lower"),
    "serve.rtt_p50_ms.topk": ("ms", "lower"),
    "serve.rtt_p50_ms.select": ("ms", "lower"),
    "serve.rtt_p50_ms.cached": ("ms", "lower"),
    "serve.kernel_p50_ms": ("ms", "lower"),
    "serve.queue_wait_us_p50": ("us", "lower"),
    "serve.exec_us_p50": ("us", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "serve.retries": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# A tail percentile is reported only with this many samples beyond it.
TAIL_MARGIN = 10

# The reported tail. On a shared 4-core host the serving p99 sits where
# the latency density is thin (scheduler hiccups of 3-30 ms), and moved
# 2.5-4.9 ms between 30-s runs of the same code; p90 moved 2.15-2.31 ms.
TAIL_PERCENT = 90

FAILURE_KINDS = ("threw", "refused", "timed_out", "invalid")


def nearest_rank(samples, percent):
    """Nearest-rank percentile: the smallest sample with at least
    `percent`% of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, percent, margin=TAIL_MARGIN):
    """The nearest-rank percentile, or None when fewer than `margin`
    samples lie beyond its rank."""
    n = len(samples)
    rank = max(1, math.ceil(percent / 100.0 * n))
    if n == 0 or n - rank < margin:
        return None
    return nearest_rank(samples, percent)


def fail_frac(attempted, failed):
    """Share of attempted ops that threw, were refused, timed out or
    failed validation. `failed` maps a failure kind to its count."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    unknown = set(failed) - set(FAILURE_KINDS)
    if unknown:
        raise ValueError(f"unknown failure kinds {sorted(unknown)}")
    total = sum(failed.values())
    if total > attempted:
        raise ValueError("more failures than attempts")
    return total / attempted


def kib_to_mib(kib):
    """getrusage reports ru_maxrss in KiB on Linux."""
    return kib / 1024.0


def merge(raws):
    """One run's record from the records of its driver processes: samples
    are pooled, counts and timed wall time summed, and per-process values
    (set-up time, peak RSS, seed spread) kept as one sample each."""
    first = raws[0]
    layers = {}
    for raw in raws:
        for name, samples in raw["layers"].items():
            layers.setdefault(name, []).extend(samples)
    return {
        "workload": first["workload"],
        "seed": first["seed"],
        "config": first["config"],
        "scrubbed_env": sorted({n for r in raws for n in r["scrubbed_env"]}),
        "notes": [n for r in raws for n in r["notes"]],
        "loadavg": [(r["loadavg_start"], r["loadavg_end"]) for r in raws],
        "setup_s": [r["setup_s"] for r in raws],
        "op_ms": [x for r in raws for x in r["op_ms"]],
        "timed_wall_s": sum(r["timed_wall_s"] for r in raws),
        "attempted": sum(r["attempted"] for r in raws),
        "failed": {k: sum(r["failed"][k] for r in raws)
                   for k in FAILURE_KINDS},
        "maxrss_kib": [r["maxrss_kib"] for r in raws],
        "seed_spread": [r["seed_spread"] for r in raws],
        "layers": layers,
    }


def end_to_end(raw):
    """End-to-end metrics of one untraced (merged) run, plus one note per
    metric that says how it was formed."""
    ops = raw["op_ms"]
    if not ops:
        raise ValueError("no op completed")
    tail = tail_percentile(ops, TAIL_PERCENT)
    if tail is None:
        tail = max(ops)
        tail_note = f"slowest of {len(ops)} ops (too few for a p90)"
    else:
        tail_note = f"p90 of {len(ops)} ops"
        p99 = tail_percentile(ops, 99)
        if p99 is not None:
            tail_note += f"; p99 {p99:.4g} ms, context only"
    values = {
        "setup_s": nearest_rank(raw["setup_s"], 50),
        "op_p50_ms": nearest_rank(ops, 50),
        "op_p90_ms": tail,
        "ops_per_s": len(ops) / raw["timed_wall_s"],
        "peak_rss_mb": kib_to_mib(nearest_rank(raw["maxrss_kib"], 50)),
        "seed_spread": nearest_rank(raw["seed_spread"], 50),
    }
    notes = {
        "setup_s": f"median of {len(raw['setup_s'])} processes",
        "op_p50_ms": f"median of {len(ops)} ops",
        "op_p90_ms": tail_note,
        "ops_per_s": f"{len(ops)} ops in {raw['timed_wall_s']:.3f} s",
        "peak_rss_mb": f"median ru_maxrss of {len(raw['maxrss_kib'])} "
                       "processes",
        "seed_spread": "Monte-Carlo sigma(S), 1000 samples",
    }
    return values, notes


def per_layer(raw):
    """Per-layer metrics of one traced run. Sample lists become their
    median; a layer the workload does not exercise reports 0."""
    values = {}
    for name in PER_LAYER:
        samples = raw["layers"].get(name)
        values[name] = nearest_rank(samples, 50) if samples else 0.0
    return values


def result_line(values, units, attempted, failures):
    """The benchmark's final JSON object."""
    failed = sum(failures.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name][0]}
            for name in units
        },
    }
