"""End-to-end benchmark of the Paulihedral reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ft-paper|sc-paper|serve-mix \\
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric; with ``--trace 1`` it holds the per-layer
table instead.  Every result is checked for correctness; the exit code
is 0 only when all checks pass.  See ``perfbench/README.md`` for what
each workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    HASH_SEED,
    ROOT,
    SRC,
    WORK,
    WORK_ROOT,
    child_env,
    median,
    own_peak_rss_mb,
    percentile,
    setup_probe,
)

WORKLOADS = ("ft-paper", "sc-paper", "serve-mix")
#: Set-ups per run; ``setup_s`` is their median.  A library set-up takes
#: about half a second, a cluster set-up about four.
LIBRARY_SETUPS = 5
CLUSTER_SETUPS = 3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _counts(metrics_list) -> dict:
    return {key: _metric(sum(m[key] for m in metrics_list), "count")
            for key in ("cnot", "single", "depth")}


def _latencies(warm_ms, cold_ms) -> dict:
    return {
        "warm_p50_ms": _metric(percentile(warm_ms, 50), "ms"),
        "warm_p99_ms": _metric(percentile(warm_ms, 99), "ms"),
        "cold_p50_ms": _metric(percentile(cold_ms, 50), "ms"),
        "cold_p90_ms": _metric(percentile(cold_ms, 90), "ms"),
    }


def _serve_layers(served: dict) -> dict:
    """Per-layer figures of one served session."""
    traffic = served["traffic"]
    cache = served["stats"]["cluster"]["cache"]
    cold = list(traffic.cold_frames.values())

    def overhead(frames):
        return median([f["latency_ms"] - f["queued_ms"] - f["compile_ms"]
                       for f in frames])

    return {
        "cache.hit_rate": _metric(cache["hits"] / cache["lookups"], "ratio"),
        "cache.disk_hits": _metric(cache["disk_hits"], "count"),
        "cache.puts": _metric(cache["puts"], "count"),
        "cache.pulled": _metric(cache["pulled"], "count"),
        "gateway.queued_ms_p50": _metric(median([f["queued_ms"] for f in cold]), "ms"),
        "worker.compile_ms_p50": _metric(median([f["compile_ms"] for f in cold]), "ms"),
        "serve.overhead_ms_warm_p50": _metric(overhead(traffic.warm_frames), "ms"),
        "serve.overhead_ms_cold_p50": _metric(overhead(cold), "ms"),
        "router.hop_ms": _metric(served["hop_ms"], "ms"),
        "setup.cluster_start_s": _metric(served["setups"][0]["start_s"], "s"),
        "setup.prime_s": _metric(served["setups"][0]["prime_s"], "s"),
    }


def _pipeline_layers(passes: dict, compile_s: float) -> dict:
    """Per-layer figures of the staged passes."""
    stages, once = passes["stages"], passes["once"]

    def total(key):
        return sum(stage[key] for stage in stages)

    staged_s = total("schedule_s") + total("synth_s") + total("peephole_s")
    return {
        "schedule.s": _metric(total("schedule_s"), "s"),
        "schedule.share": _metric(total("schedule_s") / staged_s, "ratio"),
        "schedule.layers": _metric(total("layers"), "count"),
        "synth.s": _metric(total("synth_s"), "s"),
        "synth.share": _metric(total("synth_s") / staged_s, "ratio"),
        "synth.gates": _metric(total("synth_gates"), "count"),
        "synth.swaps": _metric(total("swaps"), "count"),
        "peephole.s": _metric(total("peephole_s"), "s"),
        "peephole.share": _metric(total("peephole_s") / staged_s, "ratio"),
        "peephole.removed": _metric(total("removed"), "count"),
        "verify.s": _metric(once["verify_s"], "s"),
        "artifact.encode_s": _metric(once["encode_s"], "s"),
        "artifact.decode_s": _metric(once["decode_s"], "s"),
        "artifact.mb": _metric(once["mb"], "MB"),
        "trace.overhead": _metric(staged_s / compile_s - 1.0, "ratio"),
    }


def run_library(workload: str, seed: int, seconds: float, trace: bool):
    import library
    from serve import serve

    backend = library.WORKLOAD_BACKEND[workload]
    # One set-up before the passes, one after each pass and the rest at
    # the end, so that their median spans the run.
    probes = [setup_probe(backend, child_env())]

    def probe_after_pass():
        if len(probes) < LIBRARY_SETUPS:
            probes.append(setup_probe(backend, child_env()))

    def probe_rest():
        probes.extend(setup_probe(backend, child_env())
                      for _ in range(LIBRARY_SETUPS - len(probes)))

    ledger = library.Ledger()
    entries = library.corpus(workload, seed)
    if trace:
        passes = library.paper_passes(entries, library.pass_count(seconds, True),
                                      ledger, trace=True, after_pass=probe_after_pass)
        compile_s = sum(passes["best"])
        served = serve(seed, seconds / 6, backend=backend, traced=True)
        probe_rest()
        ledger.attempted += served["traffic"].attempted
        ledger.failures.extend(served["traffic"].failures)
        metrics = {
            **_pipeline_layers(passes, compile_s),
            **_serve_layers(served),
            "fingerprint.ms": _metric(library.fingerprint_ms(backend), "ms"),
            "setup.import_s": _metric(median([p[1] for p in probes]), "s"),
        }
        return metrics, ledger
    count = library.pass_count(seconds, False)
    legs = library.Legs(backend, seed, ledger, count)
    passes = library.paper_passes(entries, count, ledger, trace=False, legs=legs,
                                  after_pass=probe_after_pass)
    legs.top_up()
    probe_rest()
    compile_s = sum(passes["best"])
    metrics = {
        "setup_s": _metric(median([p[0] for p in probes]), "s"),
        "compile_s": _metric(compile_s, "s"),
        "peak_rss_mb": _metric(own_peak_rss_mb(), "MB"),
        **_counts(passes["counts"]),
        "req_per_s": _metric(len(entries) / compile_s, "1/s"),
        **_latencies(legs.warm_ms, legs.cold_ms),
    }
    return metrics, ledger


def run_serve_mix(seed: int, seconds: float, trace: bool):
    import library
    from common import cold_backend, cold_program
    from serve import serve

    ledger = library.Ledger()
    if trace:
        probes = [setup_probe("ft", child_env()) for _ in range(LIBRARY_SETUPS)]
        served = serve(seed, seconds / 3, traced=True)
    else:
        served = serve(seed, seconds, setups=CLUSTER_SETUPS)
    traffic = served["traffic"]
    ledger.attempted += traffic.attempted + served["verified"]
    ledger.failures.extend(traffic.failures)
    if trace:
        sample = [library.Entry(
            f"cold-{index}",
            lambda index=index: cold_program(seed, index),
            {"backend": cold_backend(index),
             "scheduler": "gco" if cold_backend(index) == "ft" else "do",
             "coupling": library.manhattan_65() if cold_backend(index) == "sc" else None})
            for index in sorted(traffic.cold_frames)[:12]]
        passes = library.paper_passes(sample, library.pass_count(seconds / 6, True),
                                      ledger, trace=True)
        metrics = {
            **_pipeline_layers(passes, sum(passes["best"])),
            **_serve_layers(served),
            "fingerprint.ms": _metric(library.fingerprint_ms(None), "ms"),
            "setup.import_s": _metric(median([p[1] for p in probes]), "s"),
        }
        return metrics, ledger
    mix = served["mix"]
    cold_compile_ms = [f["compile_ms"] for f in traffic.cold_frames.values()]
    metrics = {
        "setup_s": _metric(median([s["setup_s"] for s in served["setups"]]), "s"),
        # Worker seconds per 100 cold requests, from the median over all of
        # them, which span the whole timed phase.
        "compile_s": _metric(100 * median(cold_compile_ms) / 1e3, "s"),
        "peak_rss_mb": _metric(served["peak_rss_mb"], "MB"),
        **_counts(mix.hot_metrics.values()),
        "req_per_s": _metric(
            (len(traffic.warm_ms) + len(traffic.cold_ms)) / traffic.wall_s, "1/s"),
        **_latencies(traffic.warm_ms, traffic.cold_ms),
    }
    return metrics, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no compiler sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Pin the hash seed for this process too (see common.HASH_SEED).
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into an exception so that the clean-up below still
    # stops any cluster this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if args.workload == "serve-mix":
            metrics, ledger = run_serve_mix(args.seed, args.seconds, bool(args.trace))
        else:
            metrics, ledger = run_library(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    failed = len(ledger.failures)
    for failure in ledger.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if args.trace and failed:
        # A per-layer table from a run whose staged pipeline or outputs
        # failed their checks would describe the wrong computation.
        metrics = {}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
