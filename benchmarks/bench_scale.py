"""Large-scale streaming compile benchmark (100-500 qubits, 10^4-10^6 terms).

Times the streaming schedulers (``core/streaming.py``) on generator-backed
scale workloads against the scalar seed oracle (``core/reference.py``), and
records the memory high-water marks that make the large-scale regime
tractable at all:

* **scheduling** — ``gco-stream`` / ``do-stream`` wall time over the whole
  program, against the scalar oracle's time on a fixed
  ``ORACLE_SLICE_BLOCKS``-block slice of the same program, timed in the
  same process.  On that slice ``gco_schedule`` / ``do_schedule`` are first
  asserted identical to the oracle.  ``ratio`` is ``stream_s / oracle_s``;
  ``per_block_speedup`` compares the two per-block costs;
* **memory ceiling** — tracemalloc peak of a full ``do-stream`` drain
  (host-independent Python+numpy allocation bytes; the frontier holds at
  most ``DEFAULT_WINDOW`` realized profile rows) gated against a per-config
  absolute ceiling and the committed baseline;
* **end-to-end** — ``ft_compile`` (+ ``sc_compile`` on the 200-qubit full
  config) through the streaming path with the full peephole cleanup, with
  gate counts and peak RSS.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke    # CI gate
    PYTHONPATH=src python benchmarks/bench_scale.py            # full
    PYTHONPATH=src python benchmarks/bench_scale.py --large    # +500q/10^6

``--out FILE`` dumps every row as JSON (CI uploads it as an artifact);
``--baseline FILE`` additionally fails if any scheduling ratio or any traced
memory peak more than doubles against the committed baseline
(``benchmarks/results/bench_scale_baseline.json``).  Exit status is
non-zero on any gate failure.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.core import compile_program
from repro.core.reference import scalar_do_schedule, scalar_gco_schedule
from repro.core.scheduling import do_schedule, gco_schedule
from repro.core.streaming import stream_schedule
from repro.ir import PauliProgram
from repro.transpile.coupling import grid
from repro.workloads import scale_hubbard_program, scale_random_program


class ScaleConfig(NamedTuple):
    name: str
    build: Callable[[], PauliProgram]
    #: absolute tracemalloc ceiling (MB) for a full do-stream drain.
    mem_ceiling_mb: float
    #: which end-to-end compiles to run ("ft" always; "sc" is minutes).
    run_sc: bool


SMOKE_CONFIGS = [
    ScaleConfig(
        "ScaleRand-60x4000", lambda: scale_random_program(60, 4_000),
        mem_ceiling_mb=16.0, run_sc=False,
    ),
]

FULL_CONFIGS = [
    ScaleConfig(
        "ScaleRand-100x10000", lambda: scale_random_program(100, 10_000),
        mem_ceiling_mb=32.0, run_sc=False,
    ),
    ScaleConfig(
        "ScaleHubbard-100x30", lambda: scale_hubbard_program(50, steps=30),
        mem_ceiling_mb=32.0, run_sc=False,
    ),
    ScaleConfig(
        "ScaleRand-200x100000", lambda: scale_random_program(200, 100_000),
        mem_ceiling_mb=128.0, run_sc=True,
    ),
]

LARGE_CONFIGS = [
    ScaleConfig(
        "ScaleRand-500x1000000", lambda: scale_random_program(500, 1_000_000),
        mem_ceiling_mb=1536.0, run_sc=False,
    ),
]

#: Blocks in the slice the scalar oracle schedules: the first 400 of the
#: program, about 0.7 s of scalar ``do`` on one core.
ORACLE_SLICE_BLOCKS = 400

#: Minimum per-block speedups of the streaming pass over the scalar oracle
#: (same process, same box, so the ratio divides out host speed).  Kept
#: far below the measured values (~6-9x gco, ~16-33x do) to alarm only on
#: regressions.
SPEEDUP_FLOORS = {"gco-schedule": 2.0, "do-schedule": 1.5}


def _rss_mb() -> float:
    """Process high-water RSS in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drain(layers) -> int:
    """Consume a layer iterator, returning the block count."""
    return sum(len(layer) for layer in layers)


def _best_of(
    fn: Callable[[], object],
    repeats: int,
    setup: Optional[Callable[[], None]] = None,
) -> float:
    """Minimum single-run wall time (no separate warmup: scale runs are
    seconds each, so the first run is kept rather than discarded).

    ``setup`` runs untimed before every attempt; the schedulers use it to
    drop memoized block views so every attempt starts from a cold program —
    otherwise a previous repeat pre-pays the view construction of the
    blocks the scheduler emits.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _signature(schedule) -> List[List[tuple]]:
    return [
        [tuple(ws.string.label for ws in block) for block in layer]
        for layer in schedule
    ]


def bench_config(config: ScaleConfig, repeats: int) -> List[Dict]:
    rows: List[Dict] = []

    start = time.perf_counter()
    program = config.build()
    build_s = time.perf_counter() - start
    rows.append(
        {"workload": config.name, "kernel": "build",
         "stream_s": build_s, "blocks": program.num_blocks}
    )
    print(f"{config.name}: built {program.num_blocks} blocks "
          f"in {build_s:.2f}s", flush=True)

    oracle_program = PauliProgram(
        program.blocks[:ORACLE_SLICE_BLOCKS],
        name=f"{config.name}[:{ORACLE_SLICE_BLOCKS}]",
    )
    slice_blocks = oracle_program.num_blocks
    for sched, oracle, schedule in (
        ("gco", scalar_gco_schedule, gco_schedule),
        ("do", scalar_do_schedule, do_schedule),
    ):
        assert _signature(schedule(oracle_program)) == \
            _signature(oracle(oracle_program)), \
            f"{sched}_schedule diverged from the scalar oracle on " \
            f"{oracle_program.name}"
        stream_s = _best_of(
            lambda: _drain(stream_schedule(program, f"{sched}-stream")),
            repeats, setup=program.release_views,
        )
        oracle_s = _best_of(lambda: oracle(oracle_program), repeats)
        row = {"workload": config.name, "kernel": f"{sched}-schedule",
               "stream_s": stream_s, "oracle_s": oracle_s,
               "ratio": stream_s / oracle_s,
               "per_block_speedup": (oracle_s / slice_blocks)
               / (stream_s / program.num_blocks)}
        if sched == "do":
            program.release_views()
            tracemalloc.start()
            _drain(stream_schedule(program, "do-stream"))  # DEFAULT_WINDOW
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            row["tracemalloc_mb"] = peak / 2**20
            row["mem_ceiling_mb"] = config.mem_ceiling_mb
        rows.append(row)
        print(f"{config.name}: {sched}-stream {stream_s:.2f}s, scalar "
              f"oracle on {slice_blocks} blocks {oracle_s:.2f}s "
              f"(ratio {row['ratio']:.3f}, "
              f"{row['per_block_speedup']:.1f}x per block)", flush=True)

    start = time.perf_counter()
    ft = compile_program(program, backend="ft", scheduler="gco-stream",
                         run_peephole=True)
    ft_s = time.perf_counter() - start
    rows.append(
        {"workload": config.name, "kernel": "ft-compile",
         "stream_s": ft_s, "gates": ft.circuit.size, "rss_mb": _rss_mb()}
    )
    print(f"{config.name}: ft gco-stream {ft_s:.2f}s, "
          f"{ft.circuit.size} gates, RSS {_rss_mb():.0f} MB", flush=True)

    if config.run_sc:
        side = 1
        while side * side < program.num_qubits:
            side += 1
        start = time.perf_counter()
        sc = compile_program(program, backend="sc", scheduler="do-stream",
                             coupling=grid(side, side), run_peephole=True)
        sc_s = time.perf_counter() - start
        rows.append(
            {"workload": config.name, "kernel": "sc-compile",
             "stream_s": sc_s, "gates": sc.circuit.size, "rss_mb": _rss_mb()}
        )
        print(f"{config.name}: sc do-stream {sc_s:.2f}s, "
              f"{sc.circuit.size} gates, RSS {_rss_mb():.0f} MB", flush=True)
    return rows


def _print_rows(rows: List[Dict]) -> None:
    print()
    print(f"{'workload':<24} {'kernel':<14} {'stream':>9} {'oracle':>9} "
          f"{'ratio':>8} {'mem MB':>8}")
    for row in rows:
        oracle = (f"{row['oracle_s']:>8.3f}s"
                  if "oracle_s" in row else f"{'-':>9}")
        ratio = (f"{row['ratio']:>8.3f}" if "ratio" in row
                 else f"{'-':>8}")
        mem = (f"{row['tracemalloc_mb']:>8.1f}" if "tracemalloc_mb" in row
               else (f"{row['rss_mb']:>8.0f}" if "rss_mb" in row
                     else f"{'-':>8}"))
        print(f"{row['workload']:<24} {row['kernel']:<14} "
              f"{row['stream_s']:>8.3f}s {oracle} {ratio} {mem}")
    print()


def check_gates(rows: List[Dict]) -> List[str]:
    """Absolute floors: per-block speedup over the scalar oracle per
    kernel, traced memory per config."""
    problems = []
    for row in rows:
        floor = SPEEDUP_FLOORS.get(row["kernel"])
        if floor is not None and row["per_block_speedup"] < floor:
            problems.append(
                f"{row['workload']}/{row['kernel']}: per-block speedup "
                f"{row['per_block_speedup']:.1f}x over the scalar oracle "
                f"below the {floor:.1f}x floor"
            )
        if "tracemalloc_mb" in row and \
                row["tracemalloc_mb"] > row["mem_ceiling_mb"]:
            problems.append(
                f"{row['workload']}/{row['kernel']}: traced peak "
                f"{row['tracemalloc_mb']:.1f} MB over the "
                f"{row['mem_ceiling_mb']:.0f} MB ceiling"
            )
    return problems


def check_baseline(rows: List[Dict], path: str) -> List[str]:
    """Relative gates against the committed baseline: the streaming-to-
    oracle time ratio and the traced memory peak may not more than double.
    The ratio divides out host speed; allocation bytes are host-independent
    already."""
    with open(path) as handle:
        baseline = json.load(handle)["rows"]
    problems = []
    for row in rows:
        key = f"{row['workload']}/{row['kernel']}"
        recorded = baseline.get(key)
        if recorded is None:
            continue  # larger modes add rows the smoke baseline lacks
        if "ratio" in row and "ratio" in recorded and \
                row["ratio"] > recorded["ratio"] * 2.0:
            problems.append(
                f"{key}: stream/oracle ratio {row['ratio']:.3f} more than "
                f"doubled the committed baseline {recorded['ratio']:.3f}"
            )
        if "tracemalloc_mb" in row and "tracemalloc_mb" in recorded and \
                row["tracemalloc_mb"] > recorded["tracemalloc_mb"] * 2.0:
            problems.append(
                f"{key}: traced peak {row['tracemalloc_mb']:.1f} MB more "
                f"than doubled the committed baseline "
                f"{recorded['tracemalloc_mb']:.1f} MB"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI mode: one 60q/4000-term config with the "
             "scalar-oracle comparison and memory gate",
    )
    parser.add_argument(
        "--large", action="store_true",
        help="additionally run the 500q/10^6-term config (nightly)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--out", default=None,
        help="write all rows to this JSON file (CI artifact)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="fail on >2x regression vs this committed baseline JSON "
             "(see benchmarks/results/bench_scale_baseline.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        configs = SMOKE_CONFIGS
    else:
        configs = FULL_CONFIGS + (LARGE_CONFIGS if args.large else [])
    repeats = args.repeats or (3 if args.smoke else 1)

    rows: List[Dict] = []
    for config in configs:
        rows.extend(bench_config(config, repeats))
    _print_rows(rows)

    problems = check_gates(rows)
    if args.baseline:
        problems += check_baseline(rows, args.baseline)

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"mode": "smoke" if args.smoke else
                         ("large" if args.large else "full"),
                 "repeats": repeats,
                 "rows": rows},
                handle, indent=2,
            )
        print(f"wrote timings to {args.out}")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("all scale gates passed: oracle ratios held, streaming memory "
          "under every ceiling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
