"""Compile-time scaling (the paper's ~5 % overhead / scalability claim).

The paper argues Paulihedral's passes are scalable because they manipulate
Pauli strings, not gate matrices: lexicographic sort is O(S log S), DO
layering is near-quadratic in blocks but with tiny constants, and synthesis
is single-pass.  This bench measures PH frontend wall time across the
random-Hamiltonian family and asserts near-linear growth in string count —
first on the paper-scale sizes (10^2-10^3 strings, ``gco``), then on the
streaming regime (10^4-10^5 strings, ``gco-stream``), where the chunked key
scan keeps growth near-linear long after a scheduler that builds one view
per block has gone quadratic in view construction.
"""

import time

import pytest

from repro.analysis import format_table
from repro.core import ft_compile
from repro.core.streaming import stream_schedule
from repro.workloads import random_hamiltonian_program, scale_random_program

from conftest import write_result

_SIZES = [100, 200, 400, 800]
_STREAM_SIZES = [10_000, 30_000, 100_000]


def _time_compile(num_strings: int) -> float:
    program = random_hamiltonian_program(20, num_strings=num_strings, seed=5)
    start = time.perf_counter()
    ft_compile(program, scheduler="gco", run_peephole=False)
    return time.perf_counter() - start


def test_frontend_scaling(benchmark, results_dir):
    timings = {}
    for size in _SIZES:
        timings[size] = _time_compile(size)
    benchmark.pedantic(_time_compile, args=(_SIZES[-1],), rounds=1, iterations=1)

    table = format_table(
        ["Strings", "Frontend (s)", "us / string"],
        [[size, f"{sec:.3f}", f"{1e6 * sec / size:.1f}"] for size, sec in timings.items()],
    )
    write_result(results_dir, "scaling_frontend.txt", table)

    # Near-linear: 8x strings should cost well under 8 * 8x time.
    growth = timings[_SIZES[-1]] / max(timings[_SIZES[0]], 1e-9)
    assert growth < 64, f"superquadratic frontend scaling: {growth:.1f}x for 8x strings"


def _time_stream_compile(num_strings: int) -> float:
    program = scale_random_program(100, num_strings, seed=5)
    start = time.perf_counter()
    ft_compile(program, scheduler="gco-stream", run_peephole=False)
    return time.perf_counter() - start


def test_streaming_scaling(results_dir):
    """10^4-10^5 strings through the streaming frontend stays near-linear.

    Building one ``BlockView`` per block makes a scheduler superlinear
    well before 10^5 strings; ``gco-stream`` scans compact
    keys in chunks and must keep the 10x size step under a 30x time step
    (O(S log S) sort plus linear synthesis; 30x leaves headroom for
    allocator noise on a loaded runner, while quadratic growth would be
    100x).
    """
    timings = {}
    for size in _STREAM_SIZES:
        timings[size] = _time_stream_compile(size)

    table = format_table(
        ["Strings", "Streaming frontend (s)", "us / string"],
        [[size, f"{sec:.3f}", f"{1e6 * sec / size:.1f}"]
         for size, sec in timings.items()],
    )
    write_result(results_dir, "scaling_streaming.txt", table)

    growth = timings[_STREAM_SIZES[-1]] / max(timings[_STREAM_SIZES[0]], 1e-9)
    assert growth < 30, (
        f"superlinear streaming frontend scaling: {growth:.1f}x time "
        f"for 10x strings"
    )

    # The per-string cost at 10^5 must not exceed the 10^4 cost by more
    # than 3x either (the same bound, phrased scale-free).
    per_small = timings[_STREAM_SIZES[0]] / _STREAM_SIZES[0]
    per_large = timings[_STREAM_SIZES[-1]] / _STREAM_SIZES[-1]
    assert per_large < 3 * per_small, (
        f"per-string streaming cost tripled: {1e6 * per_small:.1f} -> "
        f"{1e6 * per_large:.1f} us/string"
    )


@pytest.mark.parametrize("num_strings", [200, 800])
def test_ph_frontend_throughput(benchmark, num_strings):
    program = random_hamiltonian_program(20, num_strings=num_strings, seed=5)
    result = benchmark(ft_compile, program, scheduler="gco", run_peephole=False)
    assert result.circuit.size > 0


@pytest.mark.parametrize("num_strings", [10_000])
def test_streaming_frontend_throughput(benchmark, num_strings):
    program = scale_random_program(100, num_strings, seed=5)
    result = benchmark.pedantic(
        ft_compile, args=(program,),
        kwargs={"scheduler": "gco-stream", "run_peephole": False},
        rounds=1, iterations=1,
    )
    assert result.circuit.size > 0
