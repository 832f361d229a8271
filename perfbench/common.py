"""Shared pieces of the benchmark: paths, seeded inputs, small statistics.

Everything here is import-light on purpose: ``run.py`` imports this module
before it knows whether the compiler sources exist, and the setup probe
times the compiler's own imports, which must not be paid here first.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, sockets and logs, relative to ROOT; one
#: directory per benchmark process, removed when the run ends.
WORK_ROOT = ".perfbench_work"
WORK = os.path.join(WORK_ROOT, str(os.getpid()))

#: ``molecule_program`` salts its draw with ``hash(name)``, which Python
#: randomizes per process, so N2/H2S differ between processes unless the
#: hash seed is pinned.  Every benchmark process and every server it
#: starts runs with this value so that the same ``--seed`` gives the same
#: inputs.
HASH_SEED = "0"

#: The cold stream: program ``i`` has ``8 + i % 9`` qubits and as many
#: random strings, and compiles on SC when ``i % 3 == 2``, on FT otherwise.
#: Sizes and backends follow a fixed schedule so that runs with different
#: seeds do comparable work; the seed draws the strings and the request
#: order.  With two FT programs for each SC program, no reported
#: percentile of the served mix falls on the seam between the fast FT and
#: the slow SC programs: its p50 is the FT p75 and its p90 the SC p70.
COLD_MIN_QUBITS = 8
COLD_QUBIT_SPAN = 9


def child_env(tmpdir: Optional[str] = None) -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    if tmpdir is not None:
        env["TMPDIR"] = tmpdir
    return env


def cold_backend(index: int) -> str:
    return "sc" if index % 3 == 2 else "ft"


def cold_program(seed: int, index: int):
    """Program ``index`` of the seeded cold stream (unique per index)."""
    from repro.workloads.random_hamiltonian import random_hamiltonian_program

    num_qubits = COLD_MIN_QUBITS + index % COLD_QUBIT_SPAN
    draw = random.Random(f"cold/{seed}/{index}").getrandbits(62)
    return random_hamiltonian_program(
        num_qubits, num_strings=num_qubits, seed=draw,
        name=f"cold-{seed}-{index}",
    )


def cold_indices(backend: Optional[str] = None) -> Iterator[int]:
    """Cold-stream indices, optionally only those of one backend."""
    index = 0
    while True:
        if backend is None or cold_backend(index) == backend:
            yield index
        index += 1


def hot_specs(backend: Optional[str] = None) -> List[Dict]:
    """The 31 Table 1 workloads at small scale, as job specs."""
    from repro.workloads import BENCHMARKS

    return [
        {"benchmark": name}
        for name, spec in BENCHMARKS.items()
        if spec.family != "Scale" and (backend is None or spec.backend == backend)
    ]


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(backend: str, env: Dict[str, str]) -> Tuple[float, float]:
    """Start a fresh interpreter that imports the compiler and runs one
    warm-up compile; return (seconds until it reported ready, its own
    import seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), backend],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not line.startswith("ready "):
        raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
    return ready, float(line.split()[1])
