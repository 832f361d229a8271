"""One library set-up, timed from outside: import what a warm-up compile
needs (including the static pipeline self-check that runs at import),
compile one small program, print ``ready <import seconds>`` and exit.

Usage: ``python3 perfbench/setup_probe.py ft|sc`` with ``src`` on
``PYTHONPATH``.
"""

import sys
import time

start = time.perf_counter()
from repro.core import compile_program  # noqa: E402
from repro.transpile import manhattan_65  # noqa: E402
from repro.workloads import BENCHMARKS  # noqa: E402

imported = time.perf_counter() - start

backend = sys.argv[1]
if backend == "ft":
    compile_program(BENCHMARKS["Heisen-1D"].build("small"), backend="ft")
else:
    compile_program(BENCHMARKS["UCCSD-8"].build("small"), backend="sc",
                    coupling=manhattan_65())
print(f"ready {imported:.6f}", flush=True)
