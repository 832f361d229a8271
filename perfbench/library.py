"""Library workloads: the paper's Table 2 corpus through ``compile_program``.

``ft-paper`` and ``sc-paper`` compile their corpus at paper scale in
whole passes.  Each pass builds every program fresh outside the timer and
collects garbage before timing, and ``compile_s`` sums each program's
fastest pass.  The machine's speed drifts between and within processes,
and a per-program minimum discards most of that drift.

:class:`Legs` gives the library's counterpart of the served traffic: the
workload's own backend share of the serve-mix inputs, so the difference
from ``serve-mix`` is the cost of the service.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple

from checks import check_result
from common import cold_indices, cold_program, hot_specs, median
from repro.core import (
    CompilationResult,
    SCSynthesizer,
    compile_program,
    do_schedule,
    ft_synthesize,
    gco_schedule,
    most_overlap_sort,
    stream_schedule,
)
from repro.service import CompileCache, dumps_artifact, loads_artifact, resolve_spec
from repro.transpile import get_device, manhattan_65, optimize
from repro.workloads import BENCHMARKS, scale_random_program

#: Table 2 programs of each backend (Paulihedral, arXiv 2109.03371).
FT_TABLE2 = ["Ising-1D", "Ising-2D", "Ising-3D", "Heisen-1D", "Heisen-2D",
             "Heisen-3D", "N2", "H2S", "Rand-30"]
SC_TABLE2 = ["UCCSD-8", "UCCSD-12", "UCCSD-16", "REG-20-4", "REG-20-8",
             "REG-20-12", "Rand-20-0.1", "Rand-20-0.3", "Rand-20-0.5",
             "TSP-4", "TSP-5"]
WORKLOAD_BACKEND = {"ft-paper": "ft", "sc-paper": "sc"}

WARM_SAMPLES = 1000   # p99 with 10 samples beyond it
COLD_SAMPLES = 100    # p90 with 10 programs beyond it
#: Compiles of every cold program per pass.  The machine alternates
#: between a fast and a slow speed (see README), and a program's fastest
#: compile is steady only with enough attempts spread over the run; an SC
#: cold compile costs about eight times an FT one, so it gets fewer.
COLD_ROUNDS = {"ft": 4, "sc": 1}
#: Seconds one pass takes with its share of the warm and cold samples
#: (about 7 s of corpus plus 2-3 s of samples on a 2-vCPU VM).  A traced
#: pass compiles everything twice.
PASS_SECONDS = 10.0
TRACE_PASS_SECONDS = 20.0
#: compile_s sums per-program minimums, so it needs a few samples of
#: every program.
MIN_PASSES = 3
MIN_TRACE_PASSES = 2


def pass_count(seconds: float, trace: bool) -> int:
    """Passes of a run of about ``seconds``.  The count depends on
    ``seconds`` alone, not on how fast the machine is: a per-program
    minimum over more passes is lower, so a count that grew on a fast
    stretch would widen the gap between fast and slow runs."""
    if trace:
        return max(MIN_TRACE_PASSES, round(seconds / TRACE_PASS_SECONDS))
    return max(MIN_PASSES, round(seconds / PASS_SECONDS))


@dataclass
class Entry:
    """One corpus program: a fresh-program builder plus compile options."""

    name: str
    build: Callable
    options: Dict


def corpus(workload: str, seed: int) -> List[Entry]:
    draw = random.Random(f"{workload}/{seed}").getrandbits(62)
    if workload == "ft-paper":
        entries = [Entry(name, BENCHMARKS[name].paper_builder,
                         {"backend": "ft", "scheduler": "gco"})
                   for name in FT_TABLE2]
        entries.append(Entry(
            "ScaleRand-100",
            lambda: scale_random_program(100, 10_000, seed=draw),
            {"backend": "ft", "scheduler": "gco-stream"}))
        return entries
    manhattan = manhattan_65()
    entries = [Entry(name, BENCHMARKS[name].paper_builder,
                     {"backend": "sc", "scheduler": "do", "coupling": manhattan})
               for name in SC_TABLE2]
    entries.append(Entry(
        "KLocal-60x1000",
        lambda: scale_random_program(60, 1_000, seed=draw),
        {"backend": "sc", "scheduler": "do-stream",
         "coupling": get_device("grid-8x8").coupling}))
    return entries


class Ledger:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, what: str, program, result, backend: str,
              coupling=None) -> None:
        problem = check_result(program, result, backend, coupling)
        if problem:
            self.failures.append(f"{what}: {problem}")


def _hot_options(backend: str) -> Dict:
    return {"backend": backend, "coupling": manhattan_65() if backend == "sc" else None}


def _signature(result: CompilationResult) -> Tuple[int, int, int]:
    circuit = result.circuit
    return circuit.cnot_count, circuit.single_qubit_count, circuit.size


class Legs:
    """In-process counterparts of the served traffic, taken in slices
    between corpus compiles so that they span the whole run.

    warm: ``compile_program(..., cache=...)`` hits on the backend's Table 1
    programs at small scale, drawn round-robin so that every program has
    the same share of the samples whatever the seed.  Every hit is one
    sample.

    cold: misses on the first :data:`COLD_SAMPLES` programs of the
    backend's share of the seeded cold stream.  Every pass compiles each
    of them :data:`COLD_ROUNDS` times, each time into a fresh cache, and
    each program counts with its fastest compile in the run, like the
    corpus programs in ``compile_s``.
    """

    def __init__(self, backend: str, seed: int, ledger: Ledger, passes: int):
        self.backend = backend
        self.seed = seed
        self.ledger = ledger
        self.options = _hot_options(backend)
        self.hot_cache = CompileCache(None, memory_entries=1024)
        self.hot = [BENCHMARKS[spec["benchmark"]].build("small")
                    for spec in hot_specs(backend)]
        self.expected = []
        for program in self.hot:
            result = compile_program(program, cache=self.hot_cache, **self.options)
            ledger.check(f"hot {program.name}", program, result, backend)
            self.expected.append(_signature(result))
        self.warm_ms: List[float] = []
        #: Whole rounds over the hot set, at least WARM_SAMPLES hits.
        self.warm_target = -(-WARM_SAMPLES // len(self.hot)) * len(self.hot)
        self.cold_index = list(islice(cold_indices(backend), COLD_SAMPLES))
        self.cold_per_pass = COLD_SAMPLES * COLD_ROUNDS[backend]
        #: Cold compiles taken so far in each pass.
        self.cold_done = [0] * passes
        #: Each cold program's fastest compile so far, in ms.
        self.cold_ms = [float("inf")] * COLD_SAMPLES

    def warm(self, count: int) -> None:
        for _ in range(max(count, 0)):
            index = len(self.warm_ms) % len(self.hot)
            self.ledger.attempted += 1
            started = time.perf_counter()
            result = compile_program(self.hot[index], cache=self.hot_cache,
                                     **self.options)
            self.warm_ms.append((time.perf_counter() - started) * 1e3)
            if not result.from_cache or _signature(result) != self.expected[index]:
                self.ledger.failures.append(
                    f"warm hit on {self.hot[index].name} differs from its "
                    f"compile (from_cache={result.from_cache})")

    def cold(self, count: int, pass_index: int) -> None:
        """Take up to ``count`` more cold compiles of one pass.  Each
        program is verified on its first compile, outside the timer."""
        for _ in range(min(count, self.cold_per_pass - self.cold_done[pass_index])):
            k = self.cold_done[pass_index] % COLD_SAMPLES
            first = pass_index == 0 and self.cold_done[0] < COLD_SAMPLES
            self.cold_done[pass_index] += 1
            index = self.cold_index[k]
            program = cold_program(self.seed, index)
            cache = CompileCache(None, memory_entries=1)
            self.ledger.attempted += 1
            started = time.perf_counter()
            result = compile_program(program, cache=cache, **self.options)
            self.cold_ms[k] = min(self.cold_ms[k], (time.perf_counter() - started) * 1e3)
            if result.from_cache:
                self.ledger.failures.append(f"cold {index} was a cache hit")
            if first:
                self.ledger.check(f"cold {index}", program, result, self.backend)

    def slice(self, warm: int, cold: int, pass_index: int) -> None:
        """One slice between two corpus compiles."""
        self.warm(min(warm, self.warm_target - len(self.warm_ms)))
        self.cold(cold, pass_index)

    def top_up(self) -> None:
        self.warm(self.warm_target - len(self.warm_ms))
        for pass_index in range(len(self.cold_done)):
            self.cold(self.cold_per_pass, pass_index)


def staged_compile(program, options: Dict) -> Tuple[CompilationResult, Dict]:
    """``compile_program`` as the public per-layer calls it is made of,
    timing each; returns the result and the per-stage figures."""
    backend, scheduler = options["backend"], options["scheduler"]
    coupling = options.get("coupling")
    streaming = scheduler.endswith("-stream")
    t0 = time.perf_counter()
    if streaming:
        layers = [list(layer) for layer in stream_schedule(program, scheduler)]
    elif scheduler == "gco":
        layers = gco_schedule(program)
    else:
        layers = do_schedule(program)
    t1 = time.perf_counter()
    initial = final = None
    if backend == "ft":
        terms = []
        for layer in layers:
            for block in layer:
                terms.extend(most_overlap_sort([
                    (ws.string, ws.weight * block.parameter)
                    for ws in block if not ws.string.is_identity]))
                if streaming:
                    block.release_view()
        circuit = ft_synthesize(terms, program.num_qubits)
    else:
        synthesized = SCSynthesizer(coupling, release_views=streaming).run(
            layers, program.num_qubits)
        circuit, terms = synthesized.circuit, synthesized.emitted_terms
        initial, final = synthesized.initial_layout, synthesized.final_layout
    t2 = time.perf_counter()
    optimized = optimize(circuit)
    t3 = time.perf_counter()
    result = CompilationResult(
        circuit=optimized, backend=backend, scheduler=scheduler,
        emitted_terms=terms, initial_layout=initial, final_layout=final)
    return result, {
        "schedule_s": t1 - t0, "synth_s": t2 - t1, "peephole_s": t3 - t2,
        "layers": len(layers), "synth_gates": circuit.size,
        "swaps": circuit.count_ops().get("swap", 0),
        "removed": circuit.size - optimized.size,
    }


def _timed_compile(entry: Entry) -> Tuple[object, CompilationResult, float]:
    program = entry.build()
    gc.collect()
    started = time.perf_counter()
    result = compile_program(program, **entry.options)
    return program, result, time.perf_counter() - started


def paper_passes(entries: List[Entry], passes: int, ledger: Ledger,
                 trace: bool, legs: Optional[Legs] = None,
                 after_pass: Optional[Callable[[], None]] = None) -> Dict:
    """``passes`` whole passes over the corpus.

    Every result is verified once (first pass, outside the timer); later
    passes must reproduce the first pass's gate counts exactly.  With
    ``trace`` each program is also compiled through :func:`staged_compile`
    in every pass, and its counts must equal ``compile_program``'s.  With
    ``legs``, an equal slice of warm samples and of the pass's cold
    samples follows every compile, so that the samples span all passes.  ``after_pass`` runs
    after every pass.
    """
    n = len(entries)
    best = [float("inf")] * n
    counts: List[Optional[Dict]] = [None] * n
    stages: List[Dict] = [{} for _ in range(n)]
    once = {"verify_s": 0.0, "encode_s": 0.0, "decode_s": 0.0, "mb": 0.0}
    warm_slice = -(-WARM_SAMPLES // (passes * n))
    cold_slice = -(-legs.cold_per_pass // n) if legs is not None else 0
    for done in range(passes):
        for i, entry in enumerate(entries):
            ledger.attempted += 1
            program, result, seconds = _timed_compile(entry)
            best[i] = min(best[i], seconds)
            metrics = result.metrics
            if counts[i] is None:
                counts[i] = metrics
                ledger.check(entry.name, program, result, entry.options["backend"],
                             entry.options.get("coupling"))
            elif metrics != counts[i]:
                ledger.failures.append(
                    f"{entry.name}: pass {done + 1} gave {metrics}, "
                    f"pass 1 gave {counts[i]}")
            del program, result
            if trace:
                program = entry.build()
                gc.collect()
                staged, figures = staged_compile(program, entry.options)
                for key, value in figures.items():
                    stages[i][key] = min(stages[i].get(key, value), value)
                if staged.metrics != counts[i]:
                    ledger.failures.append(
                        f"{entry.name}: staged pipeline gave {staged.metrics}, "
                        f"compile_program gave {counts[i]}")
                if done == 0:
                    problem = once_figures(program, staged, entry.options, once)
                    if problem:
                        ledger.failures.append(
                            f"{entry.name}: staged result: {problem}")
            if legs is not None:
                legs.slice(warm_slice, cold_slice, done)
        if after_pass is not None:
            after_pass()
    return {"best": best, "counts": counts, "stages": stages, "once": once}


def once_figures(program, result: CompilationResult, options: Dict,
                 once: Dict) -> Optional[str]:
    """Add verifier and artifact codec timings of one staged result to
    ``once``; returns the verifier's complaint, if any."""
    started = time.perf_counter()
    problem = check_result(program, result, options["backend"],
                           options.get("coupling"))
    once["verify_s"] += time.perf_counter() - started
    started = time.perf_counter()
    text = dumps_artifact(result)
    once["encode_s"] += time.perf_counter() - started
    started = time.perf_counter()
    loads_artifact(text)
    once["decode_s"] += time.perf_counter() - started
    once["mb"] += len(text) / 1e6
    return problem


def fingerprint_ms(backend: Optional[str]) -> float:
    """Median ms to resolve one hot spec and fingerprint it, building the
    program fresh each time (the cost a first request pays at a node)."""
    samples = []
    for spec in hot_specs(backend):
        started = time.perf_counter()
        resolve_spec(spec).fingerprint()
        samples.append((time.perf_counter() - started) * 1e3)
    return median(samples)
