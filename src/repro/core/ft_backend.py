"""Block-wise optimization for the fault-tolerant backend (Section 5.1).

On the FT backend, mapping overhead is negligible (error correction gives an
effectively all-to-all topology), so the whole game is *gate cancellation*
through adaptive synthesis-plan selection (Algorithm 2).

The pass works in three stages:

1. **String ordering.**  Within each block the strings are re-ordered by
   greedy most-overlap chaining (``most_overlap_sort`` of Algorithm 2), then
   layers are flattened in schedule order.  The greedy chain runs on the
   block's packed :class:`~repro.pauli.symplectic.PauliTable`: each step is
   one vectorized overlap row against all remaining strings instead of a
   Python max() over scalar ``overlap`` calls.
2. **Junction planning.**  Each *junction* (adjacent term pair) is planned
   once, pairwise-consistently: a junction is realized only when *both*
   sides devote their chain's leaf end to the shared operators, so the
   closing gates of one term are the exact inverses of the opening gates of
   the next.  A string has a single leaf end, so realizable junctions form
   an independent set on the junction path graph; :func:`plan_junctions`
   picks the maximum-overlap such set by dynamic programming.  (The old
   one-sided rule — each string aligning with whichever neighbour shares
   more operators — only cancelled a junction when both sides happened to
   pick each other, and its greedy choices were dominated by the DP set.)
3. **Peephole cleanup** to realize the cancellations in the gate counts.

The emitted ``(string, coefficient)`` order is recorded so tests can verify
unitary equivalence against the exact product of exponentials.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..circuit import QuantumCircuit
from ..ir import PauliProgram
from ..pauli import PauliString
from ..pauli.symplectic import PauliTable, popcount
from ..static.invariants import debug_check
from ..transpile import optimize
from .cancellation import check_cancel
from .scheduling import Schedule, scheduler_pass
from .synthesis import SynthesisPlan, aligned_chain_plan, pauli_rotation_gates

__all__ = [
    "FTResult",
    "most_overlap_sort",
    "plan_junctions",
    "ft_synthesize",
    "ft_compile",
]

#: Above this many terms, the greedy chain computes overlap rows on demand
#: instead of materializing the full (m, m) overlap matrix.
_MATRIX_LIMIT = 4096


class FTResult:
    """Output of the FT pass: circuit plus the emitted term order."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        emitted_terms: List[Tuple[PauliString, float]],
    ):
        self.circuit = circuit
        self.emitted_terms = emitted_terms


def most_overlap_sort(strings: List[Tuple[PauliString, float]]) -> List[Tuple[PauliString, float]]:
    """Greedy chain ordering: start from the first string, repeatedly append
    the remaining string sharing the most operators with the current tail.
    (Algorithm 2's ``most_overlap_sort``, on the vectorized overlap kernel.)"""
    if len(strings) <= 2:
        return list(strings)
    table = PauliTable.from_strings([string for string, _ in strings])
    m = table.num_strings
    order = [0]
    if m <= _MATRIX_LIMIT:
        # Dense path: one pairwise matrix, then each greedy step is a row
        # argmax; consumed strings have their whole column knocked to -1.
        matrix = table.overlap_matrix()
        matrix[:, 0] = -1
        for _ in range(m - 1):
            # argmax returns the first maximum, matching max() over the
            # remaining list in its original order.
            best = int(np.argmax(matrix[order[-1]]))
            order.append(best)
            matrix[:, best] = -1
    else:
        # Huge blocks: compute one overlap row per step instead of holding
        # an (m, m) matrix.
        alive = np.ones(m, dtype=bool)
        alive[0] = False
        for _ in range(m - 1):
            row = np.where(alive, table.overlaps(order[-1]), -1)
            best = int(np.argmax(row))
            order.append(best)
            alive[best] = False
    return [strings[i] for i in order]


def _flatten_schedule(schedule: Schedule) -> List[Tuple[PauliString, float]]:
    """Flatten a schedule into an ordered term list with per-block
    most-overlap string ordering.

    Accepts any layer iterable, including the incremental iterators from
    :mod:`repro.core.streaming`.  Each block's memoized view is dropped
    as soon as its terms are extracted, so a streamed million-term
    schedule never accumulates realized views.
    """
    terms: List[Tuple[PauliString, float]] = []
    for layer in schedule:
        for block in layer:
            block_terms = [
                (ws.string, ws.weight * block.parameter)
                for ws in block
                if not ws.string.is_identity
            ]
            terms.extend(most_overlap_sort(block_terms))
            block.release_view()
    return terms


def plan_junctions(strings: List[PauliString]) -> List[Optional[int]]:
    """Assign each string the neighbour index its chain plan aligns with.

    Junction ``j`` sits between ``strings[j]`` and ``strings[j + 1]`` and
    cancels only when both sides put their shared operators at the leaf end
    of their chains — each string can do that for at most one junction, so
    the chosen junctions must be pairwise non-adjacent.  This picks the
    best such independent set by dynamic programming on the junction path,
    weighting each junction by the gates it actually cancels: ``2 (s - 1)``
    CNOTs for ``s`` shared operators (the leaf chain's edges), then
    ``2 b`` basis-change gates for ``b`` shared X/Y operators as a
    tie-break, so the CNOT count can never lose to any one-junction-per-
    string scheme (the legacy one-sided rule realizes an independent set
    too, so its cancellation total is dominated).  Returns per string the
    aligned neighbour's index (``i - 1``, ``i + 1``, or ``None``).
    """
    m = len(strings)
    aligned: List[Optional[int]] = [None] * m
    if m < 2:
        return aligned
    table = PauliTable.from_strings(strings)
    shared = table.consecutive_shared_masks()
    cnot_gain = 2 * np.maximum(popcount(shared) - 1, 0)
    basis_gain = 2 * popcount(shared & table.x[:-1])  # X/Y <=> x-bit set

    # dp[j] = lexicographic-max (cancelled CNOTs, cancelled basis gates)
    # over non-adjacent subsets of junctions 0..j.
    zero = (0, 0)
    gains = [
        (int(c), int(b)) if c + b > 0 else None
        for c, b in zip(cnot_gain, basis_gain)
    ]
    dp: List[Tuple[int, int]] = [zero] * (m - 1)
    for j in range(m - 1):
        skip = dp[j - 1] if j >= 1 else zero
        if gains[j] is None:
            dp[j] = skip
            continue
        prev2 = dp[j - 2] if j >= 2 else zero
        join = (prev2[0] + gains[j][0], prev2[1] + gains[j][1])
        dp[j] = max(skip, join)
    j = m - 2
    while j >= 0:
        if gains[j] is not None:
            prev2 = dp[j - 2] if j >= 2 else zero
            join = (prev2[0] + gains[j][0], prev2[1] + gains[j][1])
            # Prefer taking the junction on DP ties: equal cancellation
            # total, but one more junction actually realized.
            if dp[j] == join:
                aligned[j] = j + 1
                aligned[j + 1] = j
                j -= 2
                continue
        j -= 1
    return aligned


def ft_synthesize(
    terms: List[Tuple[PauliString, float]],
    num_qubits: int,
    junction_policy: str = "paired",
) -> QuantumCircuit:
    """Adaptive synthesis of an ordered term list (Algorithm 2 cores).

    ``junction_policy`` selects the alignment planner: ``"paired"`` (the
    default) plans every junction once, pairwise-consistently, via
    :func:`plan_junctions`; ``"onesided"`` is the legacy rule where each
    string independently aligns with its higher-overlap neighbour (kept for
    ablation — it only cancels a junction when both sides happen to pick
    each other).
    """
    strings = [string for string, _ in terms]
    if junction_policy == "paired":
        plans = _paired_plans(strings)
    elif junction_policy == "onesided":
        plans = _onesided_plans(strings)
    else:
        raise ValueError(f"unknown junction policy {junction_policy!r}")
    circuit = QuantumCircuit(num_qubits)
    for (string, coefficient), plan in zip(terms, plans):
        circuit.extend(pauli_rotation_gates(string, -2.0 * coefficient, plan))
    return circuit


def _paired_plans(strings: List[PauliString]) -> List[Optional[SynthesisPlan]]:
    """Pairwise-consistent plans, guaranteed no worse than the one-sided
    rule's.

    The DP's one-junction-per-string model undercounts when adjacent
    junctions' shared sets nest (a single leaf prefix then serves both), so
    both candidate plan sets are scored with the exact junction-prefix
    cancellation predictor and the better one is kept (ties go to the
    pairwise DP plans).
    """
    dp_plans = _dp_plans(strings)
    os_plans = _onesided_plans(strings)
    if _predicted_cancellation(os_plans, strings) > _predicted_cancellation(
        dp_plans, strings
    ):
        return os_plans
    return dp_plans


def _dp_plans(strings: List[PauliString]) -> List[Optional[SynthesisPlan]]:
    aligned = plan_junctions(strings)
    plans: List[Optional[SynthesisPlan]] = []
    for idx, k in enumerate(aligned):
        prev_string = strings[idx - 1] if idx > 0 else None
        next_string = strings[idx + 1] if idx + 1 < len(strings) else None
        if k is not None:
            primary = strings[k]
            # The other neighbour orders the rest of the chain (free: the
            # junction prefix is untouched).
            secondary = prev_string if k == idx + 1 else next_string
        else:
            # Leaf end not devoted to any planned junction: fall back to
            # the one-sided rule so nested shared sets still line up.
            primary = _better_neighbor(strings[idx], prev_string, next_string)
            secondary = None
            if primary is not None:
                secondary = prev_string if primary is next_string else next_string
        plans.append(_plan_for(strings[idx], primary, secondary))
    return plans


def _onesided_plans(strings: List[PauliString]) -> List[Optional[SynthesisPlan]]:
    plans: List[Optional[SynthesisPlan]] = []
    for idx, string in enumerate(strings):
        prev_string = strings[idx - 1] if idx > 0 else None
        next_string = strings[idx + 1] if idx + 1 < len(strings) else None
        plans.append(
            _plan_for(string, _better_neighbor(string, prev_string, next_string))
        )
    return plans


def _plan_order(plan: Optional[SynthesisPlan]) -> List[int]:
    """Chain order (leaf to root) realized by a plan."""
    if plan is None:
        return []
    if not plan.edges:
        return [plan.root]
    return [plan.edges[0][0]] + [target for _, target in plan.edges]


def _predicted_cancellation(
    plans: List[Optional[SynthesisPlan]], strings: List[PauliString]
) -> Tuple[int, int]:
    """Exact ``(CNOTs, basis gates)`` the peephole pass cancels at the
    junctions of a plan set.

    Junction ``j`` cancels along the longest common *prefix* of the two
    chain orders whose qubits carry identical operators on both sides:
    ``2 (p - 1)`` CNOTs (the prefix chain's edges, closed by one string and
    reopened by the next) plus two basis-change gates per X/Y prefix qubit.
    """
    total_cnot = 0
    total_basis = 0
    for j in range(len(plans) - 1):
        left = _plan_order(plans[j])
        right = _plan_order(plans[j + 1])
        shared = set(strings[j].shared_support(strings[j + 1]))
        prefix = 0
        for a, b in zip(left, right):
            if a != b or a not in shared:
                break
            prefix += 1
        if prefix:
            total_cnot += 2 * (prefix - 1)
            total_basis += 2 * sum(
                1 for q in left[:prefix] if strings[j].code_at(q) & 1
            )
    return total_cnot, total_basis


def _plan_for(
    string: PauliString,
    neighbor: Optional[PauliString],
    secondary: Optional[PauliString] = None,
) -> Optional[SynthesisPlan]:
    if string.is_identity:
        return None  # emits no gates
    return aligned_chain_plan(string, neighbor, secondary)


def _better_neighbor(
    string: PauliString,
    prev_string: Optional[PauliString],
    next_string: Optional[PauliString],
) -> Optional[PauliString]:
    prev_overlap = string.overlap(prev_string) if prev_string is not None else 0
    next_overlap = string.overlap(next_string) if next_string is not None else 0
    if prev_overlap <= 0 and next_overlap <= 0:
        # No operator shared with either neighbour: aligning is pointless,
        # so keep the canonical ascending chain (a zero-overlap neighbour
        # must not win just because the other side is missing).
        return None
    return prev_string if prev_overlap >= next_overlap else next_string


def ft_compile(
    program: PauliProgram,
    scheduler: str = "gco",
    run_peephole: bool = True,
    junction_policy: str = "paired",
    cancel: Optional[Callable[[], bool]] = None,
) -> FTResult:
    """Full FT flow: schedule, adaptively synthesize, peephole-optimize.

    ``scheduler`` is ``"gco"`` (gate-count-oriented, the FT default),
    ``"do"`` (depth-oriented), ``"none"`` (program order, for ablations),
    ``"gco-stream"`` (the same pass as ``"gco"``) or ``"do-stream"``
    (``"do"`` with its frontier bounded to O(window) profile memory, for
    10^5-10^6-term programs).  Layers stream lazily from
    :mod:`repro.core.streaming`, and each block's view is released once
    its terms are flattened.  ``junction_policy`` is forwarded to
    :func:`ft_synthesize`; ``cancel`` is polled between passes (see
    :mod:`repro.core.cancellation`).
    """
    schedule = scheduler_pass(scheduler, materialize=False)(program)
    check_cancel(cancel, "after scheduling")
    debug_check("ft: schedule", program=program)
    terms = _flatten_schedule(schedule)
    circuit = ft_synthesize(terms, program.num_qubits, junction_policy=junction_policy)
    check_cancel(cancel, "after synthesis")
    debug_check("ft: synthesize", tape=circuit.tape)
    if run_peephole:
        circuit = optimize(circuit)
        debug_check("ft: peephole", tape=circuit.tape)
    return FTResult(circuit, terms)
