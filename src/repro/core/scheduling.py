"""Block-wise instruction scheduling passes (paper Section 4).

Both passes consume a :class:`~repro.ir.PauliProgram` and produce a
*schedule*: an ordered list of layers, each layer an ordered list of
:class:`~repro.ir.PauliBlock` whose first element is the layer's *primary*
(largest) block and whose remaining elements are qubit-disjoint padding
blocks that execute in parallel with it.

* :func:`gco_schedule` — gate-count-oriented scheduling (Section 4.1):
  lexicographic ordering of blocks (X < Y < Z < I, highest qubit first),
  strings within each block sorted the same way; every block becomes its own
  singleton layer.
* :func:`do_schedule` — depth-oriented scheduling (Section 4.2, Algorithm
  1): blocks sorted by decreasing active length, layers built by picking the
  block with the most operator overlap with the previous layer and padding
  with disjoint small blocks whose accumulated depth fits under the primary.

Both are the streaming passes of :mod:`repro.core.streaming` collected
into lists; ``do`` runs with a frontier of the whole program.
:func:`scheduler_pass` maps the scheduler names the compile entry points
accept to their passes: ``gco-stream`` is ``gco`` under a second name,
and ``do-stream`` is ``do`` with its frontier bounded to
:data:`~repro.core.streaming.DEFAULT_WINDOW` blocks.

Both passes are semantics-preserving by the Pauli IR's commutative-sum
semantics; :func:`schedule_to_program` flattens a schedule back to a program
so the invariant can be checked (``multiset_of_terms`` is preserved).
"""

from __future__ import annotations

from typing import Callable, List

from ..ir import PauliBlock, PauliProgram
from ..static.contracts import register_callable
from .streaming import stream_schedule

__all__ = [
    "Schedule",
    "gco_schedule",
    "do_schedule",
    "schedule_to_program",
    "schedule_depth_estimate",
    "scheduler_pass",
]

Schedule = List[List[PauliBlock]]


def gco_schedule(program: PauliProgram) -> Schedule:
    """Gate-count-oriented scheduling: global lexicographic block order."""
    return list(stream_schedule(program, "gco"))


def do_schedule(program: PauliProgram) -> Schedule:
    """Depth-oriented scheduling (Algorithm 1) over the whole program."""
    return list(stream_schedule(program, "do"))


def _windowed_do_schedule(program: PauliProgram) -> Schedule:
    """``do-stream``: Algorithm 1 through a ``DEFAULT_WINDOW`` frontier."""
    return list(stream_schedule(program, "do-stream"))


def _program_order(program: PauliProgram) -> Schedule:
    """Program order, one block per layer (the ``none`` ablation baseline)."""
    return [[block] for block in program]


def schedule_to_program(schedule: Schedule, name: str = "") -> PauliProgram:
    """Flatten a schedule into a program (layer order, primary first)."""
    blocks: List[PauliBlock] = []
    for layer in schedule:
        blocks.extend(layer)
    return PauliProgram(blocks, name=name)


def schedule_depth_estimate(schedule: Schedule) -> int:
    """Estimated depth of a schedule: layers execute sequentially, blocks in
    a layer in parallel (up to padding stacking)."""
    total = 0
    for layer in schedule:
        total += max(block.depth_estimate() for block in layer)
    return total


_SCHEDULE_PASSES = {
    "gco": register_callable(gco_schedule, "schedule_gco"),
    "gco-stream": gco_schedule,
    "do": register_callable(do_schedule, "schedule_do"),
    "do-stream": register_callable(_windowed_do_schedule, "schedule_do"),
    "none": register_callable(_program_order, "schedule_none"),
}


def scheduler_pass(scheduler: str, materialize: bool = True) -> Callable:
    """The schedule pass a scheduler name selects: ``gco``, ``do``,
    ``none`` (program order), ``gco-stream`` or ``do-stream``.

    With ``materialize`` on (the default) the pass returns the schedule
    as a list, for consumers that walk it more than once; with it off a
    ``gco``/``do`` pass returns the lazy layer iterator of
    :func:`~repro.core.streaming.stream_schedule`.
    """
    try:
        schedule_pass = _SCHEDULE_PASSES[scheduler]
    except (KeyError, TypeError):
        raise ValueError(f"unknown scheduler {scheduler!r}") from None
    if materialize or scheduler == "none":
        return schedule_pass
    return lambda program: stream_schedule(program, scheduler)
