"""Reconfigurable pass pipeline (the paper's extensibility claim).

Figure 1 presents Paulihedral as a staged pipeline — technology-independent
instruction scheduling, then technology-dependent block-wise optimization,
then a generic gate-level backend — and Section 7 stresses that new
backends plug in by "adding/modifying the technology-dependent passes".
:class:`PassPipeline` makes that structure a first-class object:

* a **schedule pass**: ``PauliProgram -> Schedule``;
* a **synthesis pass**: ``(Schedule, num_qubits) -> QuantumCircuit`` (plus
  optional layout/terms metadata);
* any number of **circuit passes**: ``QuantumCircuit -> QuantumCircuit``.

The stock FT and SC flows are expressed through it (see :func:`ft_pipeline`
/ :func:`sc_pipeline`), and a user can register custom passes — e.g. an
ion-trap synthesis pass or an extra cancellation stage — without touching
the framework.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..circuit import QuantumCircuit
from ..ir import PauliProgram
from ..static.contracts import PipelineChecker, contract_for, register_callable
from ..static.invariants import debug_check
from ..transpile import CouplingMap, optimize
from .ft_backend import _flatten_schedule, ft_synthesize
from .sc_backend import SCSynthesizer
from .scheduling import Schedule, scheduler_pass

__all__ = ["PipelineResult", "PassPipeline", "ft_pipeline", "sc_pipeline"]

# Bind the stock pass callables to their declared contracts so custom
# pipelines assembled from them are checked precisely; unregistered
# callables fall back to the conservative slot defaults.  (The schedule
# passes are bound where they are dispatched, in core/scheduling.py.)
register_callable(optimize, "peephole")

_CHECKER = PipelineChecker()

SchedulePass = Callable[[PauliProgram], Schedule]
CircuitPass = Callable[[QuantumCircuit], QuantumCircuit]


@dataclass
class PipelineResult:
    """Output of a pipeline run, with per-stage artifacts for inspection."""

    circuit: QuantumCircuit
    schedule: Schedule
    stage_sizes: Dict[str, int] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)


class PassPipeline:
    """A named, ordered Paulihedral compilation pipeline."""

    def __init__(
        self,
        name: str,
        schedule_pass: SchedulePass,
        synthesis_pass: Callable[[Schedule, PauliProgram], Tuple[QuantumCircuit, Dict]],
        goal: frozenset = frozenset({"synthesized"}),
    ):
        self.name = name
        self.goal = frozenset(goal)
        self._schedule_pass = schedule_pass
        self._synthesis_pass = synthesis_pass
        self._circuit_passes: List[Tuple[str, CircuitPass]] = []

    def add_circuit_pass(self, name: str, circuit_pass: CircuitPass) -> "PassPipeline":
        """Append a gate-level pass; returns self for chaining."""
        self._circuit_passes.append((name, circuit_pass))
        return self

    @property
    def pass_names(self) -> List[str]:
        return ["schedule", "synthesize"] + [name for name, _ in self._circuit_passes]

    def contracts(self):
        """The pipeline's pass contracts, in run order.

        Registered callables (and circuit passes whose *name* matches a
        registered contract) resolve precisely; anything else gets the
        conservative slot default, which trusts it to do its slot's job
        and assumes it destroys everything else.
        """
        resolved = [
            contract_for(self._schedule_pass, default="schedule_opaque"),
            contract_for(self._synthesis_pass, default="synthesize_opaque"),
        ]
        for pass_name, circuit_pass in self._circuit_passes:
            contract = contract_for(circuit_pass, default="circuit_opaque")
            if contract.name == "circuit_opaque":
                contract = contract_for(pass_name, default="circuit_opaque")
            resolved.append(contract)
        return resolved

    def validate(self) -> None:
        """Statically reject a miscomposed pass order.

        Raises :class:`repro.static.contracts.PipelineContractError` —
        naming the pass and the unmet property — before any pass runs,
        so an invalid custom pipeline never emits a gate.
        """
        _CHECKER.check(
            self.contracts(),
            initial=frozenset({"ir_valid"}),
            goal=self.goal,
            name=self.name,
        )

    def run(self, program: PauliProgram) -> PipelineResult:
        self.validate()
        schedule = self._schedule_pass(program)
        debug_check(f"{self.name}: schedule", program=program)
        circuit, metadata = self._synthesis_pass(schedule, program)
        debug_check(f"{self.name}: synthesize", tape=circuit.tape)
        sizes = {"synthesize": circuit.size}
        for pass_name, circuit_pass in self._circuit_passes:
            circuit = circuit_pass(circuit)
            debug_check(f"{self.name}: {pass_name}", tape=circuit.tape)
            sizes[pass_name] = circuit.size
        return PipelineResult(circuit, schedule, sizes, metadata)


def ft_pipeline(scheduler: str = "gco", peephole: bool = True) -> PassPipeline:
    """The stock fault-tolerant flow as a pipeline object."""
    schedule_pass = scheduler_pass(scheduler)

    def synthesis(schedule: Schedule, program: PauliProgram):
        terms = _flatten_schedule(schedule)
        circuit = ft_synthesize(terms, program.num_qubits)
        return circuit, {"emitted_terms": terms}

    register_callable(synthesis, "ft_synthesize")
    pipeline = PassPipeline(
        f"ft-{scheduler}", schedule_pass, synthesis,
        goal=frozenset({"synthesized", "terms_recorded"}),
    )
    if peephole:
        pipeline.add_circuit_pass("peephole", optimize)
    return pipeline


def sc_pipeline(
    coupling: CouplingMap,
    scheduler: str = "do",
    edge_error: Optional[Dict[Tuple[int, int], float]] = None,
    peephole: bool = True,
) -> PassPipeline:
    """The stock superconducting flow as a pipeline object."""
    schedule_pass = scheduler_pass(scheduler)

    def synthesis(schedule: Schedule, program: PauliProgram):
        synthesizer = SCSynthesizer(coupling, edge_error)
        result = synthesizer.run(schedule, program.num_qubits)
        return result.circuit, {
            "emitted_terms": result.emitted_terms,
            "initial_layout": result.initial_layout,
            "final_layout": result.final_layout,
        }

    register_callable(synthesis, "sc_synthesize")
    pipeline = PassPipeline(
        f"sc-{scheduler}", schedule_pass, synthesis,
        goal=frozenset({"synthesized", "routed", "coupling_respected"}),
    )
    if peephole:
        pipeline.add_circuit_pass("peephole", optimize)
    return pipeline
