"""Versioned JSON artifacts for compilation inputs and outputs.

The serving layer stores one compact JSON document per compilation.  A
circuit serializes as its :class:`~repro.circuit.tape.GateTape` columns
(opcode names are written symbolically so artifacts survive opcode-table
renumbering), and deserializes by adopting the columns straight back onto a
tape — the round trip is *byte-identical*: re-serializing a loaded artifact
reproduces the original document, and the loaded tape's columns equal the
source tape's live rows.  Python's ``json`` emits floats via ``repr``,
which round-trips IEEE-754 doubles exactly, so angles and coefficients
survive untouched.

Documents carry an explicit ``version``; loading rejects unknown versions
rather than guessing.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..circuit import QuantumCircuit
from ..circuit.gates import OP, OPCODES
from ..circuit.tape import NO_SLOT, GateTape
from ..core.compiler import CompilationResult
from ..ir import PauliBlock, PauliProgram, WeightedString
from ..pauli import PauliString
from ..transpile import Layout

__all__ = [
    "ARTIFACT_VERSION",
    "OLDEST_SUPPORTED_VERSION",
    "circuit_to_dict",
    "circuit_from_dict",
    "result_to_dict",
    "result_from_dict",
    "program_to_dict",
    "program_from_dict",
    "dumps_artifact",
    "loads_artifact",
]

#: v2 added the target ``device`` name (noise-aware compile path); v3
#: added ``pipeline`` provenance and a quality ``tier``; v4 drops the
#: tier again (every compile runs the full pipeline).  Older versions
#: stay decodable: the added fields default (pipeline/device ``None``),
#: so a v1 or v2 artifact reads as the full-effort result it is.  A v3
#: document whose tier is not ``"full"`` was compiled at reduced effort
#: and is rejected as stale, so caches recompile and overwrite it.
ARTIFACT_VERSION = 4

#: The true decode floor.  Every decode path that does not pass an
#: explicit ``oldest`` gets this, not ``ARTIFACT_VERSION`` — defaulting
#: to the current version silently rejected still-supported payloads
#: whenever a caller forgot the argument.
OLDEST_SUPPORTED_VERSION = 1


def _check_version(
    payload: Dict, kind: str, oldest: int = OLDEST_SUPPORTED_VERSION
) -> None:
    version = payload.get("version")
    if not isinstance(version, int) or not oldest <= version <= ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported {kind} artifact version {version!r}; "
            f"this build reads versions {oldest}..{ARTIFACT_VERSION}"
        )


# ----------------------------------------------------------------------
# Circuits
# ----------------------------------------------------------------------

def circuit_to_dict(circuit: QuantumCircuit) -> Dict:
    """Columnar encoding of a circuit's live tape rows.

    The opcode column is one space-joined string of symbolic mnemonics:
    symbolic so artifacts survive opcode renumbering, and a single string
    because parsing one long JSON string is an order of magnitude cheaper
    than parsing thousands of two-character ones (this is the dominant
    cost of a warm cache hit).
    """
    tape = circuit.tape
    ops: List[str] = []
    q0: List[int] = []
    q1: List[int] = []
    param: List[float] = []
    for slot in tape.iter_slots():
        op, a, b, theta = tape.row(slot)
        ops.append(OPCODES[op])
        q0.append(a)
        q1.append(b)
        param.append(theta)
    return {
        "version": ARTIFACT_VERSION,
        "kind": "circuit",
        "num_qubits": circuit.num_qubits,
        "name": circuit.name,
        "op": " ".join(ops),
        "q0": q0,
        "q1": q1,
        "param": param,
    }


def circuit_from_dict(payload: Dict) -> QuantumCircuit:
    """Rebuild a circuit by adopting the serialized columns onto a tape."""
    _check_version(payload, "circuit", oldest=1)
    if payload.get("kind") != "circuit":
        raise ValueError(f"expected a circuit artifact, got {payload.get('kind')!r}")
    ops = [OP[name] for name in payload["op"].split()]
    # json already yields ints/floats for these columns; bounds are checked
    # in aggregate below instead of per element (this is the warm-hit path).
    q0 = payload["q0"]
    q1 = payload["q1"]
    param = [float(p) for p in payload["param"]]
    if not len(ops) == len(q0) == len(q1) == len(param):
        raise ValueError("circuit artifact columns have mismatched lengths")
    num_qubits = int(payload["num_qubits"])
    if q0 and not (0 <= min(q0) and max(q0) < num_qubits):
        raise ValueError("circuit artifact q0 operand out of range")
    if q1 and not (NO_SLOT <= min(q1) and max(q1) < num_qubits):
        raise ValueError("circuit artifact q1 operand out of range")
    tape = GateTape.from_columns(num_qubits, ops, q0, q1, param)
    return QuantumCircuit.from_tape(tape, name=payload.get("name", ""))


# ----------------------------------------------------------------------
# Layouts and terms
# ----------------------------------------------------------------------

def _layout_to_list(layout: Optional[Layout]) -> Optional[List[List[int]]]:
    if layout is None:
        return None
    return sorted(
        [layout.logical(p), p]
        for p in layout.physical_qubits()
    )


def _layout_from_list(pairs: Optional[List[List[int]]]) -> Optional[Layout]:
    if pairs is None:
        return None
    return Layout({int(l): int(p) for l, p in pairs})


def _terms_to_dict(terms) -> Dict:
    """Space-joined labels + coefficient list (fast-parse, see circuit op)."""
    return {
        "labels": " ".join(string.label for string, _ in terms),
        "coefficients": [float(coefficient) for _, coefficient in terms],
    }


def _terms_from_dict(payload: Dict) -> List:
    labels = payload["labels"].split()
    coefficients = payload["coefficients"]
    if len(labels) != len(coefficients):
        raise ValueError("emitted_terms labels/coefficients length mismatch")
    return [
        (PauliString.from_label(label), float(coefficient))
        for label, coefficient in zip(labels, coefficients)
    ]


# ----------------------------------------------------------------------
# Compilation results
# ----------------------------------------------------------------------

def result_to_dict(result: CompilationResult) -> Dict:
    return {
        "version": ARTIFACT_VERSION,
        "kind": "compilation_result",
        "backend": result.backend,
        "scheduler": result.scheduler,
        "pipeline": result.pipeline,
        "circuit": circuit_to_dict(result.circuit),
        "emitted_terms": _terms_to_dict(result.emitted_terms),
        "initial_layout": _layout_to_list(result.initial_layout),
        "final_layout": _layout_to_list(result.final_layout),
        "device": result.device,
    }


def result_from_dict(payload: Dict) -> CompilationResult:
    _check_version(payload, "compilation result")
    if payload.get("kind") != "compilation_result":
        raise ValueError(
            f"expected a compilation_result artifact, got {payload.get('kind')!r}"
        )
    if payload.get("tier", "full") != "full":
        raise ValueError(
            f"stale artifact: compiled at reduced effort "
            f"(tier {payload['tier']!r}); recompile it"
        )
    return CompilationResult(
        circuit=circuit_from_dict(payload["circuit"]),
        backend=payload["backend"],
        scheduler=payload["scheduler"],
        emitted_terms=_terms_from_dict(payload["emitted_terms"]),
        initial_layout=_layout_from_list(payload.get("initial_layout")),
        final_layout=_layout_from_list(payload.get("final_layout")),
        device=payload.get("device"),
        pipeline=payload.get("pipeline"),
    )


def dumps_artifact(result: CompilationResult) -> str:
    """Compact, key-sorted JSON text of a result — the cache's stored unit.

    Key order and separators are pinned so equal results serialize to equal
    bytes (the byte-identity the cache tests assert).
    """
    return json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))


def loads_artifact(text: str) -> CompilationResult:
    return result_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Programs (batch transport + JSONL spec files)
# ----------------------------------------------------------------------

def program_to_dict(program: PauliProgram) -> Dict:
    """Exact JSON encoding of a program (weights survive bit-for-bit,
    unlike the human-oriented ``%g``-formatted text IR)."""
    return {
        "version": ARTIFACT_VERSION,
        "kind": "pauli_program",
        "num_qubits": program.num_qubits,
        "name": program.name,
        "blocks": [
            {
                "parameter": block.parameter,
                "name": block.name,
                "strings": [[ws.string.label, ws.weight] for ws in block],
            }
            for block in program
        ],
    }


def program_from_dict(payload: Dict) -> PauliProgram:
    _check_version(payload, "program", oldest=1)
    if payload.get("kind") != "pauli_program":
        raise ValueError(f"expected a pauli_program artifact, got {payload.get('kind')!r}")
    blocks = [
        PauliBlock(
            [
                WeightedString(PauliString.from_label(label), float(weight))
                for label, weight in block["strings"]
            ],
            parameter=float(block["parameter"]),
            name=block.get("name", ""),
        )
        for block in payload["blocks"]
    ]
    return PauliProgram(blocks, name=payload.get("name", ""))
