"""Artifact round-trip tests over the full gate zoo.

Unlike the QASM round trip (which expands ``yh`` and only promises unitary
equivalence), the service artifact codec promises **gate-identical tapes**:
serialize → deserialize must reproduce every opcode, operand pair, and
IEEE-754 angle bit-for-bit, and re-serializing must reproduce the original
document byte-for-byte.  The circuit generators are reused from the QASM
round-trip suite so both codecs face the same zoo.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.circuit import Gate, QuantumCircuit
from repro.core import compile_program
from repro.ir import parse_program
from repro.service import (
    circuit_from_dict,
    circuit_to_dict,
    dumps_artifact,
    loads_artifact,
    program_from_dict,
    program_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.service.batch import compile_batch
from repro.transpile import linear
from test_qasm_roundtrip import GATE_ZOO_1Q, GATE_ZOO_2Q, GATE_ZOO_ROT, zoo_circuits


def assert_tapes_identical(a: QuantumCircuit, b: QuantumCircuit) -> None:
    """Live rows equal, column by column (opcode, operands, exact angle)."""
    assert a.num_qubits == b.num_qubits
    rows_a = [a.tape.row(slot) for slot in a.tape.iter_slots()]
    rows_b = [b.tape.row(slot) for slot in b.tape.iter_slots()]
    assert rows_a == rows_b


@given(zoo_circuits())
@settings(max_examples=60, deadline=None)
def test_circuit_roundtrip_is_gate_identical(qc):
    back = circuit_from_dict(circuit_to_dict(qc))
    assert_tapes_identical(qc, back)
    assert list(back.gates) == list(qc.gates)
    assert back.count_ops() == qc.count_ops()
    assert back.depth() == qc.depth()


@given(zoo_circuits())
@settings(max_examples=30, deadline=None)
def test_reserialization_is_byte_identical(qc):
    first = json.dumps(circuit_to_dict(qc), sort_keys=True)
    second = json.dumps(
        circuit_to_dict(circuit_from_dict(circuit_to_dict(qc))), sort_keys=True
    )
    assert first == second


def test_every_zoo_gate_roundtrips_individually():
    for name in GATE_ZOO_1Q:
        qc = QuantumCircuit(1)
        qc.append(Gate(name, (0,)))
        assert_tapes_identical(qc, circuit_from_dict(circuit_to_dict(qc)))
    for name in GATE_ZOO_ROT:
        qc = QuantumCircuit(1)
        # An angle with no short decimal form: exact IEEE-754 round trip.
        qc.append(Gate(name, (0,), (math.pi / 7 + 1e-17,)))
        back = circuit_from_dict(circuit_to_dict(qc))
        assert back.gates[0].params == qc.gates[0].params
    for name in GATE_ZOO_2Q:
        qc = QuantumCircuit(2)
        qc.append(Gate(name, (1, 0)))   # operand order must survive
        back = circuit_from_dict(circuit_to_dict(qc))
        assert back.gates[0].qubits == (1, 0)


def test_circuit_metadata_preserved():
    qc = QuantumCircuit(3, name="my-kernel")
    qc.h(0).cx(0, 1).rz(0.25, 2)
    back = circuit_from_dict(circuit_to_dict(qc))
    assert back.name == "my-kernel"
    assert back.num_qubits == 3


class TestResultArtifacts:
    def test_ft_result_roundtrip(self):
        program = parse_program("{(XYZ, 0.5), (ZZI, -0.25), 0.7};")
        result = compile_program(program, backend="ft")
        back = loads_artifact(dumps_artifact(result))
        assert_tapes_identical(result.circuit, back.circuit)
        assert back.backend == "ft" and back.scheduler == result.scheduler
        assert back.metrics == result.metrics
        assert [(s.label, c) for s, c in back.emitted_terms] == \
            [(s.label, c) for s, c in result.emitted_terms]
        assert back.initial_layout is None and back.final_layout is None

    def test_sc_result_roundtrip_preserves_layouts(self):
        program = parse_program("{(ZIIZ, 1.0), 0.5};\n{(XXII, -0.5), 0.3};")
        result = compile_program(program, backend="sc", coupling=linear(4))
        back = loads_artifact(dumps_artifact(result))
        assert back.metrics == result.metrics
        for layout_pair in (
            (back.initial_layout, result.initial_layout),
            (back.final_layout, result.final_layout),
        ):
            got, want = layout_pair
            assert sorted(got.physical_qubits()) == sorted(want.physical_qubits())
            for p in want.physical_qubits():
                assert got.logical(p) == want.logical(p)

    def test_artifact_text_reserializes_byte_identically(self):
        program = parse_program("{(XYZ, 0.5), 0.7};")
        result = compile_program(program, backend="ft")
        text = dumps_artifact(result)
        assert dumps_artifact(loads_artifact(text)) == text

    def test_version_gate(self):
        program = parse_program("{(XY, 1.0), 0.5};")
        payload = result_to_dict(compile_program(program, backend="ft"))
        payload["version"] = 999
        with pytest.raises(ValueError, match="version"):
            result_from_dict(payload)
        circ = circuit_to_dict(QuantumCircuit(1).h(0))
        circ["version"] = 0
        with pytest.raises(ValueError, match="version"):
            circuit_from_dict(circ)

    def test_kind_gate(self):
        circ = circuit_to_dict(QuantumCircuit(1).h(0))
        with pytest.raises(ValueError, match="circuit"):
            result_from_dict({**circ, "kind": "circuit"})


class TestCrossVersionDecode:
    """The decode floor is OLDEST_SUPPORTED_VERSION, not the current
    version.

    Regression: ``_check_version`` defaulted ``oldest`` to
    ``ARTIFACT_VERSION``, so every decode path that did not pass an
    explicit floor silently rejected still-supported older payloads the
    moment the version was bumped — a cache full of v2 artifacts read as
    all-miss after upgrading to a v3 build.
    """

    @staticmethod
    def _payload_at_version(version, tier="full"):
        """A faithful payload of the given era: v1 predates ``device``,
        v2 predates ``pipeline``, and only v3 carries a ``tier``."""
        program = parse_program("{(XYZ, 0.5), (ZZI, -0.25), 0.7};")
        payload = result_to_dict(compile_program(program, backend="ft"))
        if version == 3:
            payload["tier"] = tier
        if version < 3:
            payload.pop("pipeline", None)
        if version < 2:
            payload.pop("device", None)
        payload["version"] = version
        payload["circuit"] = {**payload["circuit"], "version": version}
        return payload

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_supported_versions_all_decode(self, version):
        back = result_from_dict(self._payload_at_version(version))
        reference = compile_program(
            parse_program("{(XYZ, 0.5), (ZZI, -0.25), 0.7};"), backend="ft"
        )
        assert_tapes_identical(back.circuit, reference.circuit)
        assert back.backend == "ft"
        # Era defaults: fields an old payload lacks come back as None.
        if version < 3:
            assert back.pipeline is None
        else:
            assert back.pipeline == "ft-gco-opt3"
        if version < 2:
            assert back.device is None

    @pytest.mark.parametrize("version", [0, 5, None, "2"])
    def test_out_of_range_versions_still_reject(self, version):
        payload = self._payload_at_version(2)
        payload["version"] = version
        with pytest.raises(ValueError, match="version"):
            result_from_dict(payload)

    def test_true_floor_is_the_default(self):
        from repro.service import ARTIFACT_VERSION, OLDEST_SUPPORTED_VERSION

        assert OLDEST_SUPPORTED_VERSION == 1 < ARTIFACT_VERSION
        # The loads path inherits the floor: a v1 text decodes.
        text = json.dumps(self._payload_at_version(1))
        assert loads_artifact(text).backend == "ft"

    @pytest.mark.parametrize("tier", ["opt0", "opt1", "opt2", "bogus"])
    def test_v3_reduced_tier_is_rejected_as_stale(self, tier):
        with pytest.raises(ValueError, match="stale"):
            result_from_dict(self._payload_at_version(3, tier=tier))

    def test_current_writer_emits_no_tier(self):
        program = parse_program("{(XY, 1.0), 0.5};")
        payload = result_to_dict(compile_program(program, backend="ft"))
        assert "tier" not in payload
        assert payload["pipeline"] == "ft-gco-opt3"


_ARTIFACT_CORPUS = (
    Path(__file__).parent / "corpora" / "artifact_versions.jsonl"
)
#: The programs (and SC target) the committed corpus documents compile.
_CORPUS_SOURCES = {
    "ft": ("{(XYZ, 0.5), (ZZI, -0.25), 0.7};", {}),
    "sc": ("{(XXII, -0.3), (ZIIZ, 1.0), 0.5};", {"coupling": linear(4)}),
}


def _artifact_corpus_cases(expect=None):
    cases = []
    for line in _ARTIFACT_CORPUS.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            case = json.loads(line)
            if expect is None or case["expect"] == expect:
                cases.append(case)
    return cases


def _canonical_text(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


class TestCommittedArtifactCorpus:
    """Frozen artifacts from every codec era keep decoding — or, for the
    reduced-tier v3 documents, keep being rejected as stale.

    The corpus is the on-disk counterpart of the cross-version matrix
    above: real serialized documents written by v1-v4 builds, committed
    so a future version bump that breaks the decode floor fails against
    bytes that actually shipped, not against synthetic payloads.
    """

    @pytest.mark.parametrize(
        "case", _artifact_corpus_cases("decodes"), ids=lambda case: case["id"],
    )
    def test_every_committed_era_decodes(self, case):
        result = result_from_dict(case["artifact"])
        assert result.circuit.num_qubits == case["artifact"]["circuit"]["num_qubits"]
        assert list(result.circuit.gates)   # tape reconstructed, non-empty

    @pytest.mark.parametrize(
        "case", _artifact_corpus_cases("stale"), ids=lambda case: case["id"],
    )
    def test_reduced_tier_documents_are_stale(self, case):
        with pytest.raises(ValueError, match="stale"):
            loads_artifact(_canonical_text(case["artifact"]))

    @pytest.mark.parametrize(
        "case",
        [c for c in _artifact_corpus_cases() if c["artifact"]["version"] == 4],
        ids=lambda case: case["id"],
    )
    def test_current_era_reserializes_byte_identically(self, case):
        text = _canonical_text(case["artifact"])
        assert dumps_artifact(loads_artifact(text)) == text

    @pytest.mark.parametrize(
        "case", _artifact_corpus_cases("stale"), ids=lambda case: case["id"],
    )
    def test_stale_cache_entry_is_recompiled_at_full_effort(self, case,
                                                             tmp_path):
        """A reduced-tier document under a program's key is a miss:
        ``compile_program(cache=...)`` recompiles and overwrites it with
        the v4 full-effort artifact the current build writes."""
        from repro.service import CompileCache

        backend = case["artifact"]["backend"]
        text, options = _CORPUS_SOURCES[backend]
        program = parse_program(text)
        cache = CompileCache(tmp_path)
        fingerprint = compile_program(
            program, backend=backend, cache=CompileCache(), **options,
        ).fingerprint
        cache.put(fingerprint, _canonical_text(case["artifact"]))

        redone = compile_program(program, backend=backend, cache=cache,
                                 **options)
        assert not redone.from_cache
        stored = cache.get(fingerprint)
        expected = [c for c in _artifact_corpus_cases()
                    if c["id"] == f"v4-{backend}-full"][0]["artifact"]
        assert stored == _canonical_text(expected)
        assert compile_program(program, backend=backend, cache=cache,
                               **options).from_cache

    def test_corpus_spans_the_supported_range(self):
        from repro.service import ARTIFACT_VERSION, OLDEST_SUPPORTED_VERSION

        cases = _artifact_corpus_cases()
        versions = {c["artifact"]["version"] for c in cases}
        assert versions == set(
            range(OLDEST_SUPPORTED_VERSION, ARTIFACT_VERSION + 1)
        )
        stale = {c["artifact"]["tier"] for c in _artifact_corpus_cases("stale")}
        assert stale == {"opt1", "opt2"}
        assert {c["expect"] for c in cases} == {"decodes", "stale"}


class TestProgramArtifacts:
    def test_program_roundtrip_preserves_everything(self):
        program = parse_program(
            "{(XYZI, 0.5), (IZZX, -0.25), 0.3};\n{(YIIX, 1.5), 1.0};",
            name="transport",
        )
        back = program_from_dict(program_to_dict(program))
        assert back.name == "transport"
        assert back.num_qubits == program.num_qubits
        assert back.multiset_of_terms() == program.multiset_of_terms()
        assert [b.parameter for b in back] == [b.parameter for b in program]
        assert [len(b) for b in back] == [len(b) for b in program]

    def test_exact_weight_transport(self):
        """The codec must beat the %g-formatted text IR on precision."""
        from repro.ir import PauliBlock, PauliProgram
        from repro.pauli import PauliString

        weight = 0.1234567890123456789   # not representable in %g
        program = PauliProgram([
            PauliBlock([(PauliString.from_label("XZ"), weight)], parameter=1.0)
        ])
        back = program_from_dict(program_to_dict(program))
        assert back[0][0].weight == program[0][0].weight


def test_batch_entries_deserialize_to_equal_metrics(tmp_path):
    specs = [
        {"text": "{(XX, 1.0), (YY, 0.5), 0.3};", "label": "a"},
        {"text": "{(ZZ, -0.5), 0.7};", "label": "b"},
    ]
    batch = compile_batch(specs)
    for entry in batch.entries:
        result = entry.result()
        direct = compile_program(
            parse_program(specs[entry.index]["text"]), backend="ft"
        )
        assert result.metrics == direct.metrics
        assert_tapes_identical(result.circuit, direct.circuit)
