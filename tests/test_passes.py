"""Tests for the reconfigurable pass pipeline."""

import pytest

from repro.circuit import circuit_unitary, equivalent_up_to_global_phase
from repro.core.passes import PassPipeline, ft_pipeline, sc_pipeline
from repro.ir import PauliProgram
from repro.transpile import linear, validate_routed

from helpers import layout_permutation, terms_unitary


@pytest.fixture
def program():
    return PauliProgram.from_hamiltonian(
        [("ZZI", 0.5), ("IXX", -0.3), ("YIY", 0.2)], parameter=0.4
    )


class TestFTPipeline:
    def test_matches_ft_compile(self, program):
        from repro.core import ft_compile

        result = ft_pipeline("gco").run(program)
        reference = ft_compile(program, scheduler="gco")
        assert result.circuit.gates == reference.circuit.gates

    def test_stage_sizes_recorded(self, program):
        result = ft_pipeline("gco").run(program)
        assert "synthesize" in result.stage_sizes
        assert "peephole" in result.stage_sizes
        assert result.stage_sizes["peephole"] <= result.stage_sizes["synthesize"]

    def test_no_peephole_option(self, program):
        with_ = ft_pipeline("gco", peephole=True).run(program)
        without = ft_pipeline("gco", peephole=False).run(program)
        assert with_.circuit.size <= without.circuit.size

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError):
            ft_pipeline("bogus")

    def test_unitary_correct(self, program):
        result = ft_pipeline("do").run(program)
        expected = terms_unitary(result.metadata["emitted_terms"], 3)
        assert equivalent_up_to_global_phase(circuit_unitary(result.circuit), expected)


class TestSCPipeline:
    def test_routed_output(self, program):
        cmap = linear(3)
        result = sc_pipeline(cmap).run(program)
        validate_routed(result.circuit, cmap)

    def test_unitary_with_layouts(self, program):
        cmap = linear(3)
        result = sc_pipeline(cmap).run(program)
        expected = terms_unitary(result.metadata["emitted_terms"], 3)
        s_init = layout_permutation(result.metadata["initial_layout"], 3)
        s_final = layout_permutation(result.metadata["final_layout"], 3)
        assert equivalent_up_to_global_phase(
            circuit_unitary(result.circuit),
            s_final @ expected @ s_init.conj().T,
        )


class TestCustomPasses:
    def test_user_pass_inserted(self, program):
        calls = []

        def spy_pass(circuit):
            calls.append(circuit.size)
            return circuit

        pipeline = ft_pipeline("gco").add_circuit_pass("spy", spy_pass)
        assert pipeline.pass_names == ["schedule", "synthesize", "peephole", "spy"]
        pipeline.run(program)
        assert len(calls) == 1

    def test_custom_synthesis_pass(self, program):
        # A trivial backend: naive synthesis of the flattened schedule.
        from repro.core.synthesis import naive_program_circuit
        from repro.core.scheduling import gco_schedule, schedule_to_program

        def synthesis(schedule, prog):
            return naive_program_circuit(schedule_to_program(schedule)), {}

        pipeline = PassPipeline("naive", gco_schedule, synthesis)
        result = pipeline.run(program)
        assert result.circuit.size > 0


SCHEDULERS = ["gco", "do", "none", "gco-stream", "do-stream"]


class TestSchedulerDispatch:
    """ft_compile, sc_compile and the pipelines share one name -> schedule
    mapping (core.scheduling.scheduler_pass), so they emit the same gates
    for every scheduler name."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_ft_pipeline_matches_ft_compile(self, program, scheduler):
        from repro.core import ft_compile

        result = ft_pipeline(scheduler).run(program)
        reference = ft_compile(program, scheduler=scheduler)
        assert result.circuit.gates == reference.circuit.gates

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_sc_pipeline_matches_sc_compile(self, program, scheduler):
        from repro.core import sc_compile

        cmap = linear(3)
        result = sc_pipeline(cmap, scheduler=scheduler).run(program)
        reference = sc_compile(program, cmap, scheduler=scheduler)
        assert result.circuit.gates == reference.circuit.gates

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_every_pass_carries_its_contract(self, scheduler):
        from repro.core import scheduler_pass
        from repro.static.contracts import contract_for

        # A -stream name runs its algorithm's pass, under its contract.
        name = f"schedule_{scheduler.removesuffix('-stream')}"
        assert contract_for(scheduler_pass(scheduler),
                            default="schedule_opaque").name == name

    def test_streaming_pass_is_lazy_unless_materialized(self, program):
        from repro.core import scheduler_pass

        lazy = scheduler_pass("do-stream", materialize=False)(program)
        assert not isinstance(lazy, list)
        assert [list(layer) for layer in lazy] == \
            scheduler_pass("do-stream")(program)

    @pytest.mark.parametrize("name", ["bogus", None])
    def test_unknown_name_is_a_value_error(self, name):
        from repro.core import ft_compile, scheduler_pass

        with pytest.raises(ValueError, match="unknown scheduler"):
            scheduler_pass(name)
        with pytest.raises(ValueError, match="unknown scheduler"):
            ft_compile(PauliProgram.from_hamiltonian([("ZZ", 1.0)]),
                       scheduler=name)
