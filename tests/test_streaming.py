"""Streaming scheduler equivalence and memory-bound tests.

The streaming passes (``core/streaming.py``) are the only implementation
of GCO and DO, so they are pinned layer for layer against the scalar seed
oracle in ``core/reference.py``: ``gco``/``gco-stream`` and ``do`` (whole-
program frontier) must reproduce it exactly, ``do-stream`` must too while
the program fits its window, and with a tiny window every term must still
be emitted exactly once into qubit-disjoint layers.  The closed-form
Hubbard generator is pinned against the operator expansion, and a
tracemalloc ceiling checks the frontier actually bounds scheduling memory.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import schedule_to_program, scheduler_pass
from repro.core import streaming
from repro.core.reference import scalar_do_schedule, scalar_gco_schedule
from repro.core.streaming import DEFAULT_WINDOW, scan_blocks, stream_schedule
from repro.ir import PauliBlock, PauliProgram
from repro.workloads import (
    hubbard_hamiltonian,
    iter_hubbard_terms,
    scale_hubbard_program,
    scale_random_program,
)


def prog(*block_specs, parameter=1.0):
    blocks = [
        PauliBlock(labels if isinstance(labels, list) else [labels], parameter=parameter)
        for labels in block_specs
    ]
    return PauliProgram(blocks)


def signature(schedule):
    return [
        [tuple(ws.string.label for ws in block) for block in layer]
        for layer in schedule
    ]


_labels = st.text(alphabet="IXYZ", min_size=4, max_size=4).filter(
    lambda s: set(s) != {"I"}
)
_block_specs = st.lists(
    st.one_of(_labels, st.lists(_labels, min_size=2, max_size=3)),
    min_size=1,
    max_size=12,
)


# ----------------------------------------------------------------------
# Exact equivalence to the scalar oracle (default window)
# ----------------------------------------------------------------------

@given(_block_specs)
@settings(max_examples=60, deadline=None)
def test_gco_stream_matches_scalar_oracle(specs):
    p = prog(*specs)
    expected = signature(scalar_gco_schedule(p))
    for scheduler in ("gco", "gco-stream"):
        assert signature(stream_schedule(p, scheduler)) == expected


@given(_block_specs)
@settings(max_examples=60, deadline=None)
def test_do_stream_matches_scalar_oracle(specs):
    p = prog(*specs)
    expected = signature(scalar_do_schedule(p))
    for scheduler in ("do", "do-stream"):
        assert signature(stream_schedule(p, scheduler)) == expected


@pytest.mark.parametrize("scheduler,reference", [
    ("gco-stream", scalar_gco_schedule),
    ("do-stream", scalar_do_schedule),
])
def test_mid_scale_seeded_equivalence(scheduler, reference):
    """Layer-for-layer equality on seeded mid-scale programs: the paper's
    random k-local ensemble and a deep-Trotter Hubbard lattice."""
    for program in (
        scale_random_program(24, 400, seed=7),
        scale_hubbard_program(4, steps=3),
    ):
        assert signature(stream_schedule(program, scheduler)) == \
            signature(reference(program))


def test_generator_source_equals_program_source():
    """A one-shot block generator schedules identically to the program."""
    program = scale_random_program(16, 120, seed=11)
    for scheduler in ("gco-stream", "do-stream"):
        from_program = signature(stream_schedule(program, scheduler))
        from_generator = signature(
            stream_schedule((block for block in program), scheduler)
        )
        assert from_generator == from_program


# ----------------------------------------------------------------------
# Tiny windows: semantics survive even when the frontier truncates
# ----------------------------------------------------------------------

@given(_block_specs, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_small_window_preserves_term_multiset(specs, window):
    p = prog(*specs, parameter=0.3)
    for scheduler in ("gco-stream", "do-stream"):
        layers = list(stream_schedule(p, scheduler, window=window))
        assert schedule_to_program(layers).multiset_of_terms() == \
            p.multiset_of_terms()


@given(_block_specs, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_small_window_do_layers_qubit_disjoint(specs, window):
    p = prog(*specs)
    for layer in stream_schedule(p, "do-stream", window=window):
        seen = set()
        for block in layer:
            qubits = set(block.active_qubits)
            assert not (qubits & seen)
            seen |= qubits


# ----------------------------------------------------------------------
# Scan keys and dispatch
# ----------------------------------------------------------------------

def test_scan_keys_order_like_lex_keys():
    program = scale_random_program(20, 150, seed=3)
    blocks, keys, lengths, num_qubits = scan_blocks(program, chunk_strings=16)
    assert num_qubits == 20
    assert len(blocks) == len(keys) == len(lengths) == 150
    by_key = sorted(range(len(blocks)), key=keys.__getitem__)
    by_lex = sorted(range(len(blocks)), key=lambda i: blocks[i].view.lex_key)
    assert [blocks[i] for i in by_key] == [blocks[i] for i in by_lex]
    for block, length in zip(blocks, lengths):
        assert int(length) == block.active_length


def test_do_keeps_whole_program_frontier(monkeypatch):
    """``do`` is Algorithm 1 over the whole program whatever the window:
    with ``DEFAULT_WINDOW`` shrunk below the block count, ``do-stream``
    diverges from the oracle and ``do`` does not."""
    monkeypatch.setattr(streaming, "DEFAULT_WINDOW", 4)
    program = scale_random_program(8, 30, seed=0)
    expected = signature(scalar_do_schedule(program))
    assert signature(scheduler_pass("do-stream")(program)) != expected
    assert signature(scheduler_pass("do")(program)) == expected
    assert signature(scheduler_pass("do", materialize=False)(program)) == \
        expected


def test_gco_stream_is_gco():
    assert scheduler_pass("gco-stream") is scheduler_pass("gco")


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown streaming scheduler"):
        list(stream_schedule(prog("XX"), "depth-stream"))


# ----------------------------------------------------------------------
# Closed-form Hubbard generator pin (promised in iter_hubbard_terms)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("num_sites", [2, 3, 4])
@pytest.mark.parametrize("periodic", [False, True])
def test_hubbard_generator_matches_operator_expansion(num_sites, periodic):
    expanded = {}
    for string, weight in hubbard_hamiltonian(
        num_sites, hopping=0.7, interaction=2.3, periodic=periodic
    ).real_weighted_strings():
        if not string.is_identity:
            expanded[string.label] = expanded.get(string.label, 0.0) + weight
    streamed = {}
    for string, weight in iter_hubbard_terms(
        num_sites, hopping=0.7, interaction=2.3, periodic=periodic
    ):
        streamed[string.label] = streamed.get(string.label, 0.0) + weight
    assert streamed.keys() == expanded.keys()
    for label, weight in expanded.items():
        assert streamed[label] == pytest.approx(weight, abs=1e-12)


# ----------------------------------------------------------------------
# Bounded memory: the frontier, not the program, sets the ceiling
# ----------------------------------------------------------------------

def test_do_stream_scheduling_memory_bounded():
    """A full ``do-stream`` drain of a mid-scale program must allocate far
    less than a whole-program profile matrix would.

    8k blocks on 60 qubits held whole is 8k ``BlockView`` instances and an
    (8k, 3, 8) profile stack that is rescanned per layer; the ``do-stream``
    frontier realizes at most ``DEFAULT_WINDOW`` profile rows.  The 48 MB
    ceiling is ~6x the measured traced peak — tight enough to catch any
    return to whole-program materialization, loose enough for allocator
    noise.
    """
    program = scale_random_program(60, 8_000, seed=5)
    program.release_views()
    tracemalloc.start()
    blocks_seen = sum(
        len(layer) for layer in stream_schedule(program, "do-stream")
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert blocks_seen == 8_000
    assert DEFAULT_WINDOW < 8_000  # the frontier genuinely truncates here
    assert peak < 48 * 2**20, (
        f"do-stream traced peak {peak / 2**20:.1f} MB exceeds the 48 MB "
        f"scheduling ceiling"
    )
