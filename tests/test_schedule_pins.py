"""Paper-scale schedule pins for the Table 2 corpus.

Every Table 2 program (Paulihedral, arXiv 2109.03371) is scheduled at
paper scale under ``gco`` and ``do``, and each schedule is pinned in
``tests/corpora/table2_schedules.json`` by its layer count and a sha256
of its layer structure: per layer, per block, the block parameter and
the ordered ``(label, weight)`` strings.  Any change to either scheduler
that moves a single block between layers, reorders a layer, or reorders
the strings inside a block fails here.

H2S (4582 blocks) and Rand-30 (4500 blocks) are larger than the
streaming frontier's ``DEFAULT_WINDOW``; their ``do`` pins are what holds
the ``do`` pass to a whole-program frontier.

Regenerate (only for an intended schedule change, explained in
CHANGES.md) with::

    PYTHONPATH=src python tests/test_schedule_pins.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import do_schedule, gco_schedule
from repro.workloads import BENCHMARKS

PINS = Path(__file__).parent / "corpora" / "table2_schedules.json"

FT_TABLE2 = ["Ising-1D", "Ising-2D", "Ising-3D", "Heisen-1D", "Heisen-2D",
             "Heisen-3D", "N2", "H2S", "Rand-30"]
SC_TABLE2 = ["UCCSD-8", "UCCSD-12", "UCCSD-16", "REG-20-4", "REG-20-8",
             "REG-20-12", "Rand-20-0.1", "Rand-20-0.3", "Rand-20-0.5",
             "TSP-4", "TSP-5"]
SCHEDULERS = {"gco": gco_schedule, "do": do_schedule}


def schedule_pin(schedule):
    """``{"layers": n, "sha256": ...}`` of a schedule's layer structure."""
    digest = hashlib.sha256()
    layers = 0
    for layer in schedule:
        layers += 1
        digest.update(b"L\n")
        for block in layer:
            digest.update(f"B {block.parameter!r}\n".encode())
            for ws in block:
                digest.update(f"{ws.string.label} {ws.weight!r}\n".encode())
    return {"layers": layers, "sha256": digest.hexdigest()}


def compute_pins():
    pins = {}
    for name in FT_TABLE2 + SC_TABLE2:
        program = BENCHMARKS[name].paper_builder()
        pins[name] = {
            scheduler: schedule_pin(schedule(program))
            for scheduler, schedule in SCHEDULERS.items()
        }
    return pins


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_pins_cover_table2(pins):
    assert sorted(pins) == sorted(FT_TABLE2 + SC_TABLE2)
    for name, entry in pins.items():
        assert sorted(entry) == sorted(SCHEDULERS), name


@pytest.mark.parametrize("name", FT_TABLE2 + SC_TABLE2)
def test_table2_schedule_pinned(name, pins):
    program = BENCHMARKS[name].paper_builder()
    for scheduler, schedule in SCHEDULERS.items():
        assert schedule_pin(schedule(program)) == pins[name][scheduler], (
            f"{name} {scheduler} schedule changed"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_schedule_pins.py --write")
    PINS.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
