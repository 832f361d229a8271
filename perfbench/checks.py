"""Correctness gate applied to every result the benchmark counts."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.transpile import CouplingMap, manhattan_65, validate_routed
from repro.verify import verify_result

_manhattan = lru_cache(maxsize=1)(manhattan_65)


def check_result(program, result, backend: str,
                 coupling: Optional[CouplingMap] = None) -> Optional[str]:
    """``None`` when ``result`` implements ``program`` (Pauli-propagation
    equivalence) and, on SC, every two-qubit gate sits on a coupled pair;
    otherwise a one-line reason.  ``coupling`` defaults to manhattan_65,
    the service's SC default."""
    report = verify_result(program, result)
    if not report.ok:
        return report.describe()
    if backend == "sc":
        try:
            validate_routed(result.circuit, coupling or _manhattan())
        except ValueError as exc:
            return f"coupling map violated: {exc}"
    return None
