"""Block-wise optimization for the superconducting backend (Section 5.2).

Algorithm 3 fuses circuit synthesis, SWAP insertion and layout transition.
For each scheduled layer:

1. **Root selection** (line 5) — the primary block's root is the core qubit
   whose physical position sits in the largest connected component of the
   core positions under the *current* mapping, minimizing transition
   overhead from the previous layer.
2. **Region connection** (line 6) — remaining active qubits are pulled into
   the root's component along lowest-error shortest paths; these SWAPs are
   persistent layout transitions.
3. **String synthesis** (lines 8-17) — for every Pauli string, active
   qubits that are still scattered are gathered (``ps[n] != I`` and
   ``ps[np] == I`` -> SWAP toward the region, also persistent), then the
   string is realized as a parity sandwich on a CNOT tree embedded in the
   coupling subgraph of its active nodes: basis changes, leaf-to-root
   CNOTs, the central ``Rz``, and the exact mirror.  No swaps occur inside
   the sandwich, so the mirror is position-stable.
4. **Small-block parallelism** (lines 18-20) — other blocks in the layer
   are synthesized speculatively with all paths forbidden from touching the
   primary block's qubits; if impossible they are deferred to the
   ``remain`` pool, processed at the end in increasing cumulative-distance
   order (lines 21-23).  Deferral is legal because Pauli IR semantics are
   order-free.

The emitted ``(string, coefficient)`` order and the layout history are
recorded so tests can check full unitary equivalence on small devices.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..circuit import Gate, QuantumCircuit
from ..ir import PauliBlock, PauliProgram
from ..pauli import PauliString
from ..static.invariants import debug_check
from ..transpile import (
    CouplingMap,
    Layout,
    dense_initial_layout,
    optimize,
    validate_routed,
)
from .cancellation import check_cancel
from .scheduling import Schedule, scheduler_pass

__all__ = ["SCResult", "EmbeddedTree", "sc_compile", "SCSynthesizer"]

_NO_FORBIDDEN: FrozenSet[int] = frozenset()


class EmbeddedTree:
    """A BFS tree over physical qubits embedded in the coupling map."""

    def __init__(self, root: int, parent: Dict[int, int], depth: Dict[int, int]):
        self.root = root
        self.parent = parent  # node -> parent node (root absent)
        self.depth = depth    # node -> distance from root

    @property
    def nodes(self) -> Set[int]:
        return set(self.depth)

    def nodes_by_depth_desc(self) -> List[int]:
        return sorted(self.depth, key=lambda n: (-self.depth[n], n))

    @classmethod
    def bfs(cls, coupling: CouplingMap, nodes: Sequence[int], root: int) -> "EmbeddedTree":
        node_set = set(nodes)
        if root not in node_set:
            raise ValueError("root must be one of the tree nodes")
        parent: Dict[int, int] = {}
        depth = {root: 0}
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for nbr in coupling.neighbors(node):
                    if nbr in node_set and nbr not in depth:
                        depth[nbr] = depth[node] + 1
                        parent[nbr] = node
                        nxt.append(nbr)
            frontier = nxt
        if set(depth) != node_set:
            raise ValueError("tree nodes are not connected in the coupling map")
        return cls(root, parent, depth)


class SCResult:
    """Output of the SC pass."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout,
        final_layout: Layout,
        emitted_terms: List[Tuple[PauliString, float]],
        transition_swaps: int,
    ):
        self.circuit = circuit
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.emitted_terms = emitted_terms
        self.transition_swaps = transition_swaps


class SCSynthesizer:
    """Stateful Algorithm 3 executor.

    Parameters
    ----------
    coupling:
        Device connectivity.
    edge_error:
        Optional ``{(u, v): error_rate}`` turned into a SWAP reliability
        cost (see :meth:`_edge_cost`) when moving qubits (lowest-error
        path, Algorithm 3 line 6).  Missing edges default to a uniform
        cost of 1.
    """

    def __init__(
        self,
        coupling: CouplingMap,
        edge_error: Optional[Dict[Tuple[int, int], float]] = None,
        rng: Optional["random.Random"] = None,
        release_views: bool = False,
    ):
        self.coupling = coupling
        self._edge_error = edge_error or {}
        self._rng = rng
        self._release_views = release_views

    # -- public ---------------------------------------------------------
    def run(self, schedule: Schedule, num_logical: int) -> SCResult:
        initial_layout = self._interaction_aware_layout(schedule, num_logical)
        self.layout = initial_layout.copy()
        self.circuit = QuantumCircuit(self.coupling.num_qubits)
        self.emitted: List[Tuple[PauliString, float]] = []
        self.transition_swaps = 0

        remain: List[PauliBlock] = []
        for layer in schedule:
            primary = layer[0]
            self._process_block(primary, _NO_FORBIDDEN)
            primary_region = frozenset(
                self.layout.physical(q) for q in primary.active_qubits
            )
            if self._release_views:
                primary.release_view()
            for small in layer[1:]:
                if self._try_parallel_block(small, primary_region):
                    if self._release_views:
                        small.release_view()
                else:
                    remain.append(small)

        while remain:
            block = min(remain, key=self._cumulative_distance)
            remain.remove(block)
            self._process_block(block, _NO_FORBIDDEN)
            if self._release_views:
                block.release_view()

        return SCResult(
            self.circuit,
            initial_layout,
            self.layout.copy(),
            self.emitted,
            self.transition_swaps,
        )

    # -- initial placement --------------------------------------------------
    def _interaction_aware_layout(self, schedule: Schedule, num_logical: int) -> Layout:
        """Initial mapping onto the most connected subgraph, interaction-first.

        Refines Algorithm 3 line 1: logical qubits are placed inside the
        densest device region in order of interaction weight, each next to
        the already-placed qubits it couples with most, so that early
        strings need no gather swaps at all.
        """
        interactions: Dict[Tuple[int, int], float] = {}
        for layer in schedule:
            for block in layer:
                for ws in block:
                    support = ws.string.support
                    for i in range(len(support)):
                        for j in range(i + 1, len(support)):
                            pair = (support[i], support[j])
                            interactions[pair] = interactions.get(pair, 0.0) + 1.0
        if not interactions:
            return dense_initial_layout(self.coupling, num_logical)

        region = dense_initial_layout(self.coupling, num_logical).physical_qubits()
        free = set(region)
        weight_of = {q: 0.0 for q in range(num_logical)}
        # Logical-qubit adjacency lists: the placement loops below query
        # "which placed qubits does q couple with" per candidate, and
        # scanning the full interaction dict each time is
        # O(n^2 * |interactions|) — fatal at hundreds of qubits.  The
        # adjacency form makes each query O(degree).
        adjacency: Dict[int, List[Tuple[int, float]]] = {
            q: [] for q in range(num_logical)
        }
        for (a, b), w in interactions.items():
            weight_of[a] += w
            weight_of[b] += w
            adjacency[a].append((b, w))
            adjacency[b].append((a, w))

        placed: Dict[int, int] = {}
        order = sorted(range(num_logical), key=lambda q: -weight_of[q])
        anchor = self._pick(order[:3]) if self._rng else order[0]
        start_candidates = sorted(
            free,
            key=lambda p: -sum(1 for n in self.coupling.neighbors(p) if n in free),
        )
        start = self._pick(start_candidates[:3]) if self._rng else start_candidates[0]
        placed[anchor] = start
        free.discard(start)
        unplaced = [q for q in order if q != anchor]
        while unplaced:
            # Next logical: the one most coupled to already-placed qubits.
            def coupling_to_placed(q: int) -> float:
                return sum(w for other, w in adjacency[q] if other in placed)

            logical = max(unplaced, key=lambda q: (coupling_to_placed(q), weight_of[q]))
            unplaced.remove(logical)
            placed_neighbors = [
                (placed[other], w)
                for other, w in adjacency[logical]
                if other in placed
            ]

            def placement_cost(p: int) -> float:
                return sum(
                    w * self.coupling.distance(p, position)
                    for position, w in placed_neighbors
                )

            ranked = sorted(free, key=placement_cost)
            best = self._pick(ranked[:2]) if self._rng else ranked[0]
            placed[logical] = best
            free.discard(best)
        return Layout(placed)

    def _pick(self, candidates):
        return self._rng.choice(candidates)

    # -- block processing -------------------------------------------------
    def _process_block(self, block: PauliBlock, forbidden: FrozenSet[int]) -> None:
        """Connect the block's active region, then synthesize its strings."""
        positions = {self.layout.physical(q) for q in block.active_qubits}
        if positions & forbidden:
            raise ValueError("block overlaps a protected region")
        root = self._select_root(block)
        seed = set(
            self.coupling.connected_component_within(root, sorted(positions))
        )
        self._gather(positions, forbidden, seed=seed)
        self._synthesize_block(block, forbidden)

    def _try_parallel_block(self, block: PauliBlock, protected: FrozenSet[int]) -> bool:
        """Speculatively synthesize a small block without touching the
        primary block's qubits; roll back and defer on failure."""
        recorded = len(self.circuit)
        layout_before = self.layout.copy()
        emitted_before = len(self.emitted)
        swaps_before = self.transition_swaps
        try:
            self._process_block(block, protected)
            return True
        except ValueError:
            self.circuit.truncate(recorded)
            self.layout = layout_before
            del self.emitted[emitted_before:]
            self.transition_swaps = swaps_before
            return False

    def _select_root(self, block: PauliBlock) -> int:
        """Root = core qubit whose physical position lies in the largest
        connected component of the core positions (Algorithm 3 line 5)."""
        candidates = list(block.core_qubits) or list(block.active_qubits)
        positions = [self.layout.physical(q) for q in candidates]
        return max(
            positions,
            key=lambda p: (
                len(self.coupling.connected_component_within(p, positions)),
                self.coupling.degree(p),
                -p,
            ),
        )

    # -- qubit movement ----------------------------------------------------
    def _gather(
        self,
        active: Set[int],
        forbidden: FrozenSet[int],
        seed: Optional[Set[int]] = None,
    ) -> None:
        """Persistently SWAP active qubits until they form one connected
        component of the coupling graph.

        ``active`` is mutated to the final positions.  Each round pulls the
        nearest outside qubit into the sink component along the cheapest
        (error-weighted) path.  ``seed`` selects the initial sink (defaults
        to the largest component).  Raises ``ValueError`` when ``forbidden``
        nodes make connection impossible.
        """
        if len(active) <= 1:
            return
        graph = self._allowed_graph(forbidden, keep=active)
        while True:
            components = list(nx.connected_components(graph.subgraph(active)))
            if len(components) <= 1:
                return
            if seed:
                sink = next(
                    (set(c) for c in components if c & seed),
                    max(components, key=len),
                )
            else:
                sink = max(components, key=len)
            seed = None  # only the first round honours the seed
            path = self._cheapest_path_to_sink(graph, sink, active)
            if path is None:
                raise ValueError("gather blocked by forbidden region")
            # path runs sink ... qubit; walk the qubit inward, stopping one
            # short of the sink (adjacency suffices) or at another active
            # node (components merge by adjacency).
            pos = path[-1]
            for nxt in reversed(path[1:-1]):
                if nxt in active:
                    break
                self._emit_swap(pos, nxt, transition=True)
                active.discard(pos)
                active.add(nxt)
                pos = nxt

    def _cheapest_path_to_sink(
        self, graph: nx.Graph, sink: Set[int], active: Set[int]
    ) -> Optional[List[int]]:
        """Cheapest path from the sink component to any outside active node."""
        distances, paths = nx.multi_source_dijkstra(
            graph, sources=set(sink), weight=lambda u, v, _attrs: self._edge_cost(u, v)
        )
        candidates = [n for n in active if n not in sink and n in distances]
        if not candidates:
            return None
        target = min(candidates, key=lambda n: distances[n])
        return paths[target]

    def _allowed_graph(self, forbidden: FrozenSet[int], keep: Set[int]) -> nx.Graph:
        if not forbidden:
            return self.coupling.graph
        allowed = [
            n for n in self.coupling.graph.nodes if n not in forbidden or n in keep
        ]
        return self.coupling.graph.subgraph(allowed)

    def _edge_cost(self, u: int, v: int) -> float:
        """SWAP reliability cost of one edge for path selection.

        Calibrated edges cost ``3 * -log(1 - e)`` (a SWAP is 3 CNOTs;
        summing along a path minimizes the product of failure-free
        probabilities — the same cost model as
        :func:`repro.transpile.reliability_cost_matrix`).  Rates >= 1 are
        impassable.  Uncalibrated edges keep the historical uniform cost
        of 1, which both preserves plain hop-count behaviour with no
        ``edge_error`` and makes uncalibrated hops far pricier than any
        realistic calibrated one.
        """
        rate = self._edge_error.get((u, v), self._edge_error.get((v, u)))
        if rate is None:
            return 1.0
        if rate >= 1.0:
            return math.inf
        return 3.0 * -math.log(1.0 - rate)

    # -- string synthesis ----------------------------------------------------
    def _synthesize_block(self, block: PauliBlock, forbidden: FrozenSet[int]) -> None:
        """Synthesize a block's strings cheapest-gather-first.

        The string-level analogue of Algorithm 3's cumulative-distance rule
        (line 22): under the current (persistent) mapping, always pick the
        remaining string whose active qubits are closest together, breaking
        ties by operator overlap with the previous string so the FT-style
        junction cancellation is preserved.  Strings whose qubits are
        already adjacent cost zero movement, and each gather improves the
        mapping for its neighbours in the interaction graph.
        """
        remaining = [
            (ws.string, ws.weight * block.parameter)
            for ws in block
            if not ws.string.is_identity
        ]
        previous: Optional[PauliString] = None
        while remaining:
            def key(term):
                string, _ = term
                overlap = previous.overlap(string) if previous is not None else 0
                return (self._scatter_cost(string), -overlap, string.lex_key())

            term = min(remaining, key=key)
            remaining.remove(term)
            string, coefficient = term
            self._synthesize_string(string, coefficient, forbidden)
            self.emitted.append((string, coefficient))
            previous = string

    def _scatter_cost(self, string: PauliString) -> int:
        """Cumulative pairwise distance of a string's active qubits."""
        positions = [self.layout.physical(q) for q in string.support]
        return sum(
            self.coupling.distance(positions[i], positions[j])
            for i in range(len(positions))
            for j in range(i + 1, len(positions))
        )

    def _synthesize_string(
        self, string: PauliString, coefficient: float, forbidden: FrozenSet[int]
    ) -> None:
        """Gather the string's qubits, then emit the parity sandwich."""
        active = {self.layout.physical(q) for q in string.support}
        self._gather(active, forbidden)

        basis: List[Gate] = []
        for logical in string.support:
            phys = self.layout.physical(logical)
            code = string[logical]
            if code == "X":
                basis.append(Gate("h", (phys,)))
            elif code == "Y":
                basis.append(Gate("yh", (phys,)))
        for gate in basis:
            self.circuit.append(gate)

        if len(active) == 1:
            self.circuit.rz(-2.0 * coefficient, next(iter(active)))
        else:
            tree = EmbeddedTree.bfs(
                self.coupling, sorted(active), self._sandwich_root(active)
            )
            cnots: List[Gate] = []
            for node in tree.nodes_by_depth_desc():
                if node == tree.root:
                    continue
                gate = Gate("cx", (node, tree.parent[node]))
                cnots.append(gate)
                self.circuit.append(gate)
            self.circuit.rz(-2.0 * coefficient, tree.root)
            for gate in reversed(cnots):
                self.circuit.append(gate)

        for gate in reversed(basis):
            self.circuit.append(gate)

    def _sandwich_root(self, active: Set[int]) -> int:
        """Centre of the active subgraph: minimizes the CNOT-tree depth."""
        sub = self.coupling.graph.subgraph(active)
        best = None
        best_key = None
        for node in sorted(active):
            lengths = nx.single_source_shortest_path_length(sub, node)
            key = (max(lengths.values()), sum(lengths.values()), node)
            if best_key is None or key < best_key:
                best_key = key
                best = node
        return best

    # -- bookkeeping -------------------------------------------------------
    def _emit_swap(self, a: int, b: int, transition: bool) -> None:
        self.circuit.append(Gate("swap", (a, b)))
        self.layout.swap_physical(a, b)
        if transition:
            self.transition_swaps += 1

    def _cumulative_distance(self, block: PauliBlock) -> float:
        positions = [self.layout.physical(q) for q in block.active_qubits]
        return sum(
            self.coupling.distance(positions[i], positions[j])
            for i in range(len(positions))
            for j in range(i + 1, len(positions))
        )


def sc_compile(
    program: PauliProgram,
    coupling: CouplingMap,
    scheduler: str = "do",
    edge_error: Optional[Dict[Tuple[int, int], float]] = None,
    run_peephole: bool = True,
    restarts: int = 1,
    seed: int = 7,
    cancel: Optional[Callable[[], bool]] = None,
) -> SCResult:
    """Full SC flow: schedule, tree-embedded synthesis, peephole cleanup.

    ``scheduler`` accepts ``"do"`` (default), ``"gco"``, ``"none"``,
    ``"gco-stream"`` (the same pass as ``"gco"``) and ``"do-stream"``
    (``"do"`` with its frontier bounded to O(window) profile memory, the
    large-scale path).  Block views are released as the last attempt
    synthesizes them.  ``restarts > 1`` re-runs the pass with jittered
    initial placements and keeps the lowest-CNOT result (deterministic
    given ``seed``; the first attempt is always the un-jittered layout).  The returned circuit acts on
    physical qubits and respects the coupling map (validated on return).
    ``cancel`` is polled after scheduling and between restart attempts
    (see :mod:`repro.core.cancellation`).
    """
    # The SC pass walks the schedule twice (interaction-aware layout, then
    # synthesis) and restarts re-run it, so the layer *structure* is
    # materialized — but block views are not: the scheduler never
    # realizes them for singleton blocks, and the last attempt drops each
    # one after synthesis.
    schedule = scheduler_pass(scheduler)(program)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    check_cancel(cancel, "after scheduling")
    debug_check("sc: schedule", program=program)

    best: Optional[SCResult] = None
    for attempt in range(restarts):
        if attempt > 0:
            check_cancel(cancel, f"before restart attempt {attempt}")
        rng = random.Random(seed + attempt) if attempt > 0 else None
        synthesizer = SCSynthesizer(
            coupling, edge_error, rng=rng,
            release_views=attempt == restarts - 1,
        )
        result = synthesizer.run(schedule, program.num_qubits)
        if run_peephole:
            result = SCResult(
                optimize(result.circuit),
                result.initial_layout,
                result.final_layout,
                result.emitted_terms,
                result.transition_swaps,
            )
        if best is None or result.circuit.cnot_count < best.circuit.cnot_count:
            best = result
    validate_routed(best.circuit, coupling)
    debug_check("sc: synthesize+peephole", tape=best.circuit.tape,
                coupling=coupling)
    return best
