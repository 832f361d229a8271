"""The block scheduling algorithms (paper Section 4), run as streams.

This module is the one implementation of the two technology-independent
scheduling passes: gate-count-oriented (GCO, Section 4.1) and
depth-oriented (DO, Algorithm 1 in Section 4.2).  The named passes
``gco_schedule``/``do_schedule`` (core/scheduling.py) collect these
streams into lists; :mod:`repro.core.reference` keeps the scalar seed
code they are checked against.  Each pass runs in three steps:

* **Scan** (:func:`scan_blocks`): one pass over the input blocks —
  accepted as a :class:`~repro.ir.PauliProgram` or any block iterable,
  including a generator — computing, in chunked batched numpy sweeps,
  each block's compact byte lex key and active length.  No
  ``BlockView`` is built; per-block state is one small ``bytes`` key
  plus an integer.
* **Order**: a global sort on the compact keys.  The keys compare
  exactly like ``PauliString.lex_key`` tuples (see
  :func:`repro.pauli.symplectic.lex_rank_matrix`), so the order is the
  paper's lexicographic order bit for bit.
* **Emit**: layers are yielded incrementally.  The depth-oriented pass
  keeps a *frontier* of realized profile rows (refilled from the sorted
  order as layers drain it) and runs Algorithm 1's primary selection and
  disjoint padding as vectorized operations over the frontier.  Emitted
  blocks may be released (:meth:`~repro.ir.PauliBlock.release_view`) by
  the consumer; the scheduler itself never realizes a view for singleton
  blocks.

The frontier is the only knob.  ``do`` holds the whole program in it,
which is Algorithm 1 exactly.  ``do-stream`` bounds it to ``window``
rows (:data:`DEFAULT_WINDOW`), so profile memory is O(window) for
million-term programs; the term multiset, layer disjointness and
depth-fit invariants still hold, but once the program has more blocks
than the window the primary is chosen from the frontier only, and the
schedule can differ from ``do``.  ``gco`` needs no frontier, so
``gco-stream`` is the same pass under a second name.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..ir import PauliBlock, PauliProgram
from ..pauli.symplectic import lex_rank_matrix, packed_as_words, popcount

__all__ = [
    "DEFAULT_WINDOW",
    "SCAN_CHUNK_STRINGS",
    "scan_blocks",
    "streaming_gco_schedule",
    "streaming_do_schedule",
    "stream_schedule",
]

#: Frontier size of ``do-stream``.  4096 profile rows at 500 qubits is
#: ~2.3 MB — invisible next to the input itself — while being far wider
#: than any layer the paper workloads produce.
DEFAULT_WINDOW = 4096

#: Strings per batched scan sweep.  Bounds the transient ``(chunk, n)``
#: code matrix in :func:`scan_blocks` to a few MB.
SCAN_CHUNK_STRINGS = 16384

BlockSource = Union[PauliProgram, Iterable[PauliBlock]]

#: Depth of a retired frontier row: larger than any primary's depth, so a
#: retired row never passes the padding fit test.
_RETIRED = np.iinfo(np.int64).max


def _chunk_codes(blocks: List[PauliBlock], num_qubits: int) -> np.ndarray:
    """Raw ``(total_strings, n)`` code matrix of a chunk in one copy."""
    return np.frombuffer(
        b"".join(ws.string.codes for b in blocks for ws in b), dtype=np.uint8
    ).reshape(-1, num_qubits)


def _chunk_starts(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def scan_blocks(
    source: BlockSource,
    chunk_strings: int = SCAN_CHUNK_STRINGS,
) -> Tuple[List[PauliBlock], List[bytes], np.ndarray, int]:
    """Single streaming pass over ``source``.

    Returns ``(blocks, keys, lengths, num_qubits)`` where ``keys[i]`` is
    block ``i``'s lex key as bytes (ordered identically to
    ``PauliBlock.lex_key()``) and ``lengths[i]`` its active length.  Works
    in chunked batched sweeps of at most ``chunk_strings`` strings, so the
    transient numpy state is O(chunk), independent of program size.
    """
    blocks: List[PauliBlock] = []
    keys: List[bytes] = []
    lengths: List[int] = []
    num_qubits = 0

    pending: List[PauliBlock] = []
    pending_strings = 0

    def flush() -> None:
        nonlocal pending, pending_strings
        if not pending:
            return
        n = pending[0].num_qubits
        codes = _chunk_codes(pending, n)
        ranks = lex_rank_matrix(codes)          # (S, n) uint8
        rank_bytes = ranks.tobytes()
        counts = np.fromiter(
            (b.num_strings for b in pending), dtype=np.int64, count=len(pending)
        )
        starts = _chunk_starts(counts)
        # Per-block active length: popcount of the OR of string supports.
        packed = np.packbits(codes != 0, axis=1, bitorder="little")
        block_lengths = popcount(np.bitwise_or.reduceat(packed, starts, axis=0))
        for lo, hi in zip((starts * n).tolist(),
                          ((starts + counts) * n).tolist()):
            if hi - lo == n:
                keys.append(rank_bytes[lo:hi])
            else:
                keys.append(min([rank_bytes[o:o + n]
                                 for o in range(lo, hi, n)]))
        lengths.extend(block_lengths.tolist())
        blocks.extend(pending)
        pending = []
        pending_strings = 0

    for block in source:
        if num_qubits == 0:
            num_qubits = block.num_qubits
        pending.append(block)
        pending_strings += block.num_strings
        if pending_strings >= chunk_strings:
            flush()
    flush()
    return blocks, keys, np.asarray(lengths, dtype=np.int64), num_qubits


def _batch_stats(
    blocks: List[PauliBlock], num_qubits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Realize ``(masks, depths)`` for a refill batch.

    One batched sweep — a single code-matrix copy, two ``packbits``, four
    ``reduceat`` reductions — instead of one ``BlockView`` per block.
    ``masks`` is ``(k, 4, words)`` packed ``uint64``: channels 0-2 are
    the X, Z and Y profiles (bit ``q`` set when some string of the block
    carries that operator on qubit ``q``), channel 3 the support.
    ``depths`` is ``(k,)``.
    """
    counts = np.fromiter(
        (b.num_strings for b in blocks), dtype=np.int64, count=len(blocks)
    )
    starts = _chunk_starts(counts)
    codes = _chunk_codes(blocks, num_qubits)
    x = np.packbits(codes & 1, axis=1, bitorder="little")
    z = np.packbits(codes >> 1, axis=1, bitorder="little")
    support = x | z
    masks = np.stack(
        [
            np.bitwise_or.reduceat(x & ~z, starts, axis=0),
            np.bitwise_or.reduceat(z & ~x, starts, axis=0),
            np.bitwise_or.reduceat(x & z, starts, axis=0),
            np.bitwise_or.reduceat(support, starts, axis=0),
        ],
        axis=1,
    )
    weights = popcount(support)
    contribution = np.where(weights > 0, 2 * (weights - 1) + 1, 0)
    depths = np.add.reduceat(contribution, starts)
    return packed_as_words(masks), depths


def _emit(block: PauliBlock) -> PauliBlock:
    """Intra-block sort on emission; singleton blocks never build a view."""
    return block.sorted_lexicographically()


def _scan(source: BlockSource) -> Tuple[List[PauliBlock], Optional[tuple]]:
    """``([], scan_blocks(source))``, or ``(blocks, None)`` for a source of
    fewer than two blocks: such a source is its own schedule, so a
    one-block program (any QAOA program) skips the scan and the frontier."""
    blocks = iter(source)
    head = list(islice(blocks, 2))
    if len(head) < 2:
        return head, None
    return [], scan_blocks(chain(head, blocks))


def streaming_gco_schedule(
    source: BlockSource,
    window: Optional[int] = None,
) -> Iterator[List[PauliBlock]]:
    """Gate-count-oriented scheduling (Section 4.1).

    Scans once for compact keys, sorts the keys, then yields singleton
    layers in the paper's lexicographic block order (X < Y < Z < I,
    highest qubit first), strings inside each block sorted the same way.
    Holds no profile matrices and never builds a ``BlockView`` for
    singleton blocks.  ``window`` is accepted for interface symmetry with
    :func:`streaming_do_schedule`; gco needs no frontier.
    """
    del window
    short, scanned = _scan(source)
    if scanned is None:
        for block in short:
            yield [_emit(block)]
        return
    blocks, keys, _lengths, _n = scanned
    order = sorted(range(len(blocks)), key=keys.__getitem__)
    for index in order:
        yield [_emit(blocks[index])]


def streaming_do_schedule(
    source: BlockSource,
    window: Optional[int] = DEFAULT_WINDOW,
) -> Iterator[List[PauliBlock]]:
    """Depth-oriented scheduling (Algorithm 1).

    Blocks are globally ordered by ``(-active_length, lex_key)`` on
    compact scan keys, then consumed through a frontier of at most
    ``window`` realized profile rows (``None``: the whole program).
    Each layer picks the frontier block with maximum operator overlap
    against the previous layer (ties by active length, then order) and
    pads with qubit-disjoint frontier blocks whose accumulated per-qubit
    depth fits under the primary's, using vectorized support/depth
    pruning.  Profile memory is O(window).
    """
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    short, scanned = _scan(source)
    if scanned is None:
        for block in short:
            yield [_emit(block)]
        return
    blocks, keys, lengths, num_qubits = scanned
    total = len(blocks)
    if window is None:
        window = total
    order = sorted(range(total), key=lambda i: (-int(lengths[i]), keys[i]))
    del keys

    position = 0                         # next index into `order` to admit
    live = 0                             # frontier rows not yet emitted
    f_blocks = np.empty(0, dtype=object)  # frontier, in global order
    f_masks: Optional[np.ndarray] = None  # (F, 4, words): profile + support
    f_depths: Optional[np.ndarray] = None
    f_lengths: Optional[np.ndarray] = None
    # Encoding for "first max of (overlap, length)" via a single argmax:
    # both quantities are <= num_qubits, so this radix never collides.
    radix = num_qubits + 1

    layer_profile: Optional[np.ndarray] = None
    while True:
        if live < window and position < total:
            admit = order[position:position + (window - live)]
            position += len(admit)
            batch = np.empty(len(admit), dtype=object)
            batch[:] = [blocks[i] for i in admit]
            for i in admit:
                blocks[i] = None       # frontier owns it now; free the slot
            masks, depths = _batch_stats(batch, num_qubits)
            batch_lengths = lengths[admit]
            if len(f_blocks):
                f_masks = np.concatenate([f_masks, masks])
                f_depths = np.concatenate([f_depths, depths])
                f_lengths = np.concatenate([f_lengths, batch_lengths])
            else:
                f_masks, f_depths, f_lengths = masks, depths, batch_lengths
            f_blocks = np.concatenate([f_blocks, batch])
            live += len(admit)
        if not live:
            return

        if layer_profile is None:
            best = 0
        else:
            overlaps = popcount(
                np.bitwise_or.reduce(f_masks[:, :3] & layer_profile, axis=1)
            )
            best = int(np.argmax(overlaps * radix + f_lengths))
        primary_depth = int(f_depths[best])
        primary_support = f_masks[best, 3]
        layer_profile = f_masks[best, :3].copy()
        layer = [_emit(f_blocks[best])]

        removed = [best]
        # Vectorized candidate pruning: a padding block must be disjoint
        # from the primary and its own depth must fit under the primary's
        # (start offsets only grow, so depth > primary_depth can never fit).
        fits = ~(f_masks[:, 3] & primary_support).any(axis=1)
        fits &= f_depths <= primary_depth
        fits[best] = False
        candidates = np.nonzero(fits)[0]
        if candidates.size:
            # Column heights are monotone, so a candidate that fails once
            # fails forever.  Between acceptances the heights are static,
            # which lets the whole scan-to-next-acceptance happen as one
            # reduceat sweep instead of a per-candidate Python loop: the
            # first candidate whose (start + depth) fits is the next
            # accepted block, and everything before it is dead.
            bits = np.unpackbits(
                f_masks[candidates, 3].view(np.uint8), axis=1,
                bitorder="little", count=num_qubits,
            )
            cand_depths = f_depths[candidates]
            # starts[i] == max column height over candidate i's qubits.
            # An accepted block raises all its columns to one value, so
            # each acceptance updates affected candidates with a single
            # max — no per-candidate height gathers at all.
            starts = np.zeros(candidates.size, dtype=np.int64)
            budgets = primary_depth - cand_depths
            lo = 0
            while lo < candidates.size:
                fit = starts[lo:] <= budgets[lo:]
                rel = int(np.argmax(fit))
                if not fit[rel]:
                    break
                first = lo + rel
                candidate = int(candidates[first])
                layer.append(_emit(f_blocks[candidate]))
                removed.append(candidate)
                layer_profile |= f_masks[candidate, :3]
                new_height = int(starts[first]) + int(cand_depths[first])
                tail = bits[first + 1:]
                if tail.size:
                    qubits = np.nonzero(bits[first])[0]
                    touched = tail[:, qubits].any(axis=1)
                    affected = np.nonzero(touched)[0] + first + 1
                    starts[affected] = np.maximum(
                        starts[affected], new_height
                    )
                lo = first + 1

        # Emitted rows are retired in place rather than compacted away
        # every layer: no masks (so no overlap and no support conflict),
        # a length that scores below every live row, and a depth that
        # never fits.  The frontier is compacted once it is half retired.
        live -= len(removed)
        if len(removed) == 1:
            removed = best             # a scalar index is far cheaper
        f_masks[removed] = 0
        f_lengths[removed] = -radix
        f_depths[removed] = _RETIRED
        if 2 * live < len(f_blocks):
            keep = f_depths != _RETIRED
            f_blocks = f_blocks[keep]
            f_masks = f_masks[keep]
            f_depths = f_depths[keep]
            f_lengths = f_lengths[keep]
        yield layer


_STREAM_SCHEDULERS = {
    "gco": streaming_gco_schedule,
    "gco-stream": streaming_gco_schedule,
    "do": streaming_do_schedule,
    "do-stream": streaming_do_schedule,
}


def stream_schedule(
    source: BlockSource,
    scheduler: str,
    window: Optional[int] = None,
) -> Iterator[List[PauliBlock]]:
    """The incremental layer iterator of a scheduler name (``gco``,
    ``gco-stream``, ``do`` or ``do-stream``).  ``window`` bounds the
    ``do`` frontier; unset, it is the whole program for ``do`` and
    :data:`DEFAULT_WINDOW` for ``do-stream``."""
    try:
        schedule = _STREAM_SCHEDULERS[scheduler]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown streaming scheduler {scheduler!r}; "
            f"expected one of {sorted(_STREAM_SCHEDULERS)}"
        ) from None
    if window is None and scheduler == "do-stream":
        window = DEFAULT_WINDOW
    return schedule(source, window=window)
