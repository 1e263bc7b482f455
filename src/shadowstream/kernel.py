"""Trace kernel for tuples of partially transposed snapshots.

The quantity every estimator consumes is ``tr(R_1 R_2 ... R_m)`` where
each ``R`` is the partial transpose of one snapshot's reconstruction.
Two structural facts keep this cheap:

* Transposing a snapshot factor never requires matrices.  X and Z
  factors are symmetric, and transposing a Y factor just negates its
  sign, i.e. flips the recorded outcome bit.  Partial transposition of
  a snapshot is therefore a pure bit operation on its classical data.

* Snapshots are tensor products, so the m-fold trace factorizes into a
  product over qubits of traces of chains of 2x2 matrices, giving an
  O(N * m) direct evaluation per tuple.

Moreover each transposed factor is one of only six matrices, so a chain
of length m takes at most 6**m distinct trace values.  The batch
evaluators exploit this: snapshots compress to six-valued codes and
chain traces become table lookups, with results identical bit for bit
to multiplying the matrices out.

A second evaluation path expands each 2x2 chain over subsets of the
tuple and reads Pauli-product traces from a precomputed table, and a
third builds everything densely; they exist to cross-check the direct
path and each other.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import UnsupportedOrderError
from .sampler import AXIS_Y, FACTORS, Snapshot, snapshot_matrix
from .states import _part_qubits, partial_transpose

__all__ = [
    "pt_flip",
    "transposed_factors",
    "snapshot_codes",
    "factors_from_codes",
    "chain_trace_table",
    "CHAIN_TABLE_MAX",
    "tuple_trace_direct",
    "tuple_trace_expansion",
    "tuple_trace_dense",
    "batch_tuple_traces",
    "batch_code_traces",
    "subset_index_chunks",
    "PauliTraceTable",
    "default_pauli_trace_table",
]

# Upper bound on gathered (tuple, position, qubit) factor slots per chunk;
# fixed so that chunk boundaries, and hence float reduction order, are a
# pure function of the problem shape.
_CHUNK_SLOTS = 1 << 20

# Longest chain length for which full trace tables are precomputed.  A
# table for length m holds 6**m complex entries and its construction
# materializes 6**m 2x2 matrices, so 6 keeps the cache at a few MB.
CHAIN_TABLE_MAX = 6

# Factor matrices in code order (code = 2 * axis + bit).
_FACTORS_FLAT = FACTORS.reshape(6, 2, 2)


def _transpose_mask(part, n_qubits: int) -> np.ndarray:
    """Boolean per-qubit mask of the normalised transposed qubits."""
    mask = np.zeros(n_qubits, dtype=bool)
    mask[list(_part_qubits(part, n_qubits))] = True
    return mask


def pt_flip(snapshot: Snapshot, part) -> Snapshot:
    """Partially transpose a snapshot by flipping its Y-basis outcome bits.

    Exactly the qubits in ``part`` that were measured in the Y basis
    have their bit flipped; the reconstruction of the result equals the
    dense partial transpose of the original reconstruction, entry for
    entry.
    """
    mask = _transpose_mask(part, snapshot.n_qubits)
    flips = (snapshot.axes == AXIS_Y) & mask
    return Snapshot(snapshot.axes, snapshot.bits ^ flips)


def transposed_factors(axes: np.ndarray, bits: np.ndarray, part) -> np.ndarray:
    """Per-qubit 2x2 snapshot factors with the partial transpose applied.

    ``axes`` and ``bits`` are ``(T, N)`` code arrays (one row per shot);
    the result has shape ``(T, N, 2, 2)``.
    """
    return factors_from_codes(snapshot_codes(axes, bits, part))


def _pt_codes(axes: np.ndarray, bits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``2 * axis + (bit XOR (axis is Y and the qubit is in mask))`` as uint8."""
    return (2 * axes + (bits ^ ((axes == AXIS_Y) & mask))).astype(np.uint8)


def snapshot_codes(axes: np.ndarray, bits: np.ndarray, part) -> np.ndarray:
    """Six-valued per-qubit codes with the partial transpose applied.

    Every transposed snapshot factor is one of six 2x2 matrices, so a
    ``(T, N)`` record compresses to ``code = 2 * axis + effective_bit``
    in ``uint8``.  ``factors_from_codes`` inverts the encoding;
    :func:`batch_code_traces` consumes it directly.
    """
    axes = np.asarray(axes)
    bits = np.asarray(bits)
    return _pt_codes(axes, bits, _transpose_mask(part, axes.shape[1]))


def factors_from_codes(codes: np.ndarray) -> np.ndarray:
    """Expand ``(T, N)`` snapshot codes back to ``(T, N, 2, 2)`` factors."""
    return _FACTORS_FLAT[np.asarray(codes)]


_CHAIN_TABLES: dict[int, np.ndarray] = {}


def chain_trace_table(length: int) -> np.ndarray:
    """Traces of all factor chains of a given length, indexed by codes.

    Entry ``table[c_1 * 6**(m-1) + ... + c_m]`` equals
    ``tr(F[c_1] @ ... @ F[c_m])`` where ``F`` are the six transposed
    snapshot factors.  The chains are accumulated left to right with the
    same matrix products a direct evaluation would perform, so reading
    the table reproduces :func:`batch_tuple_traces` bit for bit.  Tables
    are cached; lengths above ``CHAIN_TABLE_MAX`` raise.
    """
    if length < 1 or length > CHAIN_TABLE_MAX:
        raise UnsupportedOrderError(
            f"chain trace tables cover lengths 1..{CHAIN_TABLE_MAX}, got {length}"
        )
    table = _CHAIN_TABLES.get(length)
    if table is None:
        mats = _FACTORS_FLAT.astype(np.complex128)
        for _ in range(1, length):
            mats = (mats[:, None] @ _FACTORS_FLAT[None]).reshape(-1, 2, 2)
        table = np.ascontiguousarray(mats[:, 0, 0] + mats[:, 1, 1])
        table.setflags(write=False)
        _CHAIN_TABLES[length] = table
    return table


def batch_code_traces(
    codes: np.ndarray, indices: np.ndarray, table: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the trace kernel for many index tuples via table lookup.

    Equivalent to ``batch_tuple_traces(factors_from_codes(codes), indices)``
    — bit for bit, since chunk boundaries and reduction order match —
    but each per-qubit chain trace is a single gather from the
    precomputed :func:`chain_trace_table` instead of a run of 2x2
    products, which is roughly 6x faster on streaming workloads.
    """
    codes = np.asarray(codes)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2:
        raise ValueError(f"indices must be (K, m), got shape {indices.shape}")
    count, m = indices.shape
    if m < 1:
        raise ValueError("tuples must have at least one element")
    if table is None:
        table = chain_trace_table(m)
    if table.size != 6**m:
        raise ValueError(f"table covers chains of length {m}? size is {table.size}")
    n_qubits = codes.shape[1]
    out = np.empty(count, dtype=np.complex128)
    rows = max(1, _CHUNK_SLOTS // max(1, m * n_qubits))
    for lo in range(0, count, rows):
        gathered = codes[indices[lo : lo + rows]]
        key = gathered[:, 0].astype(np.int32)
        for j in range(1, m):
            key *= 6
            key += gathered[:, j]
        out[lo : lo + rows] = table[key].prod(axis=1)
    return out


def batch_tuple_traces(factors: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Evaluate the trace kernel for many index tuples at once.

    ``factors`` is an ``(items, F, d, d)`` stack of per-qubit factor
    chains (``d = 2`` for snapshots; the dense batched estimator passes
    ``F = 1`` with larger ``d``).  ``indices`` has shape ``(K, m)``;
    row ``(i_1, ..., i_m)`` contributes
    ``prod_f tr(factors[i_1, f] @ ... @ factors[i_m, f])``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2:
        raise ValueError(f"indices must be (K, m), got shape {indices.shape}")
    count, m = indices.shape
    if m < 1:
        raise ValueError("tuples must have at least one element")
    items, width = factors.shape[0], factors.shape[1]
    out = np.empty(count, dtype=np.complex128)
    rows = max(1, _CHUNK_SLOTS // max(1, m * width))
    for lo in range(0, count, rows):
        gathered = factors[indices[lo : lo + rows]]
        chain = gathered[:, 0]
        for j in range(1, m):
            chain = chain @ gathered[:, j]
        traces = np.trace(chain, axis1=-2, axis2=-1)
        out[lo : lo + rows] = traces.prod(axis=1)
    return out


def subset_index_chunks(n: int, k: int, rows: int = 1 << 16) -> Iterable[np.ndarray]:
    """Yield the k-subsets of ``range(n)`` in lexicographic order, in blocks.

    Each block is an ``(r, k)`` int64 array.  Sizes 1 and 2 are built
    directly in numpy since those dominate streaming updates; larger
    sizes fall back to ``itertools.combinations``.  Block boundaries
    depend only on ``(n, k, rows)``, which fixes the reduction order of
    sums taken block by block.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield np.empty((1, 0), dtype=np.int64)
        return
    if k == 1:
        for lo in range(0, n, rows):
            yield np.arange(lo, min(lo + rows, n), dtype=np.int64)[:, None]
        return
    if k == 2:
        # Pairs (i, j) grouped by first index i; a block ends with the
        # first whole group that brings it to at least ``rows`` pairs.
        sizes = np.arange(n - 1, 0, -1, dtype=np.int64)
        ends = np.cumsum(sizes)
        first, done = 0, 0
        while first < n - 1:
            last = min(max(int(np.searchsorted(ends, done + rows)), first), n - 2)
            groups = np.arange(first, last + 1, dtype=np.int64)
            counts = sizes[first : last + 1]
            block = np.empty((int(ends[last]) - done, 2), dtype=np.int64)
            block[:, 0] = np.repeat(groups, counts)
            # Group i starts at row ends[i] - counts[i] - done of the block
            # and its second index runs from i + 1 upward.  Written in place,
            # so the paused generator holds no block-sized temporaries.
            block[:, 1] = np.arange(block.shape[0], dtype=np.int64)
            block[:, 1] += np.repeat(groups + 1 - (ends[first : last + 1] - counts - done), counts)
            yield block
            first, done = last + 1, int(ends[last])
        return
    iterator = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(iterator, rows))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


def _tuple_fields(snapshots: Sequence[Snapshot]):
    snapshots = list(snapshots)
    if not snapshots:
        raise ValueError("need at least one snapshot")
    n = snapshots[0].n_qubits
    if any(s.n_qubits != n for s in snapshots):
        raise ValueError("snapshots in a tuple must share a qubit count")
    axes = np.stack([s.axes for s in snapshots])
    bits = np.stack([s.bits for s in snapshots])
    return axes, bits


def tuple_trace_direct(snapshots: Sequence[Snapshot], part) -> complex:
    """Trace of the product of partially transposed snapshot reconstructions.

    Works qubit by qubit on 2x2 factor chains; cost O(N * m) and no
    dense intermediates.
    """
    axes, bits = _tuple_fields(snapshots)
    factors = transposed_factors(axes, bits, part)
    chain = factors[0]
    for j in range(1, factors.shape[0]):
        chain = chain @ factors[j]
    traces = np.trace(chain, axis1=-2, axis2=-1)
    return complex(traces.prod())


class PauliTraceTable:
    """Traces of ordered Pauli products, keyed by the axis sequence.

    ``trace((a_1, ..., a_l))`` returns ``tr(P_{a_1} ... P_{a_l})``,
    which is 0 unless the ordered product is proportional to the
    identity, in which case it is ``2 * phase``.  Sequences are
    precomputed up to ``max_length`` (default 8, matching the highest
    supported moment order of the expansion path).
    """

    def __init__(self, max_length: int = 8):
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        self._max_length = max_length
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=np.complex128),
            np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
            np.array([[1, 0], [0, -1]], dtype=np.complex128),
        ]
        traces: dict[tuple[int, ...], complex] = {(): 2.0 + 0.0j}
        level = {(): np.eye(2, dtype=np.complex128)}
        for _ in range(max_length):
            nxt: dict[tuple[int, ...], np.ndarray] = {}
            for seq, mat in level.items():
                for a in range(3):
                    prod = mat @ paulis[a]
                    key = seq + (a,)
                    nxt[key] = prod
                    traces[key] = complex(prod[0, 0] + prod[1, 1])
            level = nxt
        self._traces = traces

    @property
    def max_length(self) -> int:
        return self._max_length

    def trace(self, axes: tuple[int, ...]) -> complex:
        if len(axes) > self._max_length:
            raise UnsupportedOrderError(
                f"Pauli trace table covers sequences up to length {self._max_length}, "
                f"got {len(axes)}"
            )
        return self._traces[tuple(int(a) for a in axes)]


_DEFAULT_TABLE: PauliTraceTable | None = None


def default_pauli_trace_table() -> PauliTraceTable:
    """The lazily built shared table (max length 8)."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = PauliTraceTable()
    return _DEFAULT_TABLE


def tuple_trace_expansion(
    snapshots: Sequence[Snapshot], part, table: PauliTraceTable | None = None
) -> complex:
    """Subset-expansion evaluation of the trace kernel.

    Each qubit's 2x2 chain ``prod_j (I/2 + (3/2) s_j P_j)`` is expanded
    over subsets of the tuple; a subset contributes
    ``(1/2)**(m-|S|) (3/2)**|S| prod(signs) tr(prod paulis)`` with the
    Pauli product taken in shot order.  Exists as a structurally
    different cross-check of :func:`tuple_trace_direct`; cost grows as
    ``2**m`` per qubit.
    """
    if table is None:
        table = default_pauli_trace_table()
    axes, bits = _tuple_fields(snapshots)
    m, n = axes.shape
    if m > table.max_length:
        raise UnsupportedOrderError(
            f"expansion path supports tuples up to length {table.max_length}, got {m}"
        )
    mask = _transpose_mask(part, n)
    effective = bits ^ ((axes == AXIS_Y) & mask[None, :])
    signs = 1.0 - 2.0 * effective.astype(np.float64)
    total = 1.0 + 0.0j
    for q in range(n):
        qubit_sum = 0.0 + 0.0j
        for subset_bits in range(1 << m):
            members = [j for j in range(m) if subset_bits >> j & 1]
            pauli_trace = table.trace(tuple(axes[j, q] for j in members))
            if pauli_trace == 0:
                continue
            weight = 0.5 ** (m - len(members)) * 1.5 ** len(members)
            sign = 1.0
            for j in members:
                sign *= signs[j, q]
            qubit_sum += weight * sign * pauli_trace
        total *= qubit_sum
    return complex(total)


def tuple_trace_dense(snapshots: Sequence[Snapshot], part) -> complex:
    """Dense-matrix evaluation of the trace kernel (test oracle).

    Reconstructs every snapshot, partially transposes it with the
    general dense routine, and multiplies full matrices.  Exponentially
    expensive; use only to validate the factorized paths.
    """
    snapshots = list(snapshots)
    product = None
    for s in snapshots:
        dense = partial_transpose(snapshot_matrix(s), part)
        product = dense if product is None else product @ dense
    return complex(np.trace(product))
