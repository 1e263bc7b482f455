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

The record-only estimator adds each new shot's subsets, all of which end
in that shot.  It folds the shot's codes into the chain tables once
(:func:`closing_tables`) and looks up only the earlier members; runs of
qubits share one lookup through combined codes (:func:`group_codes`)
wherever no product of table values can round (:func:`group_width`).
A set of pairs (those of the past that an order-3 shot closes, and the
order-2 U-statistic's) takes one of two routes.  Where only its sum is
needed and every partial sum is exact (:func:`pairs_sum_exactly`), a
:class:`PairSum` asks :func:`batch_code_traces` for that sum: each code
column's closing columns (its table at the later shots' codes) are
gathered at the first shots' codes, a column block of later shots at a
time, and one BLAS dot sums the block.  Elsewhere the pairs come as the
index blocks of :func:`subset_index_chunks`, whose lookup keys give
every value in lexicographic order, the reference bits.

A dense evaluation builds every reconstruction and multiplies full
matrices; it is the one independent cross-check of the direct path.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

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
    "tuple_trace_dense",
    "batch_tuple_traces",
    "batch_code_traces",
    "group_width",
    "group_codes",
    "closing_tables",
    "subset_index_chunks",
    "PairSum",
    "Scratch",
    "pairs_sum_exactly",
]

# Upper bound on gathered (tuple, position, qubit) factor slots per chunk;
# fixed so that chunk boundaries, and hence float reduction order, are a
# pure function of the problem shape.
_CHUNK_SLOTS = 1 << 20

# Tuples per block of a table-lookup evaluation; each value is computed
# on its own, so the block size bounds temporaries and nothing else.
_CODE_ROWS = 1 << 13

# Later shots per column block of a summed pair evaluation; its row
# gathers are this many columns by the record length.
_SUM_COLUMNS = 64

# Longest chain length for which full trace tables are precomputed.  A
# table for length m holds 6**m complex entries and its construction
# materializes 6**m 2x2 matrices, so 6 keeps the cache at a few MB.
CHAIN_TABLE_MAX = 6

# Every entry of ``2**m * chain_trace_table(m)`` is a Gaussian integer of
# modulus at most CHAIN_NUMERATORS[m], so a product of N chain traces
# never rounds, in any grouping, while CHAIN_NUMERATORS[m]**N <= 2**53:
# up to GROUPED_EXACT_QUBITS[m] qubits.
CHAIN_NUMERATORS = {1: 2, 2: 20, 3: 56, 4: 272, 5: 992, 6: 4160}
GROUPED_EXACT_QUBITS = {
    m: max(n for n in range(1, 64) if top**n <= 2**53) for m, top in CHAIN_NUMERATORS.items()
}

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
    """``2 * axis + (bit XOR (axis is Y and the qubit is in mask))`` as uint8.

    ``axis & mask`` is 1 exactly where the axis is Y (``AXIS_Y`` is 1, and
    X = 0 and Z = 2 have the low bit clear) on a transposed qubit, and XOR
    with it flips only the low bit, the one that holds the outcome.
    """
    return ((2 * axes + bits) ^ (axes & mask)).astype(np.uint8, copy=False)


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
    codes: np.ndarray, indices: np.ndarray | PairSum, tables: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the trace kernel for many index tuples via table lookup.

    ``codes`` is a ``(T, G)`` array of per-shot code columns and
    ``tables`` a ``(G, B, ..., B)`` stack with one axis per tuple
    position: row ``(i_1, ..., i_k)`` evaluates to the product over
    columns ``g``, left to right, of ``tables[g, codes[i_1, g], ...,
    codes[i_k, g]]``.  ``indices`` is a ``(K, k)`` index array or a
    :class:`PairSum`, which evaluates to a one-element array: the sum of
    the values of all its pairs, taken in whatever order
    :func:`_sum_pairs` takes it (so equal to a sum in lexicographic order
    only where :func:`pairs_sum_exactly` holds).

    The default ``tables`` is :func:`chain_trace_table` for every column,
    so with the six-valued per-qubit codes of :func:`snapshot_codes` each
    row is a whole tuple and the result equals
    ``batch_tuple_traces(factors_from_codes(codes), indices)`` bit for bit,
    but each per-qubit chain trace is a single gather instead of a run of
    2x2 products.  Six-valued columns (``B = 6``) multiply as
    ``.prod(axis=1)`` does, rounding included; the wider columns of
    :func:`group_codes`, which :func:`group_width` forms only where no
    product rounds, multiply elementwise.
    """
    codes = np.asarray(codes)
    if isinstance(indices, PairSum):
        count, k = len(indices), 2
    else:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2:
            raise ValueError(f"indices must be (K, k), got shape {indices.shape}")
        count, k = indices.shape
    groups = codes.shape[1]
    if tables is None:
        if k < 1:
            raise ValueError("tuples must have at least one element")
        tables = np.broadcast_to(chain_trace_table(k).reshape((6,) * k), (groups,) + (6,) * k)
    base = tables.shape[-1] if k else 1
    if tables.shape != (groups,) + (base,) * k:
        raise ValueError(
            f"{k}-tuples over {groups} code columns need tables of shape "
            f"{(groups,) + ('B',) * k}, got {tables.shape}"
        )
    tables = np.ascontiguousarray(tables)
    if isinstance(indices, PairSum):
        return np.array([_sum_pairs(codes, indices, tables)])
    per_qubit = groups > 1 and base <= 6
    out = np.empty(count, dtype=np.complex128)
    flat = tables.reshape(groups, -1)
    values, at = None, 0
    for size, keys in _index_keys(codes, indices, base):
        block = out[at : at + size]
        if per_qubit and (values is None or len(values) < size):
            values = np.empty((size, groups), dtype=np.complex128)
        for g, key in enumerate(keys):
            if per_qubit:
                values[:size, g] = flat[g].take(key)
            elif g == 0:
                block[:] = flat[0].take(key)
            else:
                block *= flat[g].take(key)
        if per_qubit:
            values[:size].prod(axis=1, out=block)
        at += size
    return out


def _index_keys(codes: np.ndarray, indices: np.ndarray, base: int):
    """Yield ``(rows, keys)`` per block of ``_CODE_ROWS`` index rows, where
    ``keys[g]`` is ``sum_j codes[i_j, g] * B**(k-1-j)`` for each row."""
    k = indices.shape[1]
    # The scaled codes are laid out column-major once per call, so a block
    # costs one 1-D gather per column and tuple position.
    scaled = [codes.T.astype(np.intp) * base ** (k - 1 - j) for j in range(k)]
    for lo in range(0, len(indices), _CODE_ROWS):
        chunk = indices[lo : lo + _CODE_ROWS]
        keys = []
        for g in range(codes.shape[1]):
            key = scaled[0][g].take(chunk[:, 0]) if k else np.zeros(len(chunk), dtype=np.intp)
            for j in range(1, k):
                key += scaled[j][g].take(chunk[:, j])
            keys.append(key)
        yield len(chunk), keys


class Scratch:
    """A complex buffer that its owner keeps across calls, grown to the
    largest size asked for: a freed buffer of that size would be given
    back to the operating system and faulted in again at the next call."""

    def __init__(self) -> None:
        self._buffer = np.empty(0, dtype=np.complex128)

    def entries(self, size: int) -> np.ndarray:
        """The first ``size`` entries, their values undefined."""
        if self._buffer.size < size:
            self._buffer = None  # freed before its successor is allocated
            self._buffer = np.empty(size, dtype=np.complex128)
        return self._buffer[:size]


@functools.cache
def _later_shots(width: int) -> np.ndarray:
    """``(width, width)`` complex mask, 1 where column c is a later shot
    than row a of the same block (``c > a``), else 0."""
    mask = np.triu(np.ones((width, width), dtype=np.complex128), 1)
    mask.setflags(write=False)
    return mask


def _sum_pairs(codes: np.ndarray, pairs: PairSum, tables: np.ndarray) -> complex:
    """The kernel summed over the pairs ``i < j`` of ``range(n)``, by
    closing columns and BLAS dots.

    Column g's closing columns ``tables[g][:, codes[j, g]]`` hold, for
    every code u a first shot may have, the value of the pair at later
    shot j; a pair's factor is row ``codes[i, g]`` of them.  For each
    block of ``_SUM_COLUMNS`` later shots, every column gathers those
    rows for all first indices before the block's end into the pairs'
    :class:`Scratch` (``mode="clip"`` writes straight into it; the codes
    are in range), the columns but the last multiply left to right, the
    first indices inside the block keep only their later shots, and one
    dot with the last column sums the block.
    """
    n, width = pairs.n, _SUM_COLUMNS
    columns = np.ascontiguousarray(codes[:n].T, dtype=np.intp)
    later = _later_shots(width)
    # Room for every block of a record of up to n rounded up to whole
    # blocks, so that the buffer grows once per block of record length.
    scratch = pairs.scratch.entries(len(columns) * -(-n // width) * width * width)
    total = 0.0 + 0.0j
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        rows = scratch[: len(columns) * hi * (hi - lo)].reshape(len(columns), hi, hi - lo)
        for g, column in enumerate(columns):
            closing = tables[g].take(column[lo:hi], axis=1)
            closing.take(column[:hi], axis=0, out=rows[g], mode="clip")
        product, last = rows[0], rows[-1]
        for g in range(1, len(columns) - 1):
            product *= rows[g]
        last[lo:] *= later[: hi - lo, : hi - lo]
        total += product.ravel() @ last.ravel() if len(columns) > 1 else last.sum()
    return total


def pairs_sum_exactly(order: int, n_qubits: int, shots: int) -> bool:
    """Whether the values of the pairs of ``shots`` shots, each a product
    over ``n_qubits`` qubits of traces of ``order``-chains, sum exactly in
    any order: an order-2 U-statistic's pairs (``order`` 2) or the pairs
    of the past that an order-3 shot closes (``order`` 3).  Such a pair
    value is ``2**(-order * N)`` times a Gaussian integer of modulus at
    most ``CHAIN_NUMERATORS[order]**N``, so while ``C(shots, 2)`` times
    that stays within ``2**53`` no partial sum rounds, and any summation
    order gives the same bits.  At order 2 that is up to 335 544 shots at
    N = 4, 839 at N = 8, 188 at N = 9, 42 at N = 10 and never past
    N = 12; at order 3 up to 42 799 earlier shots at N = 4, 764 at N = 6,
    102 at N = 7, 14 at N = 8, 2 at N = 9 and never past N = 9.
    """
    return (
        n_qubits <= GROUPED_EXACT_QUBITS[order]
        and math.comb(shots, 2) * CHAIN_NUMERATORS[order] ** n_qubits <= 2**53
    )


def group_width(order: int, n_qubits: int) -> int:
    """Qubits per group of :func:`closing_tables` for ``order``-tuples.

    The widest ``g <= 2`` with ``g * (order - 1) <= 4``: 2 at orders 2 and
    3, 1 from order 4, so a group table holds at most ``6**4`` entries
    (36 per group at order 2, where wider groups would build more table
    entries per shot than a short record has earlier shots to look up,
    and 1296 at order 3).  Orders 2 and 3 share one set of group codes.  A
    grouped product ``(t_0 t_1)(t_2 t_3)`` equals the left-to-right
    ``((t_0 t_1) t_2) t_3`` only while no partial product rounds, so past
    :data:`GROUPED_EXACT_QUBITS` the width is 1.
    """
    if order < 2 or order > CHAIN_TABLE_MAX or n_qubits > GROUPED_EXACT_QUBITS[order]:
        return 1
    return max(1, min(2, 4 // (order - 1), n_qubits))


def group_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Combine ``(T, N)`` six-valued codes into ``(T, ceil(N / width))``
    group codes ``sum_p c_p * 6**(width - 1 - p)`` over each run of
    ``width`` consecutive qubits, a short last group padded with code 0."""
    shots, n_qubits = codes.shape
    groups = -(-n_qubits // width)
    padded = np.zeros((shots, groups * width), dtype=np.uint16)
    padded[:, :n_qubits] = codes
    return padded.reshape(shots, groups, width) @ 6 ** np.arange(width - 1, -1, -1, dtype=np.uint16)


_GATHERS: dict[tuple[int, int, int], np.ndarray] = {}


def _group_gathers(k: int, width: int, n_qubits: int) -> np.ndarray:
    """``(width, groups, 6**(k * width))`` indices into the flattened
    ``(n_qubits + 1, 6**k)`` stack of folded tables, the last row ones:
    entry ``[p, g, key]`` is where qubit p of group g finds its chain
    trace for the group key whose base-6 digit ``(j, p)`` is that
    qubit's code at tuple position j.  Padding qubits read the ones."""
    gathers = _GATHERS.get((k, width, n_qubits))
    if gathers is None:
        digits = np.indices((6,) * (k * width)).reshape(k, width, -1)
        keys = np.tensordot(6 ** np.arange(k - 1, -1, -1), digits, axes=1)
        groups = -(-n_qubits // width)
        qubits = np.minimum(np.arange(groups * width), n_qubits).reshape(groups, width)
        gathers = qubits.T[:, :, None] * 6**k + keys[:, None, :]
        gathers.setflags(write=False)
        _GATHERS[k, width, n_qubits] = gathers
    return gathers


def closing_tables(order: int, last: np.ndarray, width: int) -> np.ndarray:
    """:func:`batch_code_traces` tables for ``(order - 1)``-tuples closed
    by one fixed shot with per-qubit codes ``last``; a stack of them for a
    ``(..., N)`` stack of shots.

    Qubit q's folded table ``chain_trace_table(order).reshape(-1, 6)[:,
    last[q]]`` holds the traces of every chain that ends in that shot.  A
    group's table, over the :func:`group_codes` of ``width`` qubits, is
    the outer product of its qubits' folded tables, multiplied left to
    right; the padding qubits of a short last group contribute ones.
    """
    k, lead, n_qubits = order - 1, last.shape[:-1], last.shape[-1]
    folded = np.ones(lead + (n_qubits + 1, 6**k), dtype=np.complex128)
    folded[..., :n_qubits, :] = chain_trace_table(order).reshape(-1, 6).T[last]
    if width == 1:
        return folded[..., :n_qubits, :].reshape(lead + (n_qubits,) + (6,) * k)
    gathers = _group_gathers(k, width, n_qubits)
    flat = folded.reshape(lead + (-1,))
    tables = flat.take(gathers[0], axis=-1)
    for p in range(1, width):
        tables *= flat.take(gathers[p], axis=-1)
    return tables.reshape(lead + (gathers.shape[1],) + (6**width,) * k)


def batch_tuple_traces(
    factors: np.ndarray, indices: np.ndarray, last: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the trace kernel for many index tuples at once.

    ``factors`` is an ``(items, F, d, d)`` stack of per-qubit factor
    chains (``d = 2`` for snapshots; the dense batched estimator passes
    ``F = 1`` with larger ``d``).  ``indices`` has shape ``(K, m)``;
    row ``(i_1, ..., i_m)`` contributes
    ``prod_f tr(factors[i_1, f] @ ... @ factors[i_m, f])``.  An ``(F, d,
    d)`` ``last`` closes every chain with one more fixed factor, the
    same products as appending its index to every row.
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
        if last is not None:
            chain = chain @ last
        traces = np.trace(chain, axis1=-2, axis2=-1)
        out[lo : lo + rows] = traces.prod(axis=1)
    return out


def subset_index_chunks(n: int, k: int, rows: int = 1 << 16) -> Iterable[np.ndarray]:
    """Yield the k-subsets of ``range(n)`` in lexicographic order, in blocks.

    Each block is an ``(r, k)`` int64 array.  Sizes 1 and 2 are built
    directly in numpy since those dominate streaming updates; larger
    sizes fall back to ``itertools.combinations``.  Block boundaries
    depend only on ``(n, k, rows)``, which fixes the reduction order of
    sums taken block by block.  ``rows`` below 1 raises ``ValueError``.
    """
    _check_rows(rows)
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
        for first, last, size in _pair_spans(n, rows):
            groups = np.arange(first, last + 1, dtype=np.int64)
            counts = n - 1 - groups
            block = np.empty((size, 2), dtype=np.int64)
            block[:, 0] = np.repeat(groups, counts)
            # Group i starts at row starts[i] of the block and its second
            # index runs from i + 1 upward.  Written in place, so the paused
            # generator holds no block-sized temporaries.
            starts = np.cumsum(counts) - counts
            block[:, 1] = np.arange(size, dtype=np.int64)
            block[:, 1] += np.repeat(groups + 1 - starts, counts)
            yield block
        return
    iterator = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(iterator, rows))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


@dataclass(frozen=True)
class PairSum:
    """Every pair ``(i, j)`` of ``range(n)`` with ``i < j``, to be summed:
    :func:`batch_code_traces` evaluates it to a one-element array holding
    the sum of the pairs' values, working in ``scratch`` (a caller that
    sums pairs again and again passes the same one).  ``len`` is its pair
    count."""

    n: int
    scratch: Scratch = field(default_factory=Scratch, compare=False, repr=False)

    def __len__(self) -> int:
        return self.n * (self.n - 1) // 2


def _check_rows(rows: int) -> None:
    if rows < 1:
        raise ValueError(f"blocks need at least one row, got rows={rows}")


def _pair_spans(n: int, rows: int) -> Iterator[tuple[int, int, int]]:
    """``(first, last, pairs)`` of each pair block of ``range(n)``: pairs
    are grouped by first index, and a block ends with the first whole
    group that brings it to at least ``rows`` pairs."""

    def ends(i: int) -> int:  # the pairs whose first index is at most i
        return (i + 1) * (n - 1) - i * (i + 1) // 2

    first, done = 0, 0
    while first < n - 1:
        last = min(max(bisect.bisect_left(range(n - 1), done + rows, key=ends), first), n - 2)
        yield first, last, ends(last) - done
        first, done = last + 1, ends(last)


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
