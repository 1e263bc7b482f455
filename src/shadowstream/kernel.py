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
in that shot.  Its closing tables (:func:`closing_tables`) are slices, at
the shot's group codes, of tables of whole tuples built once per process
(:func:`group_tables`, which the offline U-statistic reads too); runs of
qubits share one lookup through combined codes (:func:`group_codes`).
A set of pairs (those of the past that an order-3 shot closes, and the
order-2 U-statistic's) is summed by a :class:`PairSum`: each code
column's closing columns (its table at the later shots' codes) are
gathered at the first shots' codes, a tile of first indices by a column
block of later shots at a time, and one BLAS dot sums the tile; so are
the single shots an order-2 shot closes, a gather each.  Every other
subset comes as the index blocks of :func:`subset_index_chunks`, whose
lookup keys give every value in lexicographic order.

Chain traces are dyadic (see ``CHAIN_NUMERATORS``), so while every
partial product and partial sum of a kernel sum fits in 53 bits, no
grouping or summation order changes its bits.  Past that, a sum of
values, each a product over G code columns, that reaches each value
through at most A additions (A <= K for K values summed at once, A <= K
+ T for a running sum over T shots) differs from the exact sum by at
most ``gamma(3 * (A + G)) * S``, where ``gamma(k) = k*u / (1 - k*u)``,
``u = 2**-53`` and ``S`` is the same sum of the values' moduli (the
tables replaced by their absolute values): a complex product is within
``gamma(3)`` of exact, and a BLAS dot, which sums real and imaginary
parts apart, within ``sqrt(2) * gamma(2 * A)``.

A dense evaluation builds every reconstruction and multiplies full
matrices; it is the one independent cross-check of the direct path.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
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
    "tuple_trace_dense",
    "batch_tuple_traces",
    "batch_code_traces",
    "group_width",
    "group_codes",
    "group_tables",
    "closing_tables",
    "subset_index_chunks",
    "PairSum",
    "Scratch",
]

# Upper bound on gathered (tuple, position, qubit) factor slots per chunk;
# fixed so that chunk boundaries, and hence float reduction order, are a
# pure function of the problem shape.
_CHUNK_SLOTS = 1 << 20

# Tuples per block of a table-lookup evaluation; each value is computed
# on its own, so the block size bounds temporaries and nothing else.
_CODE_ROWS = 1 << 13

# Later shots per column block of a summed pair evaluation, and first
# indices per tile of its row gathers (a multiple of the block, so a
# block never straddles two tiles): the gathers of one tile are at most
# _SUM_ROWS by _SUM_COLUMNS entries per code column, 1 MB, and tile edges
# depend only on the shape.
_SUM_COLUMNS = 64
_SUM_ROWS = 16 * _SUM_COLUMNS

# Longest chain length for which full trace tables are precomputed.  A
# table for length m holds 6**m complex entries and its construction
# materializes 6**m 2x2 matrices, so 6 keeps the cache at a few MB.
CHAIN_TABLE_MAX = 6

# Every entry of ``2**m * chain_trace_table(m)`` is a Gaussian integer of
# modulus at most CHAIN_NUMERATORS[m], so a product of N chain traces
# never rounds, in any grouping, while CHAIN_NUMERATORS[m]**N <= 2**53,
# and a sum of K such products in any order while K times that does.
CHAIN_NUMERATORS = {1: 2, 2: 20, 3: 56, 4: 272, 5: 992, 6: 4160}

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


def snapshot_codes(axes: np.ndarray, bits: np.ndarray, part) -> np.ndarray:
    """Six-valued per-qubit codes with the partial transpose applied.

    Every transposed snapshot factor is one of six 2x2 matrices, so a
    ``(T, N)`` record compresses to ``code = 2 * axis + effective_bit``
    in ``uint8``.  ``factors_from_codes`` inverts the encoding;
    :func:`batch_code_traces` consumes it directly.  ``axis & mask`` is 1
    exactly where the axis is Y (``AXIS_Y`` is 1, and X = 0 and Z = 2
    have the low bit clear) on a transposed qubit, and XOR with it flips
    only the low bit, the one that holds the outcome.
    """
    axes = np.asarray(axes)
    return _masked_codes(axes, bits, _transpose_mask(part, axes.shape[1]))


def _masked_codes(axes: np.ndarray, bits, mask: np.ndarray) -> np.ndarray:
    """:func:`snapshot_codes` of an axes array, given the transposed qubits' mask."""
    return ((2 * axes + np.asarray(bits)) ^ (axes & mask)).astype(np.uint8, copy=False)


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
    ``tables`` a ``(G, B, ..., B)`` stack or a sequence of G ``(B, ...,
    B)`` tables, one axis per tuple position, read in place (columns may
    share one, by broadcasting or repeating it): row ``(i_1, ..., i_k)``
    evaluates to the product over columns ``g``, left to right, of
    ``tables[g][codes[i_1, g], ..., codes[i_k, g]]``.  ``indices`` is a
    ``(K, k)`` index array or a :class:`PairSum`, which evaluates to a
    one-element array: the sum of the values of all its subsets, taken in
    the order :func:`_sum_pairs` or :func:`_sum_singles` takes it (equal to
    a sum in lexicographic order bit for bit while no partial sum rounds,
    and within the bound of the module docstring past that).

    The default ``tables`` is :func:`chain_trace_table` for every column,
    so with the six-valued per-qubit codes of :func:`snapshot_codes` each
    row is a whole tuple and the result equals
    ``batch_tuple_traces(factors_from_codes(codes), indices)`` bit for bit,
    but each per-qubit chain trace is a single gather instead of a run of
    2x2 products.  Six-valued columns (``B = 6``) multiply as
    ``.prod(axis=1)`` does, rounding included; the wider columns of
    :func:`group_codes` multiply elementwise, left to right.
    """
    codes = np.asarray(codes)
    summed = isinstance(indices, PairSum)
    if not summed:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2:
            raise ValueError(f"indices must be (K, k), got shape {indices.shape}")
    k, groups = indices.k if summed else indices.shape[1], codes.shape[1]
    if tables is None:
        if k < 1:
            raise ValueError("tuples must have at least one element")
        tables = np.broadcast_to(chain_trace_table(k).reshape((6,) * k), (groups,) + (6,) * k)
    if summed and k in (1, 2) and len(tables) == groups:  # tables read as given
        return np.array([(_sum_pairs if k == 2 else _sum_singles)(codes, indices, tables)])
    stacked = isinstance(tables, np.ndarray)
    shapes = {tables.shape[1:]} if stacked else {np.shape(table) for table in tables}
    shape = shapes.pop() if len(shapes) == 1 else None
    base = shape[-1] if k and shape else 1
    if summed or len(tables) != groups or shape != (base,) * k:
        raise ValueError(
            f"{k}-tuples over {groups} code columns need {groups} tables of shape "
            f"{('B',) * k}, got {len(tables)} of shape {shape or 'several'}"
        )
    flat = tables.reshape(groups, -1) if stacked else [np.ravel(table) for table in tables]
    count = len(indices)
    per_qubit = groups > 1 and base <= 6
    out = np.empty(count, dtype=np.complex128)
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


def _sum_pairs(codes: np.ndarray, pairs: PairSum, tables) -> complex:
    """The kernel summed over the pairs ``i < j`` of ``range(n)``, by
    closing columns and BLAS dots.

    Column g's closing columns ``tables[g][:, codes[j, g]]`` hold, for
    every code u a first shot may have, the value of the pair at later
    shot j; a pair's factor is row ``codes[i, g]`` of them.  For each
    block of ``_SUM_COLUMNS`` later shots and each tile of ``_SUM_ROWS``
    first indices before the block's end, every column gathers those rows
    into the pairs' :class:`Scratch` (``mode="clip"`` writes straight into
    it; the codes are in range), the columns but the last multiply left
    to right, the first indices inside the block keep only their later
    shots, and one dot with the last column sums the tile.  A record of at
    most ``_SUM_ROWS`` shots is one tile per block.
    """
    n, width, tile = pairs.n, _SUM_COLUMNS, _SUM_ROWS
    columns = codes[:n].T.astype(np.intp, copy=False)
    later = _later_shots(width)
    # Room for one tile, a short record's rounded up to whole blocks, so
    # that the buffer grows once per block of record length up to a tile.
    scratch = pairs.scratch.entries(len(columns) * min(-(-n // width) * width, tile) * width)
    total = 0.0 + 0.0j
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        closing = [tables[g].take(column[lo:hi], axis=1) for g, column in enumerate(columns)]
        for first in range(0, hi, tile):
            end = min(first + tile, hi)
            rows = scratch[: len(columns) * (end - first) * (hi - lo)]
            rows = rows.reshape(len(columns), end - first, hi - lo)
            for g, column in enumerate(columns):
                closing[g].take(column[first:end], axis=0, out=rows[g], mode="clip")
            product, last = rows[0], rows[-1]
            for g in range(1, len(columns) - 1):
                product *= rows[g]
            if end > lo:
                inside = max(first, lo)
                last[inside - first :] *= later[inside - lo : end - lo, : hi - lo]
            total += product.ravel() @ last.ravel() if len(columns) > 1 else last.sum()
    return total


def _sum_singles(codes: np.ndarray, singles: PairSum, tables) -> complex:
    """The kernel summed over ``range(n)``, per block of ``subset_index_chunks(n, 1)``."""
    total, columns = 0.0 + 0.0j, codes[: singles.n].T.astype(np.intp, copy=False)
    for lo in range(0, singles.n, 1 << 16):
        block = columns[:, lo : lo + (1 << 16)]
        total += functools.reduce(np.multiply, map(np.take, tables, block)).sum()
    return total


def group_width(order: int, n_qubits: int) -> int:
    """Qubits per group of :func:`closing_tables` for ``order``-tuples.

    The widest ``g <= 2`` with ``g * (order - 1) <= 4``, capped by
    ``n_qubits``: 2 at orders 2 and 3, 1 from order 4, so a group table
    holds at most ``6**4`` entries (36 per group at order 2, where wider
    groups would build more table entries per shot than a short record
    has earlier shots to look up, and 1296 at order 3).  Orders 2 and 3
    share one set of group codes.  A group table entry is a product of
    two chain traces and never rounds; a product across groups equals
    the left-to-right qubit product bit for bit while neither rounds
    (``CHAIN_NUMERATORS[order]**N <= 2**53``), and stays within the bound
    of the module docstring past that.
    """
    return min(2, n_qubits) if order in (2, 3) else 1


def group_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Combine ``(T, N)`` six-valued codes into ``(T, ceil(N / width))``
    group codes ``sum_p c_p * 6**(width - 1 - p)`` over each run of
    ``width`` consecutive qubits, a short last group padded with code 0."""
    shots, n_qubits = codes.shape
    groups = -(-n_qubits // width)
    padded = np.zeros((shots, groups * width), dtype=np.uint16)
    padded[:, :n_qubits] = codes
    return padded.reshape(shots, groups, width) @ 6 ** np.arange(width - 1, -1, -1, dtype=np.uint16)


_GROUP_TABLES: dict = {}  # (order, width, real qubits) -> (its chain table, table)


def _group_tables(order: int, width: int, qubits: int) -> np.ndarray:
    """The table of whole ``order``-tuples over the :func:`group_codes` of
    ``width`` qubits (the first ``qubits`` real, the rest padding: ones),
    closing member first, ``[w_m, w_1, ..., w_{m-1}]``, so that ``table[w]``
    is the table of the tuples a shot of group code ``w`` closes.  Each
    entry multiplies its qubits' chain traces left to right, in place; axis
    ``(j, p)`` of the ``(6,) * (order * width)`` view is qubit p at position j."""
    chain = np.moveaxis(chain_trace_table(order).reshape((6,) * order), -1, 0)
    table = np.empty((6,) * (order * width), dtype=np.complex128)
    for p in range(width):
        factor = np.expand_dims(
            chain if p < qubits else np.ones_like(chain),
            tuple(a for a in range(order * width) if a % width != p),
        )
        if p:
            table *= factor
        else:
            np.copyto(table, factor)
    table.setflags(write=False)
    return table.reshape((6**width,) * order)


def group_tables(order: int, n_qubits: int, width: int) -> list[np.ndarray]:
    """The :func:`_group_tables` of the ``ceil(N / width)`` groups, each
    built once per process (again if :func:`chain_trace_table` changes):
    one shared by the whole groups, a padded one for a short last group."""
    chain, tables = chain_trace_table(order), []
    for qubits in [width] * (n_qubits // width) + [n_qubits % width] * (n_qubits % width > 0):
        key = order, width, qubits
        if _GROUP_TABLES.get(key, (None,))[0] is not chain:
            _GROUP_TABLES[key] = chain, _group_tables(order, width, qubits)
        tables.append(_GROUP_TABLES[key][1])
    return tables


def closing_tables(order: int, last: np.ndarray, width: int) -> np.ndarray:
    """:func:`batch_code_traces` tables for ``(order - 1)``-tuples closed
    by one fixed shot with per-qubit codes ``last``, over the
    :func:`group_codes` of ``width`` qubits (a stack of them for a ``(...,
    N)`` stack of shots): the slices of the :func:`group_tables` at the
    shot's group codes, the traces of every chain that ends in that shot.
    """
    last = np.asarray(last)
    tables = group_tables(order, last.shape[-1], width)
    keys = group_codes(last.reshape(-1, last.shape[-1]), width)
    stack = np.stack([table[keys[:, g]] for g, table in enumerate(tables)], axis=1)
    return stack.reshape(last.shape[:-1] + stack.shape[1:])


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

    Each block is an ``(r, k)`` int64 array of ``rows`` subsets from
    ``itertools.combinations``, the last one shorter.  Block boundaries
    depend only on ``(n, k, rows)``, which fixes the reduction order of
    sums taken block by block.  ``rows`` below 1 raises ``ValueError``.
    """
    if rows < 1:
        raise ValueError(f"blocks need at least one row, got rows={rows}")
    if k < 0 or k > n:
        return
    if k == 0:
        yield np.empty((1, 0), dtype=np.int64)
        return
    iterator = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(iterator, rows))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


@dataclass(frozen=True)
class PairSum:
    """Every pair ``(i, j)`` of ``range(n)`` with ``i < j`` (every single
    index, with ``k = 1``), to be summed: :func:`batch_code_traces`
    evaluates it to a one-element array holding the sum of their values,
    pairs working in ``scratch`` (a caller that sums pairs again and again
    passes the same one).  ``len`` is the number of subsets."""

    n: int
    k: int = 2
    scratch: Scratch = field(default_factory=Scratch, compare=False, repr=False)

    def __len__(self) -> int:
        return self.n if self.k == 1 else self.n * (self.n - 1) // 2


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
