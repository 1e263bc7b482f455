"""Moment estimators over streams of snapshots.

All five strategies target the same quantities, the trace moments of
the partially transposed state, but sit at different points on the
memory / cost / bias plane:

``ustat_offline``
    The order-m U-statistic: the average of the trace kernel over all
    index m-subsets of the record, in lexicographic order.  Unbiased;
    cost grows as C(T, m).
``plugin_estimate``
    Trace of the m-th power of the partially transposed average
    snapshot.  Cheap and O(1/T)-biased.
``batched_estimate``
    U-statistic over per-batch average snapshots: unbiased like the
    full U-statistic, cost like the plug-in, variance strictly worse.
``OnlineRecordEstimator``
    Streaming U-statistic.  Keeps only the classical record (two bytes
    per qubit-shot) and a running sum; each new shot contributes the
    kernel over all (m-1)-subsets of the past closed with the new
    index, the new shot folded into the chain tables once.  After every
    shot it equals the offline U-statistic.
``AccumulatorSet``
    Streaming U-statistic in dense form: m running 2**N x 2**N matrices
    (16 * m * 4**N bytes) whose k-th member is the sum over ordered
    (k+1)-subsets of products of transposed snapshots.  Updates cost the
    same at every T, multiplying by the snapshot's Kronecker factors,
    and give the same value as the offline U-statistic at every order
    up to m.

:class:`MomentStream` puts one strategy behind one interface.  A
strategy is an object built by the factory that ``_STRATEGIES`` maps its
name to, with four members: a ``streaming`` flag, ``advance(axes,
bits)``, which absorbs a checked ``(B, N)`` block of shots,
``trajectory(axes, bits, orders)``, which absorbs one and returns the
estimates of ``orders`` after each row as arrays, and
``estimate(order)``.  ``online-recon`` is an :class:`AccumulatorSet`
(stacked products per block); ``online-norecon`` a ``_RecordSums`` (one
shared record written and encoded once per block, one running sum per
order; the engine of :class:`OnlineRecordEstimator`); ``ustat`` a
``_PacedRecordSums`` (``_RecordSums`` read only at checkpoints);
``plugin`` a ``_PluginSum`` (the engine of :func:`plugin_estimate`); and
``batched`` a ``_RetainedRecord`` that reruns :func:`batched_estimate`.
The last two read their trajectory row by row.  A :class:`Snapshot` is a
boundary type only: the per-shot ``update`` methods check its qubit
count and advance by it as a one-row block.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, UnsupportedOrderError
from .kernel import (
    CHAIN_TABLE_MAX,
    PairSum,
    Scratch,
    _pt_codes,
    _transpose_mask,
    batch_code_traces,
    batch_tuple_traces,
    chain_trace_table,
    closing_tables,
    factors_from_codes,
    group_codes,
    group_width,
    pairs_sum_exactly,
    pt_flip,  # unused here, but perfbench/layers.py wraps estimators.pt_flip
    snapshot_codes,
    subset_index_chunks,
)
from .sampler import (
    ShadowRecord,
    Snapshot,
    _coerce_block,
    _kron,
    codes_matrices,
    codes_matrix,
    snapshot_matrix,  # unused here, but perfbench/layers.py wraps estimators.snapshot_matrix
)
from .states import _check_qubit_count, _part_qubits, partial_transpose

__all__ = [
    "MomentEstimate",
    "ustat_offline",
    "plugin_estimate",
    "batched_estimate",
    "OnlineRecordEstimator",
    "AccumulatorSet",
    "MomentStream",
    "check_strategy",
    "save_estimator_state",
    "load_estimator_state",
]

# Most qubits per Kronecker factor in an accumulator update; below 7
# qubits one dense factor is fastest.  Measured N = 2..10 in CHANGES.md.
FACTOR_QUBITS = 6

# Bound on the stacked (rows, 2**N, 2**N) temporaries of a block update.
_STACK_BYTES = 1 << 20

# Shots whose closing tables are built together: one stack of a few tables
# per order (4 * 1296 entries per code column at most) amortises the calls.
_TABLE_SHOTS = 4

# The kind field of an SSES checkpoint (see :func:`save_estimator_state`).
_KIND_RECORD, _KIND_ACCUMULATOR = 1, 2


def _comb_floats(shots: np.ndarray, k: int) -> np.ndarray:
    """``float(math.comb(t, k))`` for each count ``t`` of an int64 array.

    Exact int64 products while ``t**k`` fits, then one correctly rounded
    conversion, as Python's int-to-float conversion does.
    """
    if int(shots.max(initial=0)) ** k < 2**62:
        comb = np.ones_like(shots)
        for j in range(k):
            comb = comb * (shots - j) // (j + 1)
        return comb.astype(np.float64)
    return np.array([float(math.comb(t, k)) for t in shots.tolist()])


def _defined_combs(shots: np.ndarray, orders) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``orders`` are defined after each of ``shots``, and the
    ``C(t, k)`` floats to divide by there (1 where undefined), both ``(rows,
    len(orders))``."""
    defined = shots[:, None] >= np.array(orders, dtype=np.int64)
    combs = np.ones(defined.shape)
    for col, k in enumerate(orders):
        combs[:, col] = np.where(defined[:, col], _comb_floats(shots, k), 1.0)
    return defined, combs


@dataclass(frozen=True)
class MomentEstimate:
    """One moment estimate plus the bookkeeping needed to judge it.

    ``value`` is the real part of the underlying complex average.  The
    imaginary part has zero expectation (the target moments are real)
    but at orders three and above individual kernel values are complex,
    so its magnitude is kept as a noise diagnostic: it should shrink
    with the sampling error, not sit at rounding scale.
    ``dropped_shots`` is nonzero only for the batched strategy when the
    record does not divide into equal batches.
    """

    order: int
    shots: int
    value: float
    well_defined: bool
    imag_magnitude: float = 0.0
    dropped_shots: int = 0


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")


def _undefined(order: int, shots: int) -> MomentEstimate:
    return MomentEstimate(order, shots, float("nan"), False, float("nan"))


def _finish(order: int, shots: int, scaled: complex, dropped: int = 0) -> MomentEstimate:
    return MomentEstimate(order, shots, scaled.real, True, abs(scaled.imag), dropped)


def _kernel_sum(
    codes: np.ndarray, k: int, tables=None, closing=None, *, order=0, n_qubits=0, scratch=None
) -> complex:
    """The trace kernel summed over the k-subsets of the rows of ``codes``.

    With ``tables``, a :func:`batch_code_traces` lookup in them.  Pairs
    whose values, chains of ``order`` factors over ``n_qubits`` qubits,
    sum exactly in any order (:func:`pairs_sum_exactly`) are summed as
    one :class:`PairSum` working in ``scratch``; every other subset comes
    from the index blocks of :func:`subset_index_chunks`.  Without
    ``tables``, the 2x2 factor chains of per-qubit ``codes``, each closed
    by the ``closing`` factors when given.  Index blocks are summed block
    by block, in lexicographic order, so the reduction order depends only
    on the shape.
    """
    if tables is not None and k == 2 and pairs_sum_exactly(order, n_qubits, len(codes)):
        pairs = PairSum(len(codes), scratch or Scratch())
        return batch_code_traces(codes, pairs, tables)[0]
    total = 0.0 + 0.0j
    if tables is None:
        factors = factors_from_codes(codes)
        for chunk in subset_index_chunks(len(codes), k):
            total += batch_tuple_traces(factors, chunk, closing).sum()
    else:
        for chunk in subset_index_chunks(len(codes), k):
            total += batch_code_traces(codes, chunk, tables).sum()
    return total


def ustat_offline(record: ShadowRecord, order: int, part) -> MomentEstimate:
    """The order-m U-statistic over the full record.

    Averages the trace kernel over every index subset ``t_1 < ... < t_m``
    of the record, so the result is an unbiased estimate of the m-th
    moment.  Needs at least ``order`` shots.  At order 2 the pairs are
    summed by BLAS dots wherever :func:`pairs_sum_exactly` holds (up to
    335 544 shots at N = 4, 839 at N = 8, never past N = 12), else in
    lexicographic order; both give the same bits.
    """
    _check_order(order)
    shots = len(record)
    if shots < order:
        raise InsufficientDataError(
            f"the order-{order} U-statistic needs at least {order} shots, have {shots}"
        )
    codes = snapshot_codes(record.axes, record.bits, part)
    tables = None
    if order <= CHAIN_TABLE_MAX:
        # The same chain table for every qubit, laid out once for the gathers.
        tables = np.tile(chain_trace_table(order), (record.n_qubits, 1))
        tables = tables.reshape((record.n_qubits,) + (6,) * order)
    total = _kernel_sum(codes, order, tables, order=order, n_qubits=record.n_qubits)
    return _finish(order, shots, total / math.comb(shots, order))


def plugin_estimate(record: ShadowRecord, order: int, part) -> MomentEstimate:
    """Trace of the ``order``-th power of the averaged, transposed snapshot.

    Biased at O(1/T) but defined from the first shot on.  Builds a dense
    2**N matrix, so it is subject to the dense qubit cap.
    """
    _check_order(order)
    shots = len(record)
    if shots < 1:
        raise InsufficientDataError("the plug-in estimate needs at least one shot")
    if order == 1:
        return MomentEstimate(1, shots, 1.0, True)
    plugin = _PluginSum(part, record.n_qubits)
    plugin.advance(record.axes, record.bits)
    return plugin.estimate(order)


def batched_estimate(record: ShadowRecord, order: int, part, n_batches: int) -> MomentEstimate:
    """U-statistic over contiguous-batch average snapshots.

    The record is split into ``n_batches`` equal contiguous batches
    (any remainder at the end is dropped and reported); the kernel is
    then averaged over all batch m-subsets.  Unbiased, with the same
    dense footprint as the plug-in and at least ``order`` batches
    required.
    """
    _check_order(order)
    if n_batches < order:
        raise InsufficientDataError(
            f"batched estimation of order {order} needs at least {order} batches, "
            f"got {n_batches}"
        )
    shots = len(record)
    batch = shots // n_batches
    if batch < 1:
        raise InsufficientDataError(
            f"{shots} shots cannot fill {n_batches} batches"
        )
    dropped = shots - batch * n_batches
    dim = 2**record.n_qubits
    means = np.zeros((n_batches, dim, dim), dtype=np.complex128)
    used = shots - dropped
    for t, codes in enumerate(2 * record.axes[:used] + record.bits[:used]):
        means[t // batch] += codes_matrix(codes)
    means /= batch
    for b in range(n_batches):
        means[b] = partial_transpose(means[b], part)
    total = 0.0 + 0.0j
    for chunk in subset_index_chunks(n_batches, order):
        total += batch_tuple_traces(means[:, None, :, :], chunk).sum()
    return _finish(order, shots, total / math.comb(n_batches, order), dropped)


class _RecordSums:
    """Streaming U-statistics of several orders over one retained record.

    ``sums`` maps each order m to the running sum of the kernel over all
    m-subsets of the record; a new shot adds the subsets it closes.  A
    ``(B, N)`` block of shots (``advance`` and ``trajectory``) goes into
    the record with one write.  The shots appended since the previous
    call (the whole record after a restore) are then encoded at once, so
    every shot is encoded once, and each encoded shot's
    :func:`group_codes` are kept beside its codes.

    The new shot is the last member of every subset it closes, so an
    order-m update folds its codes into the chain tables once
    (:func:`closing_tables`, built for ``_TABLE_SHOTS`` shots of a block
    at a time) and evaluates only the ``(m-1)``-subsets of
    the past: ``N / g`` gathers and multiplies per tuple, with ``g =
    group_width(m, N)`` qubits per gather (2 at m = 2 and 3, which share
    one set of group codes, 1 from m = 4), instead of ``m * N`` code
    gathers, ``N`` table gathers and ``N`` multiplies.  Grouped products
    equal the left-to-right qubit products bit for bit while every
    ``2**m`` times a chain trace has modulus at most ``M_m`` and
    ``M_m**N <= 2**53``:

    ====  =====  ==========
    m     M_m    exact to N
    ====  =====  ==========
    2     20     12
    3     56     9
    4     272    6
    5     992    5
    6     4160   4
    ====  =====  ==========

    and beyond that ``g`` is 1, so the sums equal the closed-tuple
    evaluation bit for bit at every N.  Orders past ``CHAIN_TABLE_MAX``
    close each 2x2 factor chain with the new shot's factors instead.

    The pairs that an order-3 update closes take one of two routes
    (:func:`_kernel_sum` picks).  While their sum is exact in any order
    (:func:`pairs_sum_exactly`: ``C(t, 2) * 56**N <= 2**53`` for ``t``
    earlier shots), they reach the kernel as one :class:`PairSum`: each
    code column's closing columns (its table at the earlier shots' codes,
    36 entries per shot) are gathered at the first shots' codes, a column
    block of later shots at a time, and one BLAS dot per block sums the
    products, with no value array.  That holds up to

    ====  =================
    N     earlier shots t
    ====  =================
    1     17 935 598
    2     2 396 745
    3     320 279
    4     42 799
    5     5 719
    6     764
    7     102
    8     14
    9     2
    ====  =================

    and past it, or with six-valued per-qubit columns (N > 9), they come
    as the index blocks of :func:`subset_index_chunks` and are evaluated
    value by value.  Either way the sums have the same bits, the work is
    per pair, and the state is still the O(T * N) codes.
    """

    streaming = True

    def __init__(self, part: tuple[int, ...], record: ShadowRecord, sums: dict[int, complex]):
        self.record = record
        self.sums = sums
        self._part = part
        n_qubits = record.n_qubits
        self._widths = {m: group_width(m, n_qubits) for m in sums if m <= CHAIN_TABLE_MAX}
        self._codes = np.empty((0, n_qubits), dtype=np.uint8)
        self._grouped = {
            g: np.empty((0, -(-n_qubits // g)), dtype=np.uint16)
            for g in set(self._widths.values()) - {1}
        }
        self._encoded = 0
        self._scratch = Scratch()

    def advance(self, axes: np.ndarray, bits: np.ndarray) -> None:
        """Absorb the rows of checked ``(B, N)`` axes and bits."""
        self.record._append_rows(axes, bits)
        self._close(len(self.record) - len(axes))

    def trajectory(
        self, axes: np.ndarray, bits: np.ndarray, orders
    ) -> tuple[np.ndarray, np.ndarray]:
        """Absorb the rows of checked ``(B, N)`` axes and bits; return the
        estimates of ``orders`` after each row as ``(values, defined)``,
        both ``(B, len(orders))``.  ``sums / C(t, m)`` is numpy's complex
        division, as the per-shot ``estimate`` of a ``complex128`` sum is,
        so every value equals it bit for bit."""
        start = len(self.record)
        self.record._append_rows(axes, bits)
        sums = self._close(start, orders)
        defined, combs = _defined_combs(np.arange(start + 1, len(self.record) + 1), orders)
        values = (sums / combs).real
        values[~defined] = np.nan
        return values, defined

    def _close(self, start: int, orders=()) -> np.ndarray:
        """Encode the unencoded shots and add the subsets closed by each shot
        from ``start`` on; return the running sums of ``orders`` after each
        of those shots, ``(shots, len(orders))``."""
        done, total = self._encoded, len(self.record)
        if total > self._codes.shape[0]:
            self._codes = _grown(self._codes, done, total)
            for g, grouped in self._grouped.items():
                self._grouped[g] = _grown(grouped, done, total)
        fresh_codes = snapshot_codes(self.record.axes[done:], self.record.bits[done:], self._part)
        self._codes[done:total] = fresh_codes
        for g, grouped in self._grouped.items():
            grouped[done:total] = group_codes(fresh_codes, g)
        self._encoded = total
        sums = np.empty((total - start, len(orders)), dtype=np.complex128)
        for lo in range(start, total, _TABLE_SHOTS):
            shots = range(lo, min(lo + _TABLE_SHOTS, total))
            tables = {
                m: closing_tables(m, self._codes[lo : shots.stop], g)
                for m, g in self._widths.items()
            }
            for latest in shots:
                for m in self.sums:
                    if latest >= m - 1:
                        closing = tables[m][latest - lo] if m in tables else None
                        self.sums[m] += self._fresh(m, latest, closing)
                sums[latest - start] = [self.sums[m] for m in orders]
        return sums

    def _fresh(self, m: int, latest: int, tables: np.ndarray | None) -> complex:
        """The kernel summed over the m-subsets that shot ``latest`` closes;
        ``tables`` are its :func:`closing_tables` (``None`` past
        ``CHAIN_TABLE_MAX``, where its 2x2 factors close the chains)."""
        if m > CHAIN_TABLE_MAX:
            closing = factors_from_codes(self._codes[latest])
            return _kernel_sum(self._codes[:latest], m - 1, closing=closing)
        g = self._widths[m]
        codes = (self._codes if g == 1 else self._grouped[g])[:latest]
        n_qubits = self.record.n_qubits
        return _kernel_sum(codes, m - 1, tables, order=m, n_qubits=n_qubits, scratch=self._scratch)

    def estimate(self, order: int) -> MomentEstimate:
        shots = len(self.record)
        if shots < order:
            return _undefined(order, shots)
        return _finish(order, shots, self.sums[order] / math.comb(shots, order))


def _one_row(snapshot: Snapshot, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """A snapshot of ``n_qubits`` qubits as a one-row block of axes and bits."""
    if snapshot.n_qubits != n_qubits:
        raise ValueError(f"snapshot has {snapshot.n_qubits} qubits, expected {n_qubits}")
    return snapshot.axes[None], snapshot.bits[None]


def _grown(rows: np.ndarray, done: int, total: int) -> np.ndarray:
    """A copy of the first ``done`` rows with room for at least ``total``."""
    grown = np.empty((max(16, 2 * total),) + rows.shape[1:], dtype=rows.dtype)
    grown[:done] = rows[:done]
    return grown


class OnlineRecordEstimator:
    """Streaming U-statistic that retains only the classical record.

    Memory is O(T * N) bytes and the per-shot update enumerates the
    C(T, m-1) fresh tuples ending at the new shot, so updates get
    quadratically slower (for m = 3) as the record grows, but no
    2**N-dimensional object is ever formed.  At m = 3 the fresh tuples
    are pairs of the past.  While their sum is exact in any order (up to
    42 799 earlier shots at N = 4, 764 at N = 6, 102 at N = 7; see
    ``_RecordSums``) it is taken by BLAS dots over closing columns, the
    new shot's tables at the later shots' codes gathered at the first
    shots' codes; past that, value by value from index blocks.  Work per
    pair, state still O(T * N).
    """

    _state_kind = _KIND_RECORD

    def __init__(
        self,
        order: int,
        part,
        n_qubits: int,
        record: ShadowRecord | None = None,
        running_sum: complex = 0.0,
    ):
        _check_order(order)
        if record is None:
            record = ShadowRecord(n_qubits)
        elif record.n_qubits != n_qubits:
            raise ValueError("resume record has the wrong qubit count")
        self._m = order
        self._n = n_qubits
        self._part = _part_qubits(part, n_qubits)
        self._sums = _RecordSums(self._part, record, {order: complex(running_sum)})

    @property
    def order(self) -> int:
        return self._m

    @property
    def transposed_qubits(self) -> tuple[int, ...]:
        return self._part

    @property
    def shots(self) -> int:
        return len(self._sums.record)

    @property
    def record(self) -> ShadowRecord:
        return self._sums.record

    @property
    def running_sum(self) -> complex:
        return self._sums.sums[self._m]

    def update(self, snapshot: Snapshot) -> None:
        self._sums.advance(*_one_row(snapshot, self._n))

    def estimate(self) -> MomentEstimate:
        return self._sums.estimate(self._m)

    def _state_body(self) -> bytes:
        """The checkpoint payload: the running sum, then the SSHR record."""
        record = self.record.to_bytes()
        total = self.running_sum
        return struct.pack("<ddQ", total.real, total.imag, len(record)) + record

    @classmethod
    def _from_state(cls, blob: bytes, offset: int, order, part, n_qubits, shots):
        """The estimator whose payload runs from ``offset`` to the end of ``blob``."""
        (re, im, size), offset = _unpack("<ddQ", blob, offset)
        record = ShadowRecord.from_bytes(_tail(blob, offset, size))
        if len(record) != shots:
            raise ValueError("checkpoint record length disagrees with header")
        return cls(order, part, n_qubits, record=record, running_sum=complex(re, im))


class AccumulatorSet:
    """Streaming U-statistic via running sums of snapshot products.

    ``matrices[k]`` holds the sum over ordered (k+1)-subsets
    ``i_1 < ... < i_{k+1}`` of the record of the matrix product of the
    corresponding transposed snapshots.  One update costs ``order``
    matrix additions and ``order - 1`` multiplications regardless of how
    many shots came before, and every order up to ``order`` can be read
    off the same set; the snapshot itself is discarded after use.
    Memory is ``16 * order * 4**N`` bytes.

    An update transposes the snapshot on its codes (a Y-basis bit flips
    on each transposed qubit, as in :func:`snapshot_codes`) and splits
    them into the fewest near-equal blocks of at most ``FACTOR_QUBITS``
    qubits; :func:`codes_matrix` builds each block's dense factor, so the
    snapshot is ``F_1 ⊗ ... ⊗ F_b``.  A product ``M @ (A ⊗ C)`` is then
    one gemm against the right factor, ``M.reshape(-1, c) @ C``, and one
    batched ``A.T @`` over the ``(d, a, c)`` view of the result, costing
    ``d**2 * (a + c)`` multiply-adds instead of ``d**3`` (``d = a * c =
    2**N``); with one block it is the plain ``M @ dense``.

    Every factor entry is 0, +-0.5, +-1.5, 2 or -1 times 1 or i, so every
    accumulator entry is a dyadic rational and no product or sum rounds
    while the numerators fit in 53 bits: the factored product equals the
    dense one bit for bit, zero signs included (a sum from +0 never sees
    them).  Beyond that point the two differ only at rounding level.
    """

    streaming = True
    _state_kind = _KIND_ACCUMULATOR

    def __init__(
        self,
        order: int,
        part,
        n_qubits: int,
        matrices: np.ndarray | None = None,
        shots: int = 0,
    ):
        _check_order(order)
        _check_qubit_count(n_qubits)
        self._m = order
        self._part = _part_qubits(part, n_qubits)
        self._mask = _transpose_mask(self._part, n_qubits)
        self._n = n_qubits
        dim = 2**n_qubits
        if matrices is None:
            matrices = np.zeros((order, dim, dim), dtype=np.complex128)
        else:
            matrices = np.array(matrices, dtype=np.complex128, order="C")
            if matrices.shape != (order, dim, dim):
                raise ValueError(
                    f"expected accumulator shape {(order, dim, dim)}, got {matrices.shape}"
                )
        self._matrices = matrices
        self._shots = int(shots)
        # The fewest near-equal qubit blocks of at most FACTOR_QUBITS, the
        # leading ones one qubit larger.  The last block's factor multiplies
        # the ``(rows, c)`` view of an accumulator; each leading block,
        # innermost first, then contracts its axis of the ``(batch, f,
        # rest)`` view it is paired with.
        blocks = -(-n_qubits // FACTOR_QUBITS) or 1
        sizes = [n_qubits // blocks + (i < n_qubits % blocks) for i in range(blocks)]
        edges = [sum(sizes[:i]) for i in range(blocks + 1)]
        widths = [2**size for size in sizes]
        self._last = slice(edges[-2], n_qubits)
        self._steps = [
            (
                slice(edges[i], edges[i + 1]),
                (dim * math.prod(widths[:i]), widths[i], math.prod(widths[i + 1 :])),
            )
            for i in range(blocks - 2, -1, -1)
        ]
        self._rows = matrices.reshape(order, -1, widths[-1])
        self._sums = matrices.reshape(order, *(self._steps[-1][1] if self._steps else (dim, dim)))

    @property
    def order(self) -> int:
        return self._m

    @property
    def transposed_qubits(self) -> tuple[int, ...]:
        return self._part

    @property
    def shots(self) -> int:
        return self._shots

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def matrices(self) -> np.ndarray:
        view = self._matrices.view()
        view.setflags(write=False)
        return view

    def update(self, snapshot: Snapshot) -> None:
        if snapshot.n_qubits != self._n:
            raise ValueError(
                f"snapshot has {snapshot.n_qubits} qubits, accumulator has {self._n}"
            )
        self._absorb(_pt_codes(snapshot.axes, snapshot.bits, self._mask))

    def _absorb(self, codes: np.ndarray) -> None:
        """One shot's update from its transposed codes."""
        last = codes_matrix(codes[self._last])
        # With one block (N <= FACTOR_QUBITS) no factor list is built at all.
        steps = self._steps and [
            (codes_matrix(codes[block]), shape) for block, shape in self._steps
        ]
        rows, sums = self._rows, self._sums
        for k in range(self._m - 1, 0, -1):
            prod = rows[k - 1] @ last
            for factor, shape in steps:
                prod = np.matmul(factor.T, prod.reshape(shape))
            sums[k] += prod
        for factor, _ in steps:
            last = _kron(factor, last)
        self._matrices[0] += last
        self._shots += 1

    def advance(self, axes: np.ndarray, bits: np.ndarray) -> None:
        """Absorb the rows of checked ``(B, N)`` axes and bits, each by the
        factored per-shot update, with no traces."""
        for codes in _pt_codes(axes, bits, self._mask).tolist():
            self._absorb(codes)

    def trajectory(
        self, axes: np.ndarray, bits: np.ndarray, orders
    ) -> tuple[np.ndarray, np.ndarray]:
        """Absorb the rows of checked ``(B, N)`` axes and bits; return the
        estimates of ``orders`` after each row as ``(values, defined)``,
        both ``(B, len(orders))``.

        Up to ``FACTOR_QUBITS`` qubits the block is absorbed as stacked
        products: with ``R_t`` the transposed snapshots, ``S_k`` after row
        ``t`` is ``S_k`` before the block plus the prefix sum of ``S_{k-1,
        t-1} @ R_t``, one batched product and one ``cumsum`` per order,
        in row chunks whose three live stacks stay within ``_STACK_BYTES``.
        Beyond that each row takes the factored per-shot update.  Either
        way every value equals the per-shot ``update``/``estimate`` pair
        bit for bit: all entries are dyadic, so no sum rounds while the
        numerators fit in 53 bits, and ``tr / comb(t, k)`` in float64 is
        the real part of Python's ``complex / int``.
        """
        codes = _pt_codes(axes, bits, self._mask)
        rows = len(codes)
        traces = np.empty((rows, self._m), dtype=np.complex128)
        if self._steps:
            for i, row in enumerate(codes):
                self._absorb(row)
                for k in range(self._m):
                    traces[i, k] = np.trace(self._matrices[k])
        else:
            step = max(1, _STACK_BYTES // (3 * self._matrices[0].nbytes))
            for lo in range(0, rows, step):
                self._absorb_stacked(codes[lo : lo + step], traces[lo : lo + step])
            self._shots += rows
        defined, combs = _defined_combs(np.arange(self._shots - rows + 1, self._shots + 1), orders)
        values = traces[:, [k - 1 for k in orders]].real / combs
        values[~defined] = np.nan
        return values, defined

    def _absorb_stacked(self, codes: np.ndarray, traces: np.ndarray) -> None:
        """Absorb a chunk of rows as stacked products (see :meth:`trajectory`)
        and write each order's trace after each row into ``traces``."""
        snaps = codes_matrices(codes)
        mats = self._matrices
        lower = None
        for k in range(self._m):
            if lower is None:
                running = np.cumsum(snaps, axis=0)
            else:
                # S_{k-1} before each row: the stored value, then the trajectory.
                running = np.empty_like(snaps)
                np.matmul(mats[k - 1], snaps[0], out=running[0])
                np.matmul(lower[:-1], snaps[1:], out=running[1:])
                mats[k - 1] = lower[-1]
                np.cumsum(running, axis=0, out=running)
            running += mats[k]
            traces[:, k] = np.trace(running, axis1=1, axis2=2)
            lower = running
        mats[-1] = lower[-1]

    def estimate(self, order: int | None = None) -> MomentEstimate:
        k = self._m if order is None else order
        if not 1 <= k <= self._m:
            raise UnsupportedOrderError(
                f"this accumulator set covers orders 1..{self._m}, got {k}"
            )
        if self._shots < k:
            return _undefined(k, self._shots)
        scaled = complex(np.trace(self._matrices[k - 1])) / math.comb(self._shots, k)
        return _finish(k, self._shots, scaled)

    def _state_body(self) -> bytes:
        """The checkpoint payload: the matrices, row-major."""
        return self._matrices.tobytes()

    @classmethod
    def _from_state(cls, blob: bytes, offset: int, order, part, n_qubits, shots):
        """The accumulators whose payload runs from ``offset`` to the end of ``blob``."""
        dim = 2**n_qubits
        body = _tail(blob, offset, 16 * order * dim * dim)
        mats = np.frombuffer(body, dtype=np.complex128).reshape(order, dim, dim)
        return cls(order, part, n_qubits, matrices=mats, shots=shots)


class _RowwiseTrajectory:
    """The ``trajectory`` of an engine whose estimates are not running sums:
    advance by one row, then read ``estimate`` of each order."""

    def trajectory(
        self, axes: np.ndarray, bits: np.ndarray, orders
    ) -> tuple[np.ndarray, np.ndarray]:
        values = np.empty((len(axes), len(orders)))
        defined = np.empty(values.shape, dtype=bool)
        for i in range(len(axes)):
            self.advance(axes[i : i + 1], bits[i : i + 1])
            for col, m in enumerate(orders):
                est = self.estimate(m)
                values[i, col], defined[i, col] = est.value, est.well_defined
        return values, defined


class _PluginSum(_RowwiseTrajectory):
    """Running sum of dense snapshots; the order-m plug-in estimate is the
    trace of the m-th power of the partially transposed mean."""

    streaming = True

    def __init__(self, part, n_qubits: int):
        _check_qubit_count(n_qubits)
        self._part = part
        self._sum = np.zeros((2**n_qubits,) * 2, dtype=np.complex128)
        self._shots = 0

    def advance(self, axes: np.ndarray, bits: np.ndarray) -> None:
        for codes in (2 * axes + bits).tolist():
            self._sum += codes_matrix(codes)
        self._shots += len(axes)

    def estimate(self, order: int) -> MomentEstimate:
        if self._shots < 1:
            return _undefined(order, self._shots)
        transposed = partial_transpose(self._sum / self._shots, self._part)
        power = np.linalg.matrix_power(transposed, order)
        return _finish(order, self._shots, complex(np.trace(power)))


class _RetainedRecord(_RowwiseTrajectory):
    """The ``batched`` strategy: keeps every shot (``advance`` appends to
    the record) and reruns :func:`batched_estimate` over the record on
    request; orders it cannot form yet are undefined."""

    streaming = False

    def __init__(self, part, n_qubits: int, n_batches: int):
        _check_qubit_count(n_qubits)
        self._part = part
        self._n_batches = n_batches
        self._record = ShadowRecord(n_qubits)
        self.advance = self._record._append_rows

    def estimate(self, order: int) -> MomentEstimate:
        try:
            return batched_estimate(self._record, order, self._part, self._n_batches)
        except InsufficientDataError:
            return _undefined(order, len(self._record))


class _PacedRecordSums(_RecordSums):
    """The ``ustat`` strategy: ``_RecordSums`` read only at checkpoints.

    Its running sums equal :func:`ustat_offline` bit for bit while every
    partial sum is exact.  An order-m kernel value is a Gaussian integer
    times ``2**(-m*N)`` of modulus at most ``2**((m+1)*N)``, so a sum of
    ``C(T, m)`` of them is exact in any order while ``C(T, m) *
    2**((2*m+1)*N) <= 2**53``.  That worst case first fails at T =

    ====  ==========  =====  =====
    N     m = 2       m = 3  m = 4
    ====  ==========  =====  =====
    1     23726567    75021  4535
    2     4194305     14887  955
    3     741456      2955   202
    4     131073      588    44
    5     23171       118    11
    6     4097        25     4
    ====  ==========  =====  =====

    and earlier still for more qubits.  Random signs keep real sums far
    below this bound, so in practice they stay exact much longer; past
    it the two agree to rounding.

    The kernel values themselves are bit-equal to the offline ones at
    every N: ``2**m`` times a chain trace has modulus at most ``M_m`` =
    20, 56, 272 at m = 2, 3, 4, so the grouped lookups of ``_RecordSums``
    multiply without rounding up to N = 12, 9, 6 qubits (see the table
    there), and past that they multiply qubit by qubit as the offline
    lookup does.
    """

    streaming = False


# Strategy name -> factory(orders, part, n_qubits, n_batches); ``orders``
# is sorted and ``part`` normalised.  The only place strategy names live.
_STRATEGIES = {
    "ustat": lambda orders, part, n_qubits, n_batches: _PacedRecordSums(
        part, ShadowRecord(n_qubits), {m: 0j for m in orders if m >= 2}
    ),
    "plugin": lambda orders, part, n_qubits, n_batches: _PluginSum(part, n_qubits),
    "batched": lambda orders, part, n_qubits, n_batches: _RetainedRecord(
        part, n_qubits, n_batches
    ),
    "online-norecon": lambda orders, part, n_qubits, n_batches: _RecordSums(
        part, ShadowRecord(n_qubits), {m: 0j for m in orders if m >= 2}
    ),
    "online-recon": lambda orders, part, n_qubits, n_batches: AccumulatorSet(
        orders[-1], part, n_qubits
    ),
}


def check_strategy(strategy: str, orders, n_batches: int | None) -> None:
    """Raise :class:`ValueError` unless ``strategy`` can serve ``orders``.

    The name must be in the strategy table, and ``batched`` needs an
    integer ``n_batches`` of at least the highest order, since fewer
    batches leave that order undefined for the whole run.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {tuple(_STRATEGIES)}")
    if strategy == "batched" and not (
        isinstance(n_batches, numbers.Integral) and n_batches >= max(orders)
    ):
        raise ValueError(
            f"the batched strategy needs an integer n_batches >= the highest order "
            f"{max(orders)}, got {n_batches!r}"
        )


class MomentStream:
    """One strategy, several orders, one shot-by-shot interface.

    ``strategy`` names an entry of the strategy table (see the module
    docstring).  Order 1 is pinned to the exact value 1; the streaming
    strategies (plug-in and both online ones) refresh their estimates
    after every shot, while ``ustat`` and ``batched`` are meant to be read
    at checkpoints only (``batched`` recomputes from the retained record
    whenever estimates are requested).
    """

    def __init__(
        self,
        strategy: str,
        orders,
        part,
        n_qubits: int,
        n_batches: int | None = None,
    ):
        orders = tuple(sorted(set(int(m) for m in orders)))
        if not orders or orders[0] < 1:
            raise ValueError(f"orders must be a nonempty set of integers >= 1, got {orders}")
        check_strategy(strategy, orders, n_batches)
        self.strategy = strategy
        self.orders = orders
        self._shots = 0
        self._n_qubits = n_qubits
        part = _part_qubits(part, n_qubits)
        self._estimator = _STRATEGIES[strategy](orders, part, n_qubits, n_batches)

    @property
    def streaming(self) -> bool:
        """Whether estimates are cheap to refresh after every shot."""
        return self._estimator.streaming

    @property
    def shots(self) -> int:
        return self._shots

    def update(self, snapshot: Snapshot) -> None:
        """:meth:`advance` by one shot of the stream's qubit count."""
        self._estimator.advance(*_one_row(snapshot, self._n_qubits))
        self._shots += 1

    def advance(self, axes: np.ndarray, bits: np.ndarray) -> None:
        """:meth:`update` by each row of ``(B, N)`` axes and bits, checked
        once (see :meth:`trajectory`)."""
        axes, bits = _coerce_block(axes, bits, self._n_qubits)
        self._estimator.advance(axes, bits)
        self._shots += len(axes)

    def trajectory(self, axes: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Update by each row of ``(B, N)`` axes and bits and return every
        order's estimate after each row: ``(values, defined)``, both of
        shape ``(B, len(orders))``, values NaN where undefined.

        The block is checked once, by the rule of :class:`Snapshot`: matching
        2-D shapes with the stream's qubit count, axes below 3 and bits
        below 2, else ``ValueError``.
        """
        axes, bits = _coerce_block(axes, bits, self._n_qubits)
        values, defined = self._estimator.trajectory(axes, bits, [m for m in self.orders if m > 1])
        self._shots += len(axes)
        if self.orders[0] == 1:  # pinned to 1 from the first shot on
            values = np.hstack([np.ones((len(axes), 1)), values])
            defined = np.hstack([np.ones((len(axes), 1), dtype=bool), defined])
        return values, defined

    def estimates(self) -> dict[int, MomentEstimate]:
        """Current per-order estimates (undefined entries carry NaN values)."""
        out: dict[int, MomentEstimate] = {}
        for m in self.orders:
            if m > 1:
                out[m] = self._estimator.estimate(m)
            elif self._shots >= 1:
                out[1] = MomentEstimate(1, self._shots, 1.0, True)
            else:
                out[1] = _undefined(1, self._shots)
        return out


# -- checkpointing -------------------------------------------------------

_STATE_MAGIC = b"SSES"
_STATE_VERSION = 1
_STATE_HEADER = struct.Struct("<4sHBHHQ")

# Checkpoint kind -> the class that packs (``_state_body``) and unpacks
# (``_from_state``) the payload after the common header and part list.
_CHECKPOINTS = {cls._state_kind: cls for cls in (OnlineRecordEstimator, AccumulatorSet)}


def _pack_state(est) -> bytes:
    kind = getattr(est, "_state_kind", None)
    if kind not in _CHECKPOINTS:
        raise TypeError(f"cannot checkpoint {type(est).__name__}")
    part = est.transposed_qubits
    head = _STATE_HEADER.pack(_STATE_MAGIC, _STATE_VERSION, kind, est.order, est._n, est.shots)
    return head + struct.pack(f"<H{len(part)}H", len(part), *part) + est._state_body()


def save_estimator_state(est, path) -> None:
    """Checkpoint an online estimator to a versioned binary file."""
    with open(path, "wb") as fh:
        fh.write(_pack_state(est))


def _unpack(fmt: str, blob: bytes, offset: int) -> tuple[tuple, int]:
    """Read ``fmt`` at ``offset``; return the values and the next offset."""
    end = offset + struct.calcsize(fmt)
    if end > len(blob):
        raise ValueError(f"checkpoint truncated: {len(blob)} bytes, need at least {end}")
    return struct.unpack_from(fmt, blob, offset), end


def _tail(blob: bytes, offset: int, size: int) -> bytes:
    """The last ``size`` bytes of a checkpoint, which must end right there."""
    if len(blob) != offset + size:
        raise ValueError(
            f"checkpoint holds {len(blob)} bytes, its header implies {offset + size}"
        )
    return blob[offset:]


def load_estimator_state(path):
    """Restore an estimator checkpointed by :func:`save_estimator_state`.

    The returned estimator continues exactly as if the stream had never
    been interrupted.  A file that is not exactly one checkpoint (foreign
    magic, unknown version or kind, a part list that is not strictly
    increasing, truncated or with trailing bytes) raises
    :class:`ValueError`; whatever loads packs back to the same bytes.
    """
    with open(path, "rb") as fh:
        return _unpack_state(fh.read())


def _unpack_state(blob: bytes):
    """The estimator that checkpoint bytes encode; see :func:`load_estimator_state`."""
    if blob[:4] != _STATE_MAGIC:
        raise ValueError("not an estimator checkpoint: the magic bytes differ")
    (_, version, kind, order, n_qubits, shots), offset = _unpack(
        _STATE_HEADER.format, blob, 0
    )
    if version != _STATE_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (n_part,), offset = _unpack("<H", blob, offset)
    part, offset = _unpack(f"<{n_part}H", blob, offset)
    if list(part) != sorted(set(part)):
        raise ValueError(f"checkpoint part list {part} is not strictly increasing")
    checkpoint = _CHECKPOINTS.get(kind)
    if checkpoint is None:
        raise ValueError(f"unknown checkpoint kind {kind}")
    return checkpoint._from_state(blob, offset, order, part, n_qubits, shots)
