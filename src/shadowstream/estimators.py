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
    Streaming U-statistic.  Keeps only the classical record (one byte
    of transposed code per qubit-shot) and a running sum; each new shot
    contributes the kernel over all (m-1)-subsets of the past closed with
    the new index, the new shot folded into the chain tables once.
    After every shot it equals the offline U-statistic.
``AccumulatorSet``
    Streaming U-statistic in dense form: m - 1 running 2**N x 2**N
    matrices whose k-th member is the sum over ordered (k+1)-subsets of
    products of transposed snapshots, and the running trace of the
    order-m sum (16 * (m - 1) * 4**N + 16 bytes).  Updates cost the same
    at every T, multiplying by the snapshot's Kronecker factors, and give
    the same value as the offline U-statistic at every order up to m.

:class:`MomentStream` puts one strategy behind one interface.  It keeps
its shots once, in a ``_CodeRecord`` (one growable ``(T, N)`` uint8 array
of transposed codes, shared by the streams of a run), into which each
``(B, N)`` block is checked and encoded once with :func:`snapshot_codes`,
whose bit flips are the partial transpose: no strategy transposes a
matrix or carries the transposed qubits.  ``_STRATEGIES`` maps each name
to a ``streaming`` flag and the factory of an object that reads views of
the record below its own shot count through three members:
``advance(codes)`` absorbs a block, ``trajectory(codes, orders)`` absorbs
one and returns the estimates of ``orders`` after each row as arrays, and
``estimate(order)``.  ``online-recon`` is an :class:`AccumulatorSet`
(stacked products per block); ``online-norecon`` and ``ustat`` (read at
checkpoints only) a ``_RecordSums`` (group codes and one running sum per
order; the engine of :class:`OnlineRecordEstimator`); ``plugin`` a
``_PluginSum`` (the engine of :func:`plugin_estimate`); and ``batched`` a
``_RetainedRecord`` that evaluates :func:`batched_estimate` over the
record.  The last two read their trajectory row by row.  A
:class:`Snapshot` is a boundary type only: the per-shot ``update``
methods check its qubit count and advance by its codes as a one-row block.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, UnsupportedOrderError
from .kernel import (
    CHAIN_TABLE_MAX,
    PairSum,
    Scratch,
    _masked_codes,
    _transpose_mask,
    batch_code_traces,
    batch_tuple_traces,
    factors_from_codes,
    group_codes,
    group_tables,
    group_width,
    pt_flip,  # unused here, but perfbench/layers.py wraps estimators.pt_flip
    snapshot_codes,
    subset_index_chunks,
)
from .sampler import (
    ShadowRecord,
    Snapshot,
    _coerce_block,
    _grown,
    codes_matrix,
    snapshot_matrix,  # unused here, but perfbench/layers.py wraps estimators.snapshot_matrix
)
from .states import _check_qubit_count, _part_qubits

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

# Bound on the stacked (rows, 2**N, 2**N) temporaries of a block update, on
# the kept scratch that sets the accumulators' tile rows past FACTOR_QUBITS,
# and on the factor and diagonal buffers of one chunk of a tiled block update.
_STACK_BYTES = 1 << 20

# The kind field of an SSES checkpoint (see :func:`save_estimator_state`).
# Kind 2 holds all ``order`` accumulator matrices, as written before the top
# order became a running trace; it still loads.
_KIND_RECORD, _KIND_DENSE_ACCUMULATOR, _KIND_ACCUMULATOR = 1, 2, 3


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
    codes: np.ndarray, k: int, tables=None, closing=None, scratch=None, closing_first=False
) -> complex:
    """The trace kernel summed over the k-subsets of the rows of ``codes``.

    With ``tables`` (``closing_first``: a tuple's last member on their
    first axis), a :func:`batch_code_traces` lookup in them: singles and
    pairs are summed as one :class:`PairSum` working in ``scratch``, every
    other subset comes from the index blocks of :func:`subset_index_chunks`.
    Without ``tables``, the 2x2 factor chains of per-qubit ``codes``, each
    closed by the ``closing`` factors when given.  Index blocks are summed
    block by block, in lexicographic order, so the reduction order depends
    only on the shape.
    """
    if tables is not None and k in (1, 2):
        if closing_first:
            tables = [table.T for table in tables]
        return batch_code_traces(codes, PairSum(len(codes), k, scratch or Scratch()), tables)[0]
    total = 0.0 + 0.0j
    if tables is None:
        factors = factors_from_codes(codes)
        for chunk in subset_index_chunks(len(codes), k):
            total += batch_tuple_traces(factors, chunk, closing).sum()
    else:
        for chunk in subset_index_chunks(len(codes), k):
            if closing_first:
                chunk = np.roll(chunk, 1, axis=1)
            total += batch_code_traces(codes, chunk, tables).sum()
    return total


def ustat_offline(record: ShadowRecord, order: int, part) -> MomentEstimate:
    """The order-m U-statistic over the full record.

    Averages the trace kernel over every index subset ``t_1 < ... < t_m``
    of the record, so the result is an unbiased estimate of the m-th
    moment.  Needs at least ``order`` shots.

    Up to ``CHAIN_TABLE_MAX`` the kernel is looked up in the
    :func:`group_tables` that the record-only engine slices, over the
    :func:`group_codes` of :func:`group_width` qubits (two at orders 2 and
    3, one from order 4), each tuple's last member first.  The pairs of
    order 2 are summed by BLAS dots (a :class:`PairSum`), higher orders
    over index blocks in lexicographic order; past ``CHAIN_TABLE_MAX`` the
    2x2 factor chains are multiplied out.  The sum equals a per-qubit
    lookup in lexicographic order bit for bit while ``C(T, m) *
    CHAIN_NUMERATORS[m]**N <= 2**53`` (at order 2, T up to 335 544 at N =
    4 and 839 at N = 8) and stays within the rounding bound of the
    :mod:`~shadowstream.kernel` docstring past that.
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
        width = group_width(order, record.n_qubits)
        tables = group_tables(order, record.n_qubits, width)
        codes = group_codes(codes, width)
    total = _kernel_sum(codes, order, tables, closing_first=True)
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
    plugin = _PluginSum(record.n_qubits)
    plugin.advance(snapshot_codes(record.axes, record.bits, part))
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
    codes = snapshot_codes(record.axes, record.bits, part)
    return _batched_moment(_batch_means(codes, n_batches), order, len(record))


def _batch_means(codes: np.ndarray, n_batches: int) -> tuple[np.ndarray, int]:
    """The partially transposed mean snapshots of ``n_batches`` equal
    contiguous batches of ``(T, N)`` transposed codes, and the number of
    trailing shots dropped; every order's batched estimate reads the same
    means."""
    shots = len(codes)
    batch = shots // n_batches
    if batch < 1:
        raise InsufficientDataError(
            f"{shots} shots cannot fill {n_batches} batches"
        )
    dropped = shots - batch * n_batches
    dim = 2 ** codes.shape[1]
    means = np.zeros((n_batches, dim, dim), dtype=np.complex128)
    for t, row in enumerate(codes[: shots - dropped].tolist()):
        means[t // batch] += codes_matrix(row)
    means /= batch
    return means, dropped


def _batched_moment(batches: tuple[np.ndarray, int], order: int, shots: int) -> MomentEstimate:
    """The order-m batched estimate from :func:`_batch_means`, summed per
    block of :func:`subset_index_chunks`.  From 363 batches on (``C(363,
    2) > 2**16``) the pairs fill several blocks, cut every ``2**16``
    pairs; versions that cut them at whole first indices can give other
    last bits there."""
    means, dropped = batches
    total = 0.0 + 0.0j
    for chunk in subset_index_chunks(len(means), order):
        total += batch_tuple_traces(means[:, None, :, :], chunk).sum()
    return _finish(order, shots, total / math.comb(len(means), order), dropped)


class _RecordSums:
    """Streaming U-statistics of several orders over one retained record.

    ``sums`` maps each order m to the running sum of the kernel over all
    m-subsets of the shots of ``record``, a ``_CodeRecord``; a new shot
    adds the subsets it closes.  The shots the record holds at
    construction are a restored record's, whose subsets ``sums`` already
    hold; each ``(B, N)`` block of the record's rows that ``advance`` and
    ``trajectory`` take adds its :func:`group_codes` (``intp``, by column)
    in one write.  Only the rows below the engine's own shot count are read.

    The new shot is the last member of every subset it closes, so an
    order-m update slices its closing tables out of the :func:`group_tables`
    (built once per process: +746 KB at order 3, twice that for odd N) at
    its group codes and evaluates only the ``(m-1)``-subsets of the past:
    ``N / g`` gathers and multiplies per tuple, with ``g =
    group_width(m, N)`` qubits per gather (2 at m = 2 and 3, which share
    one set of group codes, 1 from m = 4), instead of ``m * N`` code
    gathers, ``N`` table gathers and ``N`` multiplies.  Orders past
    ``CHAIN_TABLE_MAX`` close each 2x2 factor chain with the new shot's
    factors instead.

    The shots that an order-2 update closes (a gather per code column) and
    the pairs that an order-3 update closes reach the kernel as one
    :class:`PairSum` each.  For pairs, each code column's closing columns
    (its table at the earlier shots' codes, 36 entries per shot) are
    gathered at the first shots' codes, a tile of first indices by a
    column block of later shots at a time, and one BLAS dot per tile sums
    the products, with no value array.  The work is per subset, and the
    state is still the O(T * N) codes.

    Every ``2**m`` times a chain trace has modulus at most
    ``CHAIN_NUMERATORS[m]`` (56 at m = 3), so while the partial products
    and sums of a fresh sum fit in 53 bits (``C(t, 2) * 56**N <= 2**53``
    for the pairs of ``t`` earlier shots: t up to 42 799 at N = 4, 764 at
    N = 6, 14 at N = 8) the sums equal the closed-tuple evaluation bit
    for bit.  They equal :func:`ustat_offline` bit for bit while every
    partial product and sum is exact: an order-m kernel value is a
    Gaussian integer times ``2**(-m*N)`` of modulus at most
    ``2**((m+1)*N)``, so a sum of ``C(T, m)`` of them is exact in any
    order while ``C(T, m) * 2**((2*m+1)*N) <= 2**53`` (at N = 4: T up to
    131 072 at m = 2, 587 at m = 3), and random signs keep real sums
    exact much longer.  Past either point they stay within the rounding
    bound of the :mod:`~shadowstream.kernel` docstring.
    """

    def __init__(self, record: _CodeRecord, sums: dict[int, complex]):
        n_qubits = record.n_qubits
        if n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {n_qubits}")
        self.sums = sums
        self._record = record
        self._widths = {m: group_width(m, n_qubits) for m in sums if m <= CHAIN_TABLE_MAX}
        self._tables = {m: group_tables(m, n_qubits, g) for m, g in self._widths.items()}
        self._columns = {  # column-major, so that each group's codes are contiguous
            g: np.empty((16, -(-n_qubits // g)), dtype=np.intp, order="F")
            for g in set(self._widths.values())
        }
        self._shots = 0
        self._scratch = Scratch()
        self._store(record[:])

    def advance(self, codes: np.ndarray) -> None:
        """Absorb the rows of ``(B, N)`` transposed codes."""
        self._close(self._store(codes))

    def trajectory(self, codes: np.ndarray, orders) -> tuple[np.ndarray, np.ndarray]:
        """Absorb the rows of ``(B, N)`` transposed codes; return the
        estimates of ``orders`` after each row as ``(values, defined)``,
        both ``(B, len(orders))``.  ``sums / C(t, m)`` is numpy's complex
        division, as the per-shot ``estimate`` of a ``complex128`` sum is,
        so every value equals it bit for bit."""
        start = self._store(codes)
        sums = self._close(start, orders)
        defined, combs = _defined_combs(np.arange(start + 1, self._shots + 1), orders)
        values = (sums / combs).real
        values[~defined] = np.nan
        return values, defined

    def _store(self, codes: np.ndarray) -> int:
        """Append the group codes of ``(B, N)`` transposed codes; return the
        index of the first new shot."""
        done, total = self._shots, self._shots + len(codes)
        for g, columns in self._columns.items():
            if total > len(columns):
                columns = self._columns[g] = _grown(columns, done, total)
            columns[done:total] = group_codes(codes, g)
        self._shots = total
        return done

    def _close(self, start: int, orders=()) -> np.ndarray:
        """Add the subsets closed by each stored shot from ``start`` on;
        return the running sums of ``orders`` after each of those shots,
        ``(shots, len(orders))``."""
        sums = np.empty((self._shots - start, len(orders)), dtype=np.complex128)
        for latest in range(start, self._shots):
            keys = {g: columns[latest].tolist() for g, columns in self._columns.items()}
            for m in self.sums:
                if latest >= m - 1:
                    tables = self._tables.get(m)  # slices at the shot's group codes
                    closing = tables and [t[w] for t, w in zip(tables, keys[self._widths[m]])]
                    self.sums[m] += self._fresh(m, latest, closing)
            sums[latest - start] = [self.sums[m] for m in orders]
        return sums

    def _fresh(self, m: int, latest: int, tables) -> complex:
        """The kernel summed over the m-subsets that shot ``latest`` closes;
        ``tables`` are its :func:`closing_tables` (``None`` past
        ``CHAIN_TABLE_MAX``, where its 2x2 factors close the chains)."""
        if m > CHAIN_TABLE_MAX:
            codes = self._record[: latest + 1]
            return _kernel_sum(codes[:latest], m - 1, closing=factors_from_codes(codes[latest]))
        codes = self._columns[self._widths[m]][:latest]
        return _kernel_sum(codes, m - 1, tables, scratch=self._scratch)

    def estimate(self, order: int) -> MomentEstimate:
        shots = self._shots
        if shots < order:
            return _undefined(order, shots)
        return _finish(order, shots, self.sums[order] / math.comb(shots, order))


def _row_codes(snapshot: Snapshot, n_qubits: int, mask: np.ndarray) -> np.ndarray:
    """A snapshot of ``n_qubits`` qubits as a one-row block of transposed codes."""
    if snapshot.n_qubits != n_qubits:
        raise ValueError(f"snapshot has {snapshot.n_qubits} qubits, expected {n_qubits}")
    return _masked_codes(snapshot.axes[None], snapshot.bits[None], mask)


class _CodeRecord:
    """A stream's shots, kept once as a growable ``(T, N)`` uint8 array of
    transposed codes (N bytes a shot) that every strategy reads views of.
    The streams of a run share one: each hands it the blocks from its own
    shot count on, of which it encodes only the rows it lacks, so it may
    run ahead of a stream that reads only the rows below its own count."""

    def __init__(self, part, n_qubits: int):
        self.part = _part_qubits(part, n_qubits)
        self.mask = _transpose_mask(self.part, n_qubits)
        self.n_qubits = n_qubits
        self.shots = 0
        self._rows = np.empty((16, n_qubits), dtype=np.uint8)

    def __getitem__(self, index) -> np.ndarray:
        """Rows of the held codes: ``record[:t]`` is the first ``t`` shots'."""
        return self._rows[: self.shots][index]

    def put(self, codes: np.ndarray, start: int) -> np.ndarray:
        """The rows of shots ``start`` on for their ``(B, N)`` codes, which
        are appended where not held yet; a gap raises ``ValueError``."""
        done, stop = self.shots, start + len(codes)
        if start > done:
            raise ValueError(f"shots from {start} on leave a gap after the record's {done}")
        if stop > done:
            if stop > len(self._rows):
                self._rows = _grown(self._rows, done, stop)
            self._rows[done:stop] = codes[done - start :]
            self.shots = stop
        return self._rows[start:stop]

    def encode(self, axes, bits, start: int) -> np.ndarray:
        """:meth:`put` for a block of axes and bits: only the rows not held
        yet are checked, by the rule of :class:`Snapshot`, and encoded."""
        held = min(self.shots - start, len(axes)) if self.shots > start else 0
        if held:  # rows that a stream ahead of this one has checked and encoded
            axes, bits = axes[held:], bits[held:]
        axes, bits = _coerce_block(axes, bits, self.n_qubits)
        if len(axes):
            self.put(snapshot_codes(axes, bits, self.part), start + held)
        return self._rows[start : start + held + len(axes)]


class OnlineRecordEstimator:
    """Streaming U-statistic that retains only the classical record.

    The per-shot update enumerates the C(T, m-1) fresh tuples ending at
    the new shot, so updates get quadratically slower (for m = 3) as the
    record grows, but no 2**N-dimensional object is ever formed; its
    ``_RecordSums`` engine sums them (pairs by BLAS dots) and says how
    exactly.  Memory is O(T * N): the shots are kept once, as the codes of
    the engine's ``_CodeRecord`` (about 5 bytes a qubit-shot with the group
    codes), beside the seed and descriptor of a resumed record, from which
    ``record`` rebuilds the :class:`ShadowRecord`.
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
        self._seed, self._descriptor = record.seed, record.descriptor
        self._record = _CodeRecord(part, n_qubits)
        if len(record):  # a resumed record's codes, encoded once
            self._record.put(snapshot_codes(record.axes, record.bits, self._record.part), 0)
        self._sums = _RecordSums(self._record, {order: complex(running_sum)})

    @property
    def order(self) -> int:
        return self._m

    @property
    def transposed_qubits(self) -> tuple[int, ...]:
        return self._record.part

    @property
    def shots(self) -> int:
        return self._record.shots

    @property
    def record(self) -> ShadowRecord:
        """The record fed or resumed, rebuilt from the codes: ``axes = codes
        >> 1`` and ``bits = (codes & 1) ^ (axes & mask)`` invert
        :func:`snapshot_codes` exactly, since its XOR touches only the low bit."""
        codes = self._record[:]
        axes = codes >> 1
        bits = (codes & 1) ^ (axes & self._record.mask)
        return ShadowRecord.from_arrays(axes, bits, self._seed, self._descriptor)

    @property
    def running_sum(self) -> complex:
        return self._sums.sums[self._m]

    def update(self, snapshot: Snapshot) -> None:
        codes = _row_codes(snapshot, self._n, self._record.mask)
        self._sums.advance(self._record.put(codes, self._record.shots))

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
        _check_finite("running sum", (re, im))
        record = ShadowRecord.from_bytes(_tail(blob, offset, size))
        if len(record) != shots:
            raise ValueError("checkpoint record length disagrees with header")
        return cls(order, part, n_qubits, record=record, running_sum=complex(re, im))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_pool(count: int):
    """A pool of ``count`` threads that its ``with`` block joins on exit, or
    a stand-in that starts none when ``count`` is 0."""
    if count < 1:
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=count)


class AccumulatorSet:
    """Streaming U-statistic via running sums of snapshot products.

    ``matrices[k]`` holds ``S_{k+1}``, the sum over ordered (k+1)-subsets
    ``i_1 < ... < i_{k+1}`` of the record of the matrix product of the
    corresponding transposed snapshots, for the orders below ``order``.
    The top order ``m`` is only ever read through its trace, so it is
    kept as one complex running trace ``top_trace``: a shot with
    transposed snapshot ``R`` adds ``tr(S_{m-1} R)`` to it (``tr(R)`` at
    order 1), with ``S_{m-1}`` from before the shot, and then updates the
    lower orders, ``S_{k+1} += S_k @ R`` from the top down and ``S_1 +=
    R``.  One update costs ``order - 1`` matrix additions, ``order - 2``
    multiplications and one trace of a product regardless of how many
    shots came before (orders 1 and 2 need no product at all), and every
    order up to ``order`` can be read off the same set; the snapshot
    itself is discarded after use.  Memory is ``16 * (order - 1) * 4**N
    + 16`` bytes, plus a kept scratch past ``FACTOR_QUBITS`` (1 MB at N =
    8, order 4) + one scratch per thread beyond the first.

    An update reads the shot's transposed codes (:func:`snapshot_codes`),
    so no matrix is ever transposed.  Past ``FACTOR_QUBITS`` qubits
    :func:`codes_matrix` builds the factor ``A`` of the first ``ceil(N /
    2)`` qubits and ``C`` of the rest, the snapshot being ``A ⊗ C`` (the
    dense cap, ``2 * FACTOR_QUBITS``, never needs a third), and no dense
    snapshot is built: the matrices are kept factor-major in tiles of
    ``R`` rows, ``P[t, k, i, r, l] = S_{k+1}[t * R + r, i * c + l]`` (``d
    = a * c = 2**N``; ``R`` the most rows, a power of two of at least
    ``c``, whose ``2 * max(order - 2, 1)`` scratch stacks fit
    ``_STACK_BYTES``: 64 at N = 8, order 4).  Per tile, while it sits in
    cache, all orders' products are one gemm ``P[t, :m-2].reshape(-1, c)
    @ C`` and one ``A.T @`` over the ``(a, R * c)`` view of each result,
    both into the scratch and then added, ``d**2 * (a + c)`` multiply-adds
    instead of ``d**3``; the top trace is a gemv against ``C.T`` and a dot
    with the tile's columns of ``A``, and ``S_1 += A ⊗ C`` their product.
    A row of ``S_{k+1} += S_k R`` reads only the same row of ``S_k``, so a
    tile takes a whole block of shots without reading another tile: every
    update goes tile-major (:meth:`_absorb_tiles`), the tiles split into
    contiguous bands over ``W`` threads, ``W`` the tiles or the usable CPUs
    (at most ``threads``), whichever are fewer.  Each thread makes the
    per-tile calls of one thread in its own scratch, and the top trace
    adds its per-tile terms in tile order, so no byte depends on ``W``.
    Up to ``FACTOR_QUBITS`` the same array (``a = 1``, one tile) is the
    plain dense one, multiplied by the dense snapshot.

    Every factor entry is 0, +-0.5, +-1.5, 2 or -1 times 1 or i, so every
    accumulator entry is a dyadic rational and no product or sum rounds
    while the numerators fit in 53 bits: the factored product equals the
    dense one bit for bit, zero signs included (a sum from +0 never sees
    them), and the running trace equals the trace of the dense top
    product.  Beyond that point they differ only at rounding level; the
    tiled ``tr(S_{m-1} R)`` reaches each of its terms, products of three
    entries, through ``c**2 + a * R / c + d / R`` additions, within the
    bound of the :mod:`~shadowstream.kernel` docstring (after 400 shots at
    order 5, N = 7 and 8, within 7e-16 relative of the dense products').
    """

    _state_kind = _KIND_ACCUMULATOR

    def __init__(
        self,
        order: int,
        part,
        n_qubits: int,
        matrices: np.ndarray | None = None,
        shots: int = 0,
        top_trace: complex = 0j,
        threads: int | None = None,
    ):
        _check_order(order)
        _check_qubit_count(n_qubits)
        if threads is not None and threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self._threads = threads
        self._m = order
        self._part = _part_qubits(part, n_qubits)
        self._mask = _transpose_mask(self._part, n_qubits)
        self._n = n_qubits
        dim = 2**n_qubits
        shape = (order - 1, dim, dim)
        # The qubits of A (none up to FACTOR_QUBITS), and the rows per tile.
        self._split = -(-n_qubits // 2) if n_qubits > FACTOR_QUBITS else 0
        left, right = 2**self._split, 2 ** (n_qubits - self._split)
        stacks = 2 * max(order - 2, 1) if self._split and order > 1 else 0
        rows = dim
        while rows > right and 16 * stacks * rows * dim > _STACK_BYTES:
            rows //= 2
        self._scratches = [np.empty(stacks * rows * dim, dtype=np.complex128)]  # one per thread
        self._tiles = np.zeros((dim // rows, order - 1, left, rows, right), dtype=np.complex128)
        if matrices is not None:
            matrices = np.asarray(matrices, dtype=np.complex128)
            if matrices.shape != shape:
                raise ValueError(f"expected accumulator shape {shape}, got {matrices.shape}")
            dense = matrices.reshape(order - 1, dim // rows, rows, left, right)
            self._tiles.transpose(1, 0, 3, 2, 4)[...] = dense
        g = np.arange(dim)
        where = (g // rows, np.arange(order - 1)[:, None], g // right, g % rows, g % right)
        self._diagonal = np.ravel_multi_index(where, self._tiles.shape)
        self._trace = complex(top_trace)
        self._shots = int(shots)

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
        """``S_1 ... S_{m-1}``, read-only, ``(order - 1, 2**N, 2**N)``."""
        view = self._dense()
        view.setflags(write=False)
        return view

    @property
    def top_trace(self) -> complex:
        """The running trace of ``S_m``, the top order's accumulator."""
        return complex(self._trace)

    def _dense(self) -> np.ndarray:
        """The matrices: a view of the one tile up to ``FACTOR_QUBITS``, else a copy."""
        dim = 2**self._n
        return self._tiles.transpose(1, 0, 3, 2, 4).reshape(self._m - 1, dim, dim)

    def update(self, snapshot: Snapshot) -> None:
        self.advance(_row_codes(snapshot, self._n, self._mask))

    def advance(self, codes: np.ndarray) -> None:
        """Absorb the rows of ``(B, N)`` transposed codes, with no traces:
        tile-major past ``FACTOR_QUBITS``, else by the dense per-shot update."""
        if self._split:
            self._absorb_tiles(codes)
        else:
            for row in codes.tolist():
                self._absorb(row)
        self._shots += len(codes)

    def _absorb(self, codes) -> None:
        """One shot's dense update from its transposed codes, up to ``FACTOR_QUBITS``."""
        m, right, mats = self._m, codes_matrix(codes), self._dense()
        # A row's einsum value is that of the same row in a stacked block.
        top = np.einsum("tij,tji->t", mats[-1:], right[None])[0] if m > 1 else np.trace(right)
        self._trace += top
        for k in range(m - 2, 0, -1):
            mats[k] += mats[k - 1] @ right
        if m > 1:
            mats[0] += right

    def _workers(self) -> int:
        """The threads that one tiled update runs on (see the class docstring)."""
        return min(len(self._tiles), self._threads or _usable_cpus())

    def _absorb_tiles(self, codes: np.ndarray, traces: np.ndarray | None = None) -> None:
        """Absorb the rows of ``(B, N)`` transposed codes past ``FACTOR_QUBITS``
        tile by tile; with ``traces``, write each order's trace after each row.

        For each chunk of rows, sized so that its factor, partial and
        diagonal buffers fit a quarter of ``_STACK_BYTES``, the calling thread
        builds every shot's ``A`` and ``C`` once.  It and ``W - 1`` pool
        threads then take one contiguous band of tiles each
        (:meth:`_absorb_band`), and the caller finishes what the per-shot
        loop of one thread did: each shot's top-trace partials added in tile
        order from ``0j``, that sum added to the running trace, and each
        ``tr(S_k)`` the ``.sum`` of its gathered diagonal.  No pool thread
        outlives the call, and an exception in one reaches the caller.
        """
        m, split = self._m, self._split
        if m == 1:  # no matrices: each shot adds tr(A) tr(C)
            for i, row in enumerate(codes.tolist()):
                left, right = codes_matrix(row[:split]), codes_matrix(row[split:])
                self._trace += np.trace(left) * np.trace(right)
                if traces is not None:
                    traces[i, 0] = self._trace
            return
        tiles, (a, rows, c) = len(self._tiles), self._tiles.shape[2:]
        workers = self._workers()
        while len(self._scratches) < workers:
            self._scratches.append(np.empty_like(self._scratches[0]))
        bands = np.array_split(np.arange(tiles), workers)
        # A quarter of _STACK_BYTES: with 1 MB chunk buffers a second thread
        # raised the peak RSS of 8-qubit order-4 campaigns by 1.4 MB, with a
        # quarter by none (2 vCPUs).
        row_bytes = 16 * (a * a + c * c + tiles + 1 + (m - 1) * a * c)
        step = max(1, _STACK_BYTES // 4 // row_bytes)
        with _thread_pool(workers - 1) as pool:
            for lo in range(0, len(codes), step):
                chunk = codes[lo : lo + step]
                left, right = codes_matrix(chunk[:, :split]), codes_matrix(chunk[:, split:])
                partials = np.zeros((len(chunk), tiles + 1), dtype=np.complex128)
                diagonals = None
                if traces is not None:
                    diagonals = np.empty((len(chunk), m - 1, a * c), dtype=np.complex128)
                shared = (left, right, partials, diagonals)
                jobs = [
                    pool.submit(self._absorb_band, band, scratch, *shared)
                    for band, scratch in zip(bands[1:], self._scratches[1:])
                ]
                self._absorb_band(bands[0], self._scratches[0], *shared)
                for job in jobs:
                    job.result()
                # Column 0 is the 0j each shot's partials are added to in tile
                # order; the sums then go to the running trace one by one.
                increments = np.cumsum(partials, axis=1)[:, -1]
                increments[0] += self._trace
                running = np.cumsum(increments)
                self._trace = complex(running[-1])
                if traces is not None:
                    traces[lo : lo + step, -1] = running
                    traces[lo : lo + step, :-1] = diagonals.sum(axis=2)

    def _absorb_band(self, band, scratch, left, right, partials, diagonals) -> None:
        """Absorb every shot of a chunk, factors ``left`` and ``right``, into
        the tiles of ``band`` in ``scratch``, one tile at a time so that it
        stays in cache.  Writes shot ``s``'s top-trace partial of tile ``t``,
        ``tr`` of the tile's rows of ``S_{m-1} R``, to ``partials[s, t + 1]``
        and, with ``diagonals``, the tile's diagonal entries after the shot
        to ``diagonals[s]``.  A tile reads no other, so its calls and their
        values are those of the shot-by-shot loop.  It calls no traced
        function, so a pool thread may run it."""
        m, (a, rows, c) = self._m, self._tiles.shape[2:]
        per, size = rows // c, a * rows * c  # columns of A per tile, entries per stack
        products = scratch[: (m - 2) * size].reshape(-1, c)
        mixed = scratch[(m - 2) * size : 2 * (m - 2) * size].reshape(m - 2, a, rows * c)
        # Broadcasting ufuncs allocate buffers; copies into the scratch do not.
        fresh, spread = (scratch[j * size : (j + 1) * size].reshape(a, per, c, c) for j in (0, 1))
        flats = right.transpose(0, 2, 1).reshape(len(right), c * c)
        for t in band.tolist():
            tile, cols = self._tiles[t], slice(t * per, (t + 1) * per)
            span = slice(t * rows, (t + 1) * rows)
            top = tile[-1].reshape(-1, c * c)
            for s, (factor, closing) in enumerate(zip(left, right)):
                partials[s, t + 1] = (top @ flats[s]) @ factor[:, cols].ravel()
                if m > 2:
                    np.matmul(tile[:-1].reshape(-1, c), closing, out=products)
                    np.matmul(factor.T, products.reshape(m - 2, a, rows * c), out=mixed)
                    tile[1:] += mixed.reshape(m - 2, a, rows, c)
                np.copyto(fresh, closing)
                np.copyto(spread, factor.T[:, cols, None, None])
                fresh *= spread
                tile[0] += fresh.reshape(a, rows, c)
                if diagonals is not None:
                    diagonals[s, :, span] = self._tiles.take(self._diagonal[:, span])

    def trajectory(self, codes: np.ndarray, orders) -> tuple[np.ndarray, np.ndarray]:
        """Absorb the rows of ``(B, N)`` transposed codes; return the
        estimates of ``orders`` after each row as ``(values, defined)``,
        both ``(B, len(orders))``.

        Up to ``FACTOR_QUBITS`` qubits the block is absorbed as stacked
        products: with ``R_t`` the transposed snapshots, ``S_k`` after row
        ``t`` is ``S_k`` before the block plus the prefix sum of ``S_{k-1,
        t-1} @ R_t``, one batched product and one ``cumsum`` per order
        below the top, in row chunks whose three live stacks stay within
        ``_STACK_BYTES``.  The top order takes one batched ``einsum`` of
        the ``S_{m-1}`` trajectory against the snapshots, added to the
        running trace one row at a time.  Beyond ``FACTOR_QUBITS`` the block
        goes tile-major (:meth:`_absorb_tiles`), each shot's diagonals
        gathered tile by tile.  Either way every value equals the per-shot
        ``update``/``estimate`` pair bit for bit: the top order's increments
        come from the same routine and are added in the same order, all
        entries are dyadic, so no matrix sum rounds while the numerators fit
        in 53 bits, and ``tr / comb(t, k)`` in float64 is the real part of
        Python's ``complex / int``.
        """
        rows = len(codes)
        traces = np.empty((rows, self._m), dtype=np.complex128)
        if self._split:
            self._absorb_tiles(codes, traces)
        else:
            step = max(1, _STACK_BYTES // (3 * 16 * 4**self._n))
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
        snaps = codes_matrix(codes)
        mats = self._dense()
        lower = None
        for k in range(self._m - 1):
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
        if lower is None:
            increments = np.trace(snaps, axis1=1, axis2=2)
        else:
            increments = np.empty(len(snaps), dtype=np.complex128)
            increments[:1] = np.einsum("tij,tji->t", mats[-1:], snaps[:1])
            increments[1:] = np.einsum("tij,tji->t", lower[:-1], snaps[1:])
            mats[-1] = lower[-1]
        # Sequential adds from the stored trace, as the per-shot update makes.
        increments[0] += self._trace
        np.cumsum(increments, out=traces[:, -1])
        self._trace = complex(traces[-1, -1])

    def estimate(self, order: int | None = None) -> MomentEstimate:
        k = self._m if order is None else order
        if not 1 <= k <= self._m:
            raise UnsupportedOrderError(
                f"this accumulator set covers orders 1..{self._m}, got {k}"
            )
        if self._shots < k:
            return _undefined(k, self._shots)
        # np.trace of S_k, as the gather of its diagonal sums it.
        total = self._trace if k == self._m else self._tiles.take(self._diagonal[k - 1]).sum()
        return _finish(k, self._shots, complex(total) / math.comb(self._shots, k))

    def _state_body(self) -> bytes:
        """The checkpoint payload: the matrices, row-major, then the top
        order's running trace."""
        return self._dense().tobytes() + struct.pack("<dd", self._trace.real, self._trace.imag)

    @classmethod
    def _from_state(cls, blob: bytes, offset: int, order, part, n_qubits, shots):
        """The accumulators whose payload runs from ``offset`` to the end of ``blob``."""
        dim = 2**n_qubits
        size = 16 * (order - 1) * dim * dim
        body = _tail(blob, offset, size + 16)
        mats = np.frombuffer(body[:size], dtype=np.complex128).reshape(order - 1, dim, dim)
        re, im = struct.unpack_from("<dd", body, size)
        _check_finite("accumulator matrices", mats)
        _check_finite("top-order trace", (re, im))
        return cls(order, part, n_qubits, mats, shots, complex(re, im))

    @classmethod
    def _from_dense_state(cls, blob: bytes, offset: int, order, part, n_qubits, shots):
        """The accumulators of a kind-2 payload, all ``order`` matrices: the
        top one is read as its trace, which is all an estimate reads of it."""
        dim = 2**n_qubits
        body = _tail(blob, offset, 16 * order * dim * dim)
        mats = np.frombuffer(body, dtype=np.complex128).reshape(order, dim, dim)
        _check_finite("accumulator matrices", mats)
        return cls(order, part, n_qubits, mats[:-1], shots, complex(np.trace(mats[-1])))


class _RowwiseTrajectory:
    """The ``trajectory`` of an engine whose estimates are not running sums:
    advance by one row, then read ``estimate`` of each order."""

    def trajectory(self, codes: np.ndarray, orders) -> tuple[np.ndarray, np.ndarray]:
        values = np.empty((len(codes), len(orders)))
        defined = np.empty(values.shape, dtype=bool)
        for i in range(len(codes)):
            self.advance(codes[i : i + 1])
            for col, m in enumerate(orders):
                est = self.estimate(m)
                values[i, col], defined[i, col] = est.value, est.well_defined
        return values, defined


class _PluginSum(_RowwiseTrajectory):
    """Running sum of transposed dense snapshots, each built from its
    transposed codes; the order-m plug-in estimate is the trace of the
    m-th power of their mean, which is built once per shot count and
    shared by every order."""

    def __init__(self, n_qubits: int):
        _check_qubit_count(n_qubits)
        self._sum = np.zeros((2**n_qubits,) * 2, dtype=np.complex128)
        self._shots = 0
        self._mean = None

    def advance(self, codes: np.ndarray) -> None:
        for row in codes.tolist():
            self._sum += codes_matrix(row)
        self._shots += len(codes)
        self._mean = None

    def estimate(self, order: int) -> MomentEstimate:
        if self._shots < 1:
            return _undefined(order, self._shots)
        if self._mean is None:
            self._mean = self._sum / self._shots
        power = np.linalg.matrix_power(self._mean, order)
        return _finish(order, self._shots, complex(np.trace(power)))


class _RetainedRecord(_RowwiseTrajectory):
    """The ``batched`` strategy: evaluates :func:`batched_estimate` on
    request over the first shots of ``record``, as many as it has absorbed,
    from batch means built once per shot count and shared by every order;
    orders it cannot form yet are undefined."""

    def __init__(self, record: _CodeRecord, n_batches: int):
        _check_qubit_count(record.n_qubits)
        self._record = record
        self._n_batches = n_batches
        self._shots = 0
        self._batches = None

    def advance(self, codes: np.ndarray) -> None:
        self._shots += len(codes)
        self._batches = None

    def estimate(self, order: int) -> MomentEstimate:
        shots = self._shots
        if order > self._n_batches or shots < self._n_batches:
            return _undefined(order, shots)
        if self._batches is None:
            self._batches = _batch_means(self._record[: self._shots], self._n_batches)
        return _batched_moment(self._batches, order, shots)


def _record_sums(orders, record, *_) -> _RecordSums:
    return _RecordSums(record, {m: 0j for m in orders if m >= 2})


# Strategy name -> (factory(orders, record, n_batches, threads), streaming),
# the only place strategy names live.  ``orders`` is sorted and ``record`` the
# stream's ``_CodeRecord``; ``streaming`` strategies are cheap to read per shot.
_STRATEGIES = {
    "ustat": (_record_sums, False),
    "plugin": (lambda orders, record, *_: _PluginSum(record.n_qubits), True),
    "batched": (lambda orders, record, n_batches, _: _RetainedRecord(record, n_batches), False),
    "online-norecon": (_record_sums, True),
    "online-recon": (lambda orders, record, _, threads: AccumulatorSet(
        orders[-1], record.part, record.n_qubits, threads=threads), True),
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
    whenever estimates are requested).  ``threads`` caps the threads of an
    :class:`AccumulatorSet` update (default: the usable CPUs); it changes
    no byte.  ``record``, a ``_CodeRecord`` over the same part and qubits
    that holds no shot yet, is one that the streams of a run share.
    """

    def __init__(
        self,
        strategy: str,
        orders,
        part,
        n_qubits: int,
        n_batches: int | None = None,
        threads: int | None = None,
        record: _CodeRecord | None = None,
    ):
        orders = tuple(sorted(set(int(m) for m in orders)))
        if not orders or orders[0] < 1:
            raise ValueError(f"orders must be a nonempty set of integers >= 1, got {orders}")
        check_strategy(strategy, orders, n_batches)
        self.strategy = strategy
        self.orders = orders
        self._shots = 0
        self._record = record = _CodeRecord(part, n_qubits) if record is None else record
        self._estimator = _STRATEGIES[strategy][0](orders, record, n_batches, threads)

    @property
    def streaming(self) -> bool:
        """Whether estimates are cheap to refresh after every shot."""
        return _STRATEGIES[self.strategy][1]

    @property
    def shots(self) -> int:
        return self._shots

    def update(self, snapshot: Snapshot) -> None:
        """:meth:`advance` by one shot of the stream's qubit count."""
        record = self._record
        codes = _row_codes(snapshot, record.n_qubits, record.mask)
        self._estimator.advance(record.put(codes, self._shots))
        self._shots += 1

    def advance(self, axes: np.ndarray, bits: np.ndarray) -> None:
        """:meth:`update` by each row of ``(B, N)`` axes and bits, checked
        and encoded once (see :meth:`trajectory`)."""
        codes = self._record.encode(axes, bits, self._shots)
        self._estimator.advance(codes)
        self._shots += len(codes)

    def trajectory(self, axes: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Update by each row of ``(B, N)`` axes and bits and return every
        order's estimate after each row: ``(values, defined)``, both of
        shape ``(B, len(orders))``, values NaN where undefined.

        The block is checked once, by the rule of :class:`Snapshot`: matching
        2-D shapes with the stream's qubit count, axes below 3 and bits
        below 2, else ``ValueError``.  It is encoded once into the stream's
        record, where a shared record holds rows already.
        """
        codes = self._record.encode(axes, bits, self._shots)
        values, defined = self._estimator.trajectory(codes, [m for m in self.orders if m > 1])
        self._shots += len(codes)
        if self.orders[0] == 1:  # pinned to 1 from the first shot on
            values = np.hstack([np.ones((len(codes), 1)), values])
            defined = np.hstack([np.ones((len(codes), 1), dtype=bool), defined])
        return values, defined

    def estimates(self) -> dict[int, MomentEstimate]:
        """Current per-order estimates (undefined entries carry NaN values)."""
        one = MomentEstimate(1, self._shots, 1.0, True) if self._shots else _undefined(1, 0)
        return {m: self._estimator.estimate(m) if m > 1 else one for m in self.orders}


# -- checkpointing -------------------------------------------------------

_STATE_MAGIC = b"SSES"
_STATE_VERSION = 1
_STATE_HEADER = struct.Struct("<4sHBHHQ")

# Checkpoint kind -> the loader of the payload after the common header and
# part list.  A class packs its own kind (``_state_kind``, ``_state_body``).
_CHECKPOINTS = {
    _KIND_RECORD: OnlineRecordEstimator._from_state,
    _KIND_DENSE_ACCUMULATOR: AccumulatorSet._from_dense_state,
    _KIND_ACCUMULATOR: AccumulatorSet._from_state,
}


def _pack_state(est) -> bytes:
    kind = getattr(est, "_state_kind", None)
    if kind is None:
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


def _check_finite(field: str, values) -> None:
    """Raise ``ValueError`` unless a checkpoint ``field``'s numbers are all finite."""
    if not np.isfinite(values).all():
        raise ValueError(f"checkpoint field {field!r} holds a NaN or infinity")


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
    increasing, truncated or with trailing bytes) or that holds a NaN or
    infinity (the error names the field) raises :class:`ValueError`;
    whatever loads packs back to the same bytes, except a kind-2
    accumulator checkpoint (all ``order`` matrices, the layout before the
    top order became a running trace), which packs as kind 3.
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
    load = _CHECKPOINTS.get(kind)
    if load is None:
        raise ValueError(f"unknown checkpoint kind {kind}")
    return load(blob, offset, order, part, n_qubits, shots)
