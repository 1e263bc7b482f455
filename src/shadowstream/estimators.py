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
    index.  After every shot it equals the offline U-statistic.
``AccumulatorSet``
    Streaming U-statistic in dense form: m running 2**N x 2**N matrices
    (16 * m * 4**N bytes) whose k-th member is the sum over ordered
    (k+1)-subsets of products of transposed snapshots.  Updates cost the
    same at every T, multiplying by the snapshot's Kronecker factors,
    and give the same value as the offline U-statistic at every order
    up to m.

:class:`MomentStream` puts one strategy behind a shot-by-shot interface.
A strategy is an object with a ``streaming`` flag, ``update(snapshot)``
and ``estimate(order)``, built by the factory that ``_STRATEGIES`` maps
its name to: ``online-recon`` is an :class:`AccumulatorSet`;
``online-norecon`` a ``_RecordSums`` (one shared record, one running sum
per order; the engine of :class:`OnlineRecordEstimator`); ``plugin`` a
``_PluginSum`` (the engine of :func:`plugin_estimate`); ``ustat`` and
``batched`` a ``_RetainedRecord`` that reruns the offline function.
"""

from __future__ import annotations

import functools
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, UnsupportedOrderError
from .kernel import (
    CHAIN_TABLE_MAX,
    _pt_codes,
    _transpose_mask,
    batch_code_traces,
    batch_tuple_traces,
    chain_trace_table,
    factors_from_codes,
    pt_flip,  # unused here, but perfbench/layers.py wraps estimators.pt_flip
    snapshot_codes,
    subset_index_chunks,
)
from .sampler import ShadowRecord, Snapshot, _kron, codes_matrix, snapshot_matrix
from .states import MAX_DENSE_QUBITS, _part_qubits, partial_transpose
from .errors import CapacityError

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


def _chunk_evaluator(codes: np.ndarray, order: int):
    """Kernel evaluation over one record's snapshot codes.

    Returns a callable mapping ``(K, order)`` index arrays to kernel
    values: chain-trace table lookups up to ``CHAIN_TABLE_MAX``, the
    explicit 2x2 factor chain beyond that.  Both give identical bits.
    """
    if order <= CHAIN_TABLE_MAX:
        table = chain_trace_table(order)

        def evaluate(indices: np.ndarray) -> np.ndarray:
            return batch_code_traces(codes, indices, table)

    else:
        factors = factors_from_codes(codes)

        def evaluate(indices: np.ndarray) -> np.ndarray:
            return batch_tuple_traces(factors, indices)

    return evaluate


def ustat_offline(record: ShadowRecord, order: int, part) -> MomentEstimate:
    """The order-m U-statistic over the full record.

    Averages the trace kernel over every index subset ``t_1 < ... < t_m``
    of the record, so the result is an unbiased estimate of the m-th
    moment.  Needs at least ``order`` shots.
    """
    _check_order(order)
    shots = len(record)
    if shots < order:
        raise InsufficientDataError(
            f"the order-{order} U-statistic needs at least {order} shots, have {shots}"
        )
    evaluate = _chunk_evaluator(snapshot_codes(record.axes, record.bits, part), order)
    total = 0.0 + 0.0j
    for chunk in subset_index_chunks(shots, order):
        total += evaluate(chunk).sum()
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
    for snap in record:
        plugin.update(snap)
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
    for t in range(batch * n_batches):
        means[t // batch] += snapshot_matrix(record[t])
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
    m-subsets of the record; a new shot adds the subsets it closes.  An
    update encodes only the shots appended since the previous one (the
    whole record after a restore), so every shot is encoded once.
    """

    streaming = True

    def __init__(self, part: tuple[int, ...], record: ShadowRecord, sums: dict[int, complex]):
        self.record = record
        self.sums = sums
        self._part = part
        self._codes = np.empty((0, record.n_qubits), dtype=np.uint8)
        self._encoded = 0

    def update(self, snapshot: Snapshot) -> None:
        record, done = self.record, self._encoded
        record.append(snapshot)
        total = len(record)
        if total > self._codes.shape[0]:
            grown = np.empty((max(16, 2 * total), record.n_qubits), dtype=np.uint8)
            grown[:done] = self._codes[:done]
            self._codes = grown
        self._codes[done:total] = snapshot_codes(
            record.axes[done:], record.bits[done:], self._part
        )
        self._encoded = total
        codes, latest = self._codes[:total], total - 1
        for m in self.sums:
            if total < m:
                continue
            evaluate = _chunk_evaluator(codes, m)
            fresh = 0.0 + 0.0j
            for chunk in subset_index_chunks(latest, m - 1):
                closed = np.concatenate(
                    [chunk, np.full((chunk.shape[0], 1), latest, dtype=np.int64)], axis=1
                )
                fresh += evaluate(closed).sum()
            self.sums[m] += fresh

    def estimate(self, order: int) -> MomentEstimate:
        shots = len(self.record)
        if shots < order:
            return _undefined(order, shots)
        return _finish(order, shots, self.sums[order] / math.comb(shots, order))


class OnlineRecordEstimator:
    """Streaming U-statistic that retains only the classical record.

    Memory is O(T * N) bytes and the per-shot update enumerates the
    C(T, m-1) fresh tuples ending at the new shot, so updates get
    quadratically slower (for m = 3) as the record grows, but no
    2**N-dimensional object is ever formed.
    """

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
        self._sums.update(snapshot)

    def estimate(self) -> MomentEstimate:
        return self._sums.estimate(self._m)


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

    def __init__(
        self,
        order: int,
        part,
        n_qubits: int,
        matrices: np.ndarray | None = None,
        shots: int = 0,
    ):
        _check_order(order)
        if n_qubits > MAX_DENSE_QUBITS:
            raise CapacityError(
                f"accumulators are dense; at most {MAX_DENSE_QUBITS} qubits supported"
            )
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
        codes = _pt_codes(snapshot.axes, snapshot.bits, self._mask)
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


class _PluginSum:
    """Running sum of dense snapshots; the order-m plug-in estimate is the
    trace of the m-th power of the partially transposed mean."""

    streaming = True

    def __init__(self, part, n_qubits: int):
        self._part = part
        self._sum = np.zeros((2**n_qubits,) * 2, dtype=np.complex128)
        self._shots = 0

    def update(self, snapshot: Snapshot) -> None:
        self._sum += snapshot_matrix(snapshot)
        self._shots += 1

    def estimate(self, order: int) -> MomentEstimate:
        if self._shots < 1:
            return _undefined(order, self._shots)
        transposed = partial_transpose(self._sum / self._shots, self._part)
        power = np.linalg.matrix_power(transposed, order)
        return _finish(order, self._shots, complex(np.trace(power)))


class _RetainedRecord:
    """Keeps every shot (``update`` is the record's ``append``) and re-reads
    the record with an offline estimator ``offline(record, order)`` on
    request; orders it cannot form yet are undefined."""

    streaming = False

    def __init__(self, offline, n_qubits: int):
        self._offline = offline
        self._record = ShadowRecord(n_qubits)
        self.update = self._record.append

    def estimate(self, order: int) -> MomentEstimate:
        try:
            return self._offline(self._record, order)
        except InsufficientDataError:
            return _undefined(order, len(self._record))


def _batched_strategy(orders, part, n_qubits, n_batches):
    offline = functools.partial(batched_estimate, part=part, n_batches=n_batches)
    return _RetainedRecord(offline, n_qubits)


# Strategy name -> factory(orders, part, n_qubits, n_batches); ``orders``
# is sorted and ``part`` normalised.  The only place strategy names live.
_STRATEGIES = {
    "ustat": lambda orders, part, n_qubits, n_batches: _RetainedRecord(
        functools.partial(ustat_offline, part=part), n_qubits
    ),
    "plugin": lambda orders, part, n_qubits, n_batches: _PluginSum(part, n_qubits),
    "batched": _batched_strategy,
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
    after every shot, while ``ustat`` and ``batched`` recompute from the
    retained record whenever estimates are requested, which is far more
    expensive and intended for checkpoint-paced use.
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
        self._estimator.update(snapshot)
        self._shots += 1

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
_KIND_RECORD, _KIND_ACCUMULATOR = 1, 2


def _pack_state(est) -> bytes:
    if isinstance(est, OnlineRecordEstimator):
        record = est.record.to_bytes()
        total = est.running_sum
        kind = _KIND_RECORD
        body = struct.pack("<ddQ", total.real, total.imag, len(record)) + record
    elif isinstance(est, AccumulatorSet):
        kind, body = _KIND_ACCUMULATOR, est.matrices.tobytes()
    else:
        raise TypeError(f"cannot checkpoint {type(est).__name__}")
    part = est.transposed_qubits
    head = _STATE_HEADER.pack(_STATE_MAGIC, _STATE_VERSION, kind, est.order, est._n, est.shots)
    return head + struct.pack(f"<H{len(part)}H", len(part), *part) + body


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
    if kind == _KIND_RECORD:
        (re, im, size), offset = _unpack("<ddQ", blob, offset)
        record = ShadowRecord.from_bytes(_tail(blob, offset, size))
        if len(record) != shots:
            raise ValueError("checkpoint record length disagrees with header")
        return OnlineRecordEstimator(
            order, part, n_qubits, record=record, running_sum=complex(re, im)
        )
    if kind == _KIND_ACCUMULATOR:
        dim = 2**n_qubits
        body = _tail(blob, offset, 16 * order * dim * dim)
        mats = np.frombuffer(body, dtype=np.complex128).reshape(order, dim, dim)
        return AccumulatorSet(order, part, n_qubits, matrices=mats, shots=shots)
    raise ValueError(f"unknown checkpoint kind {kind}")
