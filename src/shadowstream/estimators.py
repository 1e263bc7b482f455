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
    Streaming U-statistic in dense form: m running matrices whose k-th
    member is the sum over ordered (k+1)-subsets of products of
    transposed snapshots.  Constant-time updates, 2**N memory, and the
    same value as the offline U-statistic at every order up to m.

A :class:`MomentStream` bundles one strategy with a set of orders so a
runner can push shots and pull per-order estimates uniformly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, UnsupportedOrderError
from .kernel import (
    CHAIN_TABLE_MAX,
    _pt_codes,
    _qubit_mask,
    batch_code_traces,
    batch_tuple_traces,
    chain_trace_table,
    factors_from_codes,
    pt_flip,  # unused here, but perfbench/layers.py wraps estimators.pt_flip
    snapshot_codes,
    subset_index_chunks,
)
from .sampler import ShadowRecord, Snapshot, codes_matrix, snapshot_matrix
from .states import MAX_DENSE_QUBITS, Bipartition, partial_transpose
from .errors import CapacityError

__all__ = [
    "MomentEstimate",
    "ustat_offline",
    "plugin_estimate",
    "batched_estimate",
    "OnlineRecordEstimator",
    "AccumulatorSet",
    "MomentStream",
    "save_estimator_state",
    "load_estimator_state",
]


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


def _normalize_part(part, n_qubits: int) -> tuple[int, ...]:
    if isinstance(part, Bipartition):
        if part.n_qubits != n_qubits:
            raise ValueError(
                f"bipartition is over {part.n_qubits} qubits, estimator over {n_qubits}"
            )
        return part.transposed
    qubits = tuple(sorted(set(int(q) for q in part)))
    if any(q < 0 or q >= n_qubits for q in qubits):
        raise ValueError(f"qubit indices {qubits} out of range for {n_qubits} qubits")
    return qubits


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
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
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
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
    shots = len(record)
    if shots < 1:
        raise InsufficientDataError("the plug-in estimate needs at least one shot")
    if order == 1:
        return MomentEstimate(1, shots, 1.0, True)
    mean = np.zeros((2**record.n_qubits,) * 2, dtype=np.complex128)
    for snap in record:
        mean += snapshot_matrix(snap)
    mean /= shots
    transposed = partial_transpose(mean, _normalize_part(part, record.n_qubits))
    value = complex(np.trace(np.linalg.matrix_power(transposed, order)))
    return _finish(order, shots, value)


def batched_estimate(record: ShadowRecord, order: int, part, n_batches: int) -> MomentEstimate:
    """U-statistic over contiguous-batch average snapshots.

    The record is split into ``n_batches`` equal contiguous batches
    (any remainder at the end is dropped and reported); the kernel is
    then averaged over all batch m-subsets.  Unbiased, with the same
    dense footprint as the plug-in and at least ``order`` batches
    required.
    """
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
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
    qubits = _normalize_part(part, record.n_qubits)
    means = np.zeros((n_batches, dim, dim), dtype=np.complex128)
    for t in range(batch * n_batches):
        means[t // batch] += snapshot_matrix(record[t])
    means /= batch
    for b in range(n_batches):
        means[b] = partial_transpose(means[b], qubits)
    total = 0.0 + 0.0j
    for chunk in subset_index_chunks(n_batches, order):
        total += batch_tuple_traces(means[:, None, :, :], chunk).sum()
    return _finish(order, shots, total / math.comb(n_batches, order), dropped)


class _RecordCodes:
    """Transposed codes of a growing record, encoded as shots arrive.

    :meth:`sync` encodes only the shots appended to the record since the
    previous call (the whole record on the first call, e.g. one restored
    from a checkpoint) and returns the codes of every shot so far.
    """

    def __init__(self, record: ShadowRecord, part: tuple[int, ...]):
        self._record = record
        self._part = part
        self._codes = np.empty((0, record.n_qubits), dtype=np.uint8)
        self._len = 0

    def sync(self) -> np.ndarray:
        total = len(self._record)
        if total > self._len:
            fresh = snapshot_codes(
                self._record.axes[self._len :], self._record.bits[self._len :], self._part
            )
            if total > self._codes.shape[0]:
                grown = np.empty((max(16, 2 * total), self._codes.shape[1]), dtype=np.uint8)
                grown[: self._len] = self._codes[: self._len]
                self._codes = grown
            self._codes[self._len : total] = fresh
            self._len = total
        return self._codes[:total]


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
        if order < 1:
            raise ValueError(f"moment order must be >= 1, got {order}")
        self._m = order
        self._part = _normalize_part(part, n_qubits)
        self._n = n_qubits
        if record is None:
            record = ShadowRecord(n_qubits)
        elif record.n_qubits != n_qubits:
            raise ValueError("resume record has the wrong qubit count")
        self._record = record
        self._codes = _RecordCodes(record, self._part)
        self._sum = complex(running_sum)

    @property
    def order(self) -> int:
        return self._m

    @property
    def transposed_qubits(self) -> tuple[int, ...]:
        return self._part

    @property
    def shots(self) -> int:
        return len(self._record)

    @property
    def record(self) -> ShadowRecord:
        return self._record

    @property
    def running_sum(self) -> complex:
        return self._sum

    def update(self, snapshot: Snapshot) -> None:
        self._record.append(snapshot)
        self._absorb_latest(self._codes.sync())

    def _absorb_latest(self, codes: np.ndarray) -> None:
        """Add the fresh tuple sum for the newest shot; codes cover the
        whole record including that shot."""
        latest = codes.shape[0] - 1
        if latest + 1 < self._m:
            return
        evaluate = _chunk_evaluator(codes, self._m)
        fresh = 0.0 + 0.0j
        for chunk in subset_index_chunks(latest, self._m - 1):
            closed = np.concatenate(
                [chunk, np.full((chunk.shape[0], 1), latest, dtype=np.int64)], axis=1
            )
            fresh += evaluate(closed).sum()
        self._sum += fresh

    def estimate(self) -> MomentEstimate:
        shots = len(self._record)
        if shots < self._m:
            return _undefined(self._m, shots)
        return _finish(self._m, shots, self._sum / math.comb(shots, self._m))


class AccumulatorSet:
    """Streaming U-statistic via running sums of snapshot products.

    ``matrices[k]`` holds the sum over ordered (k+1)-subsets
    ``i_1 < ... < i_{k+1}`` of the record of the matrix product of the
    corresponding transposed snapshots.  One update costs ``order``
    matrix additions and ``order - 1`` multiplications regardless of how
    many shots came before, and every order up to ``order`` can be read
    off the same set; the snapshot itself is discarded after use.

    An update transposes the snapshot on its codes (a Y-basis bit flips
    on each transposed qubit, as in :func:`snapshot_codes`) and builds
    the dense matrix with :func:`codes_matrix`; no transposed
    :class:`Snapshot` is created.
    """

    def __init__(
        self,
        order: int,
        part,
        n_qubits: int,
        matrices: np.ndarray | None = None,
        shots: int = 0,
    ):
        if order < 1:
            raise ValueError(f"moment order must be >= 1, got {order}")
        if n_qubits > MAX_DENSE_QUBITS:
            raise CapacityError(
                f"accumulators are dense; at most {MAX_DENSE_QUBITS} qubits supported"
            )
        self._m = order
        self._part = _normalize_part(part, n_qubits)
        self._mask = _qubit_mask(self._part, n_qubits)
        self._n = n_qubits
        dim = 2**n_qubits
        if matrices is None:
            matrices = np.zeros((order, dim, dim), dtype=np.complex128)
        else:
            matrices = np.array(matrices, dtype=np.complex128)
            if matrices.shape != (order, dim, dim):
                raise ValueError(
                    f"expected accumulator shape {(order, dim, dim)}, got {matrices.shape}"
                )
        self._matrices = matrices
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
        view = self._matrices.view()
        view.setflags(write=False)
        return view

    def update(self, snapshot: Snapshot) -> None:
        if snapshot.n_qubits != self._n:
            raise ValueError(
                f"snapshot has {snapshot.n_qubits} qubits, accumulator has {self._n}"
            )
        dense = codes_matrix(_pt_codes(snapshot.axes, snapshot.bits, self._mask))
        mats = self._matrices
        for k in range(self._m - 1, 0, -1):
            mats[k] += mats[k - 1] @ dense
        mats[0] += dense
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


_STRATEGIES = ("ustat", "plugin", "batched", "online-norecon", "online-recon")


class MomentStream:
    """One strategy, several orders, one shot-by-shot interface.

    Order 1 is pinned to the exact value 1; the streaming strategies
    (plug-in and both online ones) refresh their estimates after every
    shot, while ``ustat`` and ``batched`` recompute from the retained
    record whenever estimates are requested, which is far more
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
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}, expected one of {_STRATEGIES}")
        orders = tuple(sorted(set(int(m) for m in orders)))
        if not orders or orders[0] < 1:
            raise ValueError(f"orders must be a nonempty set of integers >= 1, got {orders}")
        self.strategy = strategy
        self.orders = orders
        self._n = n_qubits
        self._part = _normalize_part(part, n_qubits)
        self._top = orders[-1]
        self._shots = 0
        self._n_batches = n_batches
        self._record: ShadowRecord | None = None
        self._acc: AccumulatorSet | None = None
        self._norecon: dict[int, OnlineRecordEstimator] = {}
        self._plugin_sum: np.ndarray | None = None

        if strategy == "online-recon":
            self._acc = AccumulatorSet(self._top, self._part, n_qubits)
        elif strategy == "online-norecon":
            self._record = ShadowRecord(n_qubits)
            self._codes = _RecordCodes(self._record, self._part)
            self._norecon = {
                m: OnlineRecordEstimator(m, self._part, n_qubits, record=self._record)
                for m in orders
                if m >= 2
            }
        elif strategy == "plugin":
            self._plugin_sum = np.zeros((2**n_qubits,) * 2, dtype=np.complex128)
        else:
            if strategy == "batched" and (n_batches is None or n_batches < 1):
                raise ValueError("the batched strategy needs a positive n_batches")
            self._record = ShadowRecord(n_qubits)

    @property
    def streaming(self) -> bool:
        """Whether estimates are cheap to refresh after every shot."""
        return self.strategy in ("plugin", "online-norecon", "online-recon")

    @property
    def shots(self) -> int:
        return self._shots

    def update(self, snapshot: Snapshot) -> None:
        if self.strategy == "online-recon":
            self._acc.update(snapshot)
        elif self.strategy == "online-norecon":
            self._record.append(snapshot)
            if self._norecon:
                codes = self._codes.sync()
                for est in self._norecon.values():
                    est._absorb_latest(codes)
        elif self.strategy == "plugin":
            self._plugin_sum += snapshot_matrix(snapshot)
        else:
            self._record.append(snapshot)
        self._shots += 1

    def estimates(self) -> dict[int, MomentEstimate]:
        """Current per-order estimates (undefined entries carry NaN values)."""
        out: dict[int, MomentEstimate] = {}
        for m in self.orders:
            if m == 1:
                out[1] = (
                    MomentEstimate(1, self._shots, 1.0, True)
                    if self._shots >= 1
                    else _undefined(1, self._shots)
                )
            elif self.strategy == "online-recon":
                out[m] = self._acc.estimate(m)
            elif self.strategy == "online-norecon":
                out[m] = self._norecon[m].estimate()
            elif self.strategy == "plugin":
                out[m] = self._plugin_from_sum(m)
            else:
                out[m] = self._offline_estimate(m)
        return out

    def _plugin_from_sum(self, order: int) -> MomentEstimate:
        if self._shots < 1:
            return _undefined(order, self._shots)
        mean = self._plugin_sum / self._shots
        transposed = partial_transpose(mean, self._part)
        power = np.linalg.matrix_power(transposed, order)
        return _finish(order, self._shots, complex(np.trace(power)))

    def _offline_estimate(self, order: int) -> MomentEstimate:
        try:
            if self.strategy == "ustat":
                return ustat_offline(self._record, order, self._part)
            return batched_estimate(self._record, order, self._part, self._n_batches)
        except InsufficientDataError:
            return _undefined(order, self._shots)


# -- checkpointing -------------------------------------------------------

_STATE_MAGIC = b"SSES"
_STATE_VERSION = 1
_STATE_HEADER = struct.Struct("<4sHBHHQ")
_KIND_RECORD, _KIND_ACCUMULATOR = 1, 2


def _pack_state(est) -> bytes:
    if isinstance(est, OnlineRecordEstimator):
        kind, shots = _KIND_RECORD, est.shots
    elif isinstance(est, AccumulatorSet):
        kind, shots = _KIND_ACCUMULATOR, est.shots
    else:
        raise TypeError(f"cannot checkpoint {type(est).__name__}")
    part = est.transposed_qubits
    n_qubits = est._n
    head = _STATE_HEADER.pack(_STATE_MAGIC, _STATE_VERSION, kind, est.order, n_qubits, shots)
    part_blob = struct.pack(f"<H{len(part)}H", len(part), *part)
    if kind == _KIND_RECORD:
        body = struct.pack("<dd", est.running_sum.real, est.running_sum.imag)
        record = est.record.to_bytes()
        body += struct.pack("<Q", len(record)) + record
    else:
        body = est.matrices.tobytes()
    return head + part_blob + body


def save_estimator_state(est, path) -> None:
    """Checkpoint an online estimator to a versioned binary file."""
    with open(path, "wb") as fh:
        fh.write(_pack_state(est))


def load_estimator_state(path):
    """Restore an estimator checkpointed by :func:`save_estimator_state`.

    The returned estimator continues exactly as if the stream had never
    been interrupted.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, kind, order, n_qubits, shots = _STATE_HEADER.unpack_from(blob)
    if magic != _STATE_MAGIC:
        raise ValueError(f"{path} is not an estimator checkpoint")
    if version != _STATE_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    offset = _STATE_HEADER.size
    (n_part,) = struct.unpack_from("<H", blob, offset)
    offset += 2
    part = struct.unpack_from(f"<{n_part}H", blob, offset)
    offset += 2 * n_part
    if kind == _KIND_RECORD:
        re, im = struct.unpack_from("<dd", blob, offset)
        offset += 16
        (rec_len,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        record = ShadowRecord.from_bytes(blob[offset : offset + rec_len])
        if len(record) != shots:
            raise ValueError("checkpoint record length disagrees with header")
        return OnlineRecordEstimator(
            order, part, n_qubits, record=record, running_sum=complex(re, im)
        )
    if kind == _KIND_ACCUMULATOR:
        dim = 2**n_qubits
        mats = np.frombuffer(blob, dtype=np.complex128, offset=offset).reshape(
            order, dim, dim
        )
        return AccumulatorSet(order, part, n_qubits, matrices=mats, shots=shots)
    raise ValueError(f"unknown checkpoint kind {kind}")
