"""Pure arithmetic behind the benchmark's figures.

Everything here is a function of plain numbers so that the benchmark's
own tests can pin it down without running the program.
"""

from __future__ import annotations

import math

# A tail percentile is only reported when at least this many samples lie
# beyond it; fewer make the figure a reading of one or two outliers.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks, the rule numpy's default ``percentile`` uses."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def tail_supported(values, q: float) -> bool:
    """Whether the ``q``-th percentile has enough samples beyond it to be
    reported as a tail figure rather than as a near-maximum."""
    return samples_beyond(values, q) >= MIN_TAIL_SAMPLES


def covered_length(intervals, lo: int, hi: int) -> int:
    """Length of the part of ``[lo, hi)`` that the union of ``intervals``
    covers.  Overlapping and out-of-range intervals are handled."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its own
    interval that its direct children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent``
    an index into the same sequence or ``-1`` for a root.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _) in enumerate(spans):
        kids = children.get(index)
        covered = covered_length(kids, start, end) if kids else 0
        out.append((end - start) - covered)
    return out


def basis_hit_ratio(distinct_keys: int, shots: int) -> float:
    """Share of shots whose measurement basis had been drawn before in
    the same run, i.e. could be served from the sampler's basis cache:
    ``1 - distinct / shots``."""
    if shots < 1:
        raise ValueError("hit ratio needs at least one shot")
    if not 0 <= distinct_keys <= shots:
        raise ValueError(f"{distinct_keys} distinct keys cannot come from {shots} shots")
    return 1.0 - distinct_keys / shots


def record_tuples(shots: int, orders) -> int:
    """Exact kernel tuple count of the record-only estimator after
    ``shots`` shots: each order m >= 2 evaluates every m-subset of the
    record exactly once, ``sum_m C(T, m)``."""
    return sum(math.comb(shots, m) for m in orders if m >= 2)


def accumulator_flop_per_shot(n_qubits: int, top_order: int) -> int:
    """Real floating-point operations of one dense accumulator update:
    ``top_order - 1`` complex ``2**N`` square matmuls at 8 flops per
    complex multiply-add, ``8 * (m - 1) * 8**N``."""
    return 8 * (top_order - 1) * 8**n_qubits


def accumulator_state_bytes(n_qubits: int, top_order: int) -> int:
    """Bytes of the dense accumulators: m complex ``2**N`` square matrices."""
    return 16 * top_order * 4**n_qubits


def record_state_bytes(shots: int, n_qubits: int) -> int:
    """Bytes of the classical record: one axis and one bit byte per qubit-shot."""
    return 2 * shots * n_qubits
