"""Estimator correctness, streaming identities, and checkpointing."""

import concurrent.futures
import functools
import hashlib
import itertools
import math
import struct
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadowstream.estimators
import shadowstream.kernel
import shadowstream.sampler
import shadowstream.states
from shadowstream import (
    AccumulatorSet,
    Bipartition,
    CapacityError,
    DensityMatrix,
    InsufficientDataError,
    MomentStream,
    OnlineRecordEstimator,
    ShadowRecord,
    Snapshot,
    UnsupportedOrderError,
    batched_estimate,
    load_estimator_state,
    plugin_estimate,
    save_estimator_state,
    snapshot_matrix,
    stream_shadows,
    tuple_trace_direct,
    ustat_offline,
    werner_state,
)
from shadowstream.estimators import _pack_state, _RecordSums, _unpack_state
from shadowstream.kernel import (
    CHAIN_NUMERATORS,
    batch_code_traces,
    batch_tuple_traces,
    chain_trace_table,
    closing_tables,
    factors_from_codes,
    group_width,
    pt_flip,
    snapshot_codes,
    subset_index_chunks,
)
from shadowstream.sampler import FACTORS, codes_matrix
from shadowstream.states import partial_transpose

PART = (1,)


@pytest.fixture(scope="module")
def record() -> ShadowRecord:
    return stream_shadows(werner_state(2, 5.0 / 6.0), 60, seed=2024)


def brute_force_ustat(record, order, part):
    """Plain itertools reference: average the kernel over all subsets."""
    values = [
        tuple_trace_direct([record[i] for i in subset], part)
        for subset in itertools.combinations(range(len(record)), order)
    ]
    return sum(values).real / len(values)


class TestOfflineUstat:
    def test_order_one_is_exactly_one(self, record):
        assert ustat_offline(record, 1, PART).value == 1.0

    @pytest.mark.parametrize("order", [2, 3])
    def test_matches_brute_force(self, record, order):
        short = record[:12]
        est = ustat_offline(short, order, PART)
        assert est.value == pytest.approx(brute_force_ustat(short, order, PART), rel=1e-12)
        assert est.well_defined
        assert est.shots == 12

    def test_accepts_bipartition(self, record):
        a = ustat_offline(record[:10], 2, Bipartition(2, (1,)))
        b = ustat_offline(record[:10], 2, (1,))
        assert a.value == b.value

    def test_insufficient_data(self, record):
        with pytest.raises(InsufficientDataError):
            ustat_offline(record[:2], 3, PART)

    def test_order_validation(self, record):
        with pytest.raises(ValueError):
            ustat_offline(record, 0, PART)

    @pytest.mark.parametrize(
        "n, shots", [(8, 838), (8, 839), (8, 840), (10, 41), (10, 42), (10, 43)]
    )
    def test_order_two_bytes_on_both_sides_of_the_bound(self, monkeypatch, n, shots):
        # The pairs are summed by dots on both sides of the last record
        # length whose sum is exact in any order (C(T, 2) * 20**N <= 2**53),
        # and on these records both give the bytes of the index blocks' sum
        # in lexicographic order.
        record = random_record(n, shots, seed=n + shots)
        part = tuple(range(0, n, 2))
        want = np.complex128(per_qubit_index_sum(record, 2, part) / math.comb(shots, 2))
        seen = set()
        evaluate = shadowstream.estimators.batch_code_traces

        def spy(codes, indices, tables=None):
            seen.add(type(indices).__name__)
            return evaluate(codes, indices, tables)

        monkeypatch.setattr(shadowstream.estimators, "batch_code_traces", spy)
        got = ustat_offline(record, 2, part)
        assert seen == {"PairSum"}
        assert np.float64(got.value).tobytes() == want.real.tobytes()
        assert np.float64(got.imag_magnitude).tobytes() == abs(want.imag).tobytes()

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_grouped_lookup_equals_per_qubit_index_blocks(self, n, order):
        # Orders 2 and 3 look up two-qubit groups (odd N pads the last one)
        # and give the per-qubit bytes while every partial product and sum
        # is exact; from order 4 the groups are single qubits.
        shots = {2: 60, 3: 30, 4: 14, 5: 11, 6: 10}[order]
        if order < 4:
            assert math.comb(shots, order) * CHAIN_NUMERATORS[order] ** n <= 2**53
        else:
            assert group_width(order, n) == 1
        record = random_record(n, shots, seed=10 * n + order)
        part = tuple(range(0, n, 2))
        want = np.complex128(per_qubit_index_sum(record, order, part) / math.comb(shots, order))
        got = ustat_offline(record, order, part)
        assert np.float64(got.value).tobytes() == want.real.tobytes()
        assert np.float64(got.imag_magnitude).tobytes() == abs(want.imag).tobytes()

    @pytest.mark.parametrize("order, shots", [(2, 200), (3, 40)])
    @pytest.mark.parametrize("n", [10, 16])
    def test_grouped_lookup_within_the_rounding_bound(self, n, order, shots):
        # Past the exact range the grouped and per-qubit lookups may round
        # differently; each sum is within gamma(3 * (K + N)) * S of the
        # exact one, K subsets and S the sum over the tables' moduli.
        record = random_record(n, shots, seed=n + order)
        part = tuple(range(0, n, 2))
        comb = math.comb(shots, order)
        assert comb * CHAIN_NUMERATORS[order] ** n > 2**53
        want = per_qubit_index_sum(record, order, part) / comb
        moduli = per_qubit_index_sum(record, order, part, moduli=True).real / comb
        got = ustat_offline(record, order, part)
        k = 3 * (comb + n) * 2.0**-53
        # Twice the bound, plus one rounding of each quotient.
        tolerance = (2 * k / (1 - k) + 2 * 2.0**-53) * moduli
        assert abs(got.value - want.real) <= tolerance
        assert abs(got.imag_magnitude - abs(want.imag)) <= tolerance

    def test_groups_share_one_order_three_table(self):
        # Every whole group reads the same 36**3-entry table, built once and
        # never copied per group, so the peak does not grow with N.
        peaks = {}
        for n in (4, 8):
            record = random_record(n, 4, seed=n)
            ustat_offline(record, 3, (0,))  # the chain tables are cached
            tracemalloc.start()
            ustat_offline(record, 3, (0,))
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[8] <= 1.1 * peaks[4]
        assert max(peaks.values()) < 1.7e6


def per_qubit_index_sum(record, order, part, moduli=False) -> complex:
    """The order-``order`` kernel summed over index blocks in lexicographic
    order, every qubit's code looked up on its own in the chain table (its
    moduli, with ``moduli``)."""
    codes = snapshot_codes(record.axes, record.bits, part)
    table = chain_trace_table(order)
    if moduli:
        table = np.abs(table) + 0j
    tables = np.broadcast_to(table.reshape((6,) * order), (record.n_qubits,) + (6,) * order)
    total = 0.0 + 0.0j
    for chunk in subset_index_chunks(len(record), order):
        total += batch_code_traces(codes, chunk, tables).sum()
    return total


class TestPlugin:
    def test_order_one_pinned(self, record):
        assert plugin_estimate(record, 1, PART).value == 1.0

    def test_matches_manual_mean_power(self, record):
        mean = sum(snapshot_matrix(s) for s in record) / len(record)
        expected = np.trace(np.linalg.matrix_power(partial_transpose(mean, PART), 3))
        est = plugin_estimate(record, 3, PART)
        assert est.value == pytest.approx(expected.real, rel=1e-12)

    def test_needs_a_shot(self):
        with pytest.raises(InsufficientDataError):
            plugin_estimate(ShadowRecord(2), 2, PART)


class TestBatched:
    def test_singleton_batches_recover_ustat(self, record):
        # One shot per batch means the batch means are the snapshots
        # themselves, so the batched statistic IS the U-statistic.
        short = record[:14]
        for order in (2, 3):
            batched = batched_estimate(short, order, PART, n_batches=14)
            exact = ustat_offline(short, order, PART)
            assert batched.value == pytest.approx(exact.value, rel=1e-12)
            assert batched.dropped_shots == 0

    def test_remainder_is_dropped_and_reported(self, record):
        est = batched_estimate(record[:58], 2, PART, n_batches=12)
        assert est.dropped_shots == 58 - 12 * (58 // 12)
        assert est.shots == 58

    def test_too_few_batches_for_order(self, record):
        with pytest.raises(InsufficientDataError):
            batched_estimate(record, 3, PART, n_batches=2)

    def test_too_few_shots_for_batches(self, record):
        with pytest.raises(InsufficientDataError):
            batched_estimate(record[:5], 2, PART, n_batches=8)


class TestOnlineRecordEstimator:
    def test_tracks_offline_value_shot_by_shot(self, record):
        for order in (2, 3):
            online = OnlineRecordEstimator(order, PART, 2)
            for t, snap in enumerate(list(record)[:30], start=1):
                online.update(snap)
                if t < order:
                    assert not online.estimate().well_defined
                else:
                    offline = ustat_offline(record[:t], order, PART)
                    assert online.estimate().value == pytest.approx(
                        offline.value, rel=1e-11
                    ), f"order {order}, shot {t}"

    @pytest.mark.parametrize("n", [10, 16])
    def test_tracks_offline_value_past_the_exact_range(self, n):
        # Past the qubit counts where every partial product and sum is
        # exact, the trajectory meets the offline U-statistic to rounding.
        record = random_record(n, 30, seed=n)
        part = tuple(range(n // 2, n))
        stream = MomentStream("online-norecon", (2, 3), part, n)
        values, _ = stream.trajectory(record.axes, record.bits)
        for t in range(3, 31):
            for col, order in enumerate((2, 3)):
                offline = ustat_offline(record[:t], order, part).value
                assert abs(values[t - 1, col] - offline) <= 1e-9 * abs(offline), (t, order)

    def test_undefined_before_enough_shots(self):
        online = OnlineRecordEstimator(3, PART, 2)
        est = online.estimate()
        assert not est.well_defined
        assert math.isnan(est.value)

    def test_resume_from_checkpoint(self, record, tmp_path):
        full = OnlineRecordEstimator(3, PART, 2)
        partial = OnlineRecordEstimator(3, PART, 2)
        for snap in list(record)[:17]:
            full.update(snap)
            partial.update(snap)
        path = tmp_path / "online.ckpt"
        save_estimator_state(partial, path)
        resumed = load_estimator_state(path)
        assert isinstance(resumed, OnlineRecordEstimator)
        assert resumed.shots == 17
        assert resumed.running_sum == partial.running_sum
        for snap in list(record)[17:40]:
            full.update(snap)
            resumed.update(snap)
        assert resumed.estimate().value == full.estimate().value

    def test_never_touches_dense_objects(self, record, monkeypatch):
        """The record-only estimator must hold no 2**N-sized state: its
        entire update path is table lookups on 2x2 factors."""

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("dense reconstruction in the record-only path")

        monkeypatch.setattr(shadowstream.estimators, "snapshot_matrix", boom)
        monkeypatch.setattr(shadowstream.estimators, "codes_matrix", boom)
        monkeypatch.setattr(shadowstream.kernel, "snapshot_matrix", boom)
        monkeypatch.setattr(shadowstream.kernel, "partial_transpose", boom)
        online = OnlineRecordEstimator(3, PART, 2)
        for snap in list(record)[:10]:
            online.update(snap)
        assert online.estimate().well_defined


class TestIncrementalCodes:
    @pytest.fixture
    def encoded_rows(self, monkeypatch):
        """Row counts of every encoding the estimators make: blocks through
        ``snapshot_codes``, single shots through ``_masked_codes`` with the
        mask their owner built once."""
        rows = []
        for name in ("snapshot_codes", "_masked_codes"):
            original = getattr(shadowstream.estimators, name)

            def counting(axes, bits, part, original=original):
                rows.append(len(axes))
                return original(axes, bits, part)

            monkeypatch.setattr(shadowstream.estimators, name, counting)
        return rows

    def test_each_shot_is_encoded_once(self, record, encoded_rows):
        stream = MomentStream("online-norecon", (2, 3), PART, 2)
        online = OnlineRecordEstimator(3, PART, 2)
        for snap in list(record)[:30]:
            stream.update(snap)
            online.update(snap)
        assert encoded_rows == [1] * 60
        assert online.estimate().value == ustat_offline(record[:30], 3, PART).value

    def test_per_shot_updates_build_no_mask(self, record, monkeypatch):
        # The transposed-qubit mask is built once, at construction.
        calls = []
        original = shadowstream.kernel._transpose_mask

        def counting(part, n_qubits):
            calls.append(n_qubits)
            return original(part, n_qubits)

        for module in (shadowstream.kernel, shadowstream.estimators):
            monkeypatch.setattr(module, "_transpose_mask", counting)
        estimators = [
            MomentStream("online-recon", (2, 3), PART, 2),
            AccumulatorSet(3, PART, 2),
            OnlineRecordEstimator(3, PART, 2),
        ]
        calls.clear()
        for snap in list(record)[:50] * 2:
            for est in estimators:
                est.update(snap)
        assert calls == []
        assert [est.shots for est in estimators] == [100] * 3

    def test_restored_record_is_encoded_once(self, record, tmp_path, encoded_rows):
        # Once, when the estimator is rebuilt; later shots one by one.
        full = OnlineRecordEstimator(3, PART, 2)
        for snap in list(record)[:17]:
            full.update(snap)
        path = tmp_path / "online.ckpt"
        save_estimator_state(full, path)
        encoded_rows.clear()
        resumed = load_estimator_state(path)
        for snap in list(record)[17:22]:
            full.update(snap)
            resumed.update(snap)
        assert encoded_rows == [17] + [1] * 10
        assert resumed.running_sum == full.running_sum


def closed_tuple_fresh(codes, latest, m, table):
    """Reference for one shot's fresh sum: every (m-1)-subset of the
    earlier shots with ``latest`` appended, each whole tuple evaluated
    through ``table`` on every qubit, summed block by block."""
    tables = np.broadcast_to(table.reshape((6,) * m), (codes.shape[1],) + (6,) * m)
    fresh = 0.0 + 0.0j
    for chunk in subset_index_chunks(latest, m - 1):
        closed = np.concatenate([chunk, np.full((len(chunk), 1), latest)], axis=1)
        fresh += batch_code_traces(codes, closed, tables).sum()
    return fresh


class TestClosingShotFold:
    """``_RecordSums`` folds the new shot into the chain tables and groups
    qubits; its fresh sums equal the closed-tuple evaluation byte for byte."""

    @staticmethod
    def assert_fresh_sums_match(n, m, shots, seed, table=None, checked=None, rounding=False):
        """Byte-compare each fresh sum with the closed-tuple evaluation; with
        ``rounding``, check instead that the two differ by at most twice the
        kernel's rounding bound ``gamma(3 * (K + N)) * S`` (K subsets, S the
        sum over the table's moduli) and return the largest ratio."""
        worst = 0.0
        record = random_record(n, shots, seed)
        part = tuple(range(0, n, 2))
        codes = snapshot_codes(record.axes, record.bits, part)
        sums = _RecordSums(n, {m: 0j})
        for t in range(shots):
            sums.advance(codes[t : t + 1])
            if t + 1 < m or (checked is not None and t not in checked):
                continue
            want = closed_tuple_fresh(codes, t, m, chain_trace_table(m) if table is None else table)
            got = sums._fresh(m, t, closing_tables(m, sums._codes[t], sums._widths[m]))
            if rounding:
                moduli = closed_tuple_fresh(codes, t, m, np.abs(table) + 0j).real
                k = 3 * (math.comb(t, m - 1) + n) * 2.0**-53
                worst = max(worst, abs(got - want) / (2 * k / (1 - k) * moduli))
            else:
                assert np.complex128(got).tobytes() == np.complex128(want).tobytes(), (n, m, t)
        assert worst <= 1.0, (n, m, worst)
        return worst

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_small_records(self, m):
        for n in range(1, 7):
            self.assert_fresh_sums_match(n, m, 9, seed=10 * m + n)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_short_records_at_large_n(self, n, m):
        self.assert_fresh_sums_match(n, m, 12, seed=100 * n + m)

    def test_across_a_subset_block_boundary(self):
        # From 363 earlier shots on, the pairs of the past fill two blocks.
        assert len(list(subset_index_chunks(362, 2))) == 1
        assert len(list(subset_index_chunks(363, 2))) == 2
        self.assert_fresh_sums_match(4, 3, 366, seed=5, checked={361, 362, 363, 364, 365})

    def test_pair_spans_at_eight_qubits(self):
        # Order 3 at N = 8 closes pairs of the past over 2-qubit groups;
        # from 15 earlier shots on, their sum is no longer sure to be exact.
        assert group_width(3, 8) == 2
        self.assert_fresh_sums_match(8, 3, 70, seed=8)

    @pytest.mark.parametrize("n, shots, bound", [(7, 106, 102), (6, 767, 764)])
    def test_summed_pairs_meet_the_value_path(self, monkeypatch, n, shots, bound):
        # The closing pairs are summed by dots over closing columns on both
        # sides of ``bound``, the last earlier-shot count whose sum is exact
        # in any order, and give the bytes of the closed-tuple evaluation.
        seen = {}
        evaluate = shadowstream.estimators.batch_code_traces

        def spy(codes, indices, tables=None):
            seen.setdefault(type(indices).__name__, set()).add(len(codes))
            return evaluate(codes, indices, tables)

        monkeypatch.setattr(shadowstream.estimators, "batch_code_traces", spy)
        self.assert_fresh_sums_match(n, 3, shots, seed=n, checked=set(range(bound - 2, shots)))
        assert set(seen) == {"PairSum"} and seen["PairSum"] == set(range(2, shots))

    @pytest.mark.parametrize("width", [1, 7, 100])
    def test_column_blocks_of_any_width(self, monkeypatch, width):
        # The record of test_across_a_subset_block_boundary, its pairs
        # summed over column blocks of other widths.
        monkeypatch.setattr(shadowstream.kernel, "_SUM_COLUMNS", width)
        checked = {6, 7, 8, 99, 100, 101, 361, 362, 363, 364, 365}
        self.assert_fresh_sums_match(4, 3, 366, seed=5, checked=checked)

    def test_orders_past_the_tables(self):
        # Order 7 has no chain table; the new shot's 2x2 factors close
        # every chain of the past instead of being appended to each tuple.
        record = random_record(2, 10, seed=7)
        codes = snapshot_codes(record.axes, record.bits, PART)
        factors = factors_from_codes(codes)
        sums = _RecordSums(2, {7: 0j})
        for t in range(10):
            sums.advance(codes[t : t + 1])
            if t < 6:
                continue
            want = 0.0 + 0.0j
            for chunk in subset_index_chunks(t, 6):
                closed = np.concatenate([chunk, np.full((len(chunk), 1), t)], axis=1)
                want += batch_tuple_traces(factors, closed).sum()
            assert np.complex128(sums._fresh(7, t, None)).tobytes() == np.complex128(want).tobytes()

    @pytest.mark.parametrize("n, m", [(3, 4), (10, 3), (13, 2)])
    def test_qubit_order_where_groups_are_single(self, monkeypatch, n, m):
        # A non-dyadic table rounds in every product.  Where groups are
        # single qubits (order 4) the left-to-right qubit order reproduces
        # the closed-tuple bytes; grouped lookups (orders 2 and 3) round in
        # another order, within the kernel's rounding bound.
        rng = np.random.default_rng(n + m)
        table = rng.normal(size=6**m) + 1j * rng.normal(size=6**m)
        monkeypatch.setattr(shadowstream.kernel, "chain_trace_table", lambda length: table)
        grouped = group_width(m, n) > 1
        assert grouped == (m < 4)
        self.assert_fresh_sums_match(n, m, 8, seed=m, table=table, rounding=grouped)


class TestRecordEngineLayout:
    """The record-only engine slices its closing tables out of grouped
    tables built once per process and sums an order-2 shot's earlier shots
    without index blocks, keeping the bits of every streamed sum."""

    # SHA-256 prefixes of the order-2 and order-3 running sums after every
    # shot of a random record, as streamed when each block rebuilt its
    # closing tables and order-2 closings came as index blocks.  Odd N pads
    # the last group; order 3 at N = 7 and 8 (from 103 and 15 earlier
    # shots) and both orders at N = 12 run past the exact range.
    DIGESTS = {
        (3, 150): "fefd60598c7e7ec0",
        (4, 150): "16f90fc81f97a59c",
        (5, 150): "2689311a7af4e96b",
        (7, 150): "4f0717a0ad45ef4b",
        (8, 150): "d688a25225841dd8",
        (12, 40): "b0fa2d521589dbe9",
    }

    @pytest.mark.parametrize("n, shots", sorted(DIGESTS))
    def test_streamed_sums_keep_their_bits(self, n, shots):
        codes = np.random.default_rng(n).integers(0, 6, (shots, n)).astype(np.uint8)
        sums = _RecordSums(n, {2: 0j, 3: 0j})
        trail = []
        for t in range(shots):
            sums.advance(codes[t : t + 1])
            trail.append([sums.sums[2], sums.sums[3]])
        digest = hashlib.sha256(np.array(trail, dtype=np.complex128).tobytes()).hexdigest()
        assert digest[:16] == self.DIGESTS[n, shots]
        blocks = _RecordSums(n, {2: 0j, 3: 0j})
        for lo in range(0, shots, 32):
            blocks.trajectory(codes[lo : lo + 32], [2, 3])
        assert [blocks.sums[2], blocks.sums[3]] == trail[-1]

    def test_each_grouped_table_is_built_once(self, monkeypatch):
        built = []
        build = shadowstream.kernel._group_tables
        monkeypatch.setattr(shadowstream.kernel, "_GROUP_TABLES", {})
        monkeypatch.setattr(
            shadowstream.kernel, "_group_tables", lambda *key: built.append(key) or build(*key)
        )
        for n in (3, 4, 3, 4):
            codes = np.random.default_rng(n).integers(0, 6, (30, n)).astype(np.uint8)
            _RecordSums(n, {2: 0j, 3: 0j}).advance(codes)
            ustat_offline(random_record(n, 12, seed=n), 3, (0,))
        # (order, qubits per group, real qubits of the group)
        assert sorted(built) == [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)]

    def test_no_index_blocks_of_single_shots(self, monkeypatch):
        sizes = []
        chunks = shadowstream.estimators.subset_index_chunks
        monkeypatch.setattr(
            shadowstream.estimators,
            "subset_index_chunks",
            lambda n, k, *args: sizes.append(k) or chunks(n, k, *args),
        )
        record = stream_shadows(werner_state(4, 0.5), 40, seed=3)
        stream = MomentStream("online-norecon", (2, 3, 4), (1, 3), 4)
        stream.advance(record.axes, record.bits)
        assert set(sizes) == {3}  # order 4 still sums triples in index blocks


def assert_equals_dense(acc, mats):
    """``acc`` holds the dense accumulators ``mats[:-1]`` bit for bit, and
    its top order reads the trace of ``mats[-1]``: the running trace and the
    estimate, ``imag_magnitude`` included."""
    assert acc.matrices.tobytes() == mats[:-1].tobytes()
    top = np.trace(mats[-1])
    assert np.complex128(acc.top_trace).tobytes() == top.tobytes()
    m = acc.order
    if acc.shots >= m:
        expected = complex(top) / math.comb(acc.shots, m)
        est = acc.estimate(m)
        assert (est.value, est.imag_magnitude) == (expected.real, abs(expected.imag))


class TestAccumulatorSet:
    @pytest.mark.parametrize("n,part", [(2, PART), (3, (0, 2)), (4, (1, 3))])
    def test_bitwise_equal_to_kron_chain_updates(self, n, part):
        """Code-table updates reproduce the dense ``np.kron`` reference
        updates bit for bit, zero signs included in every sum; the top
        order's running trace is the trace of the dense top product."""
        # A Werner pair followed by maximally mixed qubits.
        pair = werner_state(2, 5.0 / 6.0).entries
        rho = DensityMatrix(functools.reduce(np.kron, [pair] + [np.eye(2) / 2] * (n - 2)))
        acc = AccumulatorSet(3, part, n)
        mats = np.zeros((3, 2**n, 2**n), dtype=np.complex128)
        for snap in stream_shadows(rho, 120, seed=n):
            flipped = pt_flip(snap, part)
            dense = functools.reduce(
                np.kron, [FACTORS[a, b] for a, b in zip(flipped.axes, flipped.bits)]
            )
            for k in (2, 1):
                mats[k] += mats[k - 1] @ dense
            mats[0] += dense
            acc.update(snap)
        assert_equals_dense(acc, mats)

    @pytest.mark.parametrize("order", [1, 2])
    def test_low_orders_need_no_products(self, order, record):
        # Order 1 keeps no matrix and order 2 only S_1; the top trace is
        # still the trace of the dense top product.
        acc = accumulate(record[:30], order, PART)
        assert acc.matrices.shape == (order - 1, 4, 4)
        assert_equals_dense(acc, dense_products(record[:30], order, PART))
        assert acc.estimate(1).value == 1.0

    def test_all_orders_match_offline(self, record):
        acc = AccumulatorSet(4, PART, 2)
        for snap in list(record)[:25]:
            acc.update(snap)
        for k in (1, 2, 3, 4):
            offline = ustat_offline(record[:25], k, PART)
            assert acc.estimate(k).value == pytest.approx(offline.value, rel=1e-11)

    def test_default_order_is_highest(self, record):
        acc = AccumulatorSet(2, PART, 2)
        for snap in list(record)[:10]:
            acc.update(snap)
        assert acc.estimate().order == 2

    def test_order_one_exact(self, record):
        acc = AccumulatorSet(3, PART, 2)
        for snap in list(record)[:8]:
            acc.update(snap)
        assert acc.estimate(1).value == 1.0

    def test_rejects_out_of_range_orders(self, record):
        acc = AccumulatorSet(3, PART, 2)
        acc.update(record[0])
        with pytest.raises(UnsupportedOrderError):
            acc.estimate(4)
        with pytest.raises(UnsupportedOrderError):
            acc.estimate(0)

    def test_memory_is_lower_orders_times_dense_matrix(self):
        acc = AccumulatorSet(5, PART, 2)
        assert acc.matrices.shape == (4, 4, 4)
        assert acc.top_trace == 0j
        with pytest.raises(ValueError):
            acc.matrices[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="shape"):
            AccumulatorSet(5, PART, 2, matrices=np.zeros((5, 4, 4)))

    def test_dense_qubit_cap(self):
        with pytest.raises(CapacityError):
            AccumulatorSet(2, (0,), 13)

    def test_resume_is_bitwise_exact(self, record, tmp_path):
        baseline = AccumulatorSet(3, PART, 2)
        prefix = AccumulatorSet(3, PART, 2)
        for snap in list(record)[:20]:
            baseline.update(snap)
            prefix.update(snap)
        path = tmp_path / "acc.ckpt"
        save_estimator_state(prefix, path)
        resumed = load_estimator_state(path)
        assert isinstance(resumed, AccumulatorSet)
        for snap in list(record)[20:45]:
            baseline.update(snap)
            resumed.update(snap)
        assert resumed.matrices.tobytes() == baseline.matrices.tobytes()
        assert resumed.top_trace == baseline.top_trace
        assert resumed.estimate(3) == baseline.estimate(3)

    def test_dense_checkpoint_loads_and_repacks_as_the_trace_kind(self, record, tmp_path):
        # A kind-2 checkpoint holds all ``order`` matrices, the layout
        # before the top order became a running trace.
        head = shadowstream.estimators._STATE_HEADER.pack(b"SSES", 1, 2, 3, 2, 20)
        blob = head + struct.pack("<HH", 1, *PART) + dense_products(record[:20], 3, PART).tobytes()
        path = tmp_path / "dense.ckpt"
        path.write_bytes(blob)
        resumed = load_estimator_state(path)
        prefix = accumulate(record[:20], 3, PART)
        assert _pack_state(resumed) == _pack_state(prefix)
        assert _pack_state(resumed)[6] == 3
        for snap in list(record)[20:45]:
            resumed.update(snap)
        full = accumulate(record[:45], 3, PART)
        assert _pack_state(resumed) == _pack_state(full)
        assert [resumed.estimate(k) for k in (1, 2, 3)] == [full.estimate(k) for k in (1, 2, 3)]

    def test_snapshot_qubit_mismatch(self):
        acc = AccumulatorSet(2, PART, 2)
        with pytest.raises(ValueError):
            acc.update(Snapshot("X", [0]))


def dense_products(record, order, part):
    """All ``order`` accumulators built by the plain dense product
    ``mats[k-1] @ dense``, the top one included."""
    dim = 2**record.n_qubits
    mats = np.zeros((order, dim, dim), dtype=np.complex128)
    for codes in snapshot_codes(record.axes, record.bits, part):
        dense = codes_matrix(codes)
        for k in range(order - 1, 0, -1):
            mats[k] += mats[k - 1] @ dense
        mats[0] += dense
    return mats


def accumulate(record, order, part):
    acc = AccumulatorSet(order, part, record.n_qubits)
    for snap in record:
        acc.update(snap)
    return acc


def werner_plus_mixed(n, t):
    """A Werner state on the even part of ``n`` qubits, times I/2 if ``n`` is odd."""
    rho = werner_state(n - n % 2, t).entries
    return DensityMatrix(np.kron(rho, np.eye(2) / 2) if n % 2 else rho)


def random_record(n, shots, seed):
    rng = np.random.default_rng(seed)
    return ShadowRecord.from_arrays(
        rng.integers(0, 3, (shots, n)).astype(np.uint8),
        rng.integers(0, 2, (shots, n)).astype(np.uint8),
    )


class TestFactoredUpdate:
    """Updates multiply by the snapshot's Kronecker factors; dyadic entries
    keep every sum exact, so the state equals dense products bit for bit."""

    @pytest.mark.parametrize("t", [0.2, 0.6])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_bytes_equal_dense_products(self, n, t):
        record = stream_shadows(werner_plus_mixed(n, t), 200, seed=100 + n)
        part = tuple(range(n // 2, n))
        acc = accumulate(record, 4, part)
        assert_equals_dense(acc, dense_products(record, 4, part))

    @pytest.mark.parametrize("n, shots", [(9, 6), (10, 3)])
    def test_short_streams_above_eight_qubits(self, n, shots):
        record = random_record(n, shots, seed=n)
        part = tuple(range(n // 2, n))
        acc = accumulate(record, 4, part)
        assert_equals_dense(acc, dense_products(record, 4, part))

    @pytest.mark.parametrize("factor_qubits", [1, 2, 3, 4, 5])
    def test_any_block_split_gives_the_same_bytes(self, factor_qubits, monkeypatch):
        # Past FACTOR_QUBITS the five qubits split as 3 + 2, else not at all.
        monkeypatch.setattr(shadowstream.estimators, "FACTOR_QUBITS", factor_qubits)
        record = random_record(5, 60, seed=factor_qubits)
        acc = accumulate(record, 4, (1, 4))
        assert acc._split == (3 if factor_qubits < 5 else 0)
        assert_equals_dense(acc, dense_products(record, 4, (1, 4)))

    def test_online_recon_equals_offline_ustat(self):
        record = stream_shadows(werner_state(6, 0.6), 40, seed=61)
        part = Bipartition.balanced(6)
        stream = MomentStream("online-recon", (2, 3, 4), part, 6)
        for t, snap in enumerate(record, start=1):
            stream.update(snap)
            if t in (4, 9, 20, 40):
                for m, est in stream.estimates().items():
                    offline = ustat_offline(record[:t], m, part).value
                    assert est.value == pytest.approx(offline, rel=1e-12, abs=0)

    def test_checkpoint_resume_at_eight_qubits(self, tmp_path):
        record = stream_shadows(werner_state(8, 0.6), 40, seed=88)
        part = Bipartition.balanced(8)
        full = accumulate(record, 4, part)
        path = tmp_path / "n8.ckpt"
        save_estimator_state(accumulate(record[:15], 4, part), path)
        resumed = load_estimator_state(path)
        for snap in record[15:]:
            resumed.update(snap)
        assert resumed.matrices.tobytes() == full.matrices.tobytes()
        assert resumed.top_trace == full.top_trace
        assert resumed.shots == full.shots == 40


@functools.cache
def tiled_case(n):
    """A short random record at ``n`` qubits and its dense order-5 products."""
    record = random_record(n, {7: 8, 8: 8, 9: 6, 10: 5}[n], seed=70 + n)
    part = tuple(range(n // 2, n))
    return record, part, dense_products(record, 5, part)


def exact_trace(record, order, part):
    """The trace of ``S_order``, rounded once from its exact value: every
    ordered subset's chain traces multiplied as Gaussian integers."""
    codes = snapshot_codes(record.axes, record.bits, part).astype(int)
    table = chain_trace_table(order) * 2**order
    re_total = im_total = 0
    for subset in itertools.combinations(range(len(record)), order):
        re, im = 1, 0
        for column in codes[list(subset)].T:
            key = int(sum(c * 6 ** (order - 1 - j) for j, c in enumerate(column)))
            a, b = int(table[key].real), int(table[key].imag)
            re, im = re * a - im * b, re * b + im * a
        re_total, im_total = re_total + re, im_total + im
    scale = Fraction(1, 2 ** (order * record.n_qubits))
    return complex(re_total * scale, im_total * scale)


class TestTiledLayout:
    """Past FACTOR_QUBITS the accumulators live factor-major in row tiles;
    every read still sees the dense matrices."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_bytes_equal_the_dense_reference(self, n, order):
        # Short records, inside the exact range: the running trace is the
        # exact value, and the matrices are the dense products' bytes.
        record, part, mats = tiled_case(n)
        acc = accumulate(record, order, part)
        assert acc.top_trace == exact_trace(record, order, part)
        assert_equals_dense(acc, mats[:order])

    def test_tiles_at_eight_qubits(self):
        acc = AccumulatorSet(4, Bipartition.balanced(8), 8)
        assert acc._tiles.shape == (4, 3, 16, 64, 16)
        assert acc._scratches[0].nbytes <= shadowstream.estimators._STACK_BYTES
        mats = acc.matrices
        assert mats.shape == (3, 256, 256) and not mats.flags.writeable
        with pytest.raises(ValueError):
            mats[0, 0, 0] = 1.0

    def test_update_advance_and_trajectory_agree(self):
        record = stream_shadows(werner_state(8, 0.6), 30, seed=81)
        part = Bipartition.balanced(8)
        codes = snapshot_codes(record.axes, record.bits, part.transposed)
        by_shot, by_block, by_rows = (AccumulatorSet(4, part, 8) for _ in range(3))
        by_block.advance(codes)
        values, defined = by_rows.trajectory(codes, (2, 3, 4))
        for t, snap in enumerate(record):
            by_shot.update(snap)
            want = [by_shot.estimate(m).value for m in (2, 3, 4)]
            got = np.where(defined[t], values[t], np.nan)
            assert np.array(want).tobytes() == got.tobytes()
        for est in (by_block, by_rows):
            assert est.matrices.tobytes() == by_shot.matrices.tobytes()
            assert [est.estimate(m) for m in (1, 2, 3, 4)] == [
                by_shot.estimate(m) for m in (1, 2, 3, 4)
            ]

    def test_shots_build_no_dense_snapshot(self, monkeypatch):
        # The factors are 16 x 16 and every buffer is kept; no product is a
        # dense snapshot, an einsum or a fresh 2**N x 2**N temporary.
        sizes = []
        kron = shadowstream.sampler._kron

        def recording(a, b):
            out = kron(a, b)
            sizes.append(out.shape[-1])
            return out

        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum in a per-shot update")

        monkeypatch.setattr(shadowstream.sampler, "_kron", recording)
        monkeypatch.setattr(np, "einsum", no_einsum)
        record = stream_shadows(werner_state(8, 0.6), 51, seed=82)
        acc = AccumulatorSet(4, Bipartition.balanced(8), 8)
        acc.update(record[0])
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        for snap in record[1:]:
            acc.update(snap)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak - base < 64 * 1024
        assert max(sizes) == 16


@pytest.fixture
def thread_pools(monkeypatch):
    """The worker count of every thread pool that an update makes."""
    made = []
    real = concurrent.futures.ThreadPoolExecutor

    def recording(max_workers):
        made.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return made


def force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(shadowstream.estimators, "_usable_cpus", lambda: cpus)


class TestThreadedTiles:
    """Past FACTOR_QUBITS a block goes tile-major, each band of tiles on its
    own thread; no byte depends on how many threads there are."""

    @pytest.mark.parametrize("n, order, shots", [(8, 3, 70), (8, 4, 70), (8, 5, 50), (9, 4, 6)])
    def test_thread_count_changes_no_byte(
        self, monkeypatch, thread_pools, tmp_path, n, order, shots
    ):
        # 70 and 50 shots cross a chunk boundary at N = 8.
        record = stream_shadows(werner_plus_mixed(n, 0.6), shots, seed=120 + n + order)
        part = tuple(range(n // 2, n))
        codes = snapshot_codes(record.axes, record.bits, part)
        orders = range(2, order + 1)
        runs = []
        for cpus in (1, 2, 3):
            force_cpus(monkeypatch, cpus)
            acc = AccumulatorSet(order, part, n)
            values, defined = acc.trajectory(codes, orders)
            save_estimator_state(acc, tmp_path / f"{cpus}.ckpt")
            runs.append((acc, values, defined, (tmp_path / f"{cpus}.ckpt").read_bytes()))
        tiles = len(runs[0][0]._tiles)
        assert thread_pools == [min(tiles, cpus) - 1 for cpus in (2, 3)]
        by_shot = AccumulatorSet(order, part, n)
        _, values, defined, _ = runs[0]
        for t, snap in enumerate(record):
            by_shot.update(snap)
            want = np.array([by_shot.estimate(m).value for m in orders])
            assert want.tobytes() == np.where(defined[t], values[t], np.nan).tobytes()
        save_estimator_state(by_shot, tmp_path / "by_shot.ckpt")
        for acc, values, defined, state in runs:
            assert values.tobytes() == runs[0][1].tobytes()
            assert defined.tobytes() == runs[0][2].tobytes()
            assert acc.top_trace == by_shot.top_trace
            assert acc.matrices.tobytes() == by_shot.matrices.tobytes()
            assert state == (tmp_path / "by_shot.ckpt").read_bytes()

    def test_more_threads_than_cores_switching_fast(self, monkeypatch, thread_pools):
        # Eight tiles on eight threads, whatever the machine has, handing the
        # interpreter lock over as often as it can: a lost or misplaced
        # write to a tile, a partial or a diagonal would move bytes.
        record = stream_shadows(werner_state(8, 0.6), 24, seed=86)
        part = Bipartition.balanced(8).transposed
        codes = snapshot_codes(record.axes, record.bits, part)
        states = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cpus in (1, 8):
                force_cpus(monkeypatch, cpus)
                acc = AccumulatorSet(5, part, 8)
                values, _ = acc.trajectory(codes, (2, 3, 4, 5))
                states.append(values.tobytes() + _pack_state(acc))
        finally:
            sys.setswitchinterval(interval)
        assert thread_pools == [7]
        assert states[0] == states[1]

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        band = AccumulatorSet._absorb_band

        def failing(self, *args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("raised in a worker")
            band(self, *args)

        monkeypatch.setattr(AccumulatorSet, "_absorb_band", failing)
        record = stream_shadows(werner_state(8, 0.6), 4, seed=83)
        part = Bipartition.balanced(8).transposed
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="raised in a worker"):
            AccumulatorSet(4, part, 8).trajectory(
                snapshot_codes(record.axes, record.bits, part), (2, 3, 4)
            )
        assert threading.active_count() == before

    def test_one_tile_makes_no_thread_pool(self, monkeypatch, thread_pools):
        force_cpus(monkeypatch, 4)
        record = stream_shadows(werner_plus_mixed(7, 0.6), 5, seed=84)
        acc = AccumulatorSet(4, (3, 4, 5, 6), 7)
        acc.trajectory(snapshot_codes(record.axes, record.bits, (3, 4, 5, 6)), (2, 3, 4))
        acc.update(record[0])
        assert len(acc._tiles) == 1 and acc._workers() == 1
        assert thread_pools == []
        assert len(acc._scratches) == 1

    def test_a_thread_cap_bounds_the_pool(self, monkeypatch, thread_pools):
        force_cpus(monkeypatch, 4)
        acc = AccumulatorSet(5, Bipartition.balanced(8), 8, threads=2)
        acc.update(stream_shadows(werner_state(8, 0.6), 1, seed=85)[0])
        assert len(acc._tiles) == 8 and thread_pools == [1]
        assert len(acc._scratches) == 2
        with pytest.raises(ValueError, match="threads"):
            AccumulatorSet(4, Bipartition.balanced(8), 8, threads=0)


class TestComplementIdentity:
    """Transposing the complement transposes every transposed snapshot, so
    every kernel value is conjugated exactly: each estimate keeps its value
    and imaginary magnitude bit for bit."""

    @staticmethod
    def estimates(strategy, record, part, orders):
        n = record.n_qubits
        stream = MomentStream(strategy, orders, part, n, n_batches=max(orders))
        stream.advance(record.axes, record.bits)
        pairs = [(e.value, e.imag_magnitude) for e in stream.estimates().values()]
        return np.array(pairs).tobytes()

    @pytest.mark.parametrize(
        "n, strategy",
        [(n, s) for n in (2, 4, 6) for s in sorted(shadowstream.estimators._STRATEGIES)]
        + [(8, s) for s in ("online-recon", "online-norecon", "plugin", "batched", "ustat")],
    )
    def test_strategies(self, n, strategy):
        record = stream_shadows(werner_plus_mixed(n, 0.6), 24 if n < 8 else 12, seed=90 + n)
        part = tuple(range(n // 2))
        rest = tuple(range(n // 2, n))
        orders = (2, 3, 4)
        assert self.estimates(strategy, record, part, orders) == self.estimates(
            strategy, record, rest, orders
        )

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_offline_ustat(self, n, order):
        record = random_record(n, 14, seed=n + order)
        one, other = (ustat_offline(record, order, range(first, n, 2)) for first in (0, 1))
        assert np.array([one.value, one.imag_magnitude]).tobytes() == np.array(
            [other.value, other.imag_magnitude]
        ).tobytes()


class TestMomentStream:
    def test_strategy_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            MomentStream("magic", (2,), PART, 2)
        with pytest.raises(ValueError):
            MomentStream("ustat", (), PART, 2)
        with pytest.raises(ValueError, match="n_batches"):
            MomentStream("batched", (2,), PART, 2)
        with pytest.raises(ValueError, match="n_batches"):
            MomentStream("batched", (2, 3), PART, 2, n_batches=2)

    @pytest.mark.parametrize("n", [13, 40])
    @pytest.mark.parametrize("strategy", ["plugin", "batched"])
    def test_dense_strategies_check_the_qubit_cap(self, strategy, n):
        # The check comes before any dense allocation.
        with pytest.raises(CapacityError):
            MomentStream(strategy, (2,), (0,), n, n_batches=2)

    @pytest.mark.parametrize(
        "strategy", ["ustat", "plugin", "batched", "online-norecon", "online-recon"]
    )
    def test_zero_qubits_are_rejected(self, strategy):
        with pytest.raises(ValueError, match="at least one qubit"):
            MomentStream(strategy, (2,), (), 0, n_batches=2)

    @pytest.mark.parametrize("strategy", ["ustat", "online-norecon"])
    def test_record_only_strategies_have_no_qubit_cap(self, strategy):
        stream = MomentStream(strategy, (2, 3), (0,), 40)
        stream.update(Snapshot([1] * 40, [0] * 40))
        assert stream.estimates()[2].well_defined is False

    def test_orders_are_sorted_and_deduped(self):
        stream = MomentStream("online-recon", (3, 2, 3), PART, 2)
        assert stream.orders == (2, 3)

    @pytest.mark.parametrize(
        "strategy,streaming",
        [
            ("ustat", False),
            ("batched", False),
            ("plugin", True),
            ("online-norecon", True),
            ("online-recon", True),
        ],
    )
    def test_streaming_flag(self, strategy, streaming):
        stream = MomentStream(strategy, (2,), PART, 2, n_batches=4)
        assert stream.streaming is streaming

    @pytest.mark.parametrize(
        "strategy", ["ustat", "plugin", "batched", "online-norecon", "online-recon"]
    )
    def test_order_one_always_exact(self, record, strategy):
        stream = MomentStream(strategy, (1, 2), PART, 2, n_batches=4)
        for snap in list(record)[:9]:
            stream.update(snap)
        assert stream.estimates()[1].value == 1.0

    def test_undefined_orders_carry_nan(self, record):
        stream = MomentStream("online-recon", (2, 3), PART, 2)
        stream.update(record[0])
        stream.update(record[1])
        estimates = stream.estimates()
        assert estimates[2].well_defined
        assert not estimates[3].well_defined
        assert math.isnan(estimates[3].value)

    def test_ustat_strategies_agree_exactly(self, record):
        streams = {
            name: MomentStream(name, (2, 3), PART, 2)
            for name in ("ustat", "online-norecon", "online-recon")
        }
        for snap in record:
            for stream in streams.values():
                stream.update(snap)
        by_name = {name: s.estimates() for name, s in streams.items()}
        for order in (2, 3):
            reference = by_name["ustat"][order].value
            assert by_name["online-norecon"][order].value == pytest.approx(
                reference, rel=1e-11
            )
            assert by_name["online-recon"][order].value == pytest.approx(
                reference, rel=1e-11
            )

    def test_norecon_orders_share_one_record(self, record, monkeypatch):
        # Every order reads one array of transposed codes, one row a shot;
        # no ShadowRecord of axes and bits is kept beside it.
        created = []

        class CountingRecord(ShadowRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(shadowstream.estimators, "ShadowRecord", CountingRecord)
        stream = MomentStream("online-norecon", (2, 3, 4), PART, 2)
        for snap in list(record)[:12]:
            stream.update(snap)
        assert created == []
        codes = snapshot_codes(record.axes[:12], record.bits[:12], PART)
        assert stream._estimator._codes[: stream.shots].tobytes() == codes.tobytes()
        estimates = stream.estimates()
        for order in (2, 3, 4):
            reference = ustat_offline(record[:12], order, PART).value
            assert estimates[order].value == pytest.approx(reference, rel=1e-11)

    def test_batched_stream_matches_direct_call(self, record):
        stream = MomentStream("batched", (2,), PART, 2, n_batches=6)
        for snap in list(record)[:30]:
            stream.update(snap)
        direct = batched_estimate(record[:30], 2, PART, n_batches=6)
        assert stream.estimates()[2].value == direct.value

    @pytest.mark.parametrize("strategy", ["plugin", "batched"])
    def test_dense_strategies_transpose_no_matrix(self, record, strategy, monkeypatch):
        # The means are sums of snapshots built from transposed codes, so
        # no read (streamed or direct) transposes a dense matrix.
        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("dense partial transpose in an estimator")

        for module in (shadowstream.states, shadowstream.estimators):
            monkeypatch.setattr(module, "partial_transpose", boom, raising=False)
        stream = MomentStream(strategy, (2, 3, 4), PART, 2, n_batches=5)
        direct = {
            "plugin": lambda shots, m: plugin_estimate(shots, m, PART),
            "batched": lambda shots, m: batched_estimate(shots, m, PART, 5),
        }[strategy]
        for hi in (10, 11, 27):
            stream.advance(record.axes[stream.shots : hi], record.bits[stream.shots : hi])
            estimates = stream.estimates()
            for m in (2, 3, 4):
                assert estimates[m] == direct(record[:hi], m)


class TestCheckpointFormat:
    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(ValueError, match="checkpoint"):
            load_estimator_state(path)

    def test_rejects_unknown_estimator_types(self, tmp_path):
        with pytest.raises(TypeError):
            save_estimator_state(object(), tmp_path / "x.ckpt")

    def test_preserves_bipartition(self, record, tmp_path):
        est = OnlineRecordEstimator(2, (0,), 2)
        for snap in list(record)[:5]:
            est.update(snap)
        save_estimator_state(est, tmp_path / "p.ckpt")
        assert load_estimator_state(tmp_path / "p.ckpt").transposed_qubits == (0,)

    @pytest.fixture(params=["record", "accumulator"])
    def blob(self, request, record, tmp_path):
        """A valid checkpoint of each kind, as bytes."""
        if request.param == "record":
            est = OnlineRecordEstimator(3, PART, 2)
        else:
            est = AccumulatorSet(2, PART, 2)
        for snap in list(record)[:20]:
            est.update(snap)
        path = tmp_path / "valid.ckpt"
        save_estimator_state(est, path)
        return path.read_bytes()

    def test_round_trip_is_byte_identical(self, blob, tmp_path):
        path = tmp_path / "again.ckpt"
        path.write_bytes(blob)
        save_estimator_state(load_estimator_state(path), path)
        assert path.read_bytes() == blob
        assert blob[4:6] == (1).to_bytes(2, "little")  # format version 1

    def test_every_strict_prefix_is_rejected(self, blob, tmp_path):
        path = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError):
                load_estimator_state(path)

    @pytest.mark.parametrize(
        "extra", [b"\0", bytes(3), bytes(16), b"\xff" * 16], ids=["1", "3", "16", "16ff"]
    )
    def test_trailing_bytes_are_rejected(self, blob, tmp_path, extra):
        path = tmp_path / "padded.ckpt"
        path.write_bytes(blob + extra)
        with pytest.raises(ValueError, match="bytes"):
            load_estimator_state(path)

    def test_rejects_unknown_kind_and_version(self, blob, tmp_path):
        path = tmp_path / "odd.ckpt"
        path.write_bytes(blob[:6] + bytes([9]) + blob[7:])
        with pytest.raises(ValueError, match="kind"):
            load_estimator_state(path)
        path.write_bytes(blob[:4] + (2).to_bytes(2, "little") + blob[6:])
        with pytest.raises(ValueError, match="version"):
            load_estimator_state(path)


@st.composite
def checkpointed(draw):
    """An online estimator of either checkpoint kind in some reachable state."""
    accumulator = draw(st.booleans())
    n = draw(st.integers(1, 2 if accumulator else 3))
    part = draw(st.sets(st.integers(0, n - 1)))
    order = draw(st.integers(1, 3))
    shots = draw(st.integers(0, 5))
    axes = draw(st.lists(st.integers(0, 2), min_size=n * shots, max_size=n * shots))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * shots, max_size=n * shots))
    record = ShadowRecord.from_arrays(
        np.array(axes, dtype=np.uint8).reshape(shots, n),
        np.array(bits, dtype=np.uint8).reshape(shots, n),
        seed=draw(st.none() | st.integers(0, 2**64 - 1)),
    )
    if accumulator:
        return accumulate(record, order, part)
    finite = st.complex_numbers(allow_nan=False, allow_infinity=False)
    return OnlineRecordEstimator(order, part, n, record=record, running_sum=draw(finite))


def flips_that_repack_differently(blob: bytes) -> list[int]:
    """Bit positions whose flip loads to an estimator packing other bytes."""
    bad = []
    for i in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[i // 8] ^= 1 << (i % 8)
        try:
            est = _unpack_state(bytes(flipped))
        except ValueError:
            continue
        if _pack_state(est) != flipped:
            bad.append(i)
    return bad


class TestCheckpointDecoding:
    """Malformed SSES checkpoints raise ValueError; whatever loads is canonical."""

    @given(checkpointed())
    @settings(max_examples=60, deadline=None)
    def test_save_load_save_is_identity(self, est):
        blob = _pack_state(est)
        again = _unpack_state(blob)
        assert type(again) is type(est)
        assert _pack_state(again) == blob

    @given(checkpointed())
    @settings(max_examples=30, deadline=None)
    def test_strict_prefixes_raise(self, est):
        blob = _pack_state(est)
        for end in range(len(blob)):
            with pytest.raises(ValueError):
                _unpack_state(blob[:end])

    @given(checkpointed())
    @settings(max_examples=20, deadline=None)
    def test_single_bit_flips_raise_or_repack_exactly(self, est):
        assert flips_that_repack_differently(_pack_state(est)) == []

    def test_only_checkpointable_strategies_pack(self):
        with pytest.raises(TypeError, match="cannot checkpoint _RecordSums"):
            _pack_state(_RecordSums(2, {2: 0j}))

    def test_zero_qubit_accumulators_are_rejected(self):
        # Order 2, N = 0, no shots, an empty part list and one 1x1 matrix
        # per order (kind 2) or per lower order plus the trace (kind 3): an
        # accumulator that no snapshot could update.
        for kind in (2, 3):
            head = shadowstream.estimators._STATE_HEADER.pack(b"SSES", 1, kind, 2, 0, 0)
            with pytest.raises(ValueError, match="qubit"):
                _unpack_state(head + bytes(2) + bytes(32))
        with pytest.raises(ValueError, match="qubit"):
            AccumulatorSet(2, (), 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_raise_naming_the_field(self, record, bad):
        # A running sum, top-order trace or accumulator entry that is not
        # finite would load and poison every later estimate.
        start = shadowstream.estimators._STATE_HEADER.size + 2 + 2 * len(PART)
        head = shadowstream.estimators._STATE_HEADER.pack(b"SSES", 1, 2, 3, 2, 5)
        dense = head + struct.pack("<HH", 1, *PART) + dense_products(record[:5], 3, PART).tobytes()
        online = _pack_state(OnlineRecordEstimator(2, PART, 2, record=record[:5]))
        accumulators = _pack_state(accumulate(record[:5], 3, PART))
        for blob, at, field in [
            (online, start, "running sum"),
            (online, start + 8, "running sum"),
            (accumulators, start + 16 * 21 + 8, "accumulator matrices"),
            (accumulators, len(accumulators) - 8, "top-order trace"),
            (dense, start + 16 * 37, "accumulator matrices"),
        ]:
            assert np.isfinite(struct.unpack_from("<d", blob, at)[0])
            patched = bytearray(blob)
            patched[at : at + 8] = struct.pack("<d", bad)
            with pytest.raises(ValueError, match=f"'{field}' holds a NaN or infinity"):
                _unpack_state(bytes(patched))

    def test_rejects_a_part_list_that_is_not_strictly_increasing(self):
        blob = bytearray(_pack_state(OnlineRecordEstimator(2, (0, 2), 3)))
        offset = shadowstream.estimators._STATE_HEADER.size + 2
        assert blob[offset : offset + 4] == bytes([0, 0, 2, 0])
        blob[offset] = 2  # the part list now reads (2, 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            _unpack_state(bytes(blob))
