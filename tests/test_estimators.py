"""Estimator correctness, streaming identities, and checkpointing."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadowstream.estimators
import shadowstream.kernel
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
    batch_code_traces,
    batch_tuple_traces,
    chain_trace_table,
    closing_tables,
    factors_from_codes,
    group_width,
    pairs_sum_exactly,
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
        # Up to the bound the pairs are summed by dots, past it value by
        # value from index blocks; both give the bytes of the index blocks'
        # sum in lexicographic order.
        record = random_record(n, shots, seed=n + shots)
        part = tuple(range(0, n, 2))
        codes = snapshot_codes(record.axes, record.bits, part)
        tables = np.broadcast_to(chain_trace_table(2).reshape(6, 6), (n, 6, 6))
        total = 0.0 + 0.0j
        for chunk in subset_index_chunks(shots, 2):
            total += batch_code_traces(codes, chunk, tables).sum()
        want = np.complex128(total / math.comb(shots, 2))
        seen = set()
        evaluate = shadowstream.estimators.batch_code_traces

        def spy(codes, indices, tables=None):
            seen.add(type(indices).__name__)
            return evaluate(codes, indices, tables)

        monkeypatch.setattr(shadowstream.estimators, "batch_code_traces", spy)
        got = ustat_offline(record, 2, part)
        assert seen == ({"PairSum"} if pairs_sum_exactly(2, n, shots) else {"ndarray"})
        assert np.float64(got.value).tobytes() == want.real.tobytes()
        assert np.float64(got.imag_magnitude).tobytes() == abs(want.imag).tobytes()


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
        monkeypatch.setattr(shadowstream.estimators, "partial_transpose", boom)
        monkeypatch.setattr(shadowstream.kernel, "snapshot_matrix", boom)
        monkeypatch.setattr(shadowstream.kernel, "partial_transpose", boom)
        online = OnlineRecordEstimator(3, PART, 2)
        for snap in list(record)[:10]:
            online.update(snap)
        assert online.estimate().well_defined


class TestIncrementalCodes:
    @pytest.fixture
    def encoded_rows(self, monkeypatch):
        """Row counts of every ``snapshot_codes`` call the estimators make."""
        rows = []
        original = shadowstream.estimators.snapshot_codes

        def counting(axes, bits, part):
            rows.append(len(axes))
            return original(axes, bits, part)

        monkeypatch.setattr(shadowstream.estimators, "snapshot_codes", counting)
        return rows

    def test_each_shot_is_encoded_once(self, record, encoded_rows):
        stream = MomentStream("online-norecon", (2, 3), PART, 2)
        online = OnlineRecordEstimator(3, PART, 2)
        for snap in list(record)[:30]:
            stream.update(snap)
            online.update(snap)
        assert encoded_rows == [1] * 60
        assert online.estimate().value == ustat_offline(record[:30], 3, PART).value

    def test_restored_record_is_encoded_once(self, record, tmp_path, encoded_rows):
        full = OnlineRecordEstimator(3, PART, 2)
        for snap in list(record)[:17]:
            full.update(snap)
        path = tmp_path / "online.ckpt"
        save_estimator_state(full, path)
        resumed = load_estimator_state(path)
        encoded_rows.clear()
        for snap in list(record)[17:22]:
            full.update(snap)
            resumed.update(snap)
        assert encoded_rows == [1, 18, 1, 1, 1, 1, 1, 1, 1, 1]
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
    def assert_fresh_sums_match(n, m, shots, seed, table=None, checked=None):
        record = random_record(n, shots, seed)
        part = tuple(range(0, n, 2))
        codes = snapshot_codes(record.axes, record.bits, part)
        sums = _RecordSums(part, ShadowRecord(n), {m: 0j})
        for t in range(shots):
            sums.advance(record.axes[t : t + 1], record.bits[t : t + 1])
            if t + 1 < m or (checked is not None and t not in checked):
                continue
            want = closed_tuple_fresh(codes, t, m, chain_trace_table(m) if table is None else table)
            got = sums._fresh(m, t, closing_tables(m, sums._codes[t], sums._widths[m]))
            assert np.complex128(got).tobytes() == np.complex128(want).tobytes(), (n, m, t)

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
        # from 15 earlier shots on, they come as index blocks.
        assert group_width(3, 8) == 2
        assert pairs_sum_exactly(3, 8, 14) and not pairs_sum_exactly(3, 8, 15)
        self.assert_fresh_sums_match(8, 3, 70, seed=8)

    @pytest.mark.parametrize("n, shots, bound", [(7, 106, 102), (6, 767, 764)])
    def test_summed_pairs_meet_the_value_path(self, monkeypatch, n, shots, bound):
        # Up to ``bound`` earlier shots the closing pairs are summed by dots
        # over closing columns, past it value by value from index blocks;
        # both give the bytes of the closed-tuple evaluation.
        assert pairs_sum_exactly(3, n, bound) and not pairs_sum_exactly(3, n, bound + 1)
        seen = {}
        evaluate = shadowstream.estimators.batch_code_traces

        def spy(codes, indices, tables=None):
            seen.setdefault(type(indices).__name__, set()).add(len(codes))
            return evaluate(codes, indices, tables)

        monkeypatch.setattr(shadowstream.estimators, "batch_code_traces", spy)
        self.assert_fresh_sums_match(n, 3, shots, seed=n, checked=set(range(bound - 2, shots)))
        assert seen["PairSum"] == set(range(2, bound + 1))
        assert seen["ndarray"] == set(range(bound + 1, shots))

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
        factors = factors_from_codes(snapshot_codes(record.axes, record.bits, PART))
        sums = _RecordSums(PART, ShadowRecord(2), {7: 0j})
        for t in range(10):
            sums.advance(record.axes[t : t + 1], record.bits[t : t + 1])
            if t < 6:
                continue
            want = 0.0 + 0.0j
            for chunk in subset_index_chunks(t, 6):
                closed = np.concatenate([chunk, np.full((len(chunk), 1), t)], axis=1)
                want += batch_tuple_traces(factors, closed).sum()
            assert np.complex128(sums._fresh(7, t, None)).tobytes() == np.complex128(want).tobytes()

    @pytest.mark.parametrize("n, m", [(3, 4), (10, 3), (13, 2)])
    def test_qubit_order_where_groups_are_single(self, monkeypatch, n, m):
        # A non-dyadic table rounds in every product, so only the parent's
        # left-to-right qubit order reproduces its bytes.
        assert group_width(m, n) == 1
        rng = np.random.default_rng(n + m)
        table = rng.normal(size=6**m) + 1j * rng.normal(size=6**m)
        monkeypatch.setattr(shadowstream.kernel, "chain_trace_table", lambda length: table)
        self.assert_fresh_sums_match(n, m, 8, seed=m, table=table)


class TestAccumulatorSet:
    @pytest.mark.parametrize("n,part", [(2, PART), (3, (0, 2)), (4, (1, 3))])
    def test_bitwise_equal_to_kron_chain_updates(self, n, part):
        """Code-table updates reproduce the dense ``np.kron`` reference
        updates bit for bit, zero signs included in every sum."""
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
        assert acc.matrices.tobytes() == mats.tobytes()

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

    def test_memory_is_order_times_dense_matrix(self):
        acc = AccumulatorSet(5, PART, 2)
        assert acc.matrices.shape == (5, 4, 4)
        with pytest.raises(ValueError):
            acc.matrices[0, 0, 0] = 1.0

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
        assert np.array_equal(resumed.matrices, baseline.matrices)
        assert resumed.estimate(3).value == baseline.estimate(3).value

    def test_snapshot_qubit_mismatch(self):
        acc = AccumulatorSet(2, PART, 2)
        with pytest.raises(ValueError):
            acc.update(Snapshot("X", [0]))


def dense_products(record, order, part):
    """Accumulators built by the plain dense product ``mats[k-1] @ dense``."""
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
        assert acc.matrices.tobytes() == dense_products(record, 4, part).tobytes()

    @pytest.mark.parametrize("n, shots", [(9, 6), (10, 3)])
    def test_short_streams_above_eight_qubits(self, n, shots):
        record = random_record(n, shots, seed=n)
        part = tuple(range(n // 2, n))
        acc = accumulate(record, 4, part)
        assert acc.matrices.tobytes() == dense_products(record, 4, part).tobytes()

    @pytest.mark.parametrize("factor_qubits", [1, 2, 3, 4])
    def test_any_block_split_gives_the_same_bytes(self, factor_qubits, monkeypatch):
        monkeypatch.setattr(shadowstream.estimators, "FACTOR_QUBITS", factor_qubits)
        record = random_record(5, 60, seed=factor_qubits)
        acc = accumulate(record, 4, (1, 4))
        assert len(acc._steps) == -(-5 // factor_qubits) - 1
        assert acc.matrices.tobytes() == dense_products(record, 4, (1, 4)).tobytes()

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
        assert resumed.shots == full.shots == 40


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
        created = []

        class CountingRecord(ShadowRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(shadowstream.estimators, "ShadowRecord", CountingRecord)
        stream = MomentStream("online-norecon", (2, 3, 4), PART, 2)
        for snap in list(record)[:12]:
            stream.update(snap)
        assert len(created) == 1
        assert len(created[0]) == stream.shots == 12
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
    return OnlineRecordEstimator(
        order, part, n, record=record, running_sum=draw(st.complex_numbers())
    )


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
            _pack_state(_RecordSums((0,), ShadowRecord(2), {2: 0j}))

    def test_zero_qubit_accumulators_are_rejected(self):
        # Kind 2, order 2, N = 0, no shots, an empty part list and one 1x1
        # matrix per order: an accumulator that no snapshot could update.
        head = shadowstream.estimators._STATE_HEADER.pack(b"SSES", 1, 2, 2, 0, 0)
        with pytest.raises(ValueError, match="qubit"):
            _unpack_state(head + bytes(2) + bytes(32))
        with pytest.raises(ValueError, match="qubit"):
            AccumulatorSet(2, (), 0)

    def test_rejects_a_part_list_that_is_not_strictly_increasing(self):
        blob = bytearray(_pack_state(OnlineRecordEstimator(2, (0, 2), 3)))
        offset = shadowstream.estimators._STATE_HEADER.size + 2
        assert blob[offset : offset + 4] == bytes([0, 0, 2, 0])
        blob[offset] = 2  # the part list now reads (2, 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            _unpack_state(bytes(blob))
