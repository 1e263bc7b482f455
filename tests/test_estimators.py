"""Estimator correctness, streaming identities, and checkpointing."""

import functools
import itertools
import math

import numpy as np
import pytest

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
from shadowstream.kernel import pt_flip
from shadowstream.sampler import FACTORS
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


class TestMomentStream:
    def test_strategy_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            MomentStream("magic", (2,), PART, 2)
        with pytest.raises(ValueError):
            MomentStream("ustat", (), PART, 2)
        with pytest.raises(ValueError, match="n_batches"):
            MomentStream("batched", (2,), PART, 2)

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

    def test_norecon_orders_share_one_record(self, record):
        stream = MomentStream("online-norecon", (2, 3, 4), PART, 2)
        for snap in list(record)[:12]:
            stream.update(snap)
        records = {id(est.record) for est in stream._norecon.values()}
        assert len(records) == 1
        assert stream.shots == 12

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
