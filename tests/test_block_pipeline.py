"""The block shot pipeline equals the one-shot-at-a-time path bit for bit.

Runs draw and estimate shots as ``(B, N)`` array blocks; each piece is
checked here against the per-shot route it replaces: the sampler against
``shot_rng`` + ``BornSampler.sample``, accumulator trajectories against
per-shot ``update``/``estimate``, the row-wise Newton-Girard conversion
against the scalar one, and the vectorised stop streak against a
shot-by-shot monitor.
"""

import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import shadowstream
from shadowstream import (
    AccumulatorSet,
    BornSampler,
    DensityMatrix,
    ExperimentConfig,
    MomentStream,
    Snapshot,
    load_estimator_state,
    newton_girard,
    save_estimator_state,
    shot_rng,
    stream_shadows,
    werner_state,
)
from shadowstream.kernel import snapshot_codes, subset_index_chunks
from shadowstream.runner import (
    _build_state,
    _observe,
    _run_single,
    _StopMonitor,
    _transposed_qubits,
    run_seed_for,
)

SEEDS = (3, 17, 2**64 - 5)
STRATEGIES = ["online-recon", "online-norecon", "ustat", "plugin", "batched"]


def forbid_snapshots(monkeypatch):
    """Make any per-shot ``Snapshot`` that the estimators build fail the test."""

    def no_snapshots(*args):
        raise AssertionError("a block path built a per-shot Snapshot")

    monkeypatch.setattr(shadowstream.estimators, "Snapshot", no_snapshots)


class CountingSampler(BornSampler):
    """Counts the shots that take the per-shot fallback route."""

    fallbacks = 0

    def sample(self, rng):
        self.fallbacks += 1
        return super().sample(rng)


def random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2**n_qubits,) * 2) + 1j * rng.normal(size=(2**n_qubits,) * 2)
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def ragged_blocks(count, sizes=(1, 37, 256, 100, 999)):
    """Block bounds whose sizes do not divide the run."""
    start = 0
    for size in itertools.cycle(sizes):
        if start >= count:
            return
        yield start, min(start + size, count)
        start += size


class TestBlockSampler:
    # 3 seeds x (4 x 15000 + 6000 + 700) = 200 100 shots in all.
    @pytest.mark.parametrize("n, count", [(1, 15000), (2, 15000), (3, 15000), (4, 15000),
                                          (8, 6000), (9, 700)])
    def test_block_rows_equal_per_shot_draws(self, n, count):
        rho = random_state(n, n)
        for seed in SEEDS:
            block = CountingSampler(rho)
            blocks = [block.sample_block(seed, lo, hi) for lo, hi in ragged_blocks(count)]
            axes = np.concatenate([a for a, _ in blocks])
            bits = np.concatenate([b for _, b in blocks])
            per_shot = BornSampler(rho)
            expected = [per_shot.sample(shot_rng(seed, i)) for i in range(count)]
            assert np.array_equal(axes, np.array([s.axes for s in expected]))
            assert np.array_equal(bits, np.array([s.bits for s in expected]))
            # Rejected draws go through the per-shot route; beyond 8 qubits all do.
            if n <= 8:
                assert 0 < block.fallbacks < count // 10
            else:
                assert block.fallbacks == count

    def test_empty_block(self):
        axes, bits = BornSampler(werner_state(2, 0.5)).sample_block(1, 5, 5)
        assert axes.shape == bits.shape == (0, 2)

    def test_stream_shadows_uses_the_same_draws(self):
        rho = werner_state(2, 0.7)
        record = stream_shadows(rho, 700, 9, workers=3)
        sampler = BornSampler(rho)
        for i in (0, 255, 256, 699):
            snap = sampler.sample(shot_rng(9, i))
            assert record[i] == snap

    def test_package_import_loads_no_process_pool(self):
        probe = (
            "import sys, shadowstream; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', "
            "'concurrent.futures.thread') if m in sys.modules))"
        )
        src = str(Path(shadowstream.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "[]"


def per_shot_reference(acc, record):
    """Per-shot estimates of every order after each shot, and the final
    state: the lower-order matrices, then the top order's running trace."""
    values = []
    for snap in record:
        acc.update(snap)
        values.append([acc.estimate(k).value for k in range(1, acc.order + 1)])
    return np.array(values), accumulator_state(acc)


def accumulator_state(acc) -> bytes:
    return acc.matrices.tobytes() + np.complex128(acc.top_trace).tobytes()


class TestAccumulatorTrajectory:
    @pytest.mark.parametrize("n, order, count", [(2, 4, 700), (3, 4, 400), (4, 4, 300),
                                                 (5, 3, 80), (6, 3, 24), (2, 1, 40),
                                                 (3, 2, 90), (7, 4, 100), (8, 4, 90)])
    def test_trajectory_equals_per_shot_updates(self, n, order, count, tmp_path):
        part = tuple(range(n // 2, n))
        record = stream_shadows(random_state(n, 20 + n), count, 5 + n)
        expected, final = per_shot_reference(AccumulatorSet(order, part, n), record)
        orders = list(range(1, order + 1))
        acc = AccumulatorSet(order, part, n)
        got = []
        for i, (lo, hi) in enumerate(ragged_blocks(count, (3, 64, 19, 128))):
            if i == 2:  # resume from a checkpoint between blocks
                save_estimator_state(acc, tmp_path / "acc.sses")
                acc = load_estimator_state(tmp_path / "acc.sses")
            codes = snapshot_codes(record.axes[lo:hi], record.bits[lo:hi], part)
            values, defined = acc.trajectory(codes, orders)
            assert np.array_equal(defined, ~np.isnan(expected[lo:hi]))
            got.append(values)
        assert np.concatenate(got).tobytes() == expected.tobytes()
        assert accumulator_state(acc) == final
        assert acc.shots == count

    @pytest.mark.parametrize("n", [2, 5])
    def test_top_trace_adds_increments_in_shot_order(self, n):
        # A non-dyadic starting trace rounds at every add, so the block path
        # keeps the per-shot bits only by adding each row's increment to it
        # in shot order.
        part = tuple(range(n // 2, n))
        record = stream_shadows(random_state(n, 3), 150, 9)
        start = complex(1000 * np.pi, -1000 * np.e)
        expected, final = per_shot_reference(AccumulatorSet(3, part, n, top_trace=start), record)
        acc = AccumulatorSet(3, part, n, top_trace=start)
        codes = snapshot_codes(record.axes, record.bits, part)
        values = np.concatenate(
            [acc.trajectory(codes[lo:hi], [1, 2, 3])[0] for lo, hi in ragged_blocks(150, (7, 50))]
        )
        assert values.tobytes() == expected.tobytes()
        assert accumulator_state(acc) == final

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stream_trajectory_equals_update_and_estimates(self, strategy):
        record = stream_shadows(werner_state(2, 0.8), 90, 4)
        one, block = (MomentStream(strategy, (1, 2, 3), (1,), 2, n_batches=4) for _ in range(2))
        expected = []
        for snap in record:
            one.update(snap)
            estimates = one.estimates()
            expected.append([estimates[m].value for m in (1, 2, 3)])
        values = np.concatenate(
            [block.trajectory(record.axes[lo:hi], record.bits[lo:hi])[0]
             for lo, hi in ragged_blocks(90, (7, 50))]
        )
        assert values.tobytes() == np.array(expected).tobytes()
        assert block.shots == one.shots == 90


def random_block(n, count, seed):
    """Uniformly random ``(count, n)`` axes and bits."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, (count, n)), rng.integers(0, 2, (count, n))


def per_shot_stream(strategy, orders, n, axes, bits, n_batches=None):
    """A stream fed shot by shot, and its estimates after each shot."""
    stream = MomentStream(strategy, orders, tuple(range(n // 2, n)), n, n_batches=n_batches)
    values = []
    for row_axes, row_bits in zip(axes, bits):
        stream.update(Snapshot(row_axes, row_bits))
        values.append([est.value for est in stream.estimates().values()])
    return stream, np.array(values)


def same_estimates(a, b):
    return [(e.shots, e.well_defined, np.float64(e.value).tobytes()) for e in a.values()] == [
        (e.shots, e.well_defined, np.float64(e.value).tobytes()) for e in b.values()
    ]


class TestRecordTrajectory:
    """The record-only engine absorbs a block as arrays: one record write,
    one encoding and the running sums after each row, equal to per-shot
    ``update``/``estimates`` byte for byte."""

    @staticmethod
    def assert_blocks_match(n, orders, count, seed, sizes=(3, 64, 19, 128)):
        axes, bits = random_block(n, count, seed)
        one, expected = per_shot_stream("online-norecon", orders, n, axes, bits)
        block = MomentStream("online-norecon", orders, tuple(range(n // 2, n)), n)
        got, seen = [], []
        for lo, hi in ragged_blocks(count, sizes):
            values, defined = block.trajectory(axes[lo:hi], bits[lo:hi])
            got.append(values)
            seen.append(defined)
        assert np.concatenate(got).tobytes() == expected.tobytes()
        assert np.array_equal(np.concatenate(seen), ~np.isnan(expected))
        assert block.shots == one.shots == count
        assert block._record[:].tobytes() == one._record[:].tobytes()
        assert same_estimates(block.estimates(), one.estimates())

    @pytest.mark.parametrize("orders", [(1, 2, 3), (2, 3, 4)])
    @pytest.mark.parametrize("n, count", [(2, 90), (4, 90), (8, 90), (10, 60)])
    def test_trajectory_equals_per_shot_updates(self, n, count, orders):
        self.assert_blocks_match(n, orders, count, seed=10 * n + orders[0])

    def test_per_qubit_pair_spans(self):
        # Past 9 qubits the closing pairs of order 3 are no longer sure to
        # sum exactly; they are summed by dots over 2-qubit groups all the
        # same, as the per-shot path sums them.
        self.assert_blocks_match(10, (3,), 80, seed=4, sizes=(80,))

    def test_spans_across_row_blocks(self):
        # From 363 earlier shots on, the pairs of the past would fill
        # several index blocks.  At N = 4 they are all summed exactly, over
        # ten column blocks at the end.
        assert len(list(subset_index_chunks(610, 2))) == 3
        self.assert_blocks_match(4, (2, 3), 620, seed=6)

    @pytest.mark.parametrize("width", [7, 100])
    def test_column_blocks_of_any_width(self, monkeypatch, width):
        # The record above, its closing pairs summed over column blocks of
        # other widths.
        monkeypatch.setattr(shadowstream.kernel, "_SUM_COLUMNS", width)
        self.assert_blocks_match(4, (2, 3), 620, seed=6)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_advance_equals_per_shot_updates(self, strategy, monkeypatch):
        axes, bits = random_block(3, 150, 9)
        blocks = list(ragged_blocks(150, (3, 64, 19, 128)))
        one = MomentStream(strategy, (1, 2, 3), (1, 2), 3, n_batches=4)
        expected = []
        for lo, hi in blocks:
            for row_axes, row_bits in zip(axes[lo:hi], bits[lo:hi]):
                one.update(Snapshot(row_axes, row_bits))
            expected.append(one.estimates())
        forbid_snapshots(monkeypatch)
        block = MomentStream(strategy, (1, 2, 3), (1, 2), 3, n_batches=4)
        for (lo, hi), want in zip(blocks, expected):
            block.advance(axes[lo:hi], bits[lo:hi])
            assert same_estimates(block.estimates(), want)
        assert block.shots == one.shots == 150

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_block_trajectory_equals_per_shot_updates(self, strategy, monkeypatch):
        axes, bits = random_block(3, 150, 9)
        one, expected = per_shot_stream(strategy, (1, 2, 3), 3, axes, bits, n_batches=4)
        forbid_snapshots(monkeypatch)
        block = MomentStream(strategy, (1, 2, 3), (1, 2), 3, n_batches=4)
        got = [block.trajectory(axes[lo:hi], bits[lo:hi])
               for lo, hi in ragged_blocks(150, (3, 64, 19, 128))]
        values, defined = (np.concatenate(parts) for parts in zip(*got))
        assert values.tobytes() == expected.tobytes()
        assert np.array_equal(defined, ~np.isnan(expected))
        assert block.shots == one.shots == 150
        assert same_estimates(block.estimates(), one.estimates())


MALFORMED = {
    "bit 2": ([[1, 0]], [[0, 2]]),
    "axis 3": ([[3, 0]], [[0, 1]]),
    "three qubits": ([[0, 1, 2]], [[0, 1, 0]]),
    "one-dimensional": ([0, 1], [0, 1]),
    "scalars": (1, 0),
    "shapes differ": ([[0, 1]], [[0, 1], [1, 0]]),
    "axis 256": ([[256, 0]], [[0, 1]]),
    "bit -1": ([[1, 0]], [[0, -1]]),
    "axis 0.5": ([[0.5, 0]], [[0, 1]]),
}


class TestBlockChecks:
    @pytest.mark.parametrize("method", ["trajectory", "advance"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_blocks_raise(self, case, strategy, method):
        axes, bits = MALFORMED[case]
        stream = MomentStream(strategy, (2, 3), (1,), 2, n_batches=3)
        with pytest.raises(ValueError):
            getattr(stream, method)(np.array(axes), np.array(bits))
        assert stream.shots == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_wrong_size_snapshot_raises(self, strategy):
        stream = MomentStream(strategy, (2, 3), (1,), 2, n_batches=3)
        for snapshot in (Snapshot("XYZ", [0, 1, 0]), Snapshot("X", [1])):
            with pytest.raises(ValueError, match="qubits"):
                stream.update(snapshot)
            assert stream.shots == 0
        stream.update(Snapshot("XY", [0, 1]))
        assert stream.shots == 1


def scalar_newton_girard(p):
    """``k e_k = sum_j (-1)**(j-1) p_j e_{k-j}`` in Python floats, term by term."""
    e = [1.0]
    for k in range(1, len(p) + 1):
        acc = 0.0
        for j in range(1, k + 1):
            term = p[j - 1] * e[k - j]
            acc += term if j % 2 else -term
        e.append(acc / k)
    return np.array(e)


def same_bits(a, b):
    """NaN at the same places (its sign bit depends on the instruction
    sequence and reaches no output), every other entry bit-identical."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


class TestRowwiseNewtonGirard:
    def test_rows_equal_scalar_recurrence(self):
        rng = np.random.default_rng(8)
        power = rng.normal(size=(200, 5))
        power[:, 0] = 1.0
        power[10, 2:] = np.nan
        power[11, 1:] = np.nan
        power[12] = [1.0, np.nan, 0.3, np.nan, 0.1]
        power[13, 1:] = -0.0
        power[14, 1:] = 0.0
        rows = newton_girard(power)
        assert rows.shape == (200, 6)
        for row, p in zip(rows, power):
            assert same_bits(row, scalar_newton_girard(p.tolist()))
            assert same_bits(row, newton_girard(p).values)

    def test_nan_spreads_to_higher_orders_only(self):
        rows = newton_girard(np.array([[1.0, 0.5, np.nan, 0.2]]))
        assert np.isfinite(rows[0, :3]).all() and np.isnan(rows[0, 3:]).all()

    def test_rejects_higher_dimensional_input(self):
        with pytest.raises(ValueError):
            newton_girard(np.ones((2, 2, 2)))


def scalar_fire(tolerance, window, shots, values):
    """The monitor's rule applied one iterate at a time."""
    prev, streak = None, 0
    for shot, value in zip(shots, values):
        if prev is not None:
            delta = abs(value - prev)
            if delta == 0.0 or delta < tolerance * max(abs(value), abs(prev)):
                streak += 1
            else:
                streak = 0
            if streak >= window:
                return shot
        prev = value
    return None


SEQUENCES = {
    "zeros": [0.0] * 12,
    "exact repeats": [1.0, 2.0, 2.0, 2.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0],
    "never calm": [1.0, 2.0] * 10,
    "slow drift": list(1.0 + 0.004 * np.arange(40)),
    "reset then calm": [1.0, 1.001, 1.002, 3.0, 3.001, 3.0, 3.002, 3.001, 3.0, 3.0],
}


class TestVectorisedStopStreak:
    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    @pytest.mark.parametrize("split", [None, 1, 3, 4])
    def test_fires_where_the_scalar_rule_fires(self, name, split):
        values = SEQUENCES[name]
        shots = np.arange(1, len(values) + 1)
        expected = scalar_fire(0.01, 4, shots.tolist(), values)
        monitor = _StopMonitor(0.01, 4)
        cuts = [0, len(values)] if split is None else [0, split, len(values)]
        fired = [monitor.push(shots[a:b], np.array(values[a:b])) for a, b in zip(cuts, cuts[1:])]
        assert monitor.fired_at == expected
        assert [f for f in fired if f is not None] == ([] if expected is None else [expected])

    def test_streak_straddles_a_block_boundary(self):
        values = [1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0]
        monitor = _StopMonitor(1e-6, 4)
        assert monitor.push(np.arange(1, 5), np.array(values[:4])) is None
        assert monitor.push(np.arange(5, 8), np.array(values[4:])) == 6
        assert monitor.push(np.arange(8, 9), np.array([9.0])) is None
        assert monitor.fired_at == 6

    def test_undefined_early_orders_are_skipped(self):
        # Order 3 is undefined for the first two shots; order 2 from shot 2.
        shots = np.arange(1, 13)
        p2 = np.r_[np.nan, 0.5 + 0.0001 * np.arange(11)]
        p3 = np.r_[np.nan, np.nan, 0.25 * np.ones(10)]
        values = np.stack([np.ones(12), p2, p3], axis=1)
        defined = ~np.isnan(values)
        for watch, order in ((3, 3), (2, 2)):
            monitors = {m: _StopMonitor(1e-3, 3) for m in (1, 2, 3)}
            stop = _observe(monitors, (1, 2, 3), shots, values, defined, watch)
            col = order - 1
            expected = scalar_fire(1e-3, 3, shots[defined[:, col]].tolist(),
                                   values[defined[:, col], col].tolist())
            assert stop is not None and shots[stop] == expected == monitors[order].fired_at
            # The other monitors saw only the rows up to the stop shot.
            for m in (1, 2, 3):
                fired = monitors[m].fired_at
                assert fired is None or fired <= expected


def per_shot_run(config, run):
    """A run one shot at a time: the loop the block runner replaced."""
    config = config.validated()
    part = _transposed_qubits(config)
    streams = {
        name: MomentStream(name, config.orders, part, config.n_qubits, config.n_batches)
        for name in config.strategies
    }
    monitors = {name: {m: [None, 0, None] for m in config.orders} for name in streams}
    seed = run_seed_for(config.seed, run)
    sampler = BornSampler(_build_state(config))
    traces = {
        name: {"shots": [], "moments": {m: [] for m in config.orders},
               "esps": {k: [] for k in config.esp_orders()}}
        for name in streams
    }
    stop_shot = None
    for index in range(config.shots):
        shot = index + 1
        snapshot = sampler.sample(shot_rng(seed, index))
        stride = config.stride_dense if shot <= config.stride_switch else config.stride_sparse
        due = shot % stride == 0 or shot == config.shots
        stopping = False
        for name, stream in streams.items():
            stream.update(snapshot)
            if not (stream.streaming or due or stopping):
                continue
            estimates = stream.estimates()
            for m, state in monitors[name].items():
                prev, streak, fired = state
                if fired is not None or not estimates[m].well_defined:
                    continue
                value = estimates[m].value
                if prev is not None:
                    delta = abs(value - prev)
                    calm = delta == 0.0 or delta < config.tolerance * max(abs(value), abs(prev))
                    streak = streak + 1 if calm else 0
                    if streak >= config.window:
                        fired = shot
                monitors[name][m] = [value, streak, fired]
            if name == config.strategies[0]:
                fired = monitors[name][config.target][2]
                stopping = config.stop_on_convergence and fired is not None
            if due or stopping:
                trace = traces[name]
                trace["shots"].append(shot)
                power = [1.0]
                for k in range(2, max(trace["esps"]) + 1):
                    if not estimates[k].well_defined:
                        break
                    power.append(estimates[k].value)
                esp = newton_girard(power).values
                for m in config.orders:
                    est = estimates[m]
                    keep = est.well_defined and not np.isnan(est.value)
                    trace["moments"][m].append(est.value if keep else None)
                for k in trace["esps"]:
                    trace["esps"][k].append(
                        None if k >= esp.size or np.isnan(esp[k]) else float(esp[k])
                    )
        if stopping:
            stop_shot = shot
            break
    return [
        {"strategy": name, "shots": trace["shots"],
         "moments": {str(m): v for m, v in trace["moments"].items()},
         "esps": {str(k): v for k, v in trace["esps"].items()},
         "stopped_at": {str(m): monitors[name][m][2] for m in config.orders},
         "stop_shot": stop_shot}
        for name, trace in traces.items()
    ]


RUN_CONFIGS = {
    "stop, streaming": dict(strategies=("online-recon",), tolerance=0.02, window=10),
    "stop at order 2 of 1,2,3": dict(orders=(1, 2, 3), target_order=2, tolerance=0.05, window=4),
    "no stop, sparse strides": dict(stop_on_convergence=False, shots=700, stride_dense=3,
                                    stride_switch=100, stride_sparse=7),
    "streaming primary, paced second": dict(strategies=("online-recon", "ustat"),
                                            tolerance=0.05, window=5, stride_dense=7),
    "paced primary": dict(strategies=("batched", "online-recon", "plugin"), tolerance=0.3,
                          window=2, stride_dense=5, n_batches=4),
    "orders 2,4 without 3": dict(orders=(2, 4), tolerance=0.02, window=3),
    "four qubits, record": dict(n_qubits=4, t=0.9, strategies=("online-norecon",), shots=90,
                                tolerance=0.1, window=3),
}


@pytest.mark.parametrize("name", list(RUN_CONFIGS))
def test_block_runs_equal_per_shot_runs(name):
    config = ExperimentConfig(n_qubits=2, t=0.8, shots=600, runs=1, seed=23)
    config = replace(config, **RUN_CONFIGS[name])
    for run in range(3):
        block = [
            {key: trace[key] for key in ("strategy", "shots", "moments", "esps", "stopped_at",
                                         "stop_shot")}
            for trace in _run_single(config.validated(), run)
        ]
        assert json.dumps(block) == json.dumps(per_shot_run(config, run))


def traced_sample_blocks(monkeypatch):
    """Record the ``(start, stop)`` of every ``BornSampler.sample_block`` call."""
    calls = []
    sample_block = BornSampler.sample_block

    def recording(self, seed, start, stop):
        calls.append((start, stop))
        return sample_block(self, seed, start, stop)

    monkeypatch.setattr(BornSampler, "sample_block", recording)
    return calls


def with_run_keys(config, run, traces):
    return [{"run": run, "run_seed": run_seed_for(config.seed, run),
             "orders": list(config.orders), **trace} for trace in traces]


@pytest.mark.parametrize("shots", [1, 63, 64, 447, 448, 449, 2000])
def test_sampling_chunk_boundaries(shots, monkeypatch):
    """One ``sample_block`` call draws the opening 64 + 128 + 256 shots, each
    later call one block of 256, and the traces (and so the exported bytes)
    equal the shot-by-shot run's."""
    config = ExperimentConfig(n_qubits=2, t=0.8, shots=shots, runs=1, seed=29,
                              strategies=("online-recon", "plugin"), stride_dense=1,
                              stride_switch=300, stride_sparse=7,
                              stop_on_convergence=False).validated()
    calls = traced_sample_blocks(monkeypatch)
    block = _run_single(config, 0)
    assert calls == [(0, min(shots, 448))] + [
        (start, min(start + 256, shots)) for start in range(448, shots, 256)
    ]
    reference = with_run_keys(config, 0, per_shot_run(config, 0))
    assert json.dumps(block, sort_keys=True) == json.dumps(reference, sort_keys=True)


@pytest.mark.parametrize("tolerance, window, stop", [(0.3, 3, 16), (0.05, 5, 80),
                                                      (0.02, 10, 288)])
def test_runs_stopping_inside_the_first_chunk(tolerance, window, stop, monkeypatch):
    """Stops in each of the three estimation blocks that the first chunk holds."""
    config = ExperimentConfig(n_qubits=2, t=0.8, shots=2000, runs=1, seed=2,
                              tolerance=tolerance, window=window).validated()
    calls = traced_sample_blocks(monkeypatch)
    block = _run_single(config, 0)
    assert block[0]["stop_shot"] == stop
    assert calls == [(0, 448)]
    reference = with_run_keys(config, 0, per_shot_run(config, 0))
    assert json.dumps(block, sort_keys=True) == json.dumps(reference, sort_keys=True)


class TestOneRecordPerRun:
    """The streams of a run share one code record: every shot is checked
    and encoded once, whatever the number of strategies, and each strategy's
    trace is the one it has alone."""

    # (strategies, stop_on_convergence, rows encoded).  A streaming primary
    # absorbs the whole 64..192 block that holds its stop shot, 164; a
    # checkpoint-paced one stops reading at its stop shot, 329.
    CASES = [
        (("online-norecon", "ustat", "batched"), True, 192),
        (("online-norecon", "ustat", "batched"), False, 600),
        (("ustat", "online-recon"), True, 329),
    ]

    @pytest.mark.parametrize("strategies, stop, rows", CASES)
    def test_each_shot_is_encoded_once(self, monkeypatch, strategies, stop, rows):
        config = ExperimentConfig(n_qubits=2, t=0.8, shots=600, runs=1, seed=23, n_batches=4,
                                  strategies=strategies, stop_on_convergence=stop,
                                  tolerance=0.05, window=5, stride_dense=7).validated()
        encoded, streams = [], []
        encode, stream = shadowstream.estimators.snapshot_codes, shadowstream.runner.MomentStream
        monkeypatch.setattr(shadowstream.estimators, "snapshot_codes",
                            lambda axes, *args: encoded.append(len(axes)) or encode(axes, *args))
        monkeypatch.setattr(shadowstream.runner, "MomentStream",
                            lambda *args: streams.append(stream(*args)) or streams[-1])
        traces = _run_single(config, 0)
        records = {id(s._record) for s in streams}
        assert len(records) == 1 and len(streams) == len(strategies)
        assert sum(encoded) == max(s.shots for s in streams) == streams[0]._record.shots == rows
        stop_shot = traces[0]["stop_shot"]
        assert (stop_shot is not None) == stop
        monkeypatch.undo()
        for i, (name, trace) in enumerate(zip(strategies, traces)):
            # Alone, a non-primary strategy of a stopped run reads the shots
            # up to the stop shot, which is then its last checkpoint.
            alone = replace(config, strategies=(name,))
            if i and stop:
                alone = replace(alone, stop_on_convergence=False, shots=stop_shot)
            (expected,) = _run_single(alone, 0)
            assert json.dumps({**trace, "stop_shot": None}) == json.dumps(
                {**expected, "stop_shot": None}
            )
            assert trace["stop_shot"] == stop_shot

    def test_a_shared_record_encodes_rows_it_lacks(self, monkeypatch):
        # Streams fed ragged blocks of one run's shots: the one ahead encodes,
        # the other reads the rows held, and each equals a stream of its own.
        axes, bits = random_block(4, 120, seed=8)
        record = shadowstream.estimators._CodeRecord((2, 3), 4)
        shared = [MomentStream(s, (2, 3), (2, 3), 4, 4, None, record) for s in STRATEGIES]
        alone = [MomentStream(s, (2, 3), (2, 3), 4, 4) for s in STRATEGIES]
        encoded = []
        encode = shadowstream.estimators.snapshot_codes
        monkeypatch.setattr(shadowstream.estimators, "snapshot_codes",
                            lambda axes, *args: encoded.append(len(axes)) or encode(axes, *args))
        for i, stream in enumerate(shared):
            for lo, hi in ragged_blocks(120 - 10 * i, (7 + i, 30, 64)):
                stream.trajectory(axes[lo:hi], bits[lo:hi])
        monkeypatch.undo()
        assert sum(encoded) == record.shots == 120
        for i, (one, other) in enumerate(zip(shared, alone)):
            other.advance(axes[: 120 - 10 * i], bits[: 120 - 10 * i])
            assert one.shots == other.shots and same_estimates(one.estimates(), other.estimates())
        assert record[:].tobytes() == snapshot_codes(axes, bits, (2, 3)).tobytes()

    def test_a_gap_in_the_record_raises(self):
        record = shadowstream.estimators._CodeRecord((0,), 2)
        record.put(np.zeros((3, 2), dtype=np.uint8), 0)
        with pytest.raises(ValueError, match="gap"):
            record.put(np.zeros((1, 2), dtype=np.uint8), 4)
        blank = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="gap"):
            record.encode(blank, blank, 5)
        assert record.shots == 3
        assert record.encode(blank, blank, 3).shape == (2, 2) and record.shots == 5
