"""Tests of the benchmark's own arithmetic and tracing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from warm import use_checkout_source

use_checkout_source()

import layers  # noqa: E402
import stats  # noqa: E402
from shadowstream import Bipartition, MomentStream, stream_shadows, werner_state  # noqa: E402
from shadowstream.sampler import BornSampler, shot_rng  # noqa: E402


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 7, 100, 333])
@pytest.mark.parametrize("q", [0, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear_rule(size, q):
    values = np.random.default_rng(size).exponential(size=size).tolist()
    assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_tail_needs_ten_samples_beyond():
    hundred = list(range(100))
    assert stats.percentile(hundred, 90) == pytest.approx(89.1)
    assert stats.samples_beyond(hundred, 90) == 10
    assert stats.tail_supported(hundred, 90)
    ninety_nine = list(range(99))
    assert stats.samples_beyond(ninety_nine, 90) == 10
    fifty = list(range(50))
    assert stats.samples_beyond(fifty, 90) == 5
    assert not stats.tail_supported(fifty, 90)
    # Ties at the cut are not beyond it.
    assert stats.samples_beyond([1.0] * 40, 90) == 0


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        (0, 100, -1),  # root
        (10, 30, 0),  # child
        (40, 70, 0),  # child with a grandchild
        (50, 60, 2),  # grandchild counts against its parent only
    ]
    assert stats.self_times(spans) == [100 - 20 - 30, 20, 30 - 10, 10]


def test_self_time_counts_overlap_and_overhang_once():
    spans = [(0, 100, -1), (10, 40, 0), (30, 50, 0), (90, 120, 0)]
    # Children cover [10, 50) and [90, 100) inside the parent: 40 + 10.
    assert stats.self_times(spans)[0] == 50


def test_covered_length_ignores_empty_and_outside_intervals():
    assert stats.covered_length([(5, 5), (200, 300), (-10, 3)], 0, 100) == 3
    assert stats.covered_length([], 0, 100) == 0


def test_tracer_self_times_and_coverage_from_real_spans():
    tracer = layers.Tracer()
    inner = tracer.wrap(lambda: sum(range(2000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    with tracer.request_span(0):
        outer()
    rows, coverage = tracer.summary()
    assert rows["outer"]["calls"] == 1 and rows["inner"]["calls"] == 3
    assert rows["outer"]["self_ns"] == rows["outer"]["total_ns"] - rows["inner"]["total_ns"]
    assert rows["inner"]["self_ns"] == rows["inner"]["total_ns"]
    assert 0.0 < coverage <= 1.0
    assert list(tracer.parents) == [-1, 0, 1, 1, 1]


# -- counting formulas --------------------------------------------------------


def test_hit_ratio_formula():
    assert stats.basis_hit_ratio(9, 100) == pytest.approx(0.91)
    assert stats.basis_hit_ratio(5, 5) == 0.0
    with pytest.raises(ValueError):
        stats.basis_hit_ratio(6, 5)
    with pytest.raises(ValueError):
        stats.basis_hit_ratio(0, 0)


def test_hit_ratio_counts_distinct_bases_of_returned_snapshots():
    rho = werner_state(2, 0.5)
    tracer = layers.Tracer()
    with layers.installed(tracer), tracer.request_span(0):
        sampler = BornSampler(rho)
        for i in range(40):
            sampler.sample(shot_rng(7, i))
    record = stream_shadows(rho, 40, 7)
    distinct = len({row.tobytes() for row in record.axes})
    assert (tracer.distinct_keys, tracer.sampled_shots) == (distinct, 40)
    assert stats.basis_hit_ratio(tracer.distinct_keys, 40) == 1 - distinct / 40


def test_tuple_count_formula():
    assert stats.record_tuples(10, (2, 3)) == 45 + 120
    assert stats.record_tuples(2, (2, 3)) == 1
    assert stats.record_tuples(10, (1,)) == 0


def test_record_estimator_evaluates_exactly_the_formula_tuples():
    rho = werner_state(4, 0.3)
    part = Bipartition.balanced(4)
    stream = MomentStream("online-norecon", (2, 3), part, 4)
    tracer = layers.Tracer()
    with layers.installed(tracer), tracer.request_span(0):
        for snap in stream_shadows(rho, 30, 3):
            stream.update(snap)
    assert tracer.tuples == stats.record_tuples(30, (2, 3))


def test_dense_cost_formulas():
    assert stats.accumulator_flop_per_shot(2, 3) == 8 * 2 * 64
    assert stats.accumulator_state_bytes(8, 4) == 16 * 4 * 4**8
    assert stats.record_state_bytes(400, 4) == 3200


def test_installed_restores_every_call_site():
    import shadowstream.estimators as estimators
    import shadowstream.runner as runner

    before = (runner.shot_rng, estimators.snapshot_codes, BornSampler.sample)
    with layers.installed(layers.Tracer()):
        assert runner.shot_rng is not before[0]
    assert (runner.shot_rng, estimators.snapshot_codes, BornSampler.sample) == before


# -- run.py end to end ---------------------------------------------------------


BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, section, monkeypatch, capsys):
    import run

    small = replace(run.WORKLOADS["record-n4"], shots=12)
    monkeypatch.setitem(run.WORKLOADS, "record-n4", small)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    argv = ["--workload", "record-n4", "--seed", "5", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stop-n2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
