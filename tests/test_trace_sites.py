"""The call sites that ``perfbench/layers.py`` wraps must stay in place.

The span tracer swaps each function for a timed stand-in at the module or
class the package calls it through, so a refactor that moves one of these
names (for example onto a base class) makes traced benchmark runs raise
``KeyError`` or silently stop timing a layer.
"""

import math
import sys
from pathlib import Path

import pytest

import shadowstream.estimators as estimators
import shadowstream.runner as runner
from shadowstream import BornSampler, DensityMatrix, ExperimentConfig, MomentStream, run_experiment
from shadowstream import (
    OnlineRecordEstimator,
    load_estimator_state,
    save_estimator_state,
    stream_shadows,
    werner_state,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CALL_SITES = [
    (runner, "shot_rng"),
    (runner, "newton_girard"),
    (estimators, "snapshot_matrix"),
    (estimators, "pt_flip"),
    (estimators, "snapshot_codes"),
    (estimators, "subset_index_chunks"),
    (estimators, "batch_code_traces"),
    (MomentStream, "update"),
    (MomentStream, "estimates"),
    (BornSampler, "sample"),
    (DensityMatrix, "assert_physical"),
]


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers


@pytest.mark.parametrize("owner, attr", CALL_SITES, ids=lambda v: getattr(v, "__name__", v))
def test_call_site_is_owned_directly(owner, attr):
    assert attr in owner.__dict__


def test_tracer_wraps_exactly_these_sites(layers):
    targets = {(owner, attr) for owner, attr, _ in layers._targets(layers.Tracer())}
    assert targets == set(CALL_SITES)


def opened_spans(tracer) -> set[str]:
    """The names of the spans a run opened; ``tracer.names`` also lists
    every wrap that was installed but never called."""
    return {tracer.names[i] for i in tracer.name_ids}


# Runs draw and estimate shots in blocks, and ``MomentStream`` encodes
# each block once with ``snapshot_codes`` for every strategy.
# ``shot_rng`` and ``BornSampler.sample`` fire only for shots the block
# sampler hands back to the per-shot route.  A record-only run at orders 2
# and 3 sums its single indices and pairs without index blocks.
@pytest.mark.parametrize(
    "strategy, spans",
    [
        ("online-recon", set()),
        ("plugin", set()),
        ("online-norecon", {"kernel.batch_code_traces"}),
    ],
)
def test_traced_run_reaches_the_wrapped_sites(layers, strategy, spans):
    config = ExperimentConfig(
        strategies=(strategy,), shots=12, stop_on_convergence=False, seed=5
    )
    tracer = layers.Tracer()
    with layers.installed(tracer), tracer.request_span(0):
        run_experiment(config)
    always = {"kernel.snapshot_codes", "certify.newton_girard", "states.assert_physical"}
    assert spans | always <= opened_spans(tracer)


def test_traced_run_reaches_the_sampler_fallback(layers):
    """Seed 3 draws shots that the block sampler hands to the per-shot route."""
    config = ExperimentConfig(shots=300, stop_on_convergence=False, seed=3)
    tracer = layers.Tracer()
    with layers.installed(tracer), tracer.request_span(0):
        run_experiment(config)
    assert "sampler.sample" in opened_spans(tracer)


# ``perfbench/run.py --trace 1`` marks a record-only run failed unless the
# tuples its ``batch_code_traces`` wrap counted equal sum_m C(T, m), the
# formula of ``perfbench/stats.record_tuples``.  These runs hold any kernel
# change to that count without running the benchmark.
@pytest.fixture
def counted_tuples(monkeypatch):
    counts = []
    original = estimators.batch_code_traces

    def counting(codes, indices, *args, **kwargs):
        counts.append(len(indices))
        return original(codes, indices, *args, **kwargs)

    monkeypatch.setattr(estimators, "batch_code_traces", counting)
    return counts


def record_tuples(shots, orders):
    return sum(math.comb(shots, m) for m in orders if m >= 2)


@pytest.mark.parametrize("strategy", ["online-norecon", "ustat"])
@pytest.mark.parametrize("n_qubits", [2, 4])
@pytest.mark.parametrize("orders", [(2, 3), (2, 3, 4)])
def test_record_runs_count_every_subset_once(counted_tuples, strategy, n_qubits, orders):
    config = ExperimentConfig(
        n_qubits=n_qubits, orders=orders, strategies=(strategy,), shots=40,
        stop_on_convergence=False, seed=9, stride_dense=10,
    )
    run_experiment(config)
    assert sum(counted_tuples) == record_tuples(40, orders)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_resumed_record_counts_every_subset_once(counted_tuples, tmp_path, order):
    record = stream_shadows(werner_state(4, 0.9), 40, seed=4)
    online = OnlineRecordEstimator(order, (1, 3), 4)
    for snap in list(record)[:23]:
        online.update(snap)
    path = tmp_path / "online.ckpt"
    save_estimator_state(online, path)
    resumed = load_estimator_state(path)
    for snap in list(record)[23:]:
        resumed.update(snap)
    assert sum(counted_tuples) == record_tuples(40, (order,))
