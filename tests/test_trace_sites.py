"""The call sites that ``perfbench/layers.py`` wraps must stay in place.

The span tracer swaps each function for a timed stand-in at the module or
class the package calls it through, so a refactor that moves one of these
names (for example onto a base class) makes traced benchmark runs raise
``KeyError`` or silently stop timing a layer.
"""

import sys
from pathlib import Path

import pytest

import shadowstream.estimators as estimators
import shadowstream.runner as runner
from shadowstream import BornSampler, DensityMatrix, ExperimentConfig, MomentStream, run_experiment

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


# Runs draw and estimate shots in blocks.  ``shot_rng`` and
# ``BornSampler.sample`` fire only for shots the block sampler hands back
# to the per-shot route, and an accumulator absorbs a block without
# ``MomentStream.update`` or ``estimates``; every other strategy still
# goes through both, row by row.
ROW_BY_ROW = {"estimators.update", "estimators.estimates"}


@pytest.mark.parametrize(
    "strategy, spans",
    [
        ("online-recon", set()),
        ("plugin", {"sampler.snapshot_matrix"} | ROW_BY_ROW),
        (
            "online-norecon",
            {"kernel.snapshot_codes", "kernel.subset_index_chunks", "kernel.batch_code_traces"}
            | ROW_BY_ROW,
        ),
    ],
)
def test_traced_run_reaches_the_wrapped_sites(layers, strategy, spans):
    config = ExperimentConfig(
        strategies=(strategy,), shots=12, stop_on_convergence=False, seed=5
    )
    tracer = layers.Tracer()
    with layers.installed(tracer), tracer.request_span(0):
        run_experiment(config)
    seen = set(tracer.names)
    assert spans | {"certify.newton_girard", "states.assert_physical"} <= seen


def test_traced_run_reaches_the_sampler_fallback(layers):
    """Seed 3 draws shots that the block sampler hands to the per-shot route."""
    config = ExperimentConfig(shots=300, stop_on_convergence=False, seed=3)
    tracer = layers.Tracer()
    with layers.installed(tracer), tracer.request_span(0):
        run_experiment(config)
    assert "sampler.sample" in tracer.names
