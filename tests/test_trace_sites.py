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


@pytest.mark.parametrize(
    "strategy, spans",
    [
        ("online-recon", {"sampler.shot_rng", "sampler.sample", "certify.newton_girard"}),
        ("plugin", {"sampler.snapshot_matrix"}),
        (
            "online-norecon",
            {"kernel.snapshot_codes", "kernel.subset_index_chunks", "kernel.batch_code_traces"},
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
    assert spans | {"estimators.update", "estimators.estimates", "states.assert_physical"} <= seen
