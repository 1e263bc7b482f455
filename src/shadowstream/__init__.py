"""Streaming estimation of partial-transpose moments from randomized
single-qubit measurements, with entanglement certification built on the
elementary-symmetric-polynomial hierarchy.

The pieces compose in pipeline order:

- :mod:`shadowstream.states` — density matrices, partial transposition,
  Werner test states and their exact moment/ESP oracles.
- :mod:`shadowstream.sampler` — randomized Pauli-basis measurement
  simulation, snapshot records, and reproducible shot streams.
- :mod:`shadowstream.kernel` — the multi-shot trace kernel evaluated
  per qubit, plus the bit-flip form of the partial transpose.
- :mod:`shadowstream.estimators` — offline, batched, plug-in and two
  streaming moment estimators over a common interface.
- :mod:`shadowstream.certify` — Newton–Girard conversion of moments to
  ESPs, negativity detection and consistency diagnostics.
- :mod:`shadowstream.runner` — experiment configs, the stopping rule,
  deterministic exports, and the command-line entry point.
"""

from ._version import __version__
from .certify import (
    CertificationVerdict,
    DescartesBound,
    EspVector,
    MomentConstraint,
    certification_verdict,
    descartes_bound,
    hierarchy_check,
    low_order_constraints,
    newton_girard,
)
from .errors import (
    CapacityError,
    InsufficientDataError,
    InvalidStateError,
    UnsupportedOrderError,
)
from .estimators import (
    AccumulatorSet,
    MomentEstimate,
    MomentStream,
    OnlineRecordEstimator,
    batched_estimate,
    load_estimator_state,
    plugin_estimate,
    save_estimator_state,
    ustat_offline,
)
from .kernel import pt_flip, tuple_trace_direct
from .runner import (
    ExperimentConfig,
    ExperimentResult,
    export_csv,
    export_json,
    load_result,
    run_experiment,
)
from .sampler import (
    BornSampler,
    ShadowRecord,
    Snapshot,
    iter_snapshots,
    sample_snapshot,
    shot_rng,
    snapshot_matrix,
    stream_shadows,
)
from .states import (
    Bipartition,
    DensityMatrix,
    PtSpectrum,
    exact_esp,
    exact_pt_moment,
    first_violated_order,
    load_density_matrix,
    partial_transpose,
    werner_pt_spectrum,
    werner_state,
)

__all__ = [
    "__version__",
    # states
    "DensityMatrix",
    "Bipartition",
    "PtSpectrum",
    "partial_transpose",
    "werner_state",
    "werner_pt_spectrum",
    "exact_pt_moment",
    "exact_esp",
    "first_violated_order",
    "load_density_matrix",
    # sampler
    "Snapshot",
    "snapshot_matrix",
    "BornSampler",
    "ShadowRecord",
    "shot_rng",
    "sample_snapshot",
    "iter_snapshots",
    "stream_shadows",
    # kernel
    "pt_flip",
    "tuple_trace_direct",
    # estimators
    "MomentEstimate",
    "ustat_offline",
    "plugin_estimate",
    "batched_estimate",
    "OnlineRecordEstimator",
    "AccumulatorSet",
    "MomentStream",
    "save_estimator_state",
    "load_estimator_state",
    # certify
    "EspVector",
    "newton_girard",
    "hierarchy_check",
    "DescartesBound",
    "descartes_bound",
    "MomentConstraint",
    "low_order_constraints",
    "CertificationVerdict",
    "certification_verdict",
    # runner
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "export_json",
    "export_csv",
    "load_result",
    # errors
    "InvalidStateError",
    "InsufficientDataError",
    "CapacityError",
    "UnsupportedOrderError",
]
