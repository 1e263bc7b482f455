"""SHA-256 pins of exports and checkpoints.

The digests were computed before the estimator strategies moved behind
one protocol, and those of the mixed-strategy configs before the
campaign runner read every strategy's estimates at one site; any later
change that alters a single exported byte or checkpoint byte fails
here.  The byte-determinism tests elsewhere only
compare runs of the same code with each other.

The accumulator checkpoint alone was re-pinned, when ``AccumulatorSet``
began to keep its top order as a running trace and to checkpoint as kind
3 (the lower-order matrices, then that trace) instead of kind 2 (every
order's matrix).  The record checkpoint and every export kept their bytes.
"""

import hashlib
from dataclasses import replace

import pytest

from shadowstream import (
    AccumulatorSet,
    Bipartition,
    ExperimentConfig,
    OnlineRecordEstimator,
    export_csv,
    export_json,
    run_experiment,
    save_estimator_state,
    stream_shadows,
    werner_state,
)


def _n2_config(*strategies: str, **overrides) -> ExperimentConfig:
    config = ExperimentConfig(
        n_qubits=2,
        t=5.0 / 6.0,
        orders=(2, 3),
        strategies=strategies,
        shots=120,
        runs=2,
        seed=41,
        tolerance=0.1,
        window=3,
        stop_on_convergence=True,
        stride_dense=10,
        stride_switch=60,
        stride_sparse=20,
        n_batches=6,
    )
    return replace(config, **overrides)


EXPORT_CONFIGS = {
    **{
        name: _n2_config(name)
        for name in ("ustat", "plugin", "batched", "online-norecon", "online-recon")
    },
    # Mixed streaming and checkpoint-paced strategies.  The first stops off a
    # checkpoint (shots 32 and 80), so ``ustat`` is read at the stop shot; the
    # other two have a checkpoint-paced primary and stop at checkpoints 40, 60.
    "online-recon+ustat": _n2_config("online-recon", "ustat"),
    "ustat+online-recon": _n2_config("ustat", "online-recon", tolerance=0.5, window=1),
    "batched+online-norecon": _n2_config(
        "batched", "online-norecon", tolerance=0.5, window=1
    ),
    "n4-online-norecon": ExperimentConfig(
        n_qubits=4,
        t=0.9,
        transposed=(1, 3),
        orders=(2, 3),
        strategies=("online-norecon",),
        shots=60,
        runs=1,
        seed=12,
        stop_on_convergence=True,
        stride_dense=1,
    ),
}

EXPORT_DIGESTS = {  # (JSON, CSV)
    "batched+online-norecon": (
        "92245f9bd3b3f986e7fd2f8eceab5d7bb989e34225b5419ec6b80d7706e051b0",
        "6140058c33ff0f62e532d479824278c4d79bb3fa72ce065e919d53543405a56d",
    ),
    "batched": (
        "b764aff65b53d08273f6d32138f21eed8a44776bed97eeb83970430a27b903b5",
        "318a253fedc8e37d5a84480ca03ccd98aea07fc73c2917da3bf7a5766391b84b",
    ),
    "n4-online-norecon": (
        "943b0dc8f9d63c8d8dc6b6f92a34693b448e1bf5720210424008a6ad14a97c48",
        "0240fd53e9af56a77fe3a02f17d0c141fb02ad5bb95e33560828716f99e0cdfa",
    ),
    "online-norecon": (
        "ac9a9a298b81f512ccf1a516053c31fea0fd077f5bb250d36bc29665069af09a",
        "ecfb5c960f125d655723c366dd326a0f9faa7f1bbd8cf7f69c8c61e86e6aad23",
    ),
    "online-recon+ustat": (
        "48844a89dc79887be1086bc266bbd2e938da2fe8dbfd1c8f0a71584ef3b7bd39",
        "40c263dd6ac35dea21d41a3087692397c8e367cee42bafc376c3f2b514128551",
    ),
    "online-recon": (
        "23cc1070eff6adb7ff7cf19d2f8a2f1ce21a35c8528ce9276f026f55cbe2c7f8",
        "ee464b0dab8dfaaedb5f07fe5c936e206bc32aaa7c0764f8d85c89cade924b6b",
    ),
    "plugin": (
        "0f83e4d1cedd7a7e8d5f41f01a9b49dd9f6a1daf40c038c0ca2b3aa66782fd53",
        "a91b3a1ad91bf92346784f1d53540f8e58cab1357c4b6d524bbc9e7c0cd11c85",
    ),
    "ustat+online-recon": (
        "3cf8b44c46952fde197c5a424905869c24506b05f2f1615c54abc4ec00c112cd",
        "16ede8570b0ab000e9e40a0345443c8d0949608e354b4b7c22276f46bffa4274",
    ),
    "ustat": (
        "d92fff46e67a26bb933452903de6dd776bc867947d2f491e0995112e30477702",
        "83ae0fea32723efc05e83808530f0e915e5c0594c1a80f20867f296491ab52b7",
    ),
}

CHECKPOINT_DIGESTS = {
    "accumulator": "0940c8f9ce85115f5ea6d950d1d05c437d298f9677a782c5e279af918f191672",
    # Eight qubits: the accumulators live in row tiles and pack as dense matrices.
    "accumulator-n8": "927ec548155dd829aaf833c0d479034569d034761a8798cc545afc67f98bd7e8",
    "record": "645b8f3c5ca1eae2efe34e2fe3123225ceddc3e2b850151caa3a2ae39d096ab4",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def export_digests(name: str, tmp_path) -> tuple[str, str]:
    result = run_experiment(EXPORT_CONFIGS[name])
    export_json(result, tmp_path / "out.json")
    export_csv(result, tmp_path / "out.csv")
    return _sha(tmp_path / "out.json"), _sha(tmp_path / "out.csv")


def checkpoint_estimator(kind: str):
    if kind == "accumulator":
        est = AccumulatorSet(3, (1,), 2)
        record = stream_shadows(werner_state(2, 5.0 / 6.0), 40, seed=77)
    elif kind == "accumulator-n8":
        est = AccumulatorSet(3, Bipartition.balanced(8), 8)
        record = stream_shadows(werner_state(8, 0.6), 12, seed=808)
    else:
        est = OnlineRecordEstimator(3, Bipartition.balanced(4), 4)
        record = stream_shadows(werner_state(4, 0.9), 30, seed=78)
    for snap in record:
        est.update(snap)
    return est


@pytest.mark.parametrize("name", sorted(EXPORT_CONFIGS))
def test_exports_match_pinned_digests(name, tmp_path):
    assert export_digests(name, tmp_path) == EXPORT_DIGESTS[name]


@pytest.mark.parametrize("kind", sorted(CHECKPOINT_DIGESTS))
def test_checkpoints_match_pinned_digests(kind, tmp_path):
    path = tmp_path / "state.ckpt"
    save_estimator_state(checkpoint_estimator(kind), path)
    assert _sha(path) == CHECKPOINT_DIGESTS[kind]
