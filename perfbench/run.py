"""Closed-loop benchmark of shadowstream campaigns, end to end and per layer.

One client sends one request at a time (``workers=1``); a request is one
``run_experiment`` call followed by ``export_json`` and ``export_csv``.
Configs are generated from ``--seed``; the program only sees them.  ::

    python3 perfbench/run.py --workload stop-n2 --seed 1 --seconds 35 --trace 0

``--trace 0`` times the requests untraced and reports the end-to-end
metrics.  ``--trace 1`` alternates each request untraced and traced (see
``layers.py``) and reports per-layer figures from the traced copies plus
the tracing overhead.  Every request's outputs are checked; the last
stdout line is the JSON result, and a full report (environment, every
request with its export digests, every span's totals) is written under
``perfbench/out/``.  Every workload in turn::

    for w in stop-n2 dense-n8 record-n4; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 35 --trace 0; done

``trajectory.json`` keeps the medians and quartiles of ten seeds per
workload for each measured commit, the seed commit first.

Workloads (why each exists is in ``BENCHMARK.json``):

``stop-n2``  short stopping-rule campaigns on 2-qubit Werner states;
             per-shot Python overhead across every layer.
``dense-n8`` 8-qubit no-stop campaigns; basis-cache misses and dense
             accumulator matmuls.
``record-n4`` 4-qubit record-only campaigns; the kernel's tuple work,
             which grows with the record.
"""

from __future__ import annotations

import os

# One BLAS thread (<= nproc everywhere): dense-n8 then measures the
# program rather than how the scheduler places BLAS threads on a shared
# machine.  Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import stats
from warm import ROOT, SRC, use_checkout_source, warm

OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 11
MAX_REL_DEVIATION = 1e-9  # the tolerance ``shadowstream verify`` uses


@dataclass(frozen=True)
class Workload:
    name: str
    n_qubits: int
    orders: tuple[int, ...]
    strategy: str
    shots: int
    stop: bool
    t_mix: tuple[float, ...]
    min_requests: int
    # Checkpoints at which streamed moments are compared with the offline
    # U-statistic over a regenerated record; early, so the check is cheap.
    exact_at: tuple[int, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stop-n2", 2, (2, 3), "online-recon", 2000, True, (0.3, 0.5, 0.8333), 100,
                 (3, 5, 10, 20)),
        Workload("dense-n8", 8, (2, 3, 4), "online-recon", 200, False, (0.2, 0.6), 1, (4, 6)),
        Workload("record-n4", 4, (2, 3), "online-norecon", 400, False, (0.3, 0.8), 1,
                 (3, 5, 10, 20)),
    )
}

# stop-n2's rule: a 2 % relative change held for 10 shots stops a campaign
# after a few hundred shots, so one run holds hundreds of requests.
STOP_TOLERANCE = 0.02
STOP_WINDOW = 10


def request_configs(workload: Workload, seed: int):
    """Endless config stream of a workload; a pure function of ``seed``.

    ``t`` cycles through the workload's mix in a seed-shuffled order per
    block, so every prefix holds the mix in equal shares.
    """
    import numpy as np

    from shadowstream import ExperimentConfig

    rng = np.random.default_rng([seed, *workload.name.encode()])
    while True:
        for t in rng.permutation(workload.t_mix):
            yield ExperimentConfig(
                n_qubits=workload.n_qubits,
                t=float(t),
                orders=workload.orders,
                strategies=(workload.strategy,),
                shots=workload.shots,
                runs=1,
                seed=int(rng.integers(0, 2**63)),
                tolerance=STOP_TOLERANCE,
                window=STOP_WINDOW,
                stop_on_convergence=workload.stop,
                stride_dense=1,
                stride_switch=workload.shots,
                workers=1,
            )


# -- output checks --------------------------------------------------------


def _file_digest(path: Path) -> tuple[bytes, str]:
    data = path.read_bytes()
    return data, hashlib.sha256(data).hexdigest()


def check_request(workload: Workload, config, result, json_path: Path, csv_path: Path):
    """Check one request's outputs; returns (problems, summary row)."""
    import numpy as np

    from shadowstream import Bipartition, stream_shadows, ustat_offline, werner_state
    from shadowstream.runner import recompute_run_summaries

    problems: list[str] = []
    json_bytes, json_sha = _file_digest(json_path)
    csv_bytes, csv_sha = _file_digest(csv_path)
    payload = json.loads(json_bytes)
    canonical = json.dumps(result.to_json_dict(), sort_keys=True, separators=(",", ":"))
    if json_bytes.decode("utf-8") != canonical + "\n":
        problems.append("JSON export differs from the canonical result document")
    if json.dumps(recompute_run_summaries(payload), sort_keys=True) != json.dumps(
        payload["runs"], sort_keys=True
    ):
        problems.append("exported run summaries do not follow from the exported traces")

    (trace,) = payload["traces"]
    (run,) = payload["runs"]
    shots = trace["shots"]
    if shots != list(range(1, len(shots) + 1)):
        problems.append("checkpoints are not one per shot")
    if workload.stop:
        if run["stopped"] and run["stop_shot"] != run["shots_used"]:
            problems.append("stopped campaign used shots past its stop shot")
    elif run["stopped"] or run["shots_used"] != workload.shots:
        problems.append("no-stop campaign did not spend its whole budget")

    rows = [line for line in csv_bytes.decode("utf-8").splitlines() if not line.startswith("#")]
    moments = [trace["moments"][str(m)] for m in workload.orders]
    if len(rows) != len(shots):
        problems.append(f"CSV has {len(rows)} rows for {len(shots)} checkpoints")
    else:
        for i, row in enumerate(rows):
            cells = row.split(",")
            expected = [str(shots[i])] + [
                "nan" if column[i] is None else repr(float(column[i])) for column in moments
            ]
            if cells[2 : 3 + len(moments)] != expected:
                problems.append(f"CSV row {i} disagrees with the JSON trace")
                break

    # Streamed estimates equal the offline U-statistic over the same record.
    points = [t for t in workload.exact_at if t <= len(shots)]
    if points:
        rho = werner_state(config.n_qubits, config.t)
        shadows = stream_shadows(rho, max(points), trace["run_seed"])
        part = Bipartition.balanced(config.n_qubits)
        for t in points:
            for m in workload.orders:
                if t < m:
                    continue
                reference = ustat_offline(shadows[:t], m, part).value
                streamed = trace["moments"][str(m)][t - 1]
                scale = max(abs(reference), 1e-12)
                if streamed is None or not np.isfinite(streamed) or (
                    abs(streamed - reference) / scale > MAX_REL_DEVIATION
                ):
                    problems.append(f"p_{m} at T={t}: streamed {streamed} vs offline {reference}")

    summary = {
        "t": config.t,
        "seed": config.seed,
        "shots_used": run["shots_used"],
        "stop_shot": run["stop_shot"],
        "json_sha256": json_sha,
        "csv_sha256": csv_sha,
        "export_bytes": len(json_bytes) + len(csv_bytes),
    }
    return problems, summary


# -- environment ------------------------------------------------------------


def _blas_threads_in_use():
    """OpenBLAS's own thread count, when numpy bundles a readable OpenBLAS."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


# -- measurement ------------------------------------------------------------


def setup_seconds(first) -> list[float]:
    """Wall time of fresh interpreters that import the package, build and
    validate the first state and fill the lazy tables (``warm.py``)."""
    argv = [sys.executable, str(Path(__file__).with_name("warm.py")), str(first.n_qubits),
            repr(first.t), ",".join(str(m) for m in first.orders)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def timed_request(config, fns, json_path: Path, csv_path: Path):
    run_experiment, export_json, export_csv = fns
    start = time.perf_counter_ns()
    result = run_experiment(config)
    export_json(result, json_path)
    export_csv(result, csv_path)
    return result, time.perf_counter_ns() - start


@dataclass
class Log:
    """What the request loop saw; times and shots of successful requests."""

    rows: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    untraced_ns: list = field(default_factory=list)
    traced_ns: list = field(default_factory=list)
    untraced_shots: int = 0
    traced_shots: int = 0
    traced_lengths: list = field(default_factory=list)


def serve(workload: Workload, configs, seconds: float, trace: bool, plain, tracer,
          traced, json_path: Path, csv_path: Path) -> Log:
    """Closed loop: send the next request once the previous one is done,
    until ``seconds`` have passed and ``min_requests`` were sent.  With
    ``trace`` each request runs untraced and traced, in alternating order."""
    import layers

    log = Log()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < workload.min_requests or time.perf_counter() < deadline:
        config = next(configs)
        passes = [False] if not trace else [False, True] if index % 2 == 0 else [True, False]
        for use_tracer in passes:
            log.attempted += 1
            try:
                if use_tracer:
                    with layers.installed(tracer), tracer.request_span(index):
                        result, ns = timed_request(config, traced, json_path, csv_path)
                else:
                    result, ns = timed_request(config, plain, json_path, csv_path)
                problems, summary = check_request(workload, config, result, json_path,
                                                  csv_path)
            except Exception:  # a request that raises counts as failed; the run goes on
                problems, summary, ns = [traceback.format_exc(limit=4)], {}, None
            log.rows.append({"request": index, "traced": use_tracer, **summary,
                             "ms": None if ns is None else ns / 1e6, "problems": problems})
            if problems:
                log.failed += 1
            elif use_tracer:
                log.traced_ns.append(ns)
                log.traced_shots += summary["shots_used"]
                log.traced_lengths.append(summary["shots_used"])
            else:
                log.untraced_ns.append(ns)
                log.untraced_shots += summary["shots_used"]
        # Tracing must not change a byte of the output.
        pair = [row for row in log.rows[-len(passes):] if not row["problems"]]
        if len(pair) == 2 and len({(r["json_sha256"], r["csv_sha256"]) for r in pair}) == 2:
            log.failed += 1
            pair[-1]["problems"].append("traced and untraced exports differ")
        index += 1
    return log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    use_checkout_source()
    from shadowstream import export_csv, export_json, run_experiment

    import layers

    OUT.mkdir(exist_ok=True)
    env = environment()
    configs = request_configs(workload, args.seed)
    first = next(configs)
    setup = setup_seconds(first)

    # Warm the process before timing: first LAPACK call, chain tables, and
    # one short untimed request through every code path.
    warm(workload.n_qubits, first.t, workload.orders)
    tag = f"{workload.name}-seed{args.seed}"
    json_path, csv_path = OUT / f"{tag}.result.json", OUT / f"{tag}.result.csv"
    plain = (run_experiment, export_json, export_csv)
    timed_request(replace(first, shots=2 * max(workload.orders)), plain, json_path, csv_path)

    tracer = layers.Tracer()
    traced = (
        tracer.wrap(run_experiment, "runner.run_experiment"),
        tracer.wrap(export_json, "runner.export_json"),
        tracer.wrap(export_csv, "runner.export_csv"),
    )
    log = serve(workload, itertools.chain([first], configs), args.seconds, bool(args.trace),
                plain, tracer, traced, json_path, csv_path)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s": setup, "requests": log.rows}
    if not log.untraced_ns or (args.trace and not log.traced_ns):
        (OUT / f"{tag}.trace{args.trace}.json").write_text(json.dumps(report, indent=1))
        print(f"perfbench: no request of {workload.name} succeeded", file=sys.stderr)
        return 1

    failed = log.failed
    if args.trace:
        layer_rows, coverage = tracer.summary()
        report["layers"] = layer_rows
        metrics = per_layer_metrics(workload, layer_rows, tracer, log)
        if workload.strategy == "online-norecon":
            expected = sum(stats.record_tuples(t, workload.orders) for t in log.traced_lengths)
            if tracer.tuples != expected:
                failed += 1
                report["tuple_count_mismatch"] = [tracer.tuples, expected]
        metrics["trace.overhead_ratio"] = (sum(log.traced_ns) / sum(log.untraced_ns) - 1, "ratio")
        metrics["trace.coverage"] = (coverage, "ratio")
        tracer.dump(OUT / f"{workload.name}.spans.npz")
    else:
        ms = [ns / 1e6 for ns in log.untraced_ns]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "shots_per_s": (log.untraced_shots / (sum(log.untraced_ns) / 1e9), "1/s"),
            "request_ms.p50": (stats.percentile(ms, 50), "ms"),
            "request_ms.p90": (stats.percentile(ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report["request_ms_samples"] = len(ms)
        report["request_ms_p90_samples_beyond"] = stats.samples_beyond(ms, 90)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report.update(metrics=metrics, attempted=log.attempted, failed=failed)
    (OUT / f"{tag}.trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  request_ms samples: {len(ms)}, beyond p90: "
              f"{report['request_ms_p90_samples_beyond']}"
              + ("" if stats.tail_supported(ms, 90) else " (under 10: p90 reads as a maximum)"))
    print(f"  failed_ratio {failed / log.attempted:.6g} ({failed} of {log.attempted} requests)")
    print(json.dumps({"correct": failed == 0, "attempted": log.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer_metrics(workload, layer_rows, tracer, log: Log):
    """Per-layer figures of the traced requests; times are self times.

    Which end-to-end metric each should move, and where:

    - sampler shot_rng / sample / snapshot_matrix, kernel.pt_flip, runner
      self and exports, certify: shots_per_s and request_ms on stop-n2
    - sampler.sample and basis_hit_ratio: shots_per_s on dense-n8
    - kernel snapshot_codes / subset_index_chunks / batch_code_traces and
      tuples_per_shot: shots_per_s on record-n4 (zero elsewhere)
    - estimators update / estimates: shots_per_s on all three
    - estimators flop_per_shot / gflops / state_bytes: shots_per_s and
      peak_rss_mb on dense-n8 and record-n4
    - states.assert_physical: request_ms.p50 and setup_s on dense-n8
    """
    shots, requests = log.traced_shots, len(log.traced_ns)

    def self_ns(name):
        return layer_rows.get(name, {}).get("self_ns", 0)

    def calls(name):
        return layer_rows.get(name, {}).get("calls", 0)

    def us_per_shot(name):
        return (self_ns(name) / 1e3 / shots, "us/shot")

    recon = workload.strategy == "online-recon"
    top = max(workload.orders)
    flop = stats.accumulator_flop_per_shot(workload.n_qubits, top) if recon else 0
    update_s = self_ns("estimators.update") / 1e9
    export_bytes = sum(r["export_bytes"] for r in log.rows if r["traced"] and not r["problems"])
    if recon:
        state_bytes = stats.accumulator_state_bytes(workload.n_qubits, top)
    else:
        state_bytes = stats.record_state_bytes(max(log.traced_lengths), workload.n_qubits)
    checkpoints = calls("certify.newton_girard")
    return {
        "sampler.shot_rng.us_per_shot": us_per_shot("sampler.shot_rng"),
        "sampler.sample.us_per_shot": us_per_shot("sampler.sample"),
        "sampler.snapshot_matrix.us_per_shot": us_per_shot("sampler.snapshot_matrix"),
        "sampler.basis_hit_ratio": (
            stats.basis_hit_ratio(tracer.distinct_keys, tracer.sampled_shots), "ratio"),
        "kernel.snapshot_codes.us_per_shot": us_per_shot("kernel.snapshot_codes"),
        "kernel.subset_index_chunks.us_per_shot": us_per_shot("kernel.subset_index_chunks"),
        "kernel.batch_code_traces.ns_per_tuple": (
            self_ns("kernel.batch_code_traces") / tracer.tuples if tracer.tuples else 0.0,
            "ns/tuple"),
        "kernel.tuples_per_shot": (tracer.tuples / shots, "tuples/shot"),
        "kernel.pt_flip.us_per_shot": us_per_shot("kernel.pt_flip"),
        "estimators.update.us_per_shot": us_per_shot("estimators.update"),
        "estimators.estimates.us_per_shot": us_per_shot("estimators.estimates"),
        "estimators.flop_per_shot": (flop, "flop/shot"),
        "estimators.gflops": (flop * shots / update_s / 1e9 if update_s else 0.0, "GFLOP/s"),
        "estimators.state_bytes": (state_bytes, "B"),
        "certify.newton_girard.us_per_checkpoint": (
            self_ns("certify.newton_girard") / 1e3 / checkpoints if checkpoints else 0.0,
            "us/checkpoint"),
        "certify.checkpoints_per_shot": (checkpoints / shots, "checkpoints/shot"),
        "runner.self.us_per_shot": us_per_shot("runner.run_experiment"),
        "runner.export_json.ms_per_request": (
            self_ns("runner.export_json") / 1e6 / requests, "ms/request"),
        "runner.export_csv.ms_per_request": (
            self_ns("runner.export_csv") / 1e6 / requests, "ms/request"),
        "runner.export_bytes_per_request": (export_bytes / requests, "B/request"),
        "states.assert_physical.ms_per_request": (
            self_ns("states.assert_physical") / 1e6 / requests, "ms/request"),
        "states.assert_physical.calls_per_request": (
            calls("states.assert_physical") / requests, "calls/request"),
    }


if __name__ == "__main__":
    sys.exit(main())
