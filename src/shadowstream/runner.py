"""Experiment orchestration and the ``shadowstream`` command line.

An experiment is described by a JSON config (all keys optional, shown
with defaults)::

    {
      "state_kind": "werner",          // or "file"
      "n_qubits": 2,
      "t": 0.8333,                     // Werner mixing parameter
      "state_path": null,              // used when state_kind == "file"
      "transposed": null,              // qubit list; null = last half
      "orders": [2, 3],                // moment orders to track
      "strategies": ["online-recon"],  // see estimators module
      "shots": 20000,                  // per-run shot budget
      "runs": 1,
      "seed": 0,                       // base seed; runs derive their own
      "tolerance": 0.001,              // stopping rule: relative change
      "window": 10,                    //   ... for this many consecutive shots
      "target_order": null,            // order the rule watches; null = highest
      "stop_on_convergence": true,
      "stride_dense": 1,               // checkpoint every shot ...
      "stride_switch": 10000,          //   ... up to here, then ...
      "stride_sparse": 10,             //   ... every this many shots
      "n_batches": 12,                 // for the batched strategy
      "workers": 1                     // runs executed in parallel
    }

``state_kind: "file"`` reads the matrix format documented at
:func:`shadowstream.states.load_density_matrix`: a JSON object with
``n_qubits`` and a row-major ``matrix`` list of ``[re, im]`` pairs.

Each run streams shots, updates every selected estimator, applies the
stopping rule to the primary (first-listed) strategy, and records
checkpoints.  Shots are estimated in blocks of 64, 128, then
``BLOCK_SHOTS`` and drawn in coarser sampling chunks (see
:func:`_shot_blocks`); neither size changes a byte of the output.
Streaming strategies are read, and feed their stopping
monitors, after every shot; checkpoint-paced ones (``ustat`` and
``batched``) only at checkpoints and at the stop shot, so a run whose
primary strategy is checkpoint-paced stops only at a checkpoint.

Results are written twice: a JSON document carrying the full config,
traces, per-run summaries and campaign summary, and a gnuplot-friendly
CSV with ``#`` comment headers and one row per checkpoint.  Both are
byte-stable: rerunning the same config and seed reproduces them
exactly, regardless of ``workers``.  One formatting pass over each
trace column serves both files (:func:`_column_text`, :func:`_csv_cells`).
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import operator
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .certify import EspVector, certification_verdict, newton_girard
from .errors import InvalidStateError
from .estimators import MomentStream, check_strategy
from .sampler import (  # shot_rng: unused here, but perfbench/layers.py wraps runner.shot_rng
    BLOCK_SHOTS,
    BornSampler,
    shot_rng,
    stream_shadows,
)
from .states import (
    Bipartition,
    DensityMatrix,
    _werner_local_dim,
    exact_esp,
    exact_pt_moment,
    first_violated_order,
    load_density_matrix,
    werner_pt_spectrum,
    werner_state,
)

__all__ = [
    "ExperimentConfig",
    "MomentTrace",
    "ExperimentResult",
    "run_experiment",
    "export_json",
    "export_csv",
    "load_result",
    "recompute_run_summaries",
    "main",
]

_FORMAT_NAME = "shadowstream-result"
_FORMAT_VERSION = 1


def _int_set(name: str, values) -> tuple[int, ...]:
    """The sorted distinct integers of a list-valued config field."""
    try:
        return tuple(sorted(set(int(v) for v in values)))
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of integers, got {values!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment description (see module docstring)."""

    state_kind: str = "werner"
    n_qubits: int = 2
    t: float = 0.8333
    state_path: str | None = None
    transposed: tuple[int, ...] | None = None
    orders: tuple[int, ...] = (2, 3)
    strategies: tuple[str, ...] = ("online-recon",)
    shots: int = 20000
    runs: int = 1
    seed: int = 0
    tolerance: float = 1e-3
    window: int = 10
    target_order: int | None = None
    stop_on_convergence: bool = True
    stride_dense: int = 1
    stride_switch: int = 10000
    stride_sparse: int = 10
    n_batches: int = 12
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "orders", _int_set("orders", self.orders))
        try:
            strategies = tuple(str(s) for s in self.strategies)
        except TypeError:
            raise ValueError(
                f"strategies must be a list of names, got {self.strategies!r}"
            ) from None
        object.__setattr__(self, "strategies", strategies)
        if self.transposed is not None:
            object.__setattr__(self, "transposed", _int_set("transposed", self.transposed))

    def validated(self) -> "ExperimentConfig":
        for f in fields(self):
            kind = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
            value = getattr(self, f.name)
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                raise ValueError(f"{f.name} must be a number of type {f.type}, got {value!r}")
        if self.state_kind not in ("werner", "file"):
            raise ValueError(f"state_kind must be 'werner' or 'file', got {self.state_kind!r}")
        if self.state_kind == "file" and not self.state_path:
            raise ValueError("state_kind 'file' requires state_path")
        if not self.orders or self.orders[0] < 1:
            raise ValueError(f"orders must be integers >= 1, got {self.orders}")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"strategies must be distinct, got {self.strategies}")
        for name in self.strategies:
            check_strategy(name, self.orders, self.n_batches)
        if self.state_kind == "werner":
            _werner_local_dim(self.n_qubits, self.t)
        if self.transposed is not None:
            Bipartition(self.n_qubits, self.transposed)
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.target_order is not None and self.target_order not in self.orders:
            raise ValueError(
                f"target_order {self.target_order} is not among the orders {self.orders}"
            )
        if min(self.stride_dense, self.stride_sparse) < 1:
            raise ValueError("checkpoint strides must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        return self

    @property
    def target(self) -> int:
        return self.target_order if self.target_order is not None else self.orders[-1]

    def esp_orders(self) -> tuple[int, ...]:
        """ESP orders derivable from the configured moments: 1, then every k
        whose full prefix p_2..p_k is tracked."""
        out = [1]
        k = 2
        while k in self.orders:
            out.append(k)
            k += 1
        return tuple(out)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ValueError(f"an experiment config must be a JSON object, got {payload!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class MomentTrace:
    """Checkpointed history of one (run, strategy) pair."""

    run: int
    run_seed: int
    strategy: str
    orders: tuple[int, ...]
    shots: list[int] = field(default_factory=list)
    moments: dict[int, list[float | None]] = field(default_factory=dict)
    esps: dict[int, list[float | None]] = field(default_factory=dict)
    stopped_at: dict[int, int | None] = field(default_factory=dict)
    stop_shot: int | None = None

    def to_dict(self) -> dict:
        return {
            "run": self.run,
            "run_seed": self.run_seed,
            "strategy": self.strategy,
            "orders": list(self.orders),
            "shots": list(self.shots),
            "moments": {str(m): vals for m, vals in self.moments.items()},
            "esps": {str(k): vals for k, vals in self.esps.items()},
            "stopped_at": {str(m): s for m, s in self.stopped_at.items()},
            "stop_shot": self.stop_shot,
        }


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    traces: list[dict]
    run_summaries: list[dict]
    summary: dict
    # Trace column text formatted by the first export, reused by the next.
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        # ``workers`` is a scheduling knob with no effect on the numbers,
        # so it is not part of the exported experiment identity.
        config = {k: v for k, v in self.config.to_dict().items() if k != "workers"}
        return {
            "format": _FORMAT_NAME,
            "format_version": _FORMAT_VERSION,
            "software_version": __version__,
            "config": config,
            "traces": self.traces,
            "runs": self.run_summaries,
            "summary": self.summary,
        }


class _StopMonitor:
    """Latching convergence detector on a stream of iterates.

    Fires at the first shot where the relative change between
    consecutive values has stayed below ``tolerance`` for ``window``
    consecutive steps; an exactly unchanged value (including 0 -> 0)
    counts as converged.
    """

    def __init__(self, tolerance: float, window: int):
        self._tol = tolerance
        self._window = window
        self._prev: float | None = None
        self._streak = 0
        self.fired_at: int | None = None

    def push(self, shots, values) -> int | None:
        """Feed one iterate or arrays of them in shot order.

        Returns the shot at which this call made the monitor fire, if it
        did; later iterates are then ignored.
        """
        if self.fired_at is not None:
            return None
        shots = np.atleast_1d(shots)
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if self._prev is None and values.size:  # the first iterate only sets the reference
            self._prev, shots, values = float(values[0]), shots[1:], values[1:]
        if not values.size:
            return None
        prev = np.concatenate([[self._prev], values[:-1]])
        self._prev = float(values[-1])
        delta = np.abs(values - prev)
        calm = (delta == 0.0) | (delta < self._tol * np.maximum(np.abs(values), np.abs(prev)))
        # Streak after each step: the calm steps since the last other one,
        # added to the carried streak while there has been none.
        steps = np.arange(1, calm.size + 1)
        reset = np.maximum.accumulate(np.where(calm, 0, steps))
        streak = np.where(reset == 0, self._streak + steps, steps - reset)
        fired = np.flatnonzero(streak >= self._window)
        if fired.size:
            self.fired_at = int(shots[fired[0]])
            return self.fired_at
        if streak.size:
            self._streak = int(streak[-1])
        return None


def _build_state(config: ExperimentConfig) -> DensityMatrix:
    if config.state_kind == "werner":
        return werner_state(config.n_qubits, config.t)
    rho = load_density_matrix(config.state_path)
    if rho.n_qubits != config.n_qubits:
        raise InvalidStateError(
            f"state file holds {rho.n_qubits} qubits, config says {config.n_qubits}"
        )
    return rho


def _transposed_qubits(config: ExperimentConfig) -> tuple[int, ...]:
    if config.transposed is not None:
        return config.transposed
    return Bipartition.balanced(config.n_qubits).transposed


def run_seed_for(base_seed: int, run: int) -> int:
    """The 64-bit stream seed of one run, derived from the base seed."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(run,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _checkpoints_due(shots: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Which of the given shot counts are checkpoints (the last shot always is)."""
    stride = np.where(shots <= config.stride_switch, config.stride_dense, config.stride_sparse)
    return (shots % stride == 0) | (shots == config.shots)


def _shot_blocks(sampler: BornSampler, seed: int, total: int):
    """A run's shots as estimation blocks ``(start, stop, axes, bits)``.

    Estimation blocks start short, since a stopping run wastes the rest of
    its last block, and double up to ``BLOCK_SHOTS``.  Sampling chunks are
    coarser: a ``sample_block`` call costs about as much for 64 shots as
    for 256, so the first call draws every opening block up to and
    including the first full one (64 + 128 + 256 = 448 shots, capped at
    the budget), and each later call draws one block.
    """
    start, size, drawn = 0, BLOCK_SHOTS // 4, 0
    while start < total:
        stop = min(start + size, total)
        if stop > drawn:
            # The doubling sizes from ``size`` through BLOCK_SHOTS sum to this.
            first, drawn = start, min(start + 2 * BLOCK_SHOTS - size, total)
            axes, bits = sampler.sample_block(seed, first, drawn)
        yield start, stop, axes[start - first : stop - first], bits[start - first : stop - first]
        start, size = stop, min(2 * size, BLOCK_SHOTS)


def _cleaned(values: np.ndarray) -> list[float | None]:
    """Values as Python floats with NaN as None: the exports' one NaN rule."""
    out = values.astype(object)
    out[np.isnan(values)] = None
    return out.tolist()


def _append_checkpoints(
    trace: MomentTrace, shots: np.ndarray, values: np.ndarray, defined: np.ndarray
) -> None:
    """Record checkpoints from rows of estimates (columns follow ``trace.orders``).

    ESPs are derived from p_1 = 1 and the longest run p_2, p_3, ... of
    defined moments; the rest of a row is NaN, so its ESPs come out NaN.
    """
    trace.shots.extend(shots.tolist())
    for col, m in enumerate(trace.orders):
        trace.moments[m].extend(_cleaned(np.where(defined[:, col], values[:, col], np.nan)))
    cols = [trace.orders.index(k) for k in range(2, max(trace.esps) + 1)]
    power = np.ones((len(shots), len(cols) + 1))
    contiguous = np.logical_and.accumulate(defined[:, cols], axis=1)
    power[:, 1:] = np.where(contiguous, values[:, cols], np.nan)
    esp = newton_girard(power)
    for k in trace.esps:
        trace.esps[k].extend(_cleaned(esp[:, k]))


def _observe(monitors: dict, orders, shots, values, defined, watch: int | None) -> int | None:
    """Push each order's defined estimates to its monitor.

    With ``watch`` set (the order that stops the run), the rows end at the
    shot where that order's monitor fires; that row's index is returned.
    """
    stop = None
    if watch is not None:
        col = orders.index(watch)
        fired = monitors[watch].push(shots[defined[:, col]], values[defined[:, col], col])
        if fired is not None:
            stop = int(np.searchsorted(shots, fired))
            shots, values, defined = shots[: stop + 1], values[: stop + 1], defined[: stop + 1]
    for col, m in enumerate(orders):
        if m != watch:
            monitors[m].push(shots[defined[:, col]], values[defined[:, col], col])
    return stop


def _paced_reads(stream: MomentStream, axes, bits, shots, reads, observe):
    """Feed a checkpoint-paced stream the block, reading it at rows ``reads``.

    Each read goes through ``observe``; reading ends at the row where it
    reports a stop.  Returns the rows read, their estimates and the stop
    row (or None).
    """
    rows, values, defined = [], [], []
    done, stop = 0, None
    for row in reads.tolist():
        stream.advance(axes[done : row + 1], bits[done : row + 1])
        done = row + 1
        estimates = stream.estimates()
        rows.append(row)
        values.append([estimates[m].value for m in stream.orders])
        defined.append([estimates[m].well_defined for m in stream.orders])
        last = slice(row, row + 1)
        if observe(shots[last], np.array(values[-1:]), np.array(defined[-1:])) is not None:
            stop = row
            break
    else:
        stream.advance(axes[done:], bits[done:])
    width = len(stream.orders)
    return (
        np.array(rows, dtype=np.intp),
        np.array(values, dtype=np.float64).reshape(-1, width),
        np.array(defined, dtype=bool).reshape(-1, width),
        stop,
    )


def _run_single(config: ExperimentConfig, run: int) -> list[dict]:
    rho = _build_state(config)
    part = _transposed_qubits(config)
    n = rho.n_qubits
    streams = {
        name: MomentStream(name, config.orders, part, n, n_batches=config.n_batches)
        for name in config.strategies
    }
    monitors = {
        name: {m: _StopMonitor(config.tolerance, config.window) for m in config.orders}
        for name in config.strategies
    }
    esp_orders = config.esp_orders()
    seed = run_seed_for(config.seed, run)
    traces = {
        name: MomentTrace(
            run=run,
            run_seed=seed,
            strategy=name,
            orders=config.orders,
            moments={m: [] for m in config.orders},
            esps={k: [] for k in esp_orders},
        )
        for name in config.strategies
    }
    primary = config.strategies[0]
    sampler = BornSampler(rho)
    stop_shot: int | None = None

    for start, end, axes, bits in _shot_blocks(sampler, seed, config.shots):
        shots = np.arange(start + 1, end + 1)
        due = _checkpoints_due(shots, config)
        stop = None  # row of this block's stop shot, once known
        # The primary strategy comes first, so where the block stops is
        # known before any other stream reads it.
        for name, stream in streams.items():
            watch = config.target if name == primary and config.stop_on_convergence else None
            rows = len(shots) if stop is None else stop + 1
            observe = functools.partial(_observe, monitors[name], stream.orders, watch=watch)
            if stream.streaming:
                values, defined = stream.trajectory(axes[:rows], bits[:rows])
                cut = observe(shots[:rows], values, defined)
                read = np.arange(rows if cut is None else cut + 1)
                values, defined = values[read], defined[read]
            else:
                reads = due[:rows].copy()
                if stop is not None:
                    reads[stop] = True
                read, values, defined, cut = _paced_reads(
                    stream, axes[:rows], bits[:rows], shots, np.flatnonzero(reads), observe
                )
            if watch is not None:
                stop = cut
            keep = due[read] | (read == stop)
            if keep.any():
                _append_checkpoints(traces[name], shots[read][keep], values[keep], defined[keep])
        if stop is not None:
            stop_shot = int(shots[stop])
            break

    for name, trace in traces.items():
        trace.stopped_at = {m: monitors[name][m].fired_at for m in config.orders}
        trace.stop_shot = stop_shot
    return [traces[name].to_dict() for name in config.strategies]


def _oracle_block(config: ExperimentConfig) -> dict | None:
    if config.state_kind != "werner":
        return None
    spectrum = werner_pt_spectrum(config.n_qubits, config.t)
    moments = {str(m): exact_pt_moment(spectrum, m) for m in config.orders}
    esps = {str(k): exact_esp(spectrum, k) for k in config.esp_orders()}
    return {
        "moments": moments,
        "esps": esps,
        "first_violated_order": first_violated_order(config.n_qubits, config.t),
        "ppt_threshold": 1.0 / spectrum.local_dim,
    }


def recompute_run_summaries(payload: dict) -> list[dict]:
    """Derive per-run summaries from a result payload's traces.

    Used both when assembling fresh results and to verify that a
    re-imported JSON document still supports its own verdicts.
    """
    config = ExperimentConfig.from_dict(payload["config"])
    oracle = _oracle_block(config)
    by_run: dict[int, list[dict]] = {}
    for trace in payload["traces"]:
        by_run.setdefault(trace["run"], []).append(trace)
    summaries = []
    for run in sorted(by_run):
        strategies = {}
        stop_shot = None
        seed = None
        shots_used = 0
        for trace in by_run[run]:
            stop_shot = trace["stop_shot"]
            seed = trace["run_seed"]
            shots_used = trace["shots"][-1] if trace["shots"] else 0
            final_moments = {
                m: (vals[-1] if vals else None) for m, vals in trace["moments"].items()
            }
            esp_values = [1.0]
            for k in sorted(int(k) for k in trace["esps"]):
                vals = trace["esps"][str(k)]
                if vals and vals[-1] is not None:
                    esp_values.append(vals[-1])
                else:
                    break
            esp = EspVector(np.array(esp_values))
            verdict = certification_verdict(esp)
            strategies[trace["strategy"]] = {
                "moments": final_moments,
                "esps": dict(zip(map(str, range(1, esp.max_order + 1)), _cleaned(esp.values[1:]))),
                "first_negative_order": verdict.first_violated_order,
                "descartes_variations": verdict.negative_count_bound,
                "descartes_parity": verdict.negative_count_parity,
            }
        summary = {
            "run": run,
            "seed": seed,
            "shots_used": shots_used,
            "stopped": stop_shot is not None,
            "stop_shot": stop_shot,
            "strategies": strategies,
        }
        if oracle is not None:
            summary["oracle"] = oracle
        summaries.append(summary)
    return summaries


def _campaign_summary(config: ExperimentConfig, run_summaries: list[dict]) -> dict:
    primary = config.strategies[0]
    effective = [
        s["stop_shot"] if s["stop_shot"] is not None else s["shots_used"]
        for s in run_summaries
    ]
    detected = [
        s for s in run_summaries if s["strategies"][primary]["first_negative_order"] is not None
    ]
    return {
        "runs": len(run_summaries),
        "primary_strategy": primary,
        "target_order": config.target,
        "stopped_runs": sum(1 for s in run_summaries if s["stopped"]),
        "median_stopping_shot": float(np.median(effective)) if effective else None,
        "detected_runs": len(detected),
        "detection_rate": len(detected) / len(run_summaries) if run_summaries else None,
    }


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute every run of the experiment and assemble the result.

    Runs are independent (each has a derived seed) and may execute in
    parallel; traces are always assembled in run order, so the output
    does not depend on ``workers``.
    """
    config = config.validated()
    if config.workers > 1 and config.runs > 1:
        from concurrent.futures import ProcessPoolExecutor

        worker = functools.partial(_run_single, config)
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_run = list(pool.map(worker, range(config.runs)))
    else:
        per_run = [_run_single(config, run) for run in range(config.runs)]
    traces = [trace for run_traces in per_run for trace in run_traces]
    payload = {"config": config.to_dict(), "traces": traces}
    run_summaries = recompute_run_summaries(payload)
    summary = _campaign_summary(config, run_summaries)
    return ExperimentResult(config, traces, run_summaries, summary)


# -- export / import ------------------------------------------------------


# A JSON int token (a loaded document may hold ints); its CSV cell is a float.
_INT_TOKEN = re.compile(r"(?<![^,])-?\d+(?![^,])")


def _float_token(match: re.Match) -> str:
    return repr(float(match[0]))


def _column_text(values: list, memo: dict | None) -> str:
    """One trace column's JSON array text: the one formatting pass of its values.

    ``memo`` (an exported result's) keeps each column's text beside the
    value objects it was formatted from; a column whose objects have
    changed since is formatted again.
    """
    if memo is not None:
        hit = memo.get(id(values))
        if hit is not None and len(hit[0]) == len(values) and all(
            map(operator.is_, hit[0], values)
        ):
            return hit[1]
    text = json.dumps(values, separators=(",", ":"))
    if memo is not None:
        memo[id(values)] = (list(values), text)
    return text


def _csv_cells(values: list, memo: dict | None) -> list[str]:
    """A column's CSV cells, ``repr(float(v))`` or ``nan`` for None.

    These are the column's JSON tokens, renamed where JSON spells a value
    differently: ``null``, ``NaN``, ``Infinity`` and ints.
    """
    body = _column_text(values, memo)[1:-1]
    body = body.replace("null", "nan").replace("NaN", "nan").replace("Infinity", "inf")
    if int in map(type, values):
        body = _INT_TOKEN.sub(_float_token, body)
    return body.split(",") if body else []


def _document(result) -> tuple[dict, dict | None]:
    """The result payload and, for an ``ExperimentResult``, its column memo."""
    if isinstance(result, ExperimentResult):
        return result.to_json_dict(), result._columns
    return result, None


def export_json(result, path) -> None:
    """Write the full result document (config, traces, summaries).

    The text is ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``;
    the trace columns are spliced in from :func:`_column_text`, so an
    ``ExperimentResult`` formats them once for both exports.
    """
    payload, memo = _document(result)
    traces = payload["traces"]
    # The encoder visits each trace's esps, then its moments, keys sorted.
    columns = [trace[group][key] for trace in traces for group in ("esps", "moments")
               for key in sorted(trace[group])]
    marker = "\0"
    while True:  # a marker that no other string of the payload equals
        skeleton = {**payload, "traces": [
            {**trace, **{group: dict.fromkeys(trace[group], marker)
                         for group in ("esps", "moments")}}
            for trace in traces
        ]}
        text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
        pieces = text.split(json.dumps(marker))
        if len(pieces) == len(columns) + 1:
            break
        marker += "\0"
    parts = [pieces[0]]
    for values, piece in zip(columns, pieces[1:], strict=True):
        parts += (_column_text(values, memo), piece)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))
        fh.write("\n")


def export_csv(result, path) -> None:
    """Write one numeric row per checkpoint, gnuplot-style.

    Columns: run, strategy id, shot count, the tracked moments, the
    derivable ESPs, then one 0/1 stop flag per order indicating whether
    that order's stopping rule had fired by the checkpoint.  Numeric
    cells come from :func:`_csv_cells`, rows from column-wise joins.
    """
    payload, memo = _document(result)
    config = ExperimentConfig.from_dict(payload["config"])
    orders = config.orders
    esp_orders = config.esp_orders()
    names = list(config.strategies)
    header = (
        ["run", "strategy", "T"]
        + [f"p_{m}" for m in orders]
        + [f"e_{k}" for k in esp_orders]
        + [f"stop_{m}" for m in orders]
    )
    lines = [
        f"# shadowstream {__version__}",
        *(f"# strategy {i} = {name}" for i, name in enumerate(names)),
        "# " + ",".join(header),
    ]
    for trace in payload["traces"]:
        prefix = f"{trace['run']},{names.index(trace['strategy'])}"
        shots = trace["shots"]
        stopped_at = {int(m): s for m, s in trace["stopped_at"].items()}
        moments = {int(m): vals for m, vals in trace["moments"].items()}
        esps = {int(k): vals for k, vals in trace["esps"].items()}
        cells = [_csv_cells(moments[m], memo) for m in orders]
        cells += [_csv_cells(esps[k], memo) for k in esp_orders]
        reached = np.asarray(shots)
        cells += [
            ["0"] * len(shots) if stopped_at.get(m) is None
            else np.where(reached >= stopped_at[m], "1", "0").tolist()
            for m in orders
        ]
        lines += map(",".join, zip([prefix] * len(shots), map(str, shots), *cells, strict=True))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


# Keys that every trace of a result document carries.
_TRACE_KEYS = ("esps", "moments", "orders", "run", "run_seed", "shots", "stop_shot",
               "stopped_at", "strategy")


def load_result(path) -> dict:
    """Read a result document written by :func:`export_json`.

    Raises ``ValueError`` unless the document has this format and version,
    a valid config, and traces with every key: integer ``run`` and
    ``run_seed``, an integer or null ``stop_shot``, one of the config's
    strategies, its orders, a ``stopped_at`` integer or null for each of
    them, and moment and ESP columns that cover the config's orders, hold
    numbers or nulls, and each have one value per checkpoint shot.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT_NAME:
        raise ValueError(f"{path} is not a {_FORMAT_NAME} document")
    version = payload.get("format_version")
    if type(version) is not int or version != _FORMAT_VERSION:
        raise ValueError(f"{path}: format_version {version!r} is not {_FORMAT_VERSION}")
    config = ExperimentConfig.from_dict(payload.get("config")).validated()
    traces = payload.get("traces")
    if not isinstance(traces, list):
        raise ValueError(f"{path}: traces must be a list")
    for i, trace in enumerate(traces):
        if not isinstance(trace, dict) or not trace.keys() >= set(_TRACE_KEYS):
            raise ValueError(f"{path}: trace {i} must be an object with keys {_TRACE_KEYS}")
        shots = trace["shots"]
        if not isinstance(shots, list) or any(type(s) is not int for s in shots):
            raise ValueError(f"{path}: trace {i} shots must be a list of integers")
        for key, null in (("run", ""), ("run_seed", ""), ("stop_shot", " or null")):
            if type(trace[key]) is not int and not (null and trace[key] is None):
                raise ValueError(f"{path}: trace {i} {key} must be an integer{null}")
        if trace["strategy"] not in config.strategies:
            raise ValueError(f"{path}: trace {i} strategy must be one of {config.strategies}")
        orders, stopped_at = list(config.orders), trace["stopped_at"]
        if trace["orders"] != orders:
            raise ValueError(f"{path}: trace {i} orders must be {orders}")
        if not isinstance(stopped_at, dict) or set(stopped_at) != set(map(str, orders)) or any(
            s is not None and type(s) is not int for s in stopped_at.values()
        ):
            raise ValueError(f"{path}: trace {i} stopped_at must map {orders} to integers or nulls")
        for group, keys in (("moments", config.orders), ("esps", config.esp_orders())):
            columns = trace[group]
            if not isinstance(columns, dict) or set(columns) != {str(k) for k in keys}:
                raise ValueError(f"{path}: trace {i} {group} must have the keys {list(keys)}")
            for key, column in columns.items():
                if not isinstance(column, list) or any(
                    v is not None and type(v) not in (int, float) for v in column
                ):
                    raise ValueError(f"{path}: trace {i} {group}[{key}] must list numbers")
                if len(column) != len(shots):
                    raise ValueError(
                        f"{path}: trace {i} {group}[{key}] has {len(column)} values "
                        f"for {len(shots)} shots"
                    )
    return payload


# -- built-in verification battery ----------------------------------------


def _check_oracle_closure() -> tuple[bool, str]:
    from .states import partial_transpose

    worst = 0.0
    for n in (2, 4):
        for t in np.linspace(-1.0, 1.0, 21):
            spectrum = werner_pt_spectrum(n, float(t))
            dense = partial_transpose(
                werner_state(n, float(t)), Bipartition.balanced(n)
            )
            eigs = np.sort(np.linalg.eigvalsh(dense))
            worst = max(worst, float(np.max(np.abs(eigs - spectrum.eigenvalues()))))
            for m in range(1, 5):
                worst = max(
                    worst,
                    abs(exact_pt_moment(spectrum, m) - float(np.sum(eigs ** m))),
                )
    return worst < 1e-10, f"max deviation {worst:.2e}"


def _check_bitflip() -> tuple[bool, str]:
    import itertools

    from .kernel import pt_flip
    from .sampler import Snapshot, snapshot_matrix
    from .states import partial_transpose

    n = 2
    checked = 0
    for axes in itertools.product(range(3), repeat=n):
        for bits in itertools.product(range(2), repeat=n):
            snap = Snapshot(list(axes), list(bits))
            dense = snapshot_matrix(snap)
            for r in range(n + 1):
                for subset in itertools.combinations(range(n), r):
                    direct = partial_transpose(dense, subset)
                    flipped = snapshot_matrix(pt_flip(snap, subset))
                    if not np.array_equal(direct, flipped):
                        return False, f"mismatch at axes={axes} bits={bits} subset={subset}"
                    checked += 1
    return True, f"{checked} configurations exact"


def _check_kernel_agreement() -> tuple[bool, str]:
    from .kernel import tuple_trace_dense, tuple_trace_direct
    from .sampler import Snapshot

    rng = np.random.Generator(np.random.Philox(key=2024))
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        snaps = [
            Snapshot(rng.integers(0, 3, n).tolist(), rng.integers(0, 2, n).tolist())
            for _ in range(m)
        ]
        size = int(rng.integers(0, n + 1))
        subset = rng.choice(n, size=size, replace=False).tolist()
        direct = tuple_trace_direct(snaps, subset)
        worst = max(worst, abs(direct - tuple_trace_dense(snaps, subset)))
    return worst < 1e-10, f"max disagreement {worst:.2e}"


def _check_online_equals_offline() -> tuple[bool, str]:
    from .estimators import AccumulatorSet, OnlineRecordEstimator, ustat_offline

    worst = 0.0
    # Two-qubit records, then a four-qubit one, where order 3 looks its
    # qubits up in two groups of two.
    cases = [(2, (1,), seed) for seed in (3, 11)] + [(4, (2, 3), 5)]
    for n, part, seed in cases:
        record = stream_shadows(werner_state(n, 5.0 / 6.0), 30, seed)
        for m in (2, 3):
            online = OnlineRecordEstimator(m, part, n)
            acc = AccumulatorSet(m, part, n)
            for t, snap in enumerate(record, start=1):
                online.update(snap)
                acc.update(snap)
                if t < m:
                    continue
                reference = ustat_offline(record[:t], m, part).value
                scale = max(abs(reference), 1e-12)
                worst = max(worst, abs(online.estimate().value - reference) / scale)
                worst = max(worst, abs(acc.estimate(m).value - reference) / scale)
    return worst < 1e-9, f"max relative deviation {worst:.2e}"


def _check_born_sampler() -> tuple[bool, str]:
    import itertools

    # U_a maps the P_a eigenbasis to the computational basis, so the
    # diagonal of U rho U^dag holds the Born probabilities; for Y, U is
    # "S^dag then H".
    hadamard = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    rotations = (hadamard, hadamard @ np.diag([1.0, -1.0j]), np.eye(2))
    rng = np.random.Generator(np.random.Philox(key=31))
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    sampler = BornSampler(DensityMatrix(rho))
    worst = 0.0
    bases = list(itertools.product(range(3), repeat=3))
    for axes in bases:
        u = functools.reduce(np.kron, [rotations[a] for a in axes])
        dense = np.real(np.diag(u @ rho @ u.conj().T))
        worst = max(worst, float(np.max(np.abs(sampler.probabilities(axes) - dense))))
    return worst <= 1e-14, f"{len(bases)} bases, max deviation {worst:.2e}"


def _check_replay_determinism() -> tuple[bool, str]:
    rho = werner_state(2, 5.0 / 6.0)
    one = stream_shadows(rho, 400, 17)
    two = stream_shadows(rho, 400, 17)
    threaded = stream_shadows(rho, 400, 17, workers=3)
    ok = one == two == threaded
    return ok, "replay and worker-count invariance" if ok else "records differ"


_BATTERY = [
    ("werner-oracle-closure", _check_oracle_closure),
    ("partial-transpose-bit-flip", _check_bitflip),
    ("kernel-path-agreement", _check_kernel_agreement),
    ("online-equals-offline", _check_online_equals_offline),
    ("replay-determinism", _check_replay_determinism),
    ("born-sampler-agreement", _check_born_sampler),
]


def run_verification_battery(out=None) -> bool:
    """Run the built-in cross-checks, printing one PASS/FAIL line each."""
    if out is None:
        out = sys.stdout
    all_ok = True
    for name, check in _BATTERY:
        ok, detail = check()
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=out)
    return all_ok


# -- CLI -------------------------------------------------------------------


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# ``run`` flags that each override one config field: (flag, type, field, help).
_RUN_FIELD_FLAGS = (
    ("--seed", int, "seed", "base seed (overrides config)"),
    ("--shots", int, "shots", "per-run shot budget"),
    ("--orders", _parse_int_list, "orders", "moment orders, e.g. 2,3"),
    ("--strategy", _parse_str_list, "strategies", "estimator strategies, e.g. online-recon"),
    ("--runs", int, "runs", "number of independent runs"),
    ("--workers", int, "workers", "parallel run workers"),
    ("--tolerance", float, "tolerance", "stopping tolerance"),
    ("--window", int, "window", "stopping window (consecutive shots)"),
    ("--target-order", int, "target_order", "order watched by the stopping rule"),
    ("--batches", int, "n_batches", "batch count for the batched strategy"),
    ("--qubits", int, "n_qubits", "qubit count of the Werner state"),
    ("--t", float, "t", "Werner mixing parameter"),
    ("--transposed", _parse_int_list, "transposed", "qubits to transpose, e.g. 2,3"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowstream",
        description="Streaming partial-transpose moment estimation and "
        "entanglement certification from randomized measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment and export traces")
    run_p.add_argument("-c", "--config", type=Path, help="JSON config file")
    run_p.add_argument("--out", required=True, help="output prefix (.json and .csv)")
    for flag, kind, _, text in _RUN_FIELD_FLAGS:
        run_p.add_argument(flag, type=kind, help=text)
    run_p.add_argument(
        "--no-stop", action="store_true", help="ignore convergence; always spend the budget"
    )
    run_p.add_argument("--state-file", help="density-matrix JSON file instead of a Werner state")

    oracle_p = sub.add_parser("oracle", help="print exact Werner reference values")
    oracle_p.add_argument("--qubits", type=int, required=True)
    oracle_p.add_argument("--t", type=float, required=True)
    oracle_p.add_argument("--max-order", type=int, default=None)

    sub.add_parser("verify", help="run the built-in cross-check battery")

    export_p = sub.add_parser("export", help="re-emit outputs from a result JSON")
    export_p.add_argument("--input", required=True, help="result JSON file")
    export_p.add_argument("--csv", help="CSV output path")
    export_p.add_argument("--json", help="JSON output path")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for flag, _, name, _ in _RUN_FIELD_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            overrides[name] = value
    if args.no_stop:
        overrides["stop_on_convergence"] = False
    if args.state_file is not None:
        overrides.update(state_kind="file", state_path=args.state_file)
    return replace(config, **overrides) if overrides else config


def _cmd_run(args) -> int:
    config = _config_from_args(args).validated()
    result = run_experiment(config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    export_json(result, out.with_suffix(".json"))
    export_csv(result, out.with_suffix(".csv"))
    for summary in result.run_summaries:
        primary = summary["strategies"][config.strategies[0]]
        stop = summary["stop_shot"] if summary["stopped"] else f"budget ({summary['shots_used']})"
        print(
            f"run {summary['run']}: stop={stop} "
            f"first_negative_order={primary['first_negative_order']}"
        )
    campaign = result.summary
    print(
        f"{campaign['runs']} runs: detection rate {campaign['detection_rate']:.2f}, "
        f"median stopping shot {campaign['median_stopping_shot']:.0f}"
    )
    print(f"wrote {out.with_suffix('.json')} and {out.with_suffix('.csv')}")
    return 0


def _cmd_oracle(args) -> int:
    spectrum = werner_pt_spectrum(args.qubits, args.t)
    first = first_violated_order(args.qubits, args.t)
    d = spectrum.local_dim
    top = args.max_order if args.max_order is not None else min(d * d, 12)
    print(f"Werner state on {args.qubits} qubits (local dimension {d}), t = {args.t}")
    print(
        f"PT spectrum: {spectrum.lambda_minus:.12g} (x1), "
        f"{spectrum.lambda_plus:.12g} (x{d * d - 1})"
    )
    print(f"PPT threshold: t <= {1.0 / d:.12g}")
    print(f"first violated ESP order: {first}")
    print(f"{'k':>3} {'p_k':>22} {'e_k':>22}")
    for k in range(1, top + 1):
        print(f"{k:>3} {exact_pt_moment(spectrum, k):>22.15g} {exact_esp(spectrum, k):>22.15g}")
    return 0


def _cmd_verify(_args) -> int:
    return 0 if run_verification_battery() else 1


def _cmd_export(args) -> int:
    payload = load_result(args.input)
    if not args.csv and not args.json:
        print("nothing to do: pass --csv and/or --json", file=sys.stderr)
        return 2
    if args.csv:
        export_csv(payload, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        export_json(payload, args.json)
        print(f"wrote {args.json}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
        "export": _cmd_export,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
