"""In-memory span tracing around the calls into each shadowstream module.

The wrappers live here, not in the package: :func:`installed` swaps each
public function or method for a timed stand-in at the place the package
calls it from (``runner`` calls ``shot_rng`` and ``newton_girard``,
``estimators`` calls the sampler and kernel functions, and so on) and
puts the originals back when the block ends.  Nothing inside ``src/``
changes.

A span is ``(name, start_ns, end_ns, parent, request)``; spans are kept
in typed arrays while the run lasts and written out by :meth:`Tracer.dump`
at its end.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter_ns

import numpy as np

import shadowstream.estimators as _estimators
import shadowstream.runner as _runner
import shadowstream.sampler as _sampler
import shadowstream.states as _states

from stats import self_times

REQUEST = "request"


class Tracer:
    """Span recorder with a stack of open spans for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.requests = array("q")
        self._stack: list[int] = []
        self.request = -1
        # Per-request counts taken at the same boundaries as the spans.
        self.tuples = 0
        self.sampled_shots = 0
        self._basis_keys: set[bytes] = set()
        self.distinct_keys = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def request_span(self, request: int):
        """Root span of one request; per-request basis keys reset here."""
        self.request = request
        self._basis_keys = set()
        index = self.open(self.name_id(REQUEST))
        try:
            yield
        finally:
            self.close(index)
            self.distinct_keys += len(self._basis_keys)
            self.request = -1

    def wrap(self, fn, name: str):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return timed

    def wrap_sample(self, fn, name: str):
        """``BornSampler.sample``: also notes each returned basis key."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def timed(sampler, rng):
            index = self.open(nid)
            try:
                snap = fn(sampler, rng)
            finally:
                self.close(index)
            self.sampled_shots += 1
            self._basis_keys.add(snap.axes.tobytes())
            return snap

        return timed

    def wrap_traces(self, fn, name: str):
        """``batch_code_traces``: also counts the kernel tuples evaluated."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def timed(codes, indices, *args, **kwargs):
            index = self.open(nid)
            try:
                return fn(codes, indices, *args, **kwargs)
            finally:
                self.close(index)
                self.tuples += len(indices)

        return timed

    def wrap_chunks(self, fn, name: str):
        """``subset_index_chunks`` is a generator: one span per block."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                index = self.open(nid)
                try:
                    block = next(blocks)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                yield block

        return timed

    # -- aggregation ------------------------------------------------------

    def summary(self) -> tuple[dict[str, dict], float]:
        """Per span name: call count, total and self nanoseconds; plus the
        share of request wall time that the request's child spans cover."""
        own = self_times(list(zip(self.starts, self.ends, self.parents)))
        out: dict[str, dict] = {
            name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names
        }
        for index, nid in enumerate(self.name_ids):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["total_ns"] += self.ends[index] - self.starts[index]
            row["self_ns"] += own[index]
        requests = out.get(REQUEST)
        if not requests or not requests["total_ns"]:
            return out, 0.0
        return out, 1.0 - requests["self_ns"] / requests["total_ns"]

    def dump(self, path) -> None:
        """Write every span as columns of an ``.npz`` archive: ``names``
        maps ``name_id`` to a span name; ``parent`` is a row index or -1."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int64),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            request=np.frombuffer(self.requests, dtype=np.int64),
        )


def _targets(tracer: Tracer):
    """(owner, attribute, stand-in) for every wrapped call site."""
    moment_stream = _estimators.MomentStream
    born = _sampler.BornSampler
    density = _states.DensityMatrix
    return [
        (_runner, "shot_rng", tracer.wrap(_runner.shot_rng, "sampler.shot_rng")),
        (born, "sample", tracer.wrap_sample(born.sample, "sampler.sample")),
        (
            _estimators,
            "snapshot_matrix",
            tracer.wrap(_estimators.snapshot_matrix, "sampler.snapshot_matrix"),
        ),
        (_estimators, "pt_flip", tracer.wrap(_estimators.pt_flip, "kernel.pt_flip")),
        (
            _estimators,
            "snapshot_codes",
            tracer.wrap(_estimators.snapshot_codes, "kernel.snapshot_codes"),
        ),
        (
            _estimators,
            "subset_index_chunks",
            tracer.wrap_chunks(_estimators.subset_index_chunks, "kernel.subset_index_chunks"),
        ),
        (
            _estimators,
            "batch_code_traces",
            tracer.wrap_traces(_estimators.batch_code_traces, "kernel.batch_code_traces"),
        ),
        (moment_stream, "update", tracer.wrap(moment_stream.update, "estimators.update")),
        (
            moment_stream,
            "estimates",
            tracer.wrap(moment_stream.estimates, "estimators.estimates"),
        ),
        (_runner, "newton_girard", tracer.wrap(_runner.newton_girard, "certify.newton_girard")),
        (
            density,
            "assert_physical",
            tracer.wrap(density.assert_physical, "states.assert_physical"),
        ),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the package's internal calls through ``tracer`` for the block."""
    targets = _targets(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, stand_in in targets:
            setattr(owner, attr, stand_in)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
