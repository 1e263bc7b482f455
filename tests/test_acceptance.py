"""Whole-pipeline checks with printed verdicts.

Unlike the per-module suites these exercise end-to-end properties —
estimator identities over full shot streams, statistical calibration
over hundreds of seeded repetitions, cost scaling shapes, and byte
stability of exports.  Each test prints one ``[PASS]``/``[FAIL]`` line
with the measured figure (through the capture plugin, so the lines are
visible in a plain ``pytest`` run) and then asserts the same condition.
The full module takes a few minutes; everything is seeded and
deterministic.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from shadowstream import (
    AccumulatorSet,
    ExperimentConfig,
    OnlineRecordEstimator,
    Snapshot,
    batched_estimate,
    descartes_bound,
    exact_esp,
    exact_pt_moment,
    export_csv,
    export_json,
    first_violated_order,
    newton_girard,
    partial_transpose,
    plugin_estimate,
    pt_flip,
    run_experiment,
    snapshot_matrix,
    stream_shadows,
    tuple_trace_direct,
    ustat_offline,
    werner_pt_spectrum,
    werner_state,
)
from shadowstream.kernel import (
    batch_code_traces,
    snapshot_codes,
    subset_index_chunks,
    tuple_trace_dense,
)
from shadowstream.sampler import ShadowRecord


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_streaming_matches_offline_subset_average(capsys):
    """Both streaming estimators reproduce the from-scratch subset
    average after every single shot, for every order, on every seed."""
    t0 = time.perf_counter()
    rho = werner_state(2, 5 / 6)
    part = (1,)
    orders = (2, 3, 4)
    horizon = 50
    worst = 0.0
    reference_dev = 0.0
    compared = 0
    for seed in range(1000, 1020):
        record = stream_shadows(rho, horizon, seed=seed)
        codes = snapshot_codes(record.axes, record.bits, part)
        # Offline reference: kernel sums over all m-subsets of the full
        # record, bucketed by each subset's largest index so one pass
        # yields the sum for every prefix length at once.
        prefix_sums = {}
        for m in orders:
            buckets = np.zeros(horizon, dtype=np.complex128)
            for chunk in subset_index_chunks(horizon, m):
                values = batch_code_traces(codes, chunk)
                top = chunk[:, -1]
                buckets += np.bincount(top, weights=values.real, minlength=horizon)
                buckets += 1j * np.bincount(top, weights=values.imag, minlength=horizon)
            prefix_sums[m] = np.cumsum(buckets)
        # The bucketing itself is checked against the independent
        # offline estimator on truncated records.
        for cut in (7, 23, 50):
            for m in orders:
                direct = ustat_offline(record[:cut], m, part).value
                bucketed = (prefix_sums[m][cut - 1] / math.comb(cut, m)).real
                reference_dev = max(
                    reference_dev, abs(bucketed - direct) / max(1.0, abs(direct))
                )
        dense_stream = AccumulatorSet(max(orders), part, 2)
        record_streams = {m: OnlineRecordEstimator(m, part, 2) for m in orders}
        for shots in range(1, horizon + 1):
            snap = record[shots - 1]
            dense_stream.update(snap)
            for est in record_streams.values():
                est.update(snap)
            for m in orders:
                if shots < m:
                    continue
                offline = (prefix_sums[m][shots - 1] / math.comb(shots, m)).real
                scale = max(abs(offline), 1e-12)
                for online in (
                    dense_stream.estimate(m).value,
                    record_streams[m].estimate().value,
                ):
                    worst = max(worst, abs(online - offline) / scale)
                    compared += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and reference_dev < 1e-11 and elapsed < 60.0
    _report(
        capsys,
        "streaming-matches-offline",
        ok,
        f"{compared} comparisons (20 seeds, T<=50, m in {orders}), worst rel dev "
        f"{worst:.2e}, reference self-check {reference_dev:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-9
    assert reference_dev < 1e-11
    assert elapsed < 60.0


def _first_negative_esp_order_exact(n_qubits: int, t: Fraction) -> int | None:
    """Rational-arithmetic scan for the first negative ESP of the
    transposed Werner spectrum: multiplicity 1 at the isolated
    eigenvalue and d**2 - 1 at the bulk one."""
    d = 2 ** (n_qubits // 2)
    isolated = (1 - d * t) / (d * d - d * t)
    bulk = Fraction(1) / (d * d - d * t)
    for k in range(1, d * d + 1):
        e_k = (
            math.comb(d * d - 1, k) * bulk**k
            + math.comb(d * d - 1, k - 1) * isolated * bulk ** (k - 1)
        )
        if e_k < 0:
            return k
    return None


def test_werner_oracle_agrees_with_dense_diagonalization(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 4):
        d = 2 ** (n // 2)
        for t in np.linspace(-1.0, 1.0, 21):
            spectrum = werner_pt_spectrum(n, t)
            dense = partial_transpose(
                werner_state(n, t), tuple(range(n // 2, n))
            )
            eigs = np.linalg.eigvalsh(dense)
            spectral_dev = np.max(
                np.abs(np.sort(eigs) - np.sort(spectrum.eigenvalues()))
            )
            worst = max(worst, spectral_dev)
            for m in range(1, 7):
                brute = float((eigs**m).sum())
                worst = max(
                    worst,
                    abs(exact_pt_moment(spectrum, m) - brute) / max(1.0, abs(brute)),
                )
            coeffs = np.poly(eigs)  # char poly; e_k = (-1)^k * coeffs[k]
            for k in range(d * d + 1):
                brute = float((-1.0) ** k * coeffs[k])
                worst = max(
                    worst, abs(exact_esp(spectrum, k) - brute) / max(1.0, abs(brute))
                )
    # Benchmark grid of first violated orders, pinned by exact rational
    # arithmetic on the same spectra (the 6-qubit, t=0.9444 entry is
    # frequently misquoted as 11; the exact scan gives 9).
    rows = [
        (2, "0.8333", 3),
        (2, "0.5833", 4),
        (4, "0.9", 5),
        (4, "0.7333", 6),
        (6, "0.8444", 10),
        (6, "0.9444", 9),
        (8, "0.915", 18),
        (8, "0.9706", 17),
    ]
    mismatches = []
    for n, t_str, expected in rows:
        t = Fraction(t_str)
        if _first_negative_esp_order_exact(n, t) != expected:
            mismatches.append((n, t_str, "rational scan"))
        if first_violated_order(n, float(t)) != expected:
            mismatches.append((n, t_str, "first_violated_order"))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and not mismatches and elapsed < 60.0
    _report(
        capsys,
        "werner-oracle-closure",
        ok,
        f"42 grid points (2 and 4 qubits) plus 8 benchmark rows to 8 qubits, "
        f"worst dense deviation {worst:.2e}, benchmark mismatches "
        f"{mismatches or 'none'}, {elapsed:.1f}s",
    )
    assert worst < 1e-10
    assert mismatches == []
    assert elapsed < 60.0


def test_bit_flip_rule_is_exact_for_every_configuration(capsys):
    checks = 0
    mismatches = 0
    for n in (1, 2, 3):
        for axes in itertools.product(range(3), repeat=n):
            for bits in itertools.product(range(2), repeat=n):
                snap = Snapshot(axes, bits)
                dense = snapshot_matrix(snap)
                for mask in range(1 << n):
                    subset = tuple(q for q in range(n) if mask >> q & 1)
                    flipped = snapshot_matrix(pt_flip(snap, subset))
                    if not np.array_equal(flipped, partial_transpose(dense, subset)):
                        mismatches += 1
                    checks += 1
    ok = mismatches == 0
    _report(
        capsys,
        "bit-flip-partial-transpose",
        ok,
        f"{checks} snapshot/bipartition configurations (up to 3 qubits), "
        f"{mismatches} mismatches, all equalities exact",
    )
    assert checks == 1884
    assert ok


def test_kernel_evaluation_paths_agree(capsys):
    rng = np.random.default_rng(414)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        snaps = [
            Snapshot(rng.integers(0, 3, n), rng.integers(0, 2, n)) for _ in range(m)
        ]
        subset = tuple(int(q) for q in np.flatnonzero(rng.integers(0, 2, n)))
        dense = tuple_trace_dense(snaps, subset)
        direct = tuple_trace_direct(snaps, subset)
        worst = max(worst, abs(direct - dense) / max(1.0, abs(dense)))
    ok = worst < 1e-10
    _report(
        capsys,
        "kernel-path-agreement",
        ok,
        f"1000 random tuples (N<=3, m<=5, random bipartitions), "
        f"worst direct-vs-dense deviation {worst:.2e}",
    )
    assert ok


def test_subset_and_batched_estimators_are_unbiased(capsys):
    t0 = time.perf_counter()
    rho = werner_state(2, 5 / 6)
    part = (1,)
    exact = {2: 31 / 49, 3: 73 / 343}
    n_seeds, horizon = 500, 300
    subset_values = {2: [], 3: []}
    batched_values = {2: [], 3: []}
    for s in range(n_seeds):
        record = stream_shadows(rho, horizon, seed=20000 + s)
        acc = AccumulatorSet(3, part, 2)
        for snap in record:
            acc.update(snap)
        for m in (2, 3):
            subset_values[m].append(acc.estimate(m).value)
            batched_values[m].append(batched_estimate(record, m, part, 12).value)
    pieces = []
    ok = True
    for m in (2, 3):
        for label, values in (("subset", subset_values[m]), ("batched", batched_values[m])):
            arr = np.asarray(values)
            stderr = arr.std(ddof=1) / math.sqrt(n_seeds)
            bias = abs(arr.mean() - exact[m])
            ok = ok and bias < 5.0 * stderr
            pieces.append(f"{label} m={m} |bias|/SE {bias / stderr:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(
        capsys,
        "unbiasedness",
        ok,
        f"{n_seeds} seeds x {horizon} shots; " + ", ".join(pieces) +
        f" (threshold 5), {elapsed:.1f}s",
    )
    assert ok


def test_plugin_bias_shrinks_like_one_over_shots(capsys):
    t0 = time.perf_counter()
    rho = werner_state(2, 5 / 6)
    part = (1,)
    exact3 = 73 / 343
    n_seeds = 500
    small, large = [], []
    for s in range(n_seeds):
        record = stream_shadows(rho, 1000, seed=50000 + s)
        small.append(plugin_estimate(record[:100], 3, part).value)
        large.append(plugin_estimate(record, 3, part).value)
    bias_small = abs(float(np.mean(small)) - exact3)
    bias_large = abs(float(np.mean(large)) - exact3)
    ratio = bias_small / bias_large
    elapsed = time.perf_counter() - t0
    ok = 5.0 <= ratio <= 20.0 and elapsed < 300.0
    _report(
        capsys,
        "plugin-bias-decay",
        ok,
        f"mean bias {bias_small:.2e} at T=100 vs {bias_large:.2e} at T=1000 over "
        f"{n_seeds} seeds, ratio {ratio:.1f} (want 5..20), {elapsed:.1f}s",
    )
    assert 5.0 <= ratio <= 20.0
    assert elapsed < 300.0


def test_batching_never_beats_full_subset_variance(capsys):
    t0 = time.perf_counter()
    rho = werner_state(2, 5 / 6)
    part = (1,)
    n_seeds, horizon = 500, 1200
    full, blocked = [], []
    for s in range(n_seeds):
        record = stream_shadows(rho, horizon, seed=80000 + s)
        acc = AccumulatorSet(3, part, 2)
        for snap in record:
            acc.update(snap)
        full.append(acc.estimate(3).value)
        blocked.append(batched_estimate(record, 3, part, 12).value)
    var_full = float(np.var(full, ddof=1))
    var_blocked = float(np.var(blocked, ddof=1))
    elapsed = time.perf_counter() - t0
    ok = var_blocked >= var_full and elapsed < 600.0
    _report(
        capsys,
        "batched-variance-penalty",
        ok,
        f"identical records ({n_seeds} seeds x {horizon} shots, m=3, 12 batches): "
        f"var {var_blocked:.2e} batched vs {var_full:.2e} full "
        f"(ratio {var_blocked / var_full:.1f}), {elapsed:.1f}s",
    )
    assert var_blocked >= var_full
    assert elapsed < 600.0


def test_desk_scale_campaign_certifies_negativity(capsys):
    t0 = time.perf_counter()
    config = ExperimentConfig(
        n_qubits=2,
        t=5 / 6,
        orders=(2, 3),
        strategies=("online-recon",),
        shots=20000,
        runs=10,
        seed=31415,
        tolerance=1e-3,
        window=10,
    )
    result = run_experiment(config)
    third_order = [
        s["strategies"]["online-recon"]["first_negative_order"] == 3
        for s in result.run_summaries
    ]
    detected = sum(third_order)
    median_stop = result.summary["median_stopping_shot"]
    elapsed = time.perf_counter() - t0
    ok = detected >= 9 and 1e3 <= median_stop <= 2e4 and elapsed < 600.0
    _report(
        capsys,
        "desk-scale-detection",
        ok,
        f"{detected}/10 runs flagged the third-order sign (want >= 9), median "
        f"stopping shot {median_stop:.0f} (want 1e3..2e4), {elapsed:.1f}s",
    )
    assert detected >= 9
    assert 1e3 <= median_stop <= 2e4
    assert elapsed < 600.0


def _esp_by_polynomial_expansion(values: np.ndarray) -> np.ndarray:
    """Coefficients of prod_i (1 + x_i y); entry k is e_k."""
    out = np.array([1.0])
    for x in values:
        out = np.concatenate([out, [0.0]]) + x * np.concatenate([[0.0], out])
    return out


def test_esp_conversion_and_sign_diagnostics(capsys):
    rng = np.random.default_rng(909)
    worst = 0.0
    bound_failures = 0
    for _ in range(1000):
        d = int(rng.integers(2, 17))
        # Draw a unit-trace spectrum without extreme entries, and with
        # every polynomial coefficient well above the sign reader's
        # noise floor: the variation count deliberately ignores
        # coefficients below 1e-14, so a spectrum whose true e_k sits
        # down there (products of many small eigenvalues) carries no
        # recoverable sign information for any float pipeline.
        while True:
            raw = rng.uniform(-1.0, 1.0, d)
            total = raw.sum()
            if abs(total) < 0.5 or np.max(np.abs(raw / total)) > 1.25:
                continue
            lam = raw / total
            reference = _esp_by_polynomial_expansion(lam)
            if np.min(np.abs(reference)) > 1e-12:
                break
        power_sums = [float((lam**m).sum()) for m in range(1, d + 1)]
        esp = newton_girard(power_sums)
        for k in range(d + 1):
            worst = max(
                worst, abs(esp.values[k] - reference[k]) / max(1.0, abs(reference[k]))
            )
        bound = descartes_bound(esp)
        negatives = int((lam < 0).sum())
        if negatives > bound.variations or negatives % 2 != bound.parity:
            bound_failures += 1
    ok = worst < 1e-10 and bound_failures == 0
    _report(
        capsys,
        "esp-and-sign-bounds",
        ok,
        f"1000 random spectra (d<=16): worst conversion deviation {worst:.2e}, "
        f"{bound_failures} sign-count violations",
    )
    assert worst < 1e-10
    assert bound_failures == 0


def test_update_cost_scaling_shapes(capsys):
    t0 = time.perf_counter()
    part = (1,)
    rng = np.random.default_rng(1010)
    # Dense-accumulator path: stream 100k shots and compare early vs.
    # late per-block update times; constant-time updates keep the ratio
    # near 1 no matter how many shots came before.
    acc = AccumulatorSet(4, part, 2)
    block = 1000
    block_times = []
    for _ in range(100):
        snaps = [
            Snapshot(rng.integers(0, 3, 2), rng.integers(0, 2, 2))
            for _ in range(block)
        ]
        start = time.perf_counter()
        for snap in snaps:
            acc.update(snap)
        block_times.append(time.perf_counter() - start)
    early = float(np.median(block_times[1:4]))  # occupancy ~1e3..4e3
    late = float(np.median(block_times[-3:]))  # occupancy ~1e5
    recon_ratio = max(early, late) / min(early, late)
    # Record-only path: one update enumerates all pairs from the past,
    # so its cost grows quadratically with the record length.
    sizes = (1000, 2154, 4642, 10000)
    update_times = []
    for n_shots in sizes:
        axes = rng.integers(0, 3, (n_shots, 2), dtype=np.uint8)
        bits = rng.integers(0, 2, (n_shots, 2), dtype=np.uint8)
        est = OnlineRecordEstimator(
            3, part, 2, record=ShadowRecord.from_arrays(axes, bits)
        )
        snap = Snapshot(rng.integers(0, 3, 2), rng.integers(0, 2, 2))
        start = time.perf_counter()
        est.update(snap)
        update_times.append(time.perf_counter() - start)
    slope = float(np.polyfit(np.log(sizes), np.log(update_times), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = recon_ratio < 2.0 and 1.5 <= slope <= 2.5 and elapsed < 600.0
    _report(
        capsys,
        "update-cost-shapes",
        ok,
        f"dense accumulator per-shot ratio {recon_ratio:.2f} between 1e3 and 1e5 "
        f"shots (want < 2); record-only cost slope {slope:.2f} over T=1e3..1e4 "
        f"(want 1.5..2.5), {elapsed:.1f}s",
    )
    assert recon_ratio < 2.0
    assert 1.5 <= slope <= 2.5
    assert elapsed < 600.0


def test_exports_are_byte_deterministic(capsys, tmp_path):
    outputs = {}
    for label, workers in (("first", 1), ("again", 1), ("parallel", 2)):
        config = ExperimentConfig(
            n_qubits=2,
            t=5 / 6,
            orders=(2, 3),
            strategies=("online-recon", "plugin"),
            shots=400,
            runs=2,
            seed=2718,
            stop_on_convergence=False,
            stride_dense=100,
            workers=workers,
        )
        result = run_experiment(config)
        json_path = tmp_path / f"{label}.json"
        csv_path = tmp_path / f"{label}.csv"
        export_json(result, json_path)
        export_csv(result, csv_path)
        outputs[label] = (json_path.read_bytes(), csv_path.read_bytes())
    rerun_same = outputs["first"] == outputs["again"]
    workers_same = outputs["first"] == outputs["parallel"]
    ok = rerun_same and workers_same
    _report(
        capsys,
        "byte-deterministic-exports",
        ok,
        f"JSON {len(outputs['first'][0])}B and CSV {len(outputs['first'][1])}B "
        f"identical across reruns ({rerun_same}) and worker counts ({workers_same})",
    )
    assert rerun_same
    assert workers_same
