"""Experiment orchestration, exports, and the command line."""

import concurrent.futures
import json
import math
import threading
import weakref

import numpy as np
import pytest

import shadowstream.estimators as estimators
import shadowstream.runner as runner
from shadowstream import (
    DensityMatrix,
    ExperimentConfig,
    InvalidStateError,
    export_csv,
    export_json,
    load_result,
    run_experiment,
)
from shadowstream.runner import (
    _StopMonitor,
    _build_parser,
    _config_from_args,
    main,
    recompute_run_summaries,
    run_seed_for,
)
from shadowstream.states import dump_density_matrix


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        n_qubits=2,
        t=5.0 / 6.0,
        orders=(2, 3),
        strategies=("online-recon",),
        shots=150,
        runs=2,
        seed=99,
        stride_dense=25,
        stop_on_convergence=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_orders_sorted_and_deduped(self):
        config = ExperimentConfig(orders=(3, 2, 3))
        assert config.orders == (2, 3)

    def test_target_defaults_to_highest_order(self):
        assert ExperimentConfig(orders=(2, 3, 4)).target == 4
        assert ExperimentConfig(orders=(2, 3), target_order=2).target == 2

    def test_esp_orders_follow_contiguous_prefix(self):
        assert ExperimentConfig(orders=(2, 3)).esp_orders() == (1, 2, 3)
        # a gap at 3 makes e_4 underivable
        assert ExperimentConfig(orders=(2, 4)).esp_orders() == (1, 2)

    def test_round_trip(self):
        config = small_config(transposed=(0,), workers=3)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"shots": 5, "orders": [2]}))
        config = ExperimentConfig.from_json(path)
        assert config.shots == 5
        assert config.orders == (2,)

    @pytest.mark.parametrize("text", ["null", "[]", "3"])
    def test_from_json_rejects_non_objects(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_json(path)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"shoots": 10})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"state_kind": "banana"},
            {"state_kind": "file"},  # missing state_path
            {"shots": 0},
            {"runs": 0},
            {"seed": -1},
            {"tolerance": 0.0},
            {"window": 0},
            {"orders": (0, 2)},
            {"strategies": ()},
            {"target_order": 7},
            {"workers": 0},
            {"stride_dense": 0},
            {"strategies": ("online-recon", "magic")},
            {"n_qubits": 3},
            {"n_qubits": 0},
            {"t": 1.5},
            {"transposed": ()},
            {"transposed": (0, 1)},
            {"transposed": (2,)},
            {"shots": "100"},
            {"tolerance": "small"},
            {"seed": 1.0},
            {"workers": True},
            {"strategies": ("batched",), "n_batches": 0},
            {"strategies": ("batched",), "n_batches": 2},
            {"strategies": ("online-recon", "online-recon")},
        ],
    )
    def test_validation_failures(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides).validated()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"shots": "100"}, "shots"),
            ({"t": None}, "t"),
            ({"n_batches": [4]}, "n_batches"),
            ({"orders": 3}, "orders"),
            ({"orders": ["two"]}, "orders"),
            ({"transposed": "x"}, "transposed"),
            ({"strategies": ["batched"], "n_batches": 0}, "n_batches"),
            ({"strategies": ["batched"], "n_batches": 2}, "n_batches"),
            ({"strategies": ["plugin", "ustat", "plugin"]}, "strategies"),
            ({"orders": [1, 2], "target_order": True}, "target_order"),
            ({"target_order": 2.0}, "target_order"),
            ({"stop_on_convergence": "no"}, "stop_on_convergence"),
            ({"stop_on_convergence": None}, "stop_on_convergence"),
            ({"state_kind": "file", "state_path": 5}, "state_path"),
        ],
    )
    def test_malformed_values_name_the_field(self, payload, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict(payload).validated()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"orders": "23"}, "orders"),
            ({"transposed": "1"}, "transposed"),
            ({"orders": [True, 2]}, "orders"),
            ({"orders": [2.7, 3]}, "orders"),
            ({"orders": [2, "3"]}, "orders"),
            ({"transposed": [1.0]}, "transposed"),
            ({"tolerance": json.loads("NaN")}, "tolerance"),
        ],
    )
    def test_malformed_integer_lists_and_nan_tolerance(self, payload, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict(payload).validated()

    def test_numpy_integers_are_integers(self):
        config = ExperimentConfig.from_dict({"orders": [np.int64(3), np.int32(2)]}).validated()
        assert config.orders == (2, 3)

    def test_every_stream_strategy_validates(self):
        for name in ("ustat", "plugin", "batched", "online-norecon", "online-recon"):
            assert small_config(strategies=(name,)).validated().strategies == (name,)

    def test_file_states_skip_the_werner_checks(self):
        config = small_config(state_kind="file", state_path="state.json", n_qubits=3)
        assert config.validated() is config


class TestStopMonitor:
    def test_fires_after_consecutive_small_changes(self):
        monitor = _StopMonitor(tolerance=0.01, window=3)
        for shot, value in [(1, 100.0), (2, 100.5), (3, 100.9), (4, 100.8)]:
            monitor.push(shot, value)
        assert monitor.fired_at == 4

    def test_large_change_resets_streak(self):
        monitor = _StopMonitor(tolerance=0.01, window=2)
        for shot, value in [(1, 100.0), (2, 100.5), (3, 150.0), (4, 150.1)]:
            monitor.push(shot, value)
        assert monitor.fired_at is None
        monitor.push(5, 150.2)
        assert monitor.fired_at == 5

    def test_exact_zero_sequence_counts(self):
        monitor = _StopMonitor(tolerance=1e-3, window=2)
        for shot in (1, 2, 3):
            monitor.push(shot, 0.0)
        assert monitor.fired_at == 3

    def test_latches(self):
        monitor = _StopMonitor(tolerance=0.5, window=1)
        monitor.push(1, 1.0)
        monitor.push(2, 1.0)
        assert monitor.fired_at == 2
        monitor.push(3, 99.0)
        assert monitor.fired_at == 2


class TestRunSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [run_seed_for(7, r) for r in range(20)]
        assert seeds == [run_seed_for(7, r) for r in range(20)]
        assert len(set(seeds)) == 20

    def test_depends_on_base_seed(self):
        assert run_seed_for(1, 0) != run_seed_for(2, 0)


class TestRunExperiment:
    def test_trace_shape_and_checkpoints(self):
        config = small_config(
            shots=23, runs=1, stride_dense=1, stride_switch=10, stride_sparse=5
        )
        result = run_experiment(config)
        trace = result.traces[0]
        assert trace["shots"] == list(range(1, 11)) + [15, 20, 23]
        assert set(trace["moments"]) == {"2", "3"}
        assert set(trace["esps"]) == {"1", "2", "3"}
        # order 3 is undefined before the third shot
        assert trace["moments"]["3"][0] is None
        assert trace["moments"]["3"][-1] is not None

    def test_summaries_recompute_from_own_traces(self, tmp_path):
        result = run_experiment(small_config())
        path = tmp_path / "out.json"
        export_json(result, path)
        payload = load_result(path)
        assert recompute_run_summaries(payload) == payload["runs"]

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        for run_index in (1, 2):
            result = run_experiment(config)
            export_json(result, tmp_path / f"r{run_index}.json")
            export_csv(result, tmp_path / f"r{run_index}.csv")
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_worker_count_invisible_in_output(self, tmp_path):
        serial = run_experiment(small_config(workers=1))
        parallel = run_experiment(small_config(workers=2))
        export_json(serial, tmp_path / "serial.json")
        export_json(parallel, tmp_path / "parallel.json")
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "parallel.json"
        ).read_bytes()

    def test_stopping_rule_truncates_runs(self):
        eager = run_experiment(
            small_config(
                stop_on_convergence=True, tolerance=0.5, window=3, shots=150, runs=1
            )
        )
        summary = eager.run_summaries[0]
        assert summary["stopped"]
        assert summary["stop_shot"] < 150
        assert eager.summary["stopped_runs"] == 1

    def test_budget_spent_without_stopping(self):
        result = run_experiment(small_config(runs=1))
        summary = result.run_summaries[0]
        assert not summary["stopped"]
        assert summary["shots_used"] == 150

    def test_oracle_block_for_werner_runs(self):
        result = run_experiment(small_config(runs=1))
        oracle = result.run_summaries[0]["oracle"]
        assert oracle["first_violated_order"] == 3
        assert oracle["moments"]["2"] == pytest.approx(31.0 / 49.0)
        assert oracle["ppt_threshold"] == 0.5

    def test_multiple_strategies_share_the_stream(self):
        config = small_config(strategies=("online-recon", "plugin"), runs=1, shots=60)
        result = run_experiment(config)
        assert {t["strategy"] for t in result.traces} == {"online-recon", "plugin"}
        by_name = {t["strategy"]: t for t in result.traces}
        assert by_name["online-recon"]["shots"] == by_name["plugin"]["shots"]

    def test_offline_strategy_checkpoints(self):
        config = small_config(strategies=("ustat",), runs=1, shots=60, stride_dense=20)
        result = run_experiment(config)
        trace = result.traces[0]
        assert trace["shots"] == [20, 40, 60]
        assert all(v is not None for v in trace["moments"]["3"])

    def test_file_state_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        path = tmp_path / "state.json"
        dump_density_matrix(rho, path)
        config = small_config(
            state_kind="file", state_path=str(path), runs=1, shots=40, orders=(2,)
        )
        result = run_experiment(config)
        assert "oracle" not in result.run_summaries[0]
        assert result.traces[0]["moments"]["2"][-1] is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unphysical_file_state_reaches_the_caller(self, tmp_path, workers):
        path = tmp_path / "negative.json"
        dump_density_matrix(DensityMatrix(np.diag([0.7, 0.5, 0.1, -0.3])), path)
        config = small_config(
            state_kind="file", state_path=str(path), runs=2, workers=workers, shots=20
        )
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            run_experiment(config)

    def test_state_is_checked_once_per_run(self, monkeypatch):
        calls = []
        check = DensityMatrix.assert_physical
        monkeypatch.setattr(
            DensityMatrix, "assert_physical", lambda rho: calls.append(rho) or check(rho)
        )
        run_experiment(small_config(runs=3, shots=10))
        assert len(calls) == 3

    def test_state_is_checked_and_dropped_before_the_streams(self, monkeypatch):
        events, states = [], []
        build, check = runner._build_state, DensityMatrix.assert_physical

        def building(config):
            rho = build(config)
            states.append(weakref.ref(rho))
            return rho

        def streaming(*args, **kwargs):
            events.append("stream beside the state" if states[-1]() else "stream")
            return stream(*args, **kwargs)

        stream = runner.MomentStream
        monkeypatch.setattr(runner, "_build_state", building)
        monkeypatch.setattr(runner, "MomentStream", streaming)
        monkeypatch.setattr(
            DensityMatrix, "assert_physical", lambda rho: events.append("check") or check(rho)
        )
        run_experiment(small_config(runs=1, shots=10))
        assert events == ["check", "stream"]

    def test_file_state_qubit_mismatch(self, tmp_path):
        rho = DensityMatrix(np.eye(2) / 2)
        path = tmp_path / "one_qubit.json"
        dump_density_matrix(rho, path)
        config = small_config(state_kind="file", state_path=str(path), runs=1)
        with pytest.raises(InvalidStateError):
            run_experiment(config)


def dense_config(**overrides) -> ExperimentConfig:
    """A short 8-qubit accumulator campaign: four row tiles at order 4."""
    base = dict(n_qubits=8, t=0.6, orders=(2, 3, 4), shots=12, stride_dense=1)
    return small_config(**{**base, **overrides})


class InlinePool:
    """A process pool stand-in that runs each call in this process."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


class TestAccumulatorThreads:
    """Past six qubits each accumulator update spreads its row tiles over
    threads that never outlive the call and never change a byte."""

    @pytest.fixture
    def thread_pools(self, monkeypatch):
        made = []
        real = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            made.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        for module in (estimators, runner):
            monkeypatch.setattr(module, "_usable_cpus", lambda: 2)
        return made

    def test_no_thread_outlives_a_run(self, thread_pools):
        before = threading.active_count()
        run_experiment(dense_config(runs=1))
        assert thread_pools and set(thread_pools) == {1}
        assert threading.active_count() == before

    def test_process_workers_share_the_cpus(self, monkeypatch, thread_pools, tmp_path):
        serial = run_experiment(dense_config(workers=1))
        assert thread_pools, "a serial run on 2 CPUs should use 2 threads"
        thread_pools.clear()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        InlinePool.made.clear()
        capped = run_experiment(dense_config(workers=2))
        assert InlinePool.made == [2] and thread_pools == []
        monkeypatch.undo()
        pooled = run_experiment(dense_config(workers=2))
        for name, result in (("serial", serial), ("capped", capped), ("pooled", pooled)):
            export_json(result, tmp_path / f"{name}.json")
            export_csv(result, tmp_path / f"{name}.csv")
        for suffix in ("json", "csv"):
            want = (tmp_path / f"serial.{suffix}").read_bytes()
            assert (tmp_path / f"capped.{suffix}").read_bytes() == want
            assert (tmp_path / f"pooled.{suffix}").read_bytes() == want


class TestExports:
    def test_csv_layout(self, tmp_path):
        result = run_experiment(small_config(runs=1, shots=50, stride_dense=10))
        path = tmp_path / "out.csv"
        export_csv(result, path)
        lines = path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert comments[0].startswith("# shadowstream ")
        assert "# strategy 0 = online-recon" in comments
        header = comments[-1].lstrip("# ").split(",")
        assert header == ["run", "strategy", "T", "p_2", "p_3", "e_1", "e_2", "e_3", "stop_2", "stop_3"]
        assert len(rows) == 5  # checkpoints at 10, 20, 30, 40, 50
        first = rows[0].split(",")
        assert len(first) == len(header)
        assert first[:3] == ["0", "0", "10"]

    def test_csv_nan_cells_for_undefined_orders(self, tmp_path):
        result = run_experiment(small_config(runs=1, shots=5, stride_dense=1))
        path = tmp_path / "tiny.csv"
        export_csv(result, path)
        rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert rows[0].split(",")[3] == "nan"  # p_2 at T = 1
        assert rows[4].split(",")[3] != "nan"  # p_2 at T = 5

    def test_json_document_shape(self, tmp_path):
        result = run_experiment(small_config(runs=1, shots=30))
        path = tmp_path / "doc.json"
        export_json(result, path)
        payload = load_result(path)
        assert payload["format"] == "shadowstream-result"
        assert payload["format_version"] == 1
        assert "workers" not in payload["config"]
        assert payload["config"]["shots"] == 30
        assert len(payload["traces"]) == 1

    def test_load_result_rejects_other_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_result(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"shadowstream-result"'])
    def test_load_result_rejects_non_objects(self, tmp_path, text):
        path = tmp_path / "other.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a shadowstream-result"):
            load_result(path)


class TestCli:
    def test_run_and_export_round_trip(self, tmp_path, capsys):
        out = tmp_path / "cli_demo"
        code = main(
            [
                "run",
                "--seed",
                "3",
                "--shots",
                "120",
                "--orders",
                "2,3",
                "--strategy",
                "online-recon",
                "--runs",
                "1",
                "--no-stop",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "run 0:" in stdout
        json_path = out.with_suffix(".json")
        csv_path = out.with_suffix(".csv")
        assert json_path.exists() and csv_path.exists()

        re_csv = tmp_path / "again.csv"
        re_json = tmp_path / "again.json"
        code = main(
            ["export", "--input", str(json_path), "--csv", str(re_csv), "--json", str(re_json)]
        )
        assert code == 0
        assert re_csv.read_bytes() == csv_path.read_bytes()
        assert re_json.read_bytes() == json_path.read_bytes()

    def test_export_requires_a_target(self, tmp_path, capsys):
        result = run_experiment(small_config(runs=1, shots=30))
        path = tmp_path / "doc.json"
        export_json(result, path)
        assert main(["export", "--input", str(path)]) == 2

    def test_oracle_command(self, capsys):
        assert main(["oracle", "--qubits", "2", "--t", "0.8333"]) == 0
        out = capsys.readouterr().out
        assert "first violated ESP order: 3" in out
        assert "PPT threshold: t <= 0.5" in out

    def test_config_file_with_overrides(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"shots": 40, "orders": [2], "stop_on_convergence": False})
        )
        out = tmp_path / "from_config"
        code = main(
            ["run", "-c", str(config_path), "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        payload = load_result(out.with_suffix(".json"))
        assert payload["config"]["shots"] == 40
        assert payload["config"]["seed"] == 11

    # Every ``run`` flag besides -c/--out, with one value and the config
    # field it must land on.
    FLAG_CASES = [
        (["--seed", "9"], {"seed": 9}),
        (["--shots", "50"], {"shots": 50}),
        (["--orders", "4,2"], {"orders": (2, 4)}),
        (["--strategy", "plugin,ustat"], {"strategies": ("plugin", "ustat")}),
        (["--runs", "3"], {"runs": 3}),
        (["--workers", "2"], {"workers": 2}),
        (["--tolerance", "0.25"], {"tolerance": 0.25}),
        (["--window", "7"], {"window": 7}),
        (["--target-order", "2"], {"target_order": 2}),
        (["--batches", "5"], {"n_batches": 5}),
        (["--qubits", "4"], {"n_qubits": 4}),
        (["--t", "0.4"], {"t": 0.4}),
        (["--transposed", "2,3"], {"transposed": (2, 3)}),
        (["--no-stop"], {"stop_on_convergence": False}),
        (["--state-file", "rho.json"], {"state_kind": "file", "state_path": "rho.json"}),
    ]

    @pytest.mark.parametrize("argv, expected", FLAG_CASES, ids=lambda v: str(v))
    def test_run_flag_sets_its_config_field(self, argv, expected):
        args = _build_parser().parse_args(["run", "--out", "x", *argv])
        changed = {
            name: value
            for name, value in _config_from_args(args).to_dict().items()
            if value != ExperimentConfig().to_dict()[name]
        }
        assert changed == {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in expected.items()
        }

    def test_flag_cases_cover_every_run_flag(self):
        run_parser = _build_parser()._subparsers._group_actions[0].choices["run"]
        flags = {
            action.option_strings[-1]
            for action in run_parser._actions
            if action.option_strings
        }
        covered = {argv[0] for argv, _ in self.FLAG_CASES}
        assert flags - covered == {"--help", "--config", "--out"}

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"shots": 40, "window": 3, "n_batches": 6}))
        args = _build_parser().parse_args(
            ["run", "-c", str(path), "--out", "x", "--window", "8"]
        )
        config = _config_from_args(args)
        assert (config.shots, config.window, config.n_batches) == (40, 8, 6)

    def test_verification_battery(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 8
        assert "[PASS] born-sampler-agreement: 27 bases" in out
        assert "[PASS] accumulator-threads: W = 1 against W = " in out
        assert "[FAIL]" not in out

    def test_readme_demo_stop_shot(self, tmp_path, capsys):
        out = tmp_path / "demo"
        argv = ["run", "--seed", "7", "--shots", "4000", "--orders", "2,3"]
        argv += ["--strategy", "online-recon", "--out", str(out)]
        assert main(argv) == 0
        assert "run 0: stop=2138 first_negative_order=3" in capsys.readouterr().out
