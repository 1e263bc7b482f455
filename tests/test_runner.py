"""Experiment orchestration, exports, and the command line."""

import json
import math

import numpy as np
import pytest

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
        ],
    )
    def test_validation_failures(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides).validated()


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

    def test_file_state_qubit_mismatch(self, tmp_path):
        rho = DensityMatrix(np.eye(2) / 2)
        path = tmp_path / "one_qubit.json"
        dump_density_matrix(rho, path)
        config = small_config(state_kind="file", state_path=str(path), runs=1)
        with pytest.raises(InvalidStateError):
            run_experiment(config)


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

    def test_verification_battery(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6
        assert "[PASS] born-sampler-agreement: 27 bases" in out
        assert "[FAIL]" not in out

    def test_readme_demo_stop_shot(self, tmp_path, capsys):
        out = tmp_path / "demo"
        argv = ["run", "--seed", "7", "--shots", "4000", "--orders", "2,3"]
        argv += ["--strategy", "online-recon", "--out", str(out)]
        assert main(argv) == 0
        assert "run 0: stop=2138 first_negative_order=3" in capsys.readouterr().out
