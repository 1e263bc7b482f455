"""Export bytes against the straightforward exporters, and result-document checks.

``reference_json`` and ``reference_csv`` are the exporters that the
shared formatting pass replaced: one ``json.dumps`` of the whole
payload, and one ``repr(float(v))`` (``nan`` for None) per CSV cell.
Every payload shape below must export to the same bytes through
``export_json`` / ``export_csv``, for dict payloads, for
``ExperimentResult`` objects, and for results changed after an export.
"""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowstream import (
    ExperimentConfig,
    export_csv,
    export_json,
    load_result,
    run_experiment,
)
from shadowstream.runner import ExperimentResult, main

SPECIAL = [None, 0.0, -0.0, 5e-324, 1e16, 1e-5, 1.0, math.inf, -math.inf, math.nan]


def reference_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def reference_csv(payload) -> str:
    config = ExperimentConfig.from_dict(payload["config"])
    orders, esp_orders, names = config.orders, config.esp_orders(), list(config.strategies)
    header = (["run", "strategy", "T"] + [f"p_{m}" for m in orders]
              + [f"e_{k}" for k in esp_orders] + [f"stop_{m}" for m in orders])
    lines = [f"# shadowstream {payload['software_version']}",
             *(f"# strategy {i} = {name}" for i, name in enumerate(names)),
             "# " + ",".join(header)]

    def cell(value):
        return "nan" if value is None else repr(float(value))

    for trace in payload["traces"]:
        sid = names.index(trace["strategy"])
        stopped_at = {int(m): s for m, s in trace["stopped_at"].items()}
        moments = {int(m): vals for m, vals in trace["moments"].items()}
        esps = {int(k): vals for k, vals in trace["esps"].items()}
        for i, shot in enumerate(trace["shots"]):
            cells = [str(trace["run"]), str(sid), str(shot)]
            cells += [cell(moments[m][i]) for m in orders]
            cells += [cell(esps[k][i]) for k in esp_orders]
            cells += ["1" if stopped_at.get(m) is not None and stopped_at[m] <= shot else "0"
                      for m in orders]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def exported(result, tmp_path) -> tuple[str, str]:
    export_json(result, tmp_path / "out.json")
    export_csv(result, tmp_path / "out.csv")
    return (tmp_path / "out.json").read_text(), (tmp_path / "out.csv").read_text()


def expected(payload) -> tuple[str, str]:
    return reference_json(payload), reference_csv(payload)


cells = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**20), 10**20),
)


@st.composite
def payloads(draw):
    """Result documents of several runs x strategies, dense or sparse checkpoints."""
    orders = draw(st.sampled_from([(2,), (2, 3), (1, 2, 3), (2, 4), (3,)]))
    strategies = tuple(draw(st.lists(
        st.sampled_from(["online-recon", "online-norecon", "plugin", "ustat", "batched"]),
        min_size=1, max_size=3, unique=True)))
    config = ExperimentConfig(orders=orders, strategies=strategies)
    traces = []
    for run in range(draw(st.integers(1, 3))):
        stride = draw(st.sampled_from([1, 3, 10]))
        shots = list(range(stride, stride * draw(st.integers(0, 12)) + 1, stride))
        for name in strategies:
            def column():
                return draw(st.lists(cells, min_size=len(shots), max_size=len(shots)))

            traces.append({
                "run": run,
                "run_seed": draw(st.integers(0, 2**64 - 1)),
                "strategy": name,
                "orders": list(orders),
                "shots": shots,
                "moments": {str(m): column() for m in orders},
                "esps": {str(k): column() for k in config.esp_orders()},
                "stopped_at": {str(m): draw(st.none() | st.integers(0, 40)) for m in orders},
                "stop_shot": draw(st.none() | st.integers(1, 40)),
            })
    result = ExperimentResult(config, traces, [{"run": 0, "note": "\0"}], {"runs": 1})
    return result


class TestExportBytes:
    @given(payloads())
    @settings(max_examples=80, deadline=None)
    def test_dict_payloads(self, tmp_path_factory, result):
        payload = result.to_json_dict()
        assert exported(payload, tmp_path_factory.mktemp("d")) == expected(payload)

    @given(payloads())
    @settings(max_examples=60, deadline=None)
    def test_payloads_loaded_from_json(self, tmp_path_factory, result):
        # JSON gives back ints as ints and NaN and the infinities as floats.
        payload = json.loads(reference_json(result.to_json_dict()))
        assert exported(payload, tmp_path_factory.mktemp("l")) == expected(payload)

    @given(payloads(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_results_and_results_changed_after_export(self, tmp_path_factory, result, data):
        tmp_path = tmp_path_factory.mktemp("r")
        assert exported(result, tmp_path) == expected(result.to_json_dict())
        assert exported(result, tmp_path) == expected(result.to_json_dict())
        # Change one cell in place; the next export must not reuse old text.
        trace = data.draw(st.sampled_from(result.traces))
        if trace["shots"]:
            group = data.draw(st.sampled_from(["moments", "esps"]))
            column = trace[group][data.draw(st.sampled_from(sorted(trace[group])))]
            column[data.draw(st.integers(0, len(column) - 1))] = data.draw(cells)
        assert exported(result, tmp_path) == expected(result.to_json_dict())

    @pytest.mark.parametrize("change", ["equal int", "negative zero", "new list", "append"])
    def test_run_result_changed_after_export(self, tmp_path, change):
        config = ExperimentConfig(n_qubits=2, t=0.8, shots=40, runs=2, seed=5,
                                  strategies=("online-recon", "plugin"),
                                  stop_on_convergence=False)
        result = run_experiment(config)
        exported(result, tmp_path)
        trace = result.traces[1]
        if change == "equal int":  # 1 == 1.0, but JSON writes "1"
            trace["esps"]["1"][3] = 1
        elif change == "negative zero":  # -0.0 == 0.0, but prints differently
            trace["moments"]["2"][5] = 0.0
            exported(result, tmp_path)
            trace["moments"]["2"][5] = -0.0
        elif change == "new list":
            trace["moments"]["3"] = [None] * len(trace["shots"])
        else:
            trace["shots"].append(41)
            for group in ("moments", "esps"):
                for column in trace[group].values():
                    column.append(0.5)
        assert exported(result, tmp_path) == expected(result.to_json_dict())

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(stride_dense=3, stride_switch=20, stride_sparse=7, shots=90),
        dict(orders=(1, 2, 3, 4), strategies=("online-recon", "ustat", "batched"),
             n_batches=4, runs=3, shots=60),
        dict(stop_on_convergence=True, tolerance=0.05, window=3),
    ])
    def test_run_results(self, tmp_path, overrides):
        config = replace(ExperimentConfig(n_qubits=2, t=0.8, shots=120, runs=2, seed=9,
                                          stop_on_convergence=False), **overrides)
        result = run_experiment(config)
        assert exported(result, tmp_path) == expected(result.to_json_dict())

    def test_strings_equal_to_the_splice_marker(self, tmp_path):
        result = run_experiment(ExperimentConfig(shots=12, runs=1, seed=2))
        result.summary.update({"\0": "\0", "also": "\0\0", "list": ["\0", "\0\0\0"]})
        assert exported(result, tmp_path) == expected(result.to_json_dict())


def write_document(tmp_path, edit):
    result = run_experiment(ExperimentConfig(shots=20, runs=2, seed=3,
                                             strategies=("online-recon", "plugin"),
                                             stop_on_convergence=False))
    payload = result.to_json_dict()
    edit(payload)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    return path


def set_key(path, value):
    def edit(payload):
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        if value is KeyError:
            del node[last]
        else:
            node[last] = value
    return edit


class TestLoadResult:
    def test_well_formed_document_loads(self, tmp_path):
        payload = load_result(write_document(tmp_path, lambda payload: None))
        assert len(payload["traces"]) == 4

    @pytest.mark.parametrize("edit, message", [
        (set_key(["format_version"], 99), "format_version 99"),
        (set_key(["format_version"], True), "format_version True"),
        (set_key(["format_version"], KeyError), "format_version None"),
        (set_key(["config"], KeyError), "config must be a JSON object"),
        (set_key(["config", "bogus"], 1), "unknown config keys"),
        (set_key(["config", "strategies"], 5), "strategies must be a list of names"),
        (set_key(["config", "shots"], "20"), "shots must be a number"),
        (set_key(["traces"], {}), "traces must be a list"),
        (set_key(["traces", 1], [1, 2]), "trace 1 must be an object"),
        (set_key(["traces", 0, "esps"], KeyError), "trace 0 must be an object with keys"),
        (set_key(["traces", 2, "stopped_at"], None), "trace 2 stopped_at"),
        (set_key(["traces", 1, "shots"], [1, 2.5]), "trace 1 shots"),
        (set_key(["traces", 0, "moments", "4"], []), "moments must have the keys"),
        (set_key(["traces", 0, "esps", "3"], KeyError), "esps must have the keys"),
        (set_key(["traces", 3, "moments", "2"], "1,2"), r"moments\[2\] must list numbers"),
        (set_key(["traces", 3, "esps", "1"], ["1.0"] * 20), r"esps\[1\] must list numbers"),
        (set_key(["traces", 3, "esps", "2"], [True] * 20), r"esps\[2\] must list numbers"),
        (set_key(["traces", 1, "moments", "3"], [0.5] * 19), r"moments\[3\] has 19 values"),
        (set_key(["traces", 1, "esps", "2"], [0.5] * 21), r"esps\[2\] has 21 values"),
        (set_key(["traces", 0, "run"], "x"), "trace 0 run must be an integer"),
        (set_key(["traces", 0, "run"], True), "trace 0 run must be an integer"),
        (set_key(["traces", 1, "run_seed"], [1]), "trace 1 run_seed must be an integer"),
        (set_key(["traces", 2, "stop_shot"], "x"), "trace 2 stop_shot must be an integer or null"),
        (set_key(["traces", 2, "stop_shot"], 2.0), "trace 2 stop_shot must be an integer or null"),
        (set_key(["traces", 3, "strategy"], "nope"), "trace 3 strategy must be one of"),
        (set_key(["traces", 3, "strategy"], ["plugin"]), "trace 3 strategy must be one of"),
        (set_key(["traces", 0, "orders"], [7]), r"trace 0 orders must be \[2, 3\]"),
        (set_key(["traces", 0, "orders"], [3, 2]), r"trace 0 orders must be \[2, 3\]"),
        (set_key(["traces", 1, "stopped_at", "2"], "x"), "trace 1 stopped_at must map"),
        (set_key(["traces", 1, "stopped_at", "2"], 1.5), "trace 1 stopped_at must map"),
        (set_key(["traces", 1, "stopped_at", "7"], None), "trace 1 stopped_at must map"),
        (set_key(["traces", 1, "stopped_at", "3"], KeyError), "trace 1 stopped_at must map"),
    ])
    def test_malformed_documents_raise_value_error(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=message):
            load_result(write_document(tmp_path, edit))

    @pytest.mark.parametrize("edit", [
        set_key(["traces", 0, "moments", "2"], [0.25] * 3),
        set_key(["traces", 0, "esps"], KeyError),
        set_key(["format_version"], 99),
    ])
    def test_cli_export_rejects_malformed_documents(self, tmp_path, edit):
        path = write_document(tmp_path, edit)
        with pytest.raises(ValueError):
            main(["export", "--input", str(path), "--csv", str(tmp_path / "again.csv")])
        assert not (tmp_path / "again.csv").exists()
