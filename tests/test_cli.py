import json
import tracemalloc

import numpy as np
import pytest

from promkit import cli, config, oracle, simulator
from promkit.mitigation import GeneralWeights
from promkit.readout import ConfusionMatrix


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def reset_config(tmp_path, **over):
    cfg = {"experiment": "reset", "parameters": {"n": 1},
           "noise": {"kind": "uniform", "m": 1, "rate": 0.1},
           "mitigation": "prom-tensored", "shots": 2000, "seed": 1}
    cfg.update(over)
    return write(tmp_path, "cfg.json", cfg)


def test_run_writes_json_and_csv(tmp_path, capsys):
    cfg = reset_config(tmp_path)
    out = str(tmp_path / "result.json")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    record = json.loads((tmp_path / "result.json").read_text())["record"]
    assert record["xi"] == pytest.approx(1.25)
    csv_text = (tmp_path / "result.csv").read_text()
    assert csv_text.startswith("trial,observable,estimate,stderr,xi,"
                               "shots_accepted,shots_discarded")


def test_run_prints_to_stdout_without_out(tmp_path, capsys):
    cfg = reset_config(tmp_path, shots=200)
    assert cli.main(["run", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "record" in payload


def test_flag_overrides(tmp_path, capsys):
    cfg = reset_config(tmp_path)
    assert cli.main(["run", "--config", cfg, "--shots", "100",
                     "--trials", "2", "--seed", "9"]) == 0
    record = json.loads(capsys.readouterr().out)["record"]
    assert record["config"]["shots"] == 100
    assert record["config"]["trials"] == 2
    assert record["config"]["seed"] == 9
    assert len(record["trials"]) == 2


def test_flags_checked_with_the_file(tmp_path, capsys):
    """Flags replace file values before the one check of the config, so a
    bad file value that a valid flag replaces is never read."""
    cfg = reset_config(tmp_path, shots=0)
    assert cli.main(["run", "--config", cfg]) == 1
    assert cli.main(["run", "--config", cfg, "--shots", "0"]) == 1
    capsys.readouterr()
    assert cli.main(["run", "--config", cfg, "--shots", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["record"]["config"]["shots"] == 100


@pytest.mark.parametrize("command, cfg", [
    ("run", {}),
    ("oracle", {}),
    ("bench", {}),
    ("calibrate", {"experiment": "calibration", "parameters": {"m": 1}}),
])
def test_each_command_builds_the_config_once(tmp_path, capsys, monkeypatch, command, cfg):
    calls = {"build_circuit": 0, "build_noise": 0}
    for name in calls:
        def spy(*args, _name=name, _real=getattr(config, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(config, name, spy)
    path = reset_config(tmp_path, shots=200, **cfg)
    assert cli.main([command, "--config", path]) == 0
    assert calls == {"build_circuit": 1, "build_noise": 1}


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli.main([]) == 1                       # no subcommand
    assert cli.main(["run"]) == 1                  # missing --config
    assert cli.main(["frobnicate"]) == 1           # unknown subcommand
    bad = write(tmp_path, "bad.json", {"experiment": "reset", "bogus": 1})
    assert cli.main(["run", "--config", bad]) == 1
    missing = str(tmp_path / "nope.json")
    assert cli.main(["run", "--config", missing]) == 1


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0


def test_singular_channel_exits_2(tmp_path, capsys):
    cfg = reset_config(tmp_path,
                       noise={"kind": "uniform", "m": 1, "rate": 0.5},
                       mitigation="prom-general")
    assert cli.main(["run", "--config", cfg]) == 2


def test_singular_terminal_channel_exits_2(tmp_path, capsys):
    """terminal_rem inverts the terminal channel; at rate 1/2 that channel
    has no inverse."""
    cfg = reset_config(tmp_path, shots=100, terminal_rem=True,
                       noise={"kind": "uniform", "m": 1, "rate": 0.1,
                              "terminal": {"kind": "uniform", "m": 3, "rate": 0.5}})
    assert cli.main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: singular channel:")


@pytest.mark.parametrize("command", ["run", "weights"])
def test_deeply_nested_config_exits_1(tmp_path, capsys, command):
    """JSON nested past the parser's recursion limit is an unreadable file."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read")


@pytest.mark.parametrize("m, code", [(63, 0), (64, 1)])
def test_mid_circuit_bits_bounded_by_int64(tmp_path, capsys, m, code):
    """Syndromes and masks pack all mid-circuit bits into one int64: 63
    one-bit reset layers run, a 64th is refused."""
    layer = {"measured": [0], "table": [[], [["x", 0]]]}
    cfg = dict(custom_config(tmp_path, {**ONE_LAYER, "layers": [layer] * m}),
               noise={"kind": "uniform", "m": m, "rate": 0.1}, mitigation="prom-tensored")
    assert cli.main(["run", "--config", write(tmp_path, "cfg.json", cfg)]) == code
    err = capsys.readouterr().err
    assert (err == "") if code == 0 else ("64 mid-circuit bits" in err)


def test_size_cap_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROMKIT_SIZE_CAP", "2")
    cfg = write(tmp_path, "cfg.json", {
        "experiment": "teleport", "parameters": {"k": 2},
        "noise": {"kind": "uniform", "m": 4, "rate": 0.05},
        "mitigation": "prom-general", "shots": 10})
    assert cli.main(["run", "--config", cfg]) == 3


def test_oracle_unbiasedness(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {
        "experiment": "teleport", "parameters": {"k": 1},
        "noise": {"kind": "uniform", "m": 2, "rate": 0.08}})
    assert cli.main(["oracle", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    for setting in payload["settings"]:
        for entry in setting["observables"]:
            assert entry["mitigated"] == pytest.approx(entry["ideal"], abs=1e-9)
            assert len(entry["per_mask"]) == 4
            # mask 0 under the true channel is the unmitigated value
            assert entry["per_mask"][0] != pytest.approx(entry["ideal"], abs=1e-4)


def test_oracle_noiseless_masks(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"experiment": "reset",
                                       "parameters": {"n": 1}})
    assert cli.main(["oracle", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    entry = payload["settings"][0]["observables"][0]
    assert entry["per_mask"][0] == pytest.approx(entry["ideal"], abs=1e-12)


def test_oracle_models_asymmetric_noise(tmp_path, capsys):
    """Under bit-flip averaging the oracle's channel is the symmetrized
    confusion matrix, the one that prom weights invert."""
    matrix = [[0.95, 0.02, 0.06, 0.001],
              [0.03, 0.93, 0.002, 0.05],
              [0.015, 0.001, 0.91, 0.04],
              [0.005, 0.049, 0.028, 0.909]]
    cfg = {"experiment": "reset", "parameters": {"n": 2},
           "noise": {"kind": "asymmetric", "matrices": [matrix], "bfa": True}}
    assert cli.main(["oracle", "--config", write(tmp_path, "cfg.json", cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    q = ConfusionMatrix(np.array(matrix)).symmetrize()
    assert np.allclose(payload["q"], q, rtol=0, atol=1e-12)
    entry = payload["settings"][0]["observables"][0]
    assert entry["mitigated"] == pytest.approx(entry["ideal"], abs=1e-9)
    assert entry["per_mask"][0] != pytest.approx(entry["ideal"], abs=1e-3)
    cfg["noise"]["bfa"] = False
    assert cli.main(["oracle", "--config", write(tmp_path, "cfg.json", cfg)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_weights_subcommand(tmp_path, capsys):
    spec = write(tmp_path, "noise.json", {"kind": "general", "q": [0.9, 0.1]})
    assert cli.main(["weights", "--config", spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["xi"] == pytest.approx(1.25)
    assert payload["overhead_bound"] == pytest.approx(1.25)
    assert payload["parts"][0]["alpha"] == pytest.approx([1.125, -0.125])


def test_weights_identity_channel(tmp_path, capsys):
    spec = write(tmp_path, "noise.json", {"kind": "general", "q": [1.0, 0.0]})
    assert cli.main(["weights", "--config", spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["xi"] == pytest.approx(1.0)


def test_weights_singular_exit(tmp_path, capsys):
    spec = write(tmp_path, "noise.json", {"kind": "general", "q": [0.5, 0.5]})
    assert cli.main(["weights", "--config", spec]) == 2


def test_calibrate_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {
        "experiment": "calibration", "parameters": {"m": 2},
        "noise": {"kind": "tensored", "rates": [0.1, 0.05]},
        "shots": 60000, "seed": 2})
    assert cli.main(["calibrate", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 2
    assert payload["tvd"] < 0.01
    assert payload["eta_hat"] == pytest.approx(1 - 0.9 * 0.95, abs=0.01)


def test_bench_subcommand(tmp_path, capsys):
    cfg = reset_config(tmp_path, shots=1500, mitigation="none")
    out = str(tmp_path / "bench.json")
    assert cli.main(["bench", "--config", cfg, "--out", out]) == 0
    payload = json.loads((tmp_path / "bench.json").read_text())
    labels = [m["mitigation"] for m in payload["modes"]]
    assert labels == ["none", "prom", "rep-majority-3", "rep-unanimous-2"]
    rows = (tmp_path / "bench.csv").read_text().splitlines()
    assert any("prom:" in row for row in rows)


def test_bench_needs_noise(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"experiment": "reset",
                                       "parameters": {"n": 1}})
    assert cli.main(["bench", "--config", cfg]) == 1


def test_noise_width_checked_before_running(tmp_path, capsys):
    cfg = reset_config(tmp_path, noise={"kind": "uniform", "m": 2, "rate": 0.1})
    assert cli.main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "covers 2 bits" in err
    # calibrate takes m from the noise spec, so it must fit the circuit too
    cal = write(tmp_path, "cal.json", {
        "experiment": "calibration", "parameters": {"m": 2},
        "noise": {"kind": "uniform", "m": 3, "rate": 0.1}, "shots": 100})
    assert cli.main(["calibrate", "--config", cal]) == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_rejected(tmp_path, capsys, workers):
    cfg = reset_config(tmp_path, shots=100)
    assert cli.main(["run", "--config", cfg, "--workers", workers]) == 1
    assert "--workers" in capsys.readouterr().err


def test_weights_takes_only_config_and_out(tmp_path, capsys):
    spec = write(tmp_path, "noise.json", {"kind": "general", "q": [0.9, 0.1]})
    for flag in ("--seed", "--shots", "--trials", "--workers"):
        assert cli.main(["weights", "--config", spec, flag, "2"]) == 1
    out = str(tmp_path / "w.json")
    assert cli.main(["weights", "--config", spec, "--out", out]) == 0
    assert json.loads((tmp_path / "w.json").read_text())["xi"] == pytest.approx(1.25)


@pytest.mark.parametrize("spec", [5, "uniform", [0.9, 0.1], {"noise": 5}])
def test_weights_spec_not_an_object_exits_1(tmp_path, capsys, spec):
    assert cli.main(["weights", "--config", write(tmp_path, "noise.json", spec)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_weights_layered_spec(tmp_path, capsys):
    spec = {"kind": "layered", "parts": [
        {"kind": "uniform", "m": 2, "rate": 0.05},
        {"kind": "tensored", "rates": [0.1, 0.3]},
        {"kind": "general", "q": [0.8, 0.1, 0.07, 0.03]}]}
    assert cli.main(["weights", "--config", write(tmp_path, "noise.json", spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    model = config.build_noise(spec).model
    assert payload["xi"] == pytest.approx(GeneralWeights(model.expand()).xi, abs=1e-12)
    assert payload["eta"] == pytest.approx(model.total_error(), abs=1e-15)
    kinds = [entry["kind"] for entry in payload["parts"]]
    assert kinds == ["tensored", "tensored", "general"]
    for entry, part in zip(payload["parts"], model.parts):
        expected = GeneralWeights(part.expand())
        if entry["kind"] == "tensored":
            assert entry["rates"] == part.rates.tolist()
            alpha = np.array([1.0])
            for bit in entry["alpha_bits"]:
                alpha = np.kron(alpha, bit)
        else:
            alpha = np.array(entry["alpha"])
        assert np.allclose(alpha, expected.alpha(), atol=1e-12)
        assert entry["xi"] == pytest.approx(expected.xi, abs=1e-12)


def test_measured_qubit_outside_circuit_exits_1(tmp_path, capsys):
    circuit = write(tmp_path, "circuit.json", {
        "n": 2, "prep": [["h", 0]],
        "settings": [{"name": "t", "measured": [0, 9],
                      "observables": [{"name": "zz", "pauli": "ZZ",
                                       "qubits": [0, 9]}]}]})
    cfg = write(tmp_path, "cfg.json", {"experiment": "custom",
                                       "parameters": {"path": circuit}, "shots": 10})
    assert cli.main(["run", "--config", cfg]) == 1
    assert "measures qubit 9 outside 0..1" in capsys.readouterr().err


def test_size_cap_statevector_exits_3(tmp_path, capsys, monkeypatch):
    # reset n=1 has a 2-entry table but a 3-qubit statevector
    monkeypatch.setenv("PROMKIT_SIZE_CAP", "2")
    cfg = reset_config(tmp_path, shots=10)
    assert cli.main(["run", "--config", cfg]) == 3
    assert "statevector needs 2**3" in capsys.readouterr().err


def test_size_cap_trials_times_settings_exits_3(tmp_path, capsys, monkeypatch):
    # a run holds one job and one result per (trial, setting): reset has one
    monkeypatch.setenv("PROMKIT_SIZE_CAP", "3")
    cfg = reset_config(tmp_path, shots=10, trials=9)
    assert cli.main(["run", "--config", cfg]) == 3
    assert "trials x settings needs 2**4" in capsys.readouterr().err
    cfg = reset_config(tmp_path, shots=10, trials=8)
    assert cli.main(["run", "--config", cfg]) == 0


def rep_layer_circuit(tmp_path, repeat):
    """The reset circuit from a file, its layer read out ``repeat`` times."""
    return write(tmp_path, "rep.json", {
        "n": 1, "prep": [["h", 0]],
        "layers": [{"measured": [0], "table": [[], [["x", 0]]], "repeat": repeat,
                    "consensus": "majority"}],
        "settings": [{"name": "z", "measured": [0],
                      "observables": [{"name": "z", "pauli": "Z"}]}]})


@pytest.mark.parametrize("source", ["rep mitigation", "circuit file"])
def test_size_cap_qnd_repetitions_exit_3(tmp_path, capsys, monkeypatch, source):
    # each repetition holds a 16384-shot batch of reports: 201 of them need
    # 2**22 entries, past the default cap of 2**20, whatever the shot count
    calls = []
    monkeypatch.setattr(simulator, "_run_batch", lambda *args, **kw: calls.append(args))
    if source == "rep mitigation":
        rep = {"mode": "rep", "repeat": 201, "consensus": "majority"}
        cfg = reset_config(tmp_path, shots=10, mitigation=rep)
    else:
        cfg = write(tmp_path, "cfg.json", {
            "experiment": "custom", "parameters": {"path": rep_layer_circuit(tmp_path, 201)},
            "shots": 10})
    assert cli.main(["run", "--config", cfg]) == 3
    assert "error: size cap: QND repetitions x batch needs 2**22" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("repeat, code", [(3, 0), (5, 3)])
def test_size_cap_qnd_repetitions_boundary(tmp_path, capsys, monkeypatch, repeat, code):
    # 2**16 entries hold 3 repetitions of a 16384-shot batch, not 5
    monkeypatch.setenv("PROMKIT_SIZE_CAP", "16")
    rep = {"mode": "rep", "repeat": repeat, "consensus": "majority"}
    assert cli.main(["run", "--config", reset_config(tmp_path, shots=10, mitigation=rep)]) == code


@pytest.mark.parametrize("command", ["run", "oracle", "calibrate", "bench", "weights"])
def test_size_cap_uniform_noise_width_exits_3(tmp_path, capsys, command):
    # 10**7 rates would take hundreds of MB to build; the cap refuses them first
    noise = {"kind": "uniform", "m": 10 ** 7, "rate": 0.01}
    cfg = (write(tmp_path, "noise.json", noise) if command == "weights" else
           reset_config(tmp_path, shots=10, noise=noise, mitigation="none"))
    tracemalloc.start()
    try:
        code = cli.main([command, "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "uniform noise rates needs 2**24" in capsys.readouterr().err
    assert peak < 4 << 20


@pytest.mark.parametrize("experiment, parameters, message", [
    ("reset", {"n": 5}, "feedforward table needs 2**5"),
    ("ghz", {"b": 5, "p": 1}, "feedforward table needs 2**4"),
    ("calibration", {"m": 4}, "feedforward table needs 2**4"),
    ("ghz", {"b": 2, "p": 2}, "stabilizer settings needs 2**5"),
])
def test_size_cap_tables_exit_3(tmp_path, capsys, monkeypatch, experiment, parameters,
                                message):
    monkeypatch.setenv("PROMKIT_SIZE_CAP", "3")
    cfg = write(tmp_path, "cfg.json", {"experiment": experiment, "parameters": parameters,
                                       "shots": 10})
    assert cli.main(["run", "--config", cfg]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", [1.7, "2", True, None, [2]])
@pytest.mark.parametrize("experiment, parameters, key, noise", [
    ("reset", {"n": 1}, "n", None),
    ("ghz-unitary", {"n": 3}, "n", None),
    ("ghz", {"b": 2, "p": 2}, "b", None),
    ("ghz", {"b": 2, "p": 2}, "p", None),
    ("teleport", {"k": 1}, "k", None),
    ("calibration", {"m": 2}, "m", None),
    ("reset", {"n": 2}, "m", {"kind": "uniform", "m": 2, "rate": 0.1}),
])
def test_non_integer_parameters_rejected(tmp_path, capsys, experiment, parameters, key,
                                         noise, value):
    cfg = {"experiment": experiment, "parameters": dict(parameters), "shots": 100}
    if noise is None:
        cfg["parameters"][key] = value
    else:
        cfg["noise"] = {**noise, key: value}
    path = write(tmp_path, "cfg.json", cfg)
    assert cli.main(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be an integer" in err


@pytest.mark.parametrize("terminal", [{"kind": "uniform", "m": 1}, {"kind": "uniform", "m": 0.5,
                                                                    "rate": 0.1}])
def test_bad_terminal_noise_spec_exits_1(tmp_path, capsys, terminal):
    cfg = reset_config(tmp_path, noise={"kind": "uniform", "m": 1, "rate": 0.1,
                                        "terminal": terminal})
    assert cli.main(["run", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_integral_float_parameters_accepted(tmp_path, capsys):
    path = write(tmp_path, "cfg.json", {"experiment": "reset", "parameters": {"n": 2.0},
                                        "noise": {"kind": "uniform", "m": 2.0, "rate": 0.1},
                                        "shots": 100})
    assert cli.main(["run", "--config", path]) == 0


def custom_config(tmp_path, circuit):
    path = write(tmp_path, "circuit.json", circuit)
    return {"experiment": "custom", "parameters": {"path": path}, "shots": 10}


ONE_QUBIT = {"n": 1, "prep": [["h", 0]],
             "settings": [{"name": "t", "measured": [0],
                           "observables": [{"name": "z", "pauli": "Z"}]}]}


@pytest.mark.parametrize("case", [
    {"n": 1.9},
    {"layers": [{"measured": [0.0], "table": [[], []], "repeat": 1.5}]},
    {"layers": [{"measured": [0.5], "table": [[], []]}]},
    {"prep": [["h", 0.5]]},
    {"n": 2, "prep": [["cx", 0, True]]},
    {"prep": [["rx", float("nan"), 0]]},
    {"prep": [["ry", "0.3", 0]]},
    {"settings": [{"name": "t", "measured": [0.5]}]},
    {"settings": [{"name": "t", "measured": [0],
                   "observables": [{"name": "z", "pauli": "Z", "sign": 1.5}]}]},
    {"settings": [{"name": "t", "measured": [0],
                   "observables": [{"name": "z", "pauli": "Z", "qubits": [0.5]}]}]},
    {"phi_x": float("nan")},
    {"phi_x": True},
    {"phi_z": float("inf")},
    {"phi_z": "0.3"},
    {"phi_x": 10 ** 400},
    {"rate": True},
    {"bfa": "false"},
    # every entry of a general q and of a confusion matrix: numeric strings,
    # bools and NaN used to be coerced and run
    {"noise": {"kind": "general", "q": ["0.9", "0.1"]}},
    {"noise": {"kind": "general", "q": [True, False]}},
    {"noise": {"kind": "general", "q": [0.0, True]}},
    {"noise": {"kind": "general", "q": [0.9, float("nan")]}},
    {"noise": {"kind": "general", "q": [0.9, None]}},
    {"noise": {"kind": "general", "q": "0.9"}},
    {"noise": {"kind": "layered", "parts": [{"kind": "general", "q": ["0.9", "0.1"]}]}},
    {"noise": {"kind": "asymmetric", "matrices": [[["0.95", "0.1"], ["0.05", "0.9"]]]}},
    {"noise": {"kind": "asymmetric", "matrices": [[[True, False], [False, True]]]}},
    {"noise": {"kind": "asymmetric", "matrices": [[[0.95, False], [0.05, True]]]}},
    {"noise": {"kind": "asymmetric", "matrices": [[[0.95, 0.1], [0.05]]]}},
    {"noise": {"kind": "asymmetric", "matrices": [[[0.95, 10 ** 400], [0.05, 0.9]]]}},
    {"noise": {"kind": "asymmetric", "matrices": [[[0.95, float("inf")], [0.05, 0.9]]]}},
    {"noise": {"kind": "asymmetric", "matrices": [["0.95", "0.05"]]}},
    # specs that are not objects, and paths that are not strings (open()
    # reads an int or a bool as a file descriptor)
    {"noise": {"kind": "layered", "parts": [5]}},
    {"noise": {"kind": "uniform", "m": 1, "rate": 0.1, "terminal": "x"}},
    {"path": True},
    {"path": 0},
    # calibration needs mid-circuit bits to calibrate
    {"command": "calibrate", "experiment": "transport", "parameters": {"k": 1},
     "noise": {"kind": "asymmetric", "matrices": []}},
])
def test_non_numbers_rejected_at_the_boundary(tmp_path, capsys, case):
    """Circuit-file integers, angles, noise rates, noise tables and the bfa
    switch of the wrong type, with a fractional part, or not finite end in an
    error line, not a coerced run or a traceback.  So do noise specs that are
    not objects, circuit paths that are not strings, and calibrate on a
    circuit with no mid-circuit bits."""
    case = dict(case)
    command = case.pop("command", "run")
    if "phi_x" in case or "phi_z" in case:
        cfg = {"experiment": "teleport", "parameters": {"k": 1, **case}, "shots": 10}
    elif "rate" in case:
        cfg = {"experiment": "reset", "parameters": {"n": 1}, "shots": 10,
               "noise": {"kind": "uniform", "m": 1, **case}}
    elif "path" in case:
        cfg = {"experiment": "custom", "parameters": case, "shots": 10}
    elif "noise" in case:
        cfg = {"experiment": "reset", "parameters": {"n": 1}, "shots": 10, **case}
    elif "bfa" in case:
        # a string is not a switch: "false" used to turn bit-flip averaging on
        cfg = {"experiment": "reset", "parameters": {"n": 1}, "shots": 10,
               "noise": {"kind": "asymmetric", "matrices": [[[0.9, 0.3], [0.1, 0.7]]], **case}}
    else:
        cfg = custom_config(tmp_path, {**ONE_QUBIT, **case})
    path = write(tmp_path, "cfg.json", cfg)
    assert cli.main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if "path" in case:  # refused before open(), not failed in it
        assert "path must be a string" in err


ONE_LAYER = {"n": 1, "layers": [{"measured": [0], "table": [[], [["x", 0]]]}],
             "settings": [{"name": "t", "measured": [0],
                           "observables": [{"name": "z", "pauli": "Z"}]}]}


@pytest.mark.parametrize("cfg, circuit", [
    # a misspelt key used to be ignored: n=1, the default phi_x, no terminal
    # channel, no post gates
    ({"experiment": "reset", "parameters": {"nn": 6}}, None),
    ({"experiment": "teleport", "parameters": {"k": 1, "phix": 0.3}}, None),
    ({"experiment": "reset", "noise": {"kind": "uniform", "m": 1, "rate": 0.1,
                                       "terminl": {"kind": "uniform", "m": 1, "rate": 0.1}}},
     None),
    (None, {**ONE_LAYER, "layers": [{**ONE_LAYER["layers"][0], "psot": [["h", 0]]}]}),
    ({"experiment": "reset", "noise": {"kind": "uniform", "m": 1, "rate": 0.1,
                                       "terminal": {"kind": "uniform", "m": 1, "rate": 0.1,
                                                    "bfa": True}}}, None),
    ({"experiment": "reset", "noise": {"kind": "layered", "parts": [
        {"kind": "tensored", "rates": [0.1], "m": 1}]}}, None),
    ({"experiment": "reset", "noise": {"kind": "asymmetric", "bfa": True, "rate": 0.1,
                                       "matrices": [[[0.9, 0.2], [0.1, 0.8]]]}}, None),
    ({"experiment": "reset", "noise": {"kind": "uniform", "m": 1, "rate": 0.1},
      "mitigation": {"mode": "prom-general", "repeat": 3}}, None),
    ({"experiment": "reset", "mitigation": {"mode": "rep", "repeat": 3,
                                            "consensus": "majority", "bfa": True}}, None),
    (None, {**ONE_LAYER, "prepp": [["h", 0]]}),
    (None, {**ONE_LAYER, "settings": [{**ONE_LAYER["settings"][0], "bases": [["h", 0]]}]}),
    (None, {**ONE_LAYER, "settings": [{"name": "t", "measured": [0], "observables": [
        {"name": "z", "pauli": "Z", "zeros": [0]}]}]}),
    (None, {**ONE_LAYER, "settings": [{"name": "t", "measured": [0], "observables": [
        {"name": "p", "zeros": [0], "sign": -1}]}]}),
])
def test_unknown_keys_rejected(tmp_path, capsys, cfg, circuit):
    """Every config object refuses a key it does not read."""
    if circuit is not None:  # the circuit without the bad key runs
        path = write(tmp_path, "ok.json", custom_config(tmp_path, ONE_LAYER))
        assert cli.main(["run", "--config", path]) == 0
        capsys.readouterr()
        cfg = custom_config(tmp_path, circuit)
    path = write(tmp_path, "cfg.json", dict(cfg, shots=10))
    assert cli.main(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown" in err


def test_calibrate_takes_one_confusion_matrix(tmp_path, capsys):
    """Calibration reads all mid-circuit bits as one layer, so a confusion
    matrix per layer is an error line, not a traceback."""
    bell = [[0.9, 0.05, 0.05, 0.0], [0.04, 0.9, 0.0, 0.05],
            [0.05, 0.0, 0.9, 0.05], [0.01, 0.05, 0.05, 0.9]]
    noise = {"kind": "asymmetric", "matrices": [bell, bell], "bfa": True}
    path = write(tmp_path, "cfg.json", {"experiment": "teleport", "parameters": {"k": 2},
                                        "noise": noise, "shots": 100})
    assert cli.main(["calibrate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "single confusion matrix" in err


def test_oracle_walks_the_circuit_once(tmp_path, capsys, monkeypatch):
    """The observables of every setting go into one trajectory walk."""
    calls = []

    def spy(circuit, observables, _real=oracle.exact_trajectory_tensor):
        calls.append(len(observables))
        return _real(circuit, observables)
    monkeypatch.setattr(oracle, "exact_trajectory_tensor", spy)
    path = write(tmp_path, "cfg.json", {"experiment": "ghz", "parameters": {"b": 2, "p": 1},
                                        "noise": {"kind": "uniform", "m": 1, "rate": 0.05}})
    assert cli.main(["oracle", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["settings"]) > 1
    assert calls == [sum(len(s["observables"]) for s in payload["settings"])]
