import json
import math
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


def test_calibrate_drops_the_terminal_channel(tmp_path, capsys):
    """The calibration circuit measures no terminal qubit: a terminal channel
    is ignored, and q_hat is the one without it."""
    noise = {"kind": "uniform", "m": 1, "rate": 0.05}
    q_hats = []
    for spec in (noise, dict(noise, terminal={"kind": "uniform", "m": 4, "rate": 0.08})):
        cfg = write(tmp_path, "cfg.json", {"experiment": "ghz", "parameters": {"b": 2, "p": 1},
                                           "noise": spec, "shots": 3000, "seed": 4})
        assert cli.main(["calibrate", "--config", cfg]) == 0
        q_hats.append(json.loads(capsys.readouterr().out)["q_hat"])
    assert q_hats[0] == q_hats[1]


def test_calibrate_reports_the_tvd_of_asymmetric_bfa_noise(tmp_path, capsys):
    """Under bit-flip averaging each reported outcome is an iid draw of the
    symmetrized channel, so q_hat's TVD to it stays under the
    Bretagnolle-Huber-Carol bound, at failure probability 1e-9."""
    matrix = [[0.9506, 0.0392, 0.0485, 0.002], [0.0294, 0.9408, 0.0015, 0.048],
              [0.0194, 0.0008, 0.9215, 0.038], [0.0006, 0.0192, 0.0285, 0.912]]
    shots = 20000
    cfg = write(tmp_path, "cfg.json", {
        "experiment": "calibration", "parameters": {"m": 2}, "shots": shots, "seed": 4,
        "noise": {"kind": "asymmetric", "bfa": True, "matrices": [matrix]}})
    assert cli.main(["calibrate", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q_true"] == ConfusionMatrix(matrix).symmetrize().tolist()
    bound = math.sqrt(2 * (4 * math.log(2) + math.log(1e9)) / shots) / 2
    assert 0 < payload["tvd"] < bound


@pytest.mark.parametrize("noise, message", [
    ({"kind": "general", "q": [1.2, -0.2]}, "q has negative entries"),
    ({"kind": "asymmetric", "matrices": [[[0.9, 0.1], [0.1, 0.8]]]},
     "confusion matrix column must sum to 1 (got 0.9)"),
    ({"kind": "uniform", "m": 1, "rate": 0.1, "terminal": {"kind": "general", "q": [1.0, 1.0]}},
     "q must sum to 1 (got 2.0)"),
], ids=["general-negative", "asymmetric-column", "terminal-sum"])
def test_bad_distributions_end_in_one_plain_error_line(tmp_path, capsys, noise, message):
    """A noise table that is not a distribution is refused by the library's one
    check, and its total prints as a plain number, not a numpy repr."""
    cfg = write(tmp_path, "cfg.json", {"experiment": "reset", "noise": noise})
    assert cli.main(["run", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: bad noise spec: {message}\n"


@pytest.mark.parametrize("command, cfg, where", [
    ("run", {"experiment": "reset", "shots": 1, "seed": 2,
             "noise": {"kind": "uniform", "m": 1, "rate": 0.5},
             "mitigation": {"mode": "rep", "repeat": 2, "consensus": "unanimous"}},
     "trial 0, setting 'projectors'"),
    ("bench", {"experiment": "ghz", "parameters": {"b": 2, "p": 1}, "shots": 1, "seed": 2,
               "noise": {"kind": "uniform", "m": 1, "rate": 0.05}},
     "mode 'rep-unanimous-2': trial 0, setting '-YXYX'")],
    ids=["run", "bench"])
def test_setting_with_no_accepted_shots_exits_1(tmp_path, capsys, command, cfg, where):
    """Unanimous consensus can discard every shot of a setting: nothing is
    left to estimate, and the error names the trial and the setting, and in
    ``bench`` the mode."""
    assert cli.main([command, "--config", write(tmp_path, "cfg.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: no accepted shots")
    assert "Traceback" not in err


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
    # a run holds one job and one count table of the terminal outcomes per
    # (trial, setting): reset n=1 has one setting of 3 terminal bits, so 8
    # trials hold 2**6 entries and 9 trials hold more
    monkeypatch.setenv("PROMKIT_SIZE_CAP", "6")
    cfg = reset_config(tmp_path, shots=10, trials=9)
    assert cli.main(["run", "--config", cfg]) == 3
    assert "trials x settings x terminal outcomes needs 2**7" in capsys.readouterr().err
    cfg = reset_config(tmp_path, shots=10, trials=8)
    assert cli.main(["run", "--config", cfg]) == 0


@pytest.mark.parametrize("cap, code, message", [
    (8, 3, "stabilizer settings x gates needs 2**9"),
    (11, 3, "trials x settings x terminal outcomes needs 2**12"),
    (12, 0, ""),
])
def test_size_cap_ghz_settings_exit_3(tmp_path, capsys, monkeypatch, cap, code, message):
    # GHZ(6) has 33 stabilizer settings of up to 12 basis gates each, and
    # each setting's count table holds 2**6 terminal outcomes
    monkeypatch.setenv("PROMKIT_SIZE_CAP", str(cap))
    cfg = write(tmp_path, "cfg.json", {"experiment": "ghz", "parameters": {"b": 2, "p": 2},
                                       "shots": 10})
    assert cli.main(["run", "--config", cfg]) == code
    assert message in capsys.readouterr().err


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
    ("ghz", {"b": 2, "p": 2}, "stabilizer settings x gates needs 2**9"),
])
def test_size_cap_tables_exit_3(tmp_path, capsys, monkeypatch, experiment, parameters,
                                message):
    monkeypatch.setenv("PROMKIT_SIZE_CAP", "3")
    cfg = write(tmp_path, "cfg.json", {"experiment": experiment, "parameters": parameters,
                                       "shots": 10})
    assert cli.main(["run", "--config", cfg]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("experiment, parameters", [
    ("reset", {"n": 2 ** 63}),
    ("reset", {"n": 10 ** 8}),
    ("reset", {"n": 20}),  # a table within the cap, a statevector above it
    ("ghz", {"b": 2, "p": 2 ** 70}),
    ("ghz-unitary", {"n": 2 ** 63}),
    ("teleport", {"k": 2 ** 63}),
    ("transport", {"k": 2 ** 63}),
    ("ghz", {"b": 2, "p": 9}),  # a GHZ(20): 2**19 settings
])
def test_size_cap_huge_parameters_exit_3(tmp_path, capsys, experiment, parameters):
    """A builder checks its sizes before it loops over its parameter: these
    used to overflow, run for seconds to minutes, or grow a gate list until
    killed."""
    cfg = write(tmp_path, "cfg.json", {"experiment": experiment, "parameters": parameters,
                                       "shots": 10})
    tracemalloc.start()
    try:
        code = cli.main(["run", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err.startswith("error: size cap:")
    assert peak < 4 << 20


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
    # a Pauli label that is not a string used to end in an AttributeError
    *({"settings": [{"name": "t", "measured": [0],
                     "observables": [{"name": "z", "pauli": label}]}]}
      for label in (0.5, ["Z"], None)),
])
def test_non_numbers_rejected_at_the_boundary(tmp_path, capsys, case):
    """Circuit-file integers, angles, Pauli labels, noise rates, noise tables
    and the bfa switch of the wrong type, with a fractional part, or not
    finite end in an error line, not a coerced run or a traceback.  So do noise specs that are
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


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("observable", [{"name": "p", "zeros": [0]},
                                        {"name": "zz", "pauli": "ZZ", "qubits": [1, 0]}])
def test_observable_off_the_measured_qubits_rejected(tmp_path, capsys, command, observable):
    """An observable on a qubit that its setting does not measure is refused
    when the setting is built, not in a traceback from its first read."""
    circuit = {"n": 2, "prep": [["h", 0]],
               "settings": [{"name": "t", "measured": [1], "observables": [observable]}]}
    path = write(tmp_path, "cfg.json", custom_config(tmp_path, circuit))
    assert cli.main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not measure" in err


ONE_LAYER = {"n": 1, "layers": [{"measured": [0], "table": [[], [["x", 0]]]}],
             "settings": [{"name": "t", "measured": [0],
                           "observables": [{"name": "z", "pauli": "Z"}]}]}


@pytest.mark.parametrize("command", ["run", "oracle", "bench", "calibrate"])
@pytest.mark.parametrize("n", [2 ** 70, 1e308], ids=["2**70", "1e308"])
def test_size_cap_circuit_file_qubits_exit_3(tmp_path, capsys, command, n):
    """A circuit file's qubit count meets the statevector cap before anything
    loops over its qubits: run and bench used to spend seconds in a loop over
    n and end in a MemoryError, and calibrate ran."""
    cfg = dict(custom_config(tmp_path, {**ONE_LAYER, "n": n}),
               noise={"kind": "uniform", "m": 1, "rate": 0.1})
    path = write(tmp_path, "cfg.json", cfg)
    tracemalloc.start()
    try:
        code = cli.main([command, "--config", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: size cap: statevector needs 2**") and err.count("\n") == 1
    assert peak < 4 << 20
    assert len(err) < 200


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

    def spy(circuit, _real=oracle.exact_trajectory_tensor):
        tensor = _real(circuit)
        calls.append(len(tensor.tensor))
        return tensor
    monkeypatch.setattr(oracle, "exact_trajectory_tensor", spy)
    path = write(tmp_path, "cfg.json", {"experiment": "ghz", "parameters": {"b": 2, "p": 1},
                                        "noise": {"kind": "uniform", "m": 1, "rate": 0.05}})
    assert cli.main(["oracle", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["settings"]) > 1
    assert calls == [sum(len(s["observables"]) for s in payload["settings"])]
