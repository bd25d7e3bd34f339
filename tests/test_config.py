import dataclasses
import json

import numpy as np
import pytest

from promkit import config
from promkit.mitigation import GeneralWeights, LayeredWeights, TensoredWeights
from promkit.readout import (ConfusionMatrix, GeneralModel, LayeredModel, TensoredModel,
                             UniformModel, symmetrize)
from promkit.simulator import NoiseInjector


def minimal(**over):
    cfg = {"experiment": "reset", "parameters": {"n": 1}}
    cfg.update(over)
    return cfg


class TestSchema:
    def test_defaults_filled(self):
        cfg = config.validate_config(minimal())
        assert cfg["shots"] == 10000
        assert cfg["trials"] == 1
        assert cfg["seed"] == 0
        assert cfg["mitigation"] == "none"
        assert cfg["terminal_rem"] is False

    def test_unknown_keys_rejected(self):
        with pytest.raises(config.ConfigError, match="unknown config keys"):
            config.validate_config(minimal(extra=1))

    def test_missing_experiment(self):
        with pytest.raises(config.ConfigError):
            config.validate_config({"shots": 10})

    @pytest.mark.parametrize("bad", [
        minimal(shots=0), minimal(shots=-5), minimal(shots="many"),
        minimal(trials=0), minimal(seed=-1), minimal(terminal_rem="yes"),
        minimal(parameters=[1]), minimal(out=7),
    ])
    def test_bad_values(self, bad):
        with pytest.raises(config.ConfigError):
            config.validate_config(bad)

    def test_unknown_experiment(self):
        with pytest.raises(config.ConfigError, match="unknown experiment"):
            config.validate_config(minimal(experiment="qft"))

    def test_noise_must_fit_circuit(self):
        with pytest.raises(config.ConfigError, match="covers 2 bits"):
            config.validate_config(minimal(noise={"kind": "uniform", "m": 2, "rate": 0.1}))
        with pytest.raises(config.ConfigError, match="terminal"):
            config.validate_config(minimal(noise={
                "kind": "uniform", "m": 1, "rate": 0.1,
                "terminal": {"kind": "uniform", "m": 1, "rate": 0.1}}))
        with pytest.raises(config.ConfigError, match="per layer"):
            config.validate_config(minimal(noise={
                "kind": "asymmetric", "matrices": [[[0.9, 0.1], [0.1, 0.9]]] * 2}))

    def test_missing_required_parameter(self):
        with pytest.raises(config.ConfigError, match="required"):
            config.build_circuit("ghz", {"b": 2})


class TestNoiseSpecs:
    def test_uniform(self):
        inj = config.build_noise({"kind": "uniform", "m": 2, "rate": 0.1})
        assert isinstance(inj.model, UniformModel)
        assert inj.model.m == 2

    def test_tensored(self):
        inj = config.build_noise({"kind": "tensored", "rates": [0.1, 0.2]})
        assert isinstance(inj.model, TensoredModel)

    def test_layered_with_terminal(self):
        inj = config.build_noise({
            "kind": "layered",
            "parts": [{"kind": "uniform", "m": 1, "rate": 0.1},
                      {"kind": "general", "q": [0.8, 0.2]}],
            "terminal": {"kind": "uniform", "m": 1, "rate": 0.05}})
        assert isinstance(inj.model, LayeredModel)
        assert inj.terminal is not None
        assert inj.terminal.m == 1

    def test_asymmetric(self):
        inj = config.build_noise({"kind": "asymmetric",
                                  "matrices": [[[0.95, 0.15], [0.05, 0.85]]]})
        assert inj.matrices is not None
        assert inj.bfa is True

    def test_tables_take_integers_and_floats(self):
        # 0 and 1 entries are checked for bools one by one; ints are numbers
        inj = config.build_noise({"kind": "asymmetric",
                                  "matrices": [[[1, 0.25, 0, 0], [0, 0.75, 0, 0],
                                                [0, 0, 0.5, 1], [0, 0, 0.5, 0.0]]]})
        want = np.array([[1, 0.25, 0, 0], [0, 0.75, 0, 0], [0, 0, 0.5, 1], [0, 0, 0.5, 0]])
        assert inj.matrices[0].matrix.dtype == np.float64
        assert inj.matrices[0].matrix.tobytes() == want.tobytes()
        q = config.build_noise({"kind": "general", "q": [1, 0]}).model.q
        assert q.dtype == np.float64 and q.tolist() == [1.0, 0.0]

    def test_none_passthrough(self):
        assert config.build_noise(None) is None

    def test_bad_kind(self):
        with pytest.raises(config.ConfigError):
            config.build_noise({"kind": "thermal"})


class TestMitigationModes:
    def setup_method(self):
        self.circuit = config.build_circuit("reset", {"n": 1})

    def test_none(self):
        c, w = config.build_mitigation("none", self.circuit, None)
        assert w is None and c is self.circuit

    def test_prom_tensored(self):
        noise = config.build_noise({"kind": "uniform", "m": 1, "rate": 0.1})
        _, w = config.build_mitigation("prom-tensored", self.circuit, noise)
        assert isinstance(w, TensoredWeights)
        assert w.xi == pytest.approx(1.25)

    def test_prom_general_expands(self):
        noise = config.build_noise({"kind": "tensored", "rates": [0.1]})
        _, w = config.build_mitigation("prom-general", self.circuit, noise)
        assert isinstance(w, GeneralWeights)
        assert w.xi == pytest.approx(1.25)

    def test_prom_layered(self):
        noise = config.build_noise({
            "kind": "layered", "parts": [{"kind": "general", "q": [0.9, 0.1]}]})
        _, w = config.build_mitigation("prom-layered", self.circuit, noise)
        assert isinstance(w, LayeredWeights)

    def test_prom_needs_noise(self):
        with pytest.raises(config.ConfigError):
            config.build_mitigation("prom-general", self.circuit, None)

    def test_prom_tensored_needs_factorizable(self):
        noise = config.build_noise({"kind": "general", "q": [0.7, 0.1, 0.1, 0.1]})
        with pytest.raises(config.ConfigError, match="tensored"):
            config.build_mitigation("prom-tensored", self.circuit, noise)

    def test_rep_modifies_circuit(self):
        spec = {"mode": "rep", "repeat": 3, "consensus": "majority"}
        c, w = config.build_mitigation(spec, self.circuit, None)
        assert w is None
        assert all(layer.repeat == 3 for layer in c.layers)

    @pytest.mark.parametrize("spec", [
        "prom", {"mode": "rep"}, {"mode": "rep", "repeat": 2, "consensus": "majority"},
        {"mode": "rep", "repeat": 1, "consensus": "unanimous"},
        {"mode": "rep", "repeat": 3, "consensus": "plurality"},
    ])
    def test_bad_modes(self, spec):
        with pytest.raises(config.ConfigError):
            config.build_mitigation(spec, self.circuit, None)

    def test_asymmetric_without_bfa_rejected(self):
        noise = NoiseInjector(matrices=config.build_noise(
            {"kind": "asymmetric", "matrices": [[[0.95, 0.15], [0.05, 0.85]]]}).matrices,
            bfa=False)
        with pytest.raises(config.ConfigError, match="bfa"):
            config.build_mitigation("prom-general", self.circuit, noise)

    def test_asymmetric_with_bfa_symmetrizes(self):
        noise = config.build_noise({"kind": "asymmetric",
                                    "matrices": [[[0.95, 0.15], [0.05, 0.85]]]})
        _, w = config.build_mitigation("prom-general", self.circuit, noise)
        assert w.xi == pytest.approx(1.25)


_ONE_BIT = [[0.95, 0.15], [0.05, 0.85]]
_TWO_BITS = [[0.95, 0.02, 0.06, 0.001],
             [0.03, 0.93, 0.002, 0.05],
             [0.015, 0.001, 0.91, 0.04],
             [0.005, 0.049, 0.028, 0.909]]


@pytest.mark.parametrize("kind", ["model", "one bfa part", "two bfa parts", "no bfa",
                                  "terminal only", "no noise"])
def test_symmetrized_channel_of_each_noise_kind(kind):
    """The channel prom weights invert: the model itself, or one symmetrized
    confusion matrix per layer (layered if there are several); without bit-flip
    averaging or mid-circuit noise there is none, and config says so."""
    model = TensoredModel([0.1, 0.2])
    matrices = [ConfusionMatrix(np.array(_ONE_BIT)), ConfusionMatrix(np.array(_TWO_BITS))]
    noise = {"model": NoiseInjector(model=model),
             "one bfa part": NoiseInjector(matrices=matrices[:1], bfa=True),
             "two bfa parts": NoiseInjector(matrices=matrices, bfa=True),
             "no bfa": NoiseInjector(matrices=matrices),
             "terminal only": NoiseInjector(terminal=model),
             "no noise": None}[kind]
    if kind in ("no bfa", "terminal only", "no noise"):
        assert noise is None or noise.symmetrized() is None
        with pytest.raises(config.ConfigError, match="bfa"):
            config.symmetrized_model(noise)
        with pytest.raises(config.ConfigError, match="bfa"):
            config.build_mitigation("prom-layered", config.build_circuit("reset", {"n": 1}),
                                    noise)
        return
    got = noise.symmetrized()
    assert config.symmetrized_model(noise).expand().tobytes() == got.expand().tobytes()
    if kind == "model":
        assert got is model
        return
    parts = got.parts if kind == "two bfa parts" else [got]
    assert isinstance(got, LayeredModel if kind == "two bfa parts" else GeneralModel)
    assert [type(part) for part in parts] == [GeneralModel] * len(noise.matrices)
    for part, mat in zip(parts, noise.matrices):
        assert part.q.tobytes() == symmetrize(mat.matrix).tobytes()


class TestCustomCircuit:
    def test_round_trip(self, tmp_path):
        desc = {
            "n": 2,
            "prep": [["h", 0], ["cx", 0, 1], ["rz", 0.4, 1]],
            "layers": [{"measured": [0],
                        "table": [[], [["x", 1]]],
                        "pre": [["h", 0]]}],
            "settings": [{"name": "z", "measured": [1],
                          "observables": [{"name": "Z1", "pauli": "Z",
                                           "qubits": [1]}]}],
        }
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(desc))
        c = config.load_circuit_file(str(path))
        assert c.n == 2
        assert c.cx_count() == 1
        assert c.m == 1
        assert c.settings[0].observables[0][0] == "Z1"
        cfg = config.validate_config({"experiment": "custom",
                                      "parameters": {"path": str(path)}})
        assert cfg["experiment"] == "custom"

    def test_bad_gate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "prep": [["teleport", 0]]}))
        with pytest.raises(config.ConfigError, match="bad gate"):
            config.load_circuit_file(str(path))

    def test_zeros_observable(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "n": 1,
            "settings": [{"name": "t", "measured": [0],
                          "observables": [{"name": "p", "zeros": [0]}]}]}))
        c = config.load_circuit_file(str(path))
        vals = c.settings[0].value_table()[0][1]
        assert vals.tolist() == [1, 0]


class TestRunConfig:
    def test_record_shape_and_rows(self):
        cfg = config.validate_config(minimal(
            noise={"kind": "uniform", "m": 1, "rate": 0.1},
            mitigation="prom-tensored", shots=2000, trials=2, seed=3))
        payload = config.run_config(cfg)
        record = payload["record"]
        assert "wall_time_s" in payload and "wall_time_s" not in record
        assert record["xi"] == pytest.approx(1.25)
        assert len(record["trials"]) == 2
        rows = config.record_rows(record)
        assert len(rows) == 4    # 2 trials x 2 observables
        assert set(rows[0]) == set(config.CSV_COLUMNS)

    def test_deterministic_records(self):
        cfg = config.validate_config(minimal(
            noise={"kind": "uniform", "m": 1, "rate": 0.1}, shots=1500))
        a = config.run_config(cfg, workers=1)["record"]
        b = config.run_config(cfg, workers=3)["record"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seeds_differ(self):
        base = minimal(noise={"kind": "uniform", "m": 1, "rate": 0.2}, shots=1500)
        a = config.run_config(config.validate_config(dict(base, seed=1)))
        b = config.run_config(config.validate_config(dict(base, seed=2)))
        ea = a["record"]["trials"][0]["settings"][0]["estimates"][0]["estimate"]
        eb = b["record"]["trials"][0]["settings"][0]["estimates"][0]["estimate"]
        assert ea != eb

    def test_terminal_rem_needs_channel(self):
        with pytest.raises(config.ConfigError, match="terminal"):
            config.validate_config(minimal(terminal_rem=True, shots=10))

    def test_plan_holds_the_circuit_before_mitigation(self):
        rep = {"mode": "rep", "repeat": 3, "consensus": "majority"}
        plan = config.plan_config(minimal(mitigation=rep, shots=300,
                                          noise={"kind": "uniform", "m": 1, "rate": 0.1}))
        assert [layer.repeat for layer in plan.circuit.layers] == [1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.circuit = None
        assert config.run_plan(plan)["record"] == config.run_config(plan.cfg)["record"]

    def test_ghz_derives_fidelity(self):
        cfg = config.validate_config({
            "experiment": "ghz", "parameters": {"b": 2, "p": 1}, "shots": 400})
        record = config.run_config(cfg)["record"]
        derived = record["trials"][0]["derived"]
        assert derived["fidelity"] == pytest.approx(1.0, abs=1e-9)
        rows = config.record_rows(record)
        assert rows[-1]["observable"] == "fidelity"

    def test_csv_write(self, tmp_path):
        cfg = config.validate_config(minimal(shots=200))
        record = config.run_config(cfg)["record"]
        rows = config.record_rows(record)
        path = tmp_path / "out.csv"
        config.write_csv(rows, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "trial,observable,estimate,stderr,xi,shots_accepted,shots_discarded"

    def test_csv_path_for(self):
        assert config.csv_path_for("a/b.json") == "a/b.csv"
        assert config.csv_path_for("plain") == "plain.csv"
