from dataclasses import replace

import numpy as np
import pytest

import oracles
from promkit import config, experiments, oracle
from promkit.mitigation import GeneralWeights
from promkit.readout import UniformModel
from promkit.simulator import NoiseInjector, estimate_observables, run_shots


def setting_fidelity(circuit) -> float:
    """The circuit's exact aggregate: its scale times the sum of the
    oracle's ideal values of every setting's observables."""
    tensor = oracle.exact_trajectory_tensor(circuit)
    return circuit.aggregate[1] * sum(tensor.ideal(b) for b in range(len(tensor.tensor)))


class TestResetCircuit:
    def test_structure(self):
        c = experiments.build_reset_circuit(2)
        assert c.n == 4            # 2 system + 2 spectators
        assert c.m == 2
        assert len(c.settings) == 1
        names = [name for name, _ in c.settings[0].observables]
        assert names == ["system_zeros", "spectator_zeros"]

    def test_noiseless_projectors(self):
        c = experiments.build_reset_circuit(2)
        t = oracle.exact_trajectory_tensor(c)
        assert t.ideal(0) == pytest.approx(1.0, abs=1e-12)
        assert t.ideal(1) == pytest.approx(1.0, abs=1e-12)

    def test_spectators_survive_noise(self):
        # spectators are untouched by feedforward errors
        c = experiments.build_reset_circuit(1)
        res = run_shots(c, c.settings[0], 20_000,
                        noise=NoiseInjector(model=UniformModel(1, 0.2)), seed=1)
        ests = {e.name: e.estimate for e in estimate_observables(res)}
        assert ests["system_zeros"] == pytest.approx(0.8, abs=0.01)
        assert ests["spectator_zeros"] == 1.0


class TestGhz:
    @pytest.mark.parametrize("b,p", [(2, 1), (3, 1), (2, 2), (2, 4), (3, 3)])
    def test_resource_counts(self, b, p):
        c = experiments.build_ghz_circuit(b, p)
        assert c.n == b * (p + 1)
        assert c.cx_count() == b * (p + 2) - 2
        assert c.m == b - 1
        assert len(c.layers) == 1

    @pytest.mark.parametrize("b,p", [(2, 1), (3, 1), (2, 2)])
    def test_noiseless_fidelity(self, b, p):
        assert setting_fidelity(
            experiments.build_ghz_circuit(b, p)) == pytest.approx(1.0, abs=1e-9)

    def test_unitary_fanout(self):
        c = experiments.build_unitary_ghz(4)
        assert c.cx_count() == 3
        assert c.m == 0
        assert oracles.exact_ghz_fidelity(c) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_depth_advantage(self):
        # the merge construction keeps two-qubit depth bounded by the block
        # size, while the unitary fan-out grows with n
        merged = experiments.build_ghz_circuit(3, 3)    # 12 qubits
        unitary = experiments.build_unitary_ghz(12)
        assert unitary.two_qubit_depth() == 6
        assert merged.two_qubit_depth() < unitary.two_qubit_depth()

    def test_stabilizers(self):
        stabs = oracles.ghz_stabilizers(2)
        labels = [(s.sign, s.label) for s in stabs]
        assert (1, "II") in labels
        assert (1, "ZZ") in labels
        assert (1, "XX") in labels
        assert (-1, "YY") in labels
        assert len(stabs) == 4
        assert len(oracles.ghz_stabilizers(4)) == 16

    def test_stabilizer_expectations_on_ghz(self):
        c = experiments.build_unitary_ghz(3)
        stabs = [(s.label + ("-" if s.sign < 0 else ""), s)
                 for s in oracles.ghz_stabilizers(3)]
        t = oracle.exact_trajectory_tensor(
            replace(c, settings=oracles.one_observable_settings(stabs)))
        for b in range(len(stabs)):
            assert t.ideal(b) == pytest.approx(1.0, abs=1e-12)

    def test_settings_cover_all_stabilizers(self):
        n = 3
        settings = experiments.ghz_stabilizer_settings(n)
        assert len(settings) == 2 ** (n - 1) + 1
        z_setting = settings[0]
        assert len(z_setting.observables) == 2 ** (n - 1)
        assert all(len(s.observables) == 1 for s in settings[1:])
        total = sum(len(s.observables) for s in settings)
        assert total == 2 ** n

    def test_fidelity_helper(self):
        assert oracles.ghz_fidelity([1.0] * 8) == pytest.approx(1.0)
        assert oracles.ghz_fidelity([1, 1, 1, 1, 0, 0, 0, 0]) == pytest.approx(0.5)

    def test_shot_fidelity_noiseless(self):
        c = experiments.build_ghz_circuit(2, 1)
        trial = config.run_config({"experiment": "ghz", "parameters": {"b": 2, "p": 1},
                                   "shots": 1500, "seed": 2})["record"]["trials"][0]
        f, err = trial["derived"]["fidelity"], trial["derived"]["fidelity_stderr"]
        assert f == pytest.approx(1.0, abs=1e-9)
        assert err == 0.0
        assert len(trial["settings"]) == 2 ** (c.n - 1) + 1

    def test_mixed_state_fidelity_floor(self):
        # a maximally mixed input gives F = 2^-n: only the identity counts
        n = 2
        settings = experiments.ghz_stabilizer_settings(n)
        vals = []
        for s in settings:
            for name, ob in s.observables:
                vals.append(1.0 if set(name.strip("-")) == {"I"} else 0.0)
        assert oracles.ghz_fidelity(vals) == pytest.approx(2.0 ** -n)

    def test_circuits_carry_stabilizer_settings(self):
        for c in (experiments.build_ghz_circuit(2, 2), experiments.build_unitary_ghz(4)):
            assert c.aggregate == ("fidelity", 2.0 ** -c.n)
            assert len(c.settings) == 2 ** (c.n - 1) + 1
            observed = [ob for s in c.settings for _, ob in s.observables]
            assert ([(ob.sign, ob.label) for ob in observed]
                    == [(ob.sign, ob.label) for ob in oracles.ghz_stabilizers(c.n)])

    def test_settings_match_pauli_bases(self):
        for s in experiments.ghz_stabilizer_settings(4)[1:]:
            (name, ob), = s.observables
            assert s.name == name == ("-" if ob.sign < 0 else "") + ob.label
            assert s.basis_gates == ob.basis_gates()
            assert s.measured == (0, 1, 2, 3)

    def test_unitary_ghz_runs_from_config(self):
        # every GHZ stabilizer is deterministic on the ideal state
        cfg = config.validate_config({"experiment": "ghz-unitary",
                                      "parameters": {"n": 4}, "shots": 500})
        derived = config.run_config(cfg)["record"]["trials"][0]["derived"]
        assert derived == {"fidelity": 1.0, "fidelity_stderr": 0.0}

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            experiments.build_ghz_circuit(1, 3)
        with pytest.raises(ValueError):
            experiments.build_ghz_circuit(2, 0)


class TestTeleport:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_structure(self, k):
        c = experiments.build_teleport_circuit(k)
        assert c.n == 2 * k + 1
        assert c.m == 2 * k
        assert len(c.layers) == k
        assert c.cx_count() == 2 * k
        assert {s.name for s in c.settings} == {"x", "y", "z"}

    @pytest.mark.parametrize("k", [1, 2])
    def test_ideal_triple(self, k):
        phi_x, phi_z = np.pi / 8, 3 * np.pi / 8
        want = {"X": np.sin(2 * phi_x) * np.sin(2 * phi_z),
                "Y": -np.sin(2 * phi_x) * np.cos(2 * phi_z),
                "Z": np.cos(2 * phi_x)}
        c = experiments.build_teleport_circuit(k, phi_x, phi_z)
        t = oracle.exact_trajectory_tensor(c)
        for b, name in enumerate(name for s in c.settings for name, _ in s.observables):
            assert t.ideal(b) == pytest.approx(want[name], abs=1e-9), k

    def test_other_input_angles(self):
        c = experiments.build_teleport_circuit(1, 0.3, 1.1)
        want = {"X": np.sin(0.6) * np.sin(2.2),
                "Y": -np.sin(0.6) * np.cos(2.2),
                "Z": np.cos(0.6)}
        t = oracle.exact_trajectory_tensor(c)
        for b, name in enumerate(name for s in c.settings for name, _ in s.observables):
            assert t.ideal(b) == pytest.approx(want[name], abs=1e-9)

    def test_transport_baseline(self):
        c = experiments.build_unitary_transport(2)
        assert c.cx_count() == 12     # 2k swaps of 3 CX each
        assert c.m == 0
        want = np.cos(np.pi / 4)
        setting = next(s for s in c.settings if s.name == "z")
        t = oracle.exact_trajectory_tensor(replace(c, settings=(setting,)))
        assert t.ideal(0) == pytest.approx(want, abs=1e-9)

class TestRepStrategies:
    def test_apply_rep_strategy(self):
        c = experiments.build_teleport_circuit(1)
        r = experiments.apply_rep_strategy(c, 3, "majority")
        assert all(layer.repeat == 3 for layer in r.layers)
        assert all(layer.consensus == "majority" for layer in r.layers)
        # original untouched
        assert all(layer.repeat == 1 for layer in c.layers)

    def test_closed_forms(self):
        assert oracles.rep_majority_flip_rate(0.1, 3) == pytest.approx(0.028)
        assert oracles.rep_unanimous_acceptance(0.1, 2) == pytest.approx(0.82)
        assert oracles.rep_majority_flip_rate(0.0, 5) == 0.0
        assert oracles.rep_unanimous_acceptance(0.0, 4) == 1.0

    def test_majority_rate_matches_binomial_tail(self):
        from scipy import stats
        r, rep = 0.07, 5
        want = stats.binom.sf(rep // 2, rep, r)
        assert oracles.rep_majority_flip_rate(r, rep) == pytest.approx(want)


class TestCalibration:
    def test_circuit_shape(self):
        c = experiments.build_calibration_circuit(3)
        assert c.n == 3
        assert c.m == 3
        assert c.cx_count() == 0
        assert all(entry == () for entry in c.layers[0].table)

    def test_recovers_channel(self):
        model = UniformModel(2, 0.1)
        q_hat = experiments.run_calibration(2, 200_000,
                                            noise=NoiseInjector(model=model), seed=3)
        assert np.abs(q_hat - model.expand()).max() < 5e-3

    def test_prom_closes_loop_on_calibrated_channel(self):
        # calibrate, solve weights from the estimate, mitigate the reset
        model = UniformModel(1, 0.12)
        noise = NoiseInjector(model=model)
        q_hat = experiments.run_calibration(1, 300_000, noise=noise, seed=4)
        w = GeneralWeights(q_hat)
        c = experiments.build_reset_circuit(1)
        res = run_shots(c, c.settings[0], 50_000, noise=noise, weights=w, seed=5)
        est = estimate_observables(res)[0]
        assert abs(est.estimate - 1.0) < 5 * est.stderr + 0.01
