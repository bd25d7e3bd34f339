"""The benchmark workloads: configs made from the workload seed, the user
path each one times, its exact reference, and the checks on its outputs.

Each (trial, setting) estimate is one operation, and so is each derived GHZ
fidelity and each calibration run.  ``check`` maps every operation of an
output to ``None`` when it passed, or to the reason it failed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from promkit import cli, experiments, readout
from promkit import config as configmod
from promkit.mitigation import GeneralWeights

STDERR_LIMIT = 5.0      # estimates must lie within this many stderr of the truth
IDENTITY_ATOL = 1e-9    # oracle: mitigated mean == ideal value, and closed forms
TVD_DELTA = 1e-9        # failure probability of the calibration TVD bound

# The teleport builder's default input state, as acceptance criterion 9 uses.
PHI_X, PHI_Z = math.pi / 8, 3 * math.pi / 8
BLOCH = {"X": math.sin(2 * PHI_X) * math.sin(2 * PHI_Z),
         "Y": -math.sin(2 * PHI_X) * math.cos(2 * PHI_Z),
         "Z": math.cos(2 * PHI_X)}


@dataclass
class Output:
    """What one execution of the user path produced."""

    shots: int              # trials x settings x shots simulated
    effective_shots: float  # sum of accepted shots / xi^2
    identity: str           # the whole deterministic output, for worker comparisons
    operations: dict        # operation label -> its part of the output, as text
    payload: object         # the record, or q_hat


class RunWorkload:
    """An experiment run the way ``promkit run`` runs it: ``config.run_config``."""

    def __init__(self, name: str, base: dict, shots: int):
        self.name = name
        self.base = base
        self.shots = shots

    def config(self, seed: int, shots: int | None = None) -> dict:
        return dict(self.base, shots=shots or self.shots, seed=seed)

    def setup(self, raw: dict) -> None:
        """What ``run_config`` builds before its first shot, after validation."""
        cfg = configmod.validate_config(raw)
        circuit = configmod.build_circuit(cfg["experiment"], cfg["parameters"])
        noise = configmod.build_noise(cfg["noise"])
        circuit, _ = configmod.build_mitigation(cfg["mitigation"], circuit, noise)
        if cfg["experiment"] == "ghz" and not circuit.settings:
            experiments.ghz_stabilizer_settings(circuit.n)

    def prepare(self, cfg: dict):
        return cfg

    def execute(self, cfg: dict, workers: int) -> Output:
        record = configmod.run_config(cfg, workers=workers)["record"]
        entries = [s for trial in record["trials"] for s in trial["settings"]]
        operations = {}
        for trial in record["trials"]:
            for entry in trial["settings"]:
                operations[f"{trial['trial']}/{entry['setting']}"] = _text(entry)
            if "derived" in trial:
                operations[f"{trial['trial']}/derived"] = _text(trial["derived"])
        return Output(shots=sum(e["shots"] for e in entries),
                      effective_shots=sum(e["accepted"] for e in entries) / record["xi"] ** 2,
                      identity=_text(record), operations=operations, payload=record)

    def reference_input(self, cfg: dict, workdir) -> str:
        path = workdir / f"{self.name}-seed{cfg['seed']}-oracle-config.json"
        path.write_text(json.dumps(dict(cfg, out=None)))
        return str(path)

    def reference(self, config_path: str) -> dict:
        """The exact reference, as ``promkit oracle`` computes and prints it."""
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["oracle", "--config", config_path])
        if code != 0:
            raise RuntimeError(f"promkit oracle exited with {code}")
        return json.loads(text.getvalue())

    def check(self, out: Output, ref: dict) -> dict:
        exact = {(s["setting"], o["observable"]): o
                 for s in ref["settings"] for o in s["observables"]}
        result = {}
        for trial in out.payload["trials"]:
            for entry in trial["settings"]:
                problems = []
                for est in entry["estimates"]:
                    o = exact[(entry["setting"], est["observable"])]
                    problems += _within(est, o["ideal"], "oracle ideal")
                    if abs(o["mitigated"] - o["ideal"]) > IDENTITY_ATOL:
                        problems.append(f"{est['observable']}: oracle mitigated "
                                        f"{o['mitigated']} != ideal {o['ideal']}")
                    if self.base["experiment"] == "teleport":
                        bloch = BLOCH[est["observable"]]
                        problems += _within(est, bloch, "closed-form Bloch vector")
                        if abs(o["ideal"] - bloch) > IDENTITY_ATOL:
                            problems.append(f"{est['observable']}: oracle ideal "
                                            f"{o['ideal']} != closed form {bloch}")
                result[f"{trial['trial']}/{entry['setting']}"] = "; ".join(problems) or None
            if "derived" in trial:
                fid, err = trial["derived"]["fidelity"], trial["derived"]["fidelity_stderr"]
                ok = abs(fid - 1.0) <= STDERR_LIMIT * err
                result[f"{trial['trial']}/derived"] = (
                    None if ok else f"fidelity {fid} not within {STDERR_LIMIT} stderr "
                                    f"({err}) of 1")
        return result

    def same_reference(self, a: dict, b: dict) -> bool:
        return a == b


class CalibrationWorkload:
    """The calibration circuit run the way ``promkit calibrate`` runs it:
    ``experiments.run_calibration``, then ``GeneralWeights(q_hat)``."""

    def __init__(self, name: str, m: int, shots: int):
        self.name = name
        self.m = m
        self.shots = shots

    def config(self, seed: int, shots: int | None = None) -> dict:
        matrix = confusion_matrix(self.m, np.random.default_rng(seed))
        return {"experiment": "calibration", "parameters": {"m": self.m},
                "noise": {"kind": "asymmetric", "matrices": [matrix.tolist()], "bfa": True},
                "shots": shots or self.shots, "seed": seed}

    def setup(self, raw: dict) -> None:
        """``promkit calibrate`` validates the config, then builds the noise."""
        cfg = configmod.validate_config(raw)
        configmod.build_noise(cfg["noise"])

    def prepare(self, cfg: dict):
        # A fresh injector per run: its alias tables are built lazily in the
        # first batch, on every invocation of the command.
        return cfg, configmod.build_noise(cfg["noise"])

    def execute(self, prepared, workers: int) -> Output:
        cfg, noise = prepared
        q_hat = experiments.run_calibration(self.m, cfg["shots"], noise=noise,
                                            seed=cfg["seed"], workers=workers)
        GeneralWeights(q_hat)
        identity = q_hat.tobytes().hex()
        # No mitigation runs here: xi = 1 and every shot is accepted.
        return Output(shots=cfg["shots"], effective_shots=float(cfg["shots"]),
                      identity=identity, operations={"calibration": identity},
                      payload=q_hat)

    def reference_input(self, cfg: dict, workdir):
        return configmod.build_noise(cfg["noise"]).matrices[0]

    def reference(self, matrix) -> np.ndarray:
        """The exact syndrome distribution under bit-flip averaging."""
        return matrix.symmetrize()

    def check(self, out: Output, q: np.ndarray) -> dict:
        tvd = readout.total_variation_distance(out.payload, q)
        bound = tvd_bound(q.size, out.shots)
        return {"calibration": None if tvd <= bound else
                f"TVD(q_hat, q) = {tvd} exceeds {bound} for {out.shots} shots"}

    def same_reference(self, a: np.ndarray, b: np.ndarray) -> bool:
        return np.array_equal(a, b)


def confusion_matrix(m: int, rng: np.random.Generator) -> np.ndarray:
    """Column-stochastic M[reported, true] over m independent bits whose
    0->1 and 1->0 rates differ, and differ from bit to bit."""
    matrix = np.ones((1, 1))
    for _ in range(m):
        up, down = rng.uniform(0.005, 0.03), rng.uniform(0.02, 0.08)
        matrix = np.kron(matrix, [[1 - up, down], [up, 1 - down]])
    return matrix


def tvd_bound(cells: int, shots: int) -> float:
    """TVD that an empirical distribution of ``shots`` iid draws over
    ``cells`` outcomes exceeds with probability at most TVD_DELTA.

    Bretagnolle-Huber-Carol: P(||p_hat - p||_1 >= e) <= 2^cells exp(-shots e^2 / 2).
    """
    l1 = math.sqrt(2.0 * (cells * math.log(2.0) + math.log(1.0 / TVD_DELTA)) / shots)
    return l1 / 2.0


def _within(est: dict, truth: float, what: str) -> list[str]:
    if abs(est["estimate"] - truth) <= STDERR_LIMIT * est["stderr"]:
        return []
    return [f"{est['observable']}: {est['estimate']} +/- {est['stderr']} is not within "
            f"{STDERR_LIMIT} stderr of the {what} {truth}"]


def _text(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# Circuit structure is fixed; shot counts are whole batches (16384 rows at
# n=6 and n=7, 8192 at n=8), so that workers=2 has batches to share.
WORKLOADS = {
    "ghz-fusion": RunWorkload(
        "ghz-fusion",
        {"experiment": "ghz", "parameters": {"b": 2, "p": 2},
         "noise": {"kind": "uniform", "m": 1, "rate": 0.05},
         "mitigation": "prom-layered"},
        shots=2 * 16384),
    "teleport-chain": RunWorkload(
        "teleport-chain",
        {"experiment": "teleport", "parameters": {"k": 3},
         "noise": {"kind": "layered",
                   "parts": [{"kind": "uniform", "m": 2, "rate": 0.05}] * 3},
         "mitigation": "prom-layered"},
        shots=4 * 16384),
    "reset-wide": RunWorkload(
        "reset-wide",
        {"experiment": "reset", "parameters": {"n": 6},
         "noise": {"kind": "uniform", "m": 6, "rate": 0.03},
         "mitigation": "prom-general"},
        shots=24 * 8192),
    "calibration-bfa": CalibrationWorkload("calibration-bfa", m=8, shots=16 * 8192),
}
