"""Pinned outputs: the sha256 of whole run records, at one and two workers.

A change to how the simulator evolves states (branching, merging, skipped
work) must leave every record byte for byte as it was.  The configs are the
two demo configs and small-shot versions of the four benchmark workloads,
plus a reset under bit-flip-averaged asymmetric noise, whose un-twirled
states feed a feedforward table.  Each shot count spans two batches, so the
second worker has work.  Calibration is pinned through ``q_hat``, the output
of ``run_calibration``: its record carries no estimates.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from promkit import config, experiments

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def confusion(m: int, seed: int) -> list:
    """Column-stochastic matrix over m bits with unequal 0->1 and 1->0 rates."""
    rng = np.random.default_rng(seed)
    matrix = np.ones((1, 1))
    for _ in range(m):
        up, down = rng.uniform(0.005, 0.03), rng.uniform(0.02, 0.08)
        matrix = np.kron(matrix, [[1 - up, down], [up, 1 - down]])
    return matrix.tolist()


RUNS = {
    "ghz-fusion": {"experiment": "ghz", "parameters": {"b": 2, "p": 2},
                   "noise": {"kind": "uniform", "m": 1, "rate": 0.05},
                   "mitigation": "prom-layered", "shots": 16384 + 500, "seed": 0},
    "teleport-chain": {"experiment": "teleport", "parameters": {"k": 3},
                       "noise": {"kind": "layered",
                                 "parts": [{"kind": "uniform", "m": 2, "rate": 0.05}] * 3},
                       "mitigation": "prom-layered", "shots": 16384 + 500, "seed": 1},
    "reset-wide": {"experiment": "reset", "parameters": {"n": 6},
                   "noise": {"kind": "uniform", "m": 6, "rate": 0.03},
                   "mitigation": "prom-general", "shots": 8192 + 500, "seed": 7},
    "reset-bfa": {"experiment": "reset", "parameters": {"n": 4},
                  "noise": {"kind": "asymmetric", "matrices": [confusion(4, 3)], "bfa": True},
                  "mitigation": "prom-general", "shots": 16384 + 500, "seed": 5},
    "ghz_bench": json.loads((DEMOS / "ghz_bench.json").read_text()),
    "teleport_prom": json.loads((DEMOS / "teleport_prom.json").read_text()),
}

CALIBRATION = {"m": 8, "shots": 8192 + 500, "seed": 2,
               "noise": {"kind": "asymmetric", "matrices": [confusion(8, 2)], "bfa": True}}

PINNED = {
    "ghz-fusion":
        "e435b28aa6c160cb5e6be3c7337e558be0a18e44a3811ca520c8dd6548ff561d",
    "teleport-chain":
        "b69d6ea9da91f5b4e087e1dc1b39bc8216c1953d2fc3ef04a00be8bb9c7d81e8",
    "reset-wide":
        "711a28055ccb10dc1c55fe4f2a9cc9393aab7a47c2c48f1bc48e0a636644678d",
    "reset-bfa":
        "7c47bfbfd56161e7e3ffda6808fc1a8f494e5115f8d70d08a0f5624ed2a56d31",
    "ghz_bench":
        "a392d756c3375fe81804ac8768842a9bc5a9755923b435e40be812a9d3768253",
    "teleport_prom":
        "be1ea0c7a1abd9f4c98f04ae2549f4f688aed19966c7f8ffac083ed0dd844e35",
    "calibration-bfa":
        "57fcef18b7a5a3db10c9e2d9e7fc4dd081b9b5b2f198d943dc767cac2e676ae1",
}


def digest(name: str, workers: int) -> str:
    if name == "calibration-bfa":
        q_hat = experiments.run_calibration(
            CALIBRATION["m"], CALIBRATION["shots"], seed=CALIBRATION["seed"],
            noise=config.build_noise(CALIBRATION["noise"]), workers=workers)
        return hashlib.sha256(q_hat.tobytes()).hexdigest()
    record = config.run_config(config.validate_config(RUNS[name]), workers=workers)["record"]
    record.pop("version")
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_record_is_pinned(name, workers):
    assert digest(name, workers) == PINNED[name]
