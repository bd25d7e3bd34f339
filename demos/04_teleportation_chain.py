"""Repeated teleportation with classically-controlled corrections.

An arbitrary single-qubit state hops across k Bell pairs; each hop consumes
two mid-circuit measurements whose outcomes select the Pauli correction on
the receiving qubit.  The Bloch vector of the delivered state is read out
in the X, Y and Z bases and compared to the exact value, with the misreport
channel both left alone and cancelled by mask sampling.
"""
import math

import numpy as np

from promkit import oracle
from promkit.experiments import build_teleport_circuit
from promkit.mitigation import solve_weights
from promkit.readout import UniformModel
from promkit.simulator import NoiseInjector, estimate_observables, run_shots

PHI_X, PHI_Z = math.pi / 8, 3 * math.pi / 8
SHOTS = 50_000
RATE = 0.05

ideal = {"X": math.sin(2 * PHI_X) * math.sin(2 * PHI_Z),
         "Y": -math.sin(2 * PHI_X) * math.cos(2 * PHI_Z),
         "Z": math.cos(2 * PHI_X)}
print("input Bloch vector:",
      " ".join(f"{k}={v:+.6f}" for k, v in ideal.items()), "\n")

for k in (1, 2, 3):
    circuit = build_teleport_circuit(k, PHI_X, PHI_Z)
    model = UniformModel(circuit.m, RATE)
    weights = solve_weights(model)
    noise = NoiseInjector(model=model)

    # oracle check first: every trajectory branch handled exactly
    tensor = oracle.exact_trajectory_tensor(circuit)
    names = [name for setting in circuit.settings for name, _ in setting.observables]
    delta = max(abs(tensor.ideal(b) - ideal[name]) for b, name in enumerate(names))
    print(f"k={k} hops ({circuit.n} qubits, {circuit.m} measured bits): "
          f"oracle deviation {delta:.2e}")

    rows = []
    for setting in circuit.settings:
        raw = estimate_observables(
            run_shots(circuit, setting, SHOTS, noise=noise, seed=21))[0]
        mit = estimate_observables(
            run_shots(circuit, setting, SHOTS, noise=noise,
                      weights=weights, seed=22))[0]
        rows.append((raw.name, raw.estimate, mit.estimate, mit.stderr))
    for name, r, m, s in rows:
        print(f"   <{name}>: ideal {ideal[name]:+.4f}   raw {r:+.4f}   "
              f"mitigated {m:+.4f} +/- {s:.4f}")
    err_raw = np.linalg.norm([r - ideal[n] for n, r, _, _ in rows])
    err_mit = np.linalg.norm([m - ideal[n] for n, _, m, _ in rows])
    print(f"   Bloch-vector error: raw {err_raw:.4f}, mitigated {err_mit:.4f}\n")
