"""GHZ preparation by fusing blocks with mid-circuit parity measurements.

Builds the (b blocks) x (p+1 qubits) construction, compares its two-qubit
depth against the plain fan-out circuit on the same register, and estimates
the stabilizer fidelity with and without mitigation under a 5% misreport
rate on the fusion measurements.  The shot-based fidelity is the derived
entry of a config run; the exact one is the circuit's aggregate scale times
the sum of the oracle's ideal stabilizer values.
"""
import time

from promkit.config import run_config
from promkit.experiments import build_ghz_circuit, build_unitary_ghz
from promkit.oracle import exact_trajectory_tensor

SHOTS_PER_SETTING = 20_000
RATE = 0.05

for b, p in [(2, 1), (3, 1), (2, 2)]:
    circuit = build_ghz_circuit(b, p)
    unitary = build_unitary_ghz(circuit.n)
    print(f"=== GHZ({circuit.n}) from {b} blocks of {p + 1} qubits")
    print(f"  resources: {circuit.cx_count()} CX, {circuit.m} measured ancilla(s); "
          f"two-qubit depth {circuit.two_qubit_depth()} vs "
          f"{unitary.two_qubit_depth()} for the fan-out circuit")
    tensor = exact_trajectory_tensor(circuit)
    exact = circuit.aggregate[1] * sum(tensor.ideal(b) for b in range(len(tensor.tensor)))
    print(f"  exact fidelity of the noiseless construction: {exact:.12f}")

    cfg = {"experiment": "ghz", "parameters": {"b": b, "p": p}, "shots": SHOTS_PER_SETTING,
           "noise": {"kind": "uniform", "m": circuit.m, "rate": RATE}}
    t0 = time.perf_counter()
    raw, mitigated = [run_config({**cfg, "mitigation": mode, "seed": seed})
                      ["record"]["trials"][0]["derived"]
                      for mode, seed in (("none", 11), ("prom-tensored", 12))]
    dt = time.perf_counter() - t0
    print(f"  shot-based fidelity at {RATE:.0%} misreports "
          f"({SHOTS_PER_SETTING} shots/setting, {dt:.1f}s):")
    for label, derived in (("raw      ", raw), ("mitigated", mitigated)):
        print(f"    {label} {derived['fidelity']:.4f} +/- {derived['fidelity_stderr']:.4f}")
    print()
