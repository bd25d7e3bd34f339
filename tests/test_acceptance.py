"""Acceptance suite: twelve end-to-end criteria at pinned tolerances.

Each test prints one line with the measured values and PASS/FAIL; run
``pytest -v -s tests/test_acceptance.py`` to see them alongside the verdicts.
"""
import json
import time

import numpy as np
from scipy import stats

from oracles import (perturbed_distribution, random_distribution,
                     rep_majority_flip_rate, rep_unanimous_acceptance)
from promkit import config as configmod
from promkit import experiments, mitigation, oracle
from promkit.bits import binary_convolve, fwht
from promkit.circuits import (DynamicCircuit, FeedforwardLayer, PauliString,
                              TerminalSetting, h, x)
from promkit.mitigation import (GeneralWeights, TensoredWeights, UniformWeights,
                                overhead_bound, project_nonnegative,
                                sensitivity_bound, solve_weights, terminal_rem)
from promkit.readout import (ConfusionMatrix, GeneralModel, LayeredModel,
                             TensoredModel, UniformModel, symmetrize,
                             total_variation_distance)
from promkit.simulator import NoiseInjector, estimate_observables, run_shots

from test_engine import random_gates
from test_experiments import setting_fidelity


def report(num, label, ok, detail):
    print(f"\n[criterion {num:02d}] {label}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _random_feedforward_circuit(rng, max_n=4, max_layers=2, max_m=4):
    n = int(rng.integers(1, max_n + 1))
    n_layers = int(rng.integers(1, max_layers + 1))
    prep = tuple(random_gates(rng, n, int(rng.integers(2, 6))))
    layers = []
    total_m = 0
    for _ in range(n_layers):
        width = int(rng.integers(1, min(n, max_m - total_m) + 1)) \
            if total_m < max_m else 0
        if width == 0:
            break
        measured = tuple(int(q) for q in rng.choice(n, size=width, replace=False))
        table = tuple(tuple(random_gates(rng, n, int(rng.integers(0, 3))))
                      for _ in range(1 << width))
        layers.append(FeedforwardLayer(measured=measured, table=table,
                                       pre_gates=tuple(random_gates(rng, n, 1)),
                                       post_gates=tuple(random_gates(rng, n, 1))))
        total_m += width
    label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    if set(label) == {"I"}:
        label = "Z" + label[1:]
    ob = PauliString(label)
    setting = TerminalSetting(name="t", measured=tuple(range(n)),
                              observables=((label, ob),),
                              basis_gates=ob.basis_gates())
    return DynamicCircuit(n=n, prep=prep, layers=tuple(layers),
                          settings=(setting,))


def test_criterion_01_unbiasedness_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    while count < 200:
        c = _random_feedforward_circuit(rng)
        if c.m == 0:
            continue
        q = random_distribution(rng, 1 << c.m)
        tensor = oracle.exact_trajectory_tensor(c)
        alpha = GeneralWeights(q).alpha()
        for b in range(len(tensor.tensor)):
            worst = max(worst, abs(tensor.mitigated(b, q, alpha) - tensor.ideal(b)))
        count += 1
    elapsed = time.perf_counter() - start
    report(1, "unbiasedness identity",
           worst <= 1e-9 and elapsed < 120,
           f"{count} random circuits, max |mitigated - ideal| = {worst:.2e} "
           f"(tol 1e-9), runtime {elapsed:.1f}s (< 120s)")


def test_criterion_02_monte_carlo_convergence():
    start = time.perf_counter()
    c = experiments.build_reset_circuit(1)
    model = UniformModel(1, 0.1)
    w = solve_weights(model)
    res = run_shots(c, c.settings[0], 100_000,
                    noise=NoiseInjector(model=model), weights=w, seed=202)
    est = next(e for e in estimate_observables(res) if e.name == "system_zeros")
    dev = abs(est.estimate - 1.0)
    elapsed = time.perf_counter() - start
    report(2, "Monte Carlo convergence",
           dev <= 5 * est.stderr and est.single_shot_variance <= 1.5625
           and elapsed < 30,
           f"estimate {est.estimate:.5f} (|dev| {dev:.2e} vs 5*stderr "
           f"{5 * est.stderr:.2e}), single-shot var {est.single_shot_variance:.4f} "
           f"<= 1.5625, runtime {elapsed:.1f}s (< 30s)")


def test_criterion_03_overhead_bound():
    rng = np.random.default_rng(303)
    worst_slack = -np.inf
    eq_gap = np.inf
    for i in range(1000):
        m = (i % 6) + 1
        q = random_distribution(rng, 1 << m, eta_max=0.45)
        xi = GeneralWeights(q).xi
        bound = overhead_bound(1.0 - q[0])
        worst_slack = max(worst_slack, xi - bound)
        if m == 1:
            eq_gap = min(eq_gap, abs(xi - bound))
    report(3, "overhead bound",
           worst_slack <= 1e-12 and eq_gap <= 1e-12,
           f"1000 channels, max xi - 1/(1-2eta) = {worst_slack:.2e} (tol 1e-12), "
           f"m=1 equality gap {eq_gap:.2e}")


def test_criterion_04_structure_consistency():
    rng = np.random.default_rng(404)
    worst_a = worst_x = 0.0
    for i in range(100):
        if i % 2 == 0:
            m = int(rng.integers(1, 7))
            rates = rng.uniform(0.0, 0.45, size=m)
            structured = TensoredWeights(rates)
            q = TensoredModel(rates).expand()
        else:
            parts, total = [], 0
            while total < 2:
                w = int(rng.integers(1, 4 - total if total else 3))
                parts.append(GeneralModel(random_distribution(rng, 1 << w)))
                total += w
            model = LayeredModel(parts)
            structured = solve_weights(model)
            q = model.expand()
        general = GeneralWeights(q)
        # alpha entries are bounded by xi, which is unbounded over random
        # models, so the 1e-12 agreement is relative to that scale
        scale = max(1.0, general.xi)
        worst_a = max(worst_a,
                      np.abs(structured.alpha() - general.alpha()).max() / scale)
        worst_x = max(worst_x, abs(structured.xi - general.xi) / scale)
    report(4, "structure consistency",
           worst_a <= 1e-12 and worst_x <= 1e-12,
           f"100 structured models, max scaled |alpha diff| = {worst_a:.2e}, "
           f"max scaled |xi diff| = {worst_x:.2e} (tol 1e-12 relative to xi)")


def test_criterion_05_sensitivity_bounds():
    rng = np.random.default_rng(505)
    pairs = 0
    ok_xi = ok_ob = True
    worst_margin = np.inf
    tensors = []
    while len(tensors) < 20:
        c = _random_feedforward_circuit(rng, max_n=3, max_layers=1, max_m=3)
        if c.m == 0:
            continue
        tensors.append((c.m, oracle.exact_trajectory_tensor(c)))
    while pairs < 500:
        m, tensor = tensors[pairs % len(tensors)]
        q = random_distribution(rng, 1 << m, eta_max=0.3)
        qp = perturbed_distribution(rng, q, scale=0.1)
        w = GeneralWeights(q)
        d = total_variation_distance(q, qp)
        if 2 * w.xi * d >= 1.0 or d == 0.0:
            continue
        wp = GeneralWeights(qp)
        bound = sensitivity_bound(w.xi, d)  # Pauli observables: norm 1
        ok_xi &= abs(wp.xi - w.xi) <= bound + 1e-12
        shifted = tensor.mitigated(0, q, wp.alpha())    # q' weights on the q channel
        exact = tensor.mitigated(0, q, w.alpha())
        ok_ob &= abs(shifted - exact) <= bound + 1e-12
        worst_margin = min(worst_margin,
                           bound - max(abs(wp.xi - w.xi), abs(shifted - exact)))
        pairs += 1
    report(5, "sensitivity bounds",
           ok_xi and ok_ob,
           f"500 (q, q') pairs with 2*xi*d < 1; |xi'-xi| and |<O'>-<O>| within "
           f"2*xi^2*d/(1-2*xi*d); tightest margin {worst_margin:.2e}")


def test_criterion_06_fwht_correctness():
    from oracles import naive_wht
    rng = np.random.default_rng(606)
    worst = 0.0
    for m in range(1, 11):
        v = rng.standard_normal(1 << m)
        worst = max(worst, np.abs(fwht(v) - naive_wht(v)).max())
    worst_inv = 0.0
    for m in range(1, 13):
        v = rng.standard_normal(1 << m)
        worst_inv = max(worst_inv,
                        np.abs(fwht(fwht(v)) - (1 << m) * v).max())
    report(6, "fwht correctness",
           worst <= 1e-12 and worst_inv <= 1e-9,
           f"naive match to m=10: max diff {worst:.2e} (tol 1e-12); "
           f"involution to m=12: max diff {worst_inv:.2e}")


def test_criterion_07_terminal_rem_round_trip():
    rng = np.random.default_rng(707)
    worst_rel = 0.0
    worst_total = 0.0
    for i in range(100):
        m = (i % 3) + 1
        q = random_distribution(rng, 1 << m, eta_max=0.4)
        target = rng.random(1 << m)
        target /= target.sum()
        recovered = terminal_rem(binary_convolve(q, target), q)
        worst_rel = max(worst_rel, np.linalg.norm(recovered - target)
                        / np.linalg.norm(target))
        # projection of noisy inversions preserves the total
        noisy = target + rng.normal(0, 0.05, size=target.size)
        noisy += (1.0 - noisy.sum()) / noisy.size
        projected = project_nonnegative(noisy)
        worst_total = max(worst_total, abs(projected.sum() - noisy.sum()))
    report(7, "terminal correction round trip",
           worst_rel <= 1e-6 and worst_total <= 1e-12,
           f"100 (q, target) pairs, worst relative recovery error "
           f"{worst_rel:.2e} (tol 1e-6); worst projected-total drift "
           f"{worst_total:.2e} (tol 1e-12)")


def test_criterion_08_ghz_suite():
    start = time.perf_counter()
    shots = 100_000
    lines = []
    ok = True
    for b, p in [(2, 1), (3, 1), (2, 2)]:
        circuit = experiments.build_ghz_circuit(b, p)
        cx_ok = circuit.cx_count() == b * (p + 2) - 2
        f_oracle = setting_fidelity(circuit)
        cfg = {"experiment": "ghz", "parameters": {"b": b, "p": p}, "shots": shots,
               "noise": {"kind": "uniform", "m": circuit.m, "rate": 0.05}}
        raw, prom = [configmod.run_config({**cfg, "mitigation": mode, "seed": seed})
                     ["record"]["trials"][0]["derived"]
                     for mode, seed in (("none", 808), ("prom-tensored", 809))]
        f_raw, f_prom, err = raw["fidelity"], prom["fidelity"], prom["fidelity_stderr"]
        good = (cx_ok and abs(f_oracle - 1.0) <= 1e-9
                and f_raw < 0.98 and abs(f_prom - 1.0) <= 5 * err)
        ok &= good
        lines.append(f"({b},{p}): cx={circuit.cx_count()} oracleF={f_oracle:.10f} "
                     f"rawF={f_raw:.4f} promF={f_prom:.4f}+/-{err:.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300
    report(8, "ghz suite", ok,
           "; ".join(lines) + f"; runtime {elapsed:.0f}s (< 300s)")


def test_criterion_09_teleport_suite():
    start = time.perf_counter()
    shots = 100_000
    phi_x, phi_z = np.pi / 8, 3 * np.pi / 8
    ideal = {"X": np.sin(2 * phi_x) * np.sin(2 * phi_z),
             "Y": -np.sin(2 * phi_x) * np.cos(2 * phi_z),
             "Z": np.cos(2 * phi_x)}
    ok = True
    lines = []
    for k in (1, 2, 3):
        circuit = experiments.build_teleport_circuit(k, phi_x, phi_z)
        # noiseless oracle check
        delta2 = 0.0
        t = oracle.exact_trajectory_tensor(circuit)
        names = [name for setting in circuit.settings for name, _ in setting.observables]
        for b, name in enumerate(names):
            delta2 += (t.ideal(b) - ideal[name]) ** 2
        delta = np.sqrt(delta2)
        model = UniformModel(circuit.m, 0.05)
        noise = NoiseInjector(model=model)
        weights = solve_weights(model)
        devs = []
        for setting in circuit.settings:
            res = run_shots(circuit, setting, shots, noise=noise,
                            weights=weights, seed=900 + k)
            est = estimate_observables(res)[0]
            devs.append(abs(est.estimate - ideal[est.name]) / (5 * est.stderr))
        ok &= delta <= 1e-9 and max(devs) <= 1.0
        lines.append(f"k={k}: oracle delta={delta:.1e}, worst |dev|/5stderr="
                     f"{max(devs):.2f}")
    elapsed = time.perf_counter() - start
    report(9, "teleport suite", ok,
           "; ".join(lines) + f"; runtime {elapsed:.0f}s")


def test_criterion_10_repetition_baselines():
    shots = 100_000
    rate = 0.1
    cal = experiments.build_calibration_circuit(1)
    noise = NoiseInjector(model=UniformModel(1, rate))

    maj = experiments.apply_rep_strategy(cal, 3, "majority")
    res = run_shots(maj, maj.settings[0], shots, noise=noise, seed=1010)
    p_maj = res.layer_flip_counts[0][0] / res.accepted
    want_maj = rep_majority_flip_rate(rate, 3)
    sigma_maj = np.sqrt(want_maj * (1 - want_maj) / res.accepted)

    una = experiments.apply_rep_strategy(cal, 2, "unanimous")
    res = run_shots(una, una.settings[0], shots, noise=noise, seed=1011)
    p_acc = res.accepted / res.shots
    want_acc = rep_unanimous_acceptance(rate, 2)
    sigma_acc = np.sqrt(want_acc * (1 - want_acc) / shots)

    ok = (abs(p_maj - want_maj) <= 5 * sigma_maj
          and abs(p_acc - want_acc) <= 5 * sigma_acc
          and abs(want_maj - 0.028) < 1e-12 and abs(want_acc - 0.82) < 1e-12)
    report(10, "repetition baselines", ok,
           f"majority flip {p_maj:.4f} vs 0.028 (5sigma {5 * sigma_maj:.4f}); "
           f"unanimous acceptance {p_acc:.4f} vs 0.82 (5sigma {5 * sigma_acc:.4f})")


def test_criterion_11_bfa_equivalence():
    shots = 100_000
    M = np.array([[0.93, 0.12],
                  [0.07, 0.88]])
    cm = ConfusionMatrix(M)
    q = symmetrize(M)
    layer = FeedforwardLayer(measured=(0,), table=((), ()))
    setting = TerminalSetting(name="t", measured=(), observables=())
    worst_p = 1.0
    for prep, label in [((), "|0>"), ((x(0),), "|1>"), ((h(0),), "|+>")]:
        circuit = DynamicCircuit(n=1, prep=prep, layers=(layer,),
                                 settings=(setting,))
        res_a = run_shots(circuit, setting, shots,
                          noise=NoiseInjector(matrices=[cm], bfa=True), seed=1111)
        res_m = run_shots(circuit, setting, shots,
                          noise=NoiseInjector(model=GeneralModel(q)), seed=1112)
        table = np.vstack([res_a.layer_reported_counts[0],
                           res_m.layer_reported_counts[0]])
        _, p_value, _, _ = stats.chi2_contingency(table)
        worst_p = min(worst_p, p_value)
    report(11, "bit-flip averaging equivalence", worst_p > 0.001,
           f"physical twirl vs symmetrized channel on |0>,|1>,|+>: "
           f"min chi-square p = {worst_p:.3f} (> 0.001)")


def test_criterion_12_reproducibility():
    cfg = configmod.validate_config({
        "experiment": "teleport",
        "parameters": {"k": 2},
        "noise": {"kind": "uniform", "m": 4, "rate": 0.05},
        "mitigation": "prom-general",
        "shots": 30_000,
        "trials": 2,
        "seed": 42,
    })
    records = [json.dumps(configmod.run_config(cfg, workers=w)["record"],
                          sort_keys=True).encode()
               for w in (1, 4, 2)]
    ok = records[0] == records[1] == records[2]
    report(12, "reproducibility", ok,
           f"records identical across workers 1/4/2: {ok} "
           f"({len(records[0])} bytes)")
