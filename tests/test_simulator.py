import json
import multiprocessing
import os
import platform
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import branching_batch, per_shot_batch, per_shot_run
from promkit import config, engine, experiments, simulator
from promkit.bits import stream
from promkit.circuits import (DynamicCircuit, FeedforwardLayer, PauliString,
                              TerminalSetting, ZeroProjector, cx, h, rx, ry, rz, s, x,
                              xor_feedback_table)
from promkit.mitigation import TensoredWeights, solve_weights
from promkit.readout import (ConfusionMatrix, GeneralModel, TensoredModel, UniformModel,
                             calibrate)
from promkit.simulator import (NoiseInjector, RunResult, batch_size_for,
                               estimate_observables, run_settings, run_shots,
                               signed_estimate)


def reset_circuit():
    layer = FeedforwardLayer(measured=(0,), table=xor_feedback_table((0,)))
    setting = TerminalSetting(name="t", measured=(0,),
                              observables=(("zeros", ZeroProjector((0,))),))
    return DynamicCircuit(n=1, prep=(h(0),), layers=(layer,), settings=(setting,))


def test_noiseless_reset_is_exact():
    c = reset_circuit()
    res = run_shots(c, c.settings[0], 4000, seed=0)
    est = estimate_observables(res)[0]
    assert est.estimate == 1.0
    assert est.stderr == 0.0
    assert res.accepted == 4000


def constant_syndrome(*q):
    """A noise model whose syndrome is always the one-hot index ``q`` marks."""
    return NoiseInjector(model=GeneralModel(np.array(q, dtype=np.float64)))


def test_forced_syndrome_breaks_feedforward():
    c = reset_circuit()
    res = run_shots(c, c.settings[0], 500, noise=constant_syndrome(0, 1), seed=0)
    # reported bit is always wrong, so the X fires exactly when it should not
    assert estimate_observables(res)[0].estimate == 0.0


def test_mask_cancels_forced_syndrome():
    # a mask equal to the constant syndrome undoes the lookup corruption
    class ConstantMask:
        m, xi = 1, 1.0

        def sample(self, rng, size):
            return np.ones(size, dtype=np.int64), np.ones(size, dtype=np.int8)

    c = reset_circuit()
    res = run_shots(c, c.settings[0], 500, noise=constant_syndrome(0, 1),
                    weights=ConstantMask(), seed=0)
    assert estimate_observables(res)[0].estimate == 1.0


def test_shot_record_fields_consistent():
    c = reset_circuit()
    model = UniformModel(1, 0.3)
    w = solve_weights(model)
    rng = stream(123, 0, 0)
    dtype = simulator._pick_dtype(c, c.settings[0])
    for _ in range(50):
        rec = branching_batch(c, c.settings[0], 1, NoiseInjector(model=model), w, rng,
                              dtype)[1][0]
        assert rec.lookup_indices[0] == rec.reported_outcomes[0] ^ rec.mask
        assert rec.sign in (-1, 1)
        assert not rec.discarded
        assert rec.terminal_outcome in (0, 1)


def test_layer_flip_counts_track_error_rate():
    c = reset_circuit()
    res = run_shots(c, c.settings[0], 50_000,
                    noise=NoiseInjector(model=UniformModel(1, 0.2)), seed=4)
    rate = res.layer_flip_counts[0][0] / res.accepted
    assert rate == pytest.approx(0.2, abs=0.01)


def test_estimates_match_per_shot_records():
    # counts-based estimates must agree with explicit per-shot aggregation
    c = reset_circuit()
    model = GeneralModel([0.85, 0.15])
    w = solve_weights(model)
    noise = NoiseInjector(model=model)
    shots = 3000

    res = run_shots(c, c.settings[0], shots, noise=noise, weights=w, seed=77)
    est = estimate_observables(res)[0]

    values = c.settings[0].value_table()[0][1]
    rng = stream(77, 0, 0)  # the single batch's stream
    dtype = simulator._pick_dtype(c, c.settings[0])
    recs = [branching_batch(c, c.settings[0], 1, noise, w, rng, dtype)[1][0]
            for _ in range(shots)]
    o = w.xi * np.array([values[rec.terminal_outcome] * rec.sign for rec in recs])
    # same channel and estimator, independent sampling path: agreement in
    # distribution, not bitwise — compare within combined standard errors
    stderr = o.std(ddof=1) / np.sqrt(shots)
    assert abs(o.mean() - est.estimate) < 5 * np.hypot(stderr, est.stderr)


def xor_circulant(q) -> np.ndarray:
    """The channel matrix Q[s, t] = q[s ^ t], written out."""
    idx = np.arange(len(q))
    return np.asarray(q)[idx[:, None] ^ idx[None, :]]


@pytest.mark.parametrize("terminal", [False, True], ids=["raw", "terminal"])
def test_signed_estimate_matches_per_shot_expansion(terminal):
    # each counted shot expands to its signed, xi-scaled outcome xi v'[t] sign,
    # with v' = Q^{-1} v solved densely under a terminal channel
    setting = TerminalSetting(name="t", measured=(0, 1, 2),
                              observables=(("zzz", PauliString("ZZZ")),))
    values = setting.value_table()[0][1]
    rng = np.random.default_rng(21)
    counts = rng.integers(0, 40, size=(2, 8))
    xi = 1.37
    result = RunResult(setting=setting, shots=int(counts.sum()) + 9,
                       accepted=int(counts.sum()), discarded=9, signed_counts=counts,
                       layer_reported_counts=[], layer_flip_counts=[], xi=xi)
    q = None
    if terminal:
        q = np.array([0.81, 0.05, 0.04, 0.02, 0.03, 0.02, 0.02, 0.01])
        values = np.linalg.solve(xor_circulant(q), values)
    outcomes = np.concatenate([np.repeat(np.arange(8), c) for c in counts])
    signs = np.repeat([1.0, -1.0], counts.sum(axis=1))
    o = xi * values[outcomes] * signs
    estimate, stderr, variance = signed_estimate(result, setting.value_table()[0][1], q)
    assert estimate == pytest.approx(o.mean(), rel=1e-12, abs=1e-12)
    assert variance == pytest.approx(o.var(ddof=1), rel=1e-12)
    assert stderr == pytest.approx(np.sqrt(o.var(ddof=1) / o.size), rel=1e-12)
    [est] = estimate_observables(result, terminal_q=q)
    assert (est.estimate, est.stderr, est.single_shot_variance) == (estimate, stderr, variance)


def test_signed_estimate_needs_an_accepted_shot():
    setting = reset_circuit().settings[0]
    result = RunResult(setting=setting, shots=3, accepted=0, discarded=3,
                       signed_counts=np.zeros((2, 2), dtype=np.int64),
                       layer_reported_counts=[], layer_flip_counts=[])
    with pytest.raises(ValueError, match="no accepted shots"):
        signed_estimate(result, setting.value_table()[0][1])
    one = RunResult(setting=setting, shots=1, accepted=1, discarded=0,
                    signed_counts=np.array([[1, 0], [0, 0]]),
                    layer_reported_counts=[], layer_flip_counts=[])
    assert signed_estimate(one, setting.value_table()[0][1]) == (1.0, 0.0, 0.0)


GHZ_TERMINAL = {"experiment": "ghz", "parameters": {"b": 2, "p": 1},
                "noise": {"kind": "uniform", "m": 1, "rate": 0.05,
                          "terminal": {"kind": "uniform", "m": 4, "rate": 0.08}},
                "mitigation": "prom-layered", "terminal_rem": True, "shots": 4000}


def test_terminal_rem_is_unbiased_with_its_stderr_across_seeds():
    # every GHZ stabilizer reads 1; over 200 seeds each observable's mean lies
    # within 3 standard errors of 1, and its reported stderr within 15% of
    # its spread across seeds
    estimates, stderrs = [], []
    for seed in range(100, 300):
        entry = config.run_config(dict(GHZ_TERMINAL, seed=seed))["record"]["trials"][0]
        rows = [e for s in entry["settings"] for e in s["estimates"]]
        estimates.append([e["estimate"] for e in rows])
        stderrs.append([e["stderr"] for e in rows])
        assert entry["derived"]["fidelity"] == pytest.approx(np.mean(estimates[-1]),
                                                             rel=0, abs=1e-12)
    estimates, stderrs = np.array(estimates), np.array(stderrs)
    assert estimates.shape == (200, 16)
    spread = estimates.std(axis=0, ddof=1)
    assert np.all(np.abs(estimates.mean(axis=0) - 1) < 3 * spread / np.sqrt(200))
    assert np.all(np.abs(stderrs.mean(axis=0) / spread - 1) < 0.15)


def test_signed_counts_split_by_mask_sign():
    c = reset_circuit()
    model = GeneralModel([0.8, 0.2])
    w = solve_weights(model)
    res = run_shots(c, c.settings[0], 20_000, noise=NoiseInjector(model=model),
                    weights=w, seed=5)
    total = res.signed_counts.sum()
    assert total == res.accepted
    neg_fraction = res.signed_counts[1].sum() / total
    # P(negative weight) = |alpha_1| / xi = 0.2/0.8 / (xi=1/0.6... ) — just
    # check it matches the sampler's negative mass
    alpha = w.alpha()
    expect = np.abs(alpha[alpha < 0]).sum() / w.xi
    assert neg_fraction == pytest.approx(expect, abs=0.01)


def test_merge_accumulates():
    c = reset_circuit()
    a = run_shots(c, c.settings[0], 1000, seed=1)
    b = run_shots(c, c.settings[0], 500, seed=2)
    total_counts = a.signed_counts.sum(axis=0) + b.signed_counts.sum(axis=0)
    merged = a.merge(b)
    assert merged.shots == 1500
    assert merged.accepted == 1500
    assert np.array_equal(merged.signed_counts.sum(axis=0), total_counts)


def test_batch_size_for():
    assert batch_size_for(1) == simulator.MAX_BATCH
    assert batch_size_for(21) == 64          # floor
    sizes = [batch_size_for(n) for n in range(1, 22)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))  # non-increasing


def test_dtype_selection():
    c = reset_circuit()
    assert simulator._pick_dtype(c, c.settings[0]) == np.float32
    comp = DynamicCircuit(n=1, prep=(s(0),), layers=c.layers, settings=c.settings)
    assert simulator._pick_dtype(comp, c.settings[0]) == np.complex64


def test_worker_invariance():
    c = reset_circuit()
    model = TensoredModel([0.1])
    w = solve_weights(model)
    kw = dict(noise=NoiseInjector(model=model), weights=w, seed=9)
    r1 = run_shots(c, c.settings[0], 40_000, workers=1, **kw)
    r4 = run_shots(c, c.settings[0], 40_000, workers=4, **kw)
    assert np.array_equal(r1.signed_counts, r4.signed_counts)
    assert np.array_equal(r1.layer_reported_counts[0], r4.layer_reported_counts[0])
    assert r1.accepted == r4.accepted


def test_terminal_noise_and_correction():
    # terminal channel shifts the projector estimate; inversion restores it
    c = reset_circuit()
    term = GeneralModel([0.9, 0.1])
    noise = NoiseInjector(terminal=term)
    res = run_shots(c, c.settings[0], 100_000, noise=noise, seed=31)
    raw = estimate_observables(res)[0]
    assert raw.estimate == pytest.approx(0.9, abs=0.01)
    fixed = estimate_observables(res, terminal_q=term.expand())[0]
    assert fixed.estimate == pytest.approx(1.0, abs=0.01)


def test_consensus_majority():
    layer = FeedforwardLayer(measured=(0, 1), table=tuple(() for _ in range(4)),
                             repeat=3, consensus="majority")
    reports = np.array([[0b00, 0b11, 0b01],
                        [0b01, 0b10, 0b01],
                        [0b01, 0b11, 0b10]])
    cons, ok = simulator._consensus(reports, layer)
    assert cons.tolist() == [0b01, 0b11, 0b01]
    assert ok.all()


def test_consensus_unanimous():
    layer = FeedforwardLayer(measured=(0,), table=((), ()),
                             repeat=2, consensus="unanimous")
    reports = np.array([[0, 1, 1, 0],
                        [0, 1, 0, 1]])
    cons, ok = simulator._consensus(reports, layer)
    assert ok.tolist() == [True, True, False, False]
    assert cons[ok].tolist() == [0, 1]


def test_unanimous_discards_are_counted():
    c = reset_circuit()
    layer = FeedforwardLayer(measured=(0,), table=xor_feedback_table((0,)),
                             repeat=2, consensus="unanimous")
    c2 = DynamicCircuit(n=1, prep=c.prep, layers=(layer,), settings=c.settings)
    res = run_shots(c2, c2.settings[0], 50_000,
                    noise=NoiseInjector(model=UniformModel(1, 0.1)), seed=6)
    # acceptance = (1-r)^2 + r^2 = 0.82
    assert res.accepted + res.discarded == 50_000
    assert res.accepted / 50_000 == pytest.approx(0.82, abs=0.01)
    # post-selected flips: r^2 / 0.82
    rate = res.layer_flip_counts[0][0] / res.accepted
    assert rate == pytest.approx(0.01 / 0.82, abs=0.005)


def test_validation_errors():
    c = reset_circuit()
    with pytest.raises(ValueError):
        run_shots(c, c.settings[0], 0)
    with pytest.raises(ValueError):
        run_shots(c, c.settings[0], 10, noise=NoiseInjector(model=UniformModel(2, 0.1)))
    w = solve_weights(UniformModel(2, 0.1))
    with pytest.raises(ValueError):
        run_shots(c, c.settings[0], 10, weights=w)
    with pytest.raises(ValueError):
        NoiseInjector(model=UniformModel(1, 0.1), matrices=[ConfusionMatrix(np.eye(2))])
    with pytest.raises(ValueError):
        NoiseInjector(bfa=True)


def test_bfa_requires_matrix_mode():
    M = ConfusionMatrix(np.array([[0.95, 0.15], [0.05, 0.85]]))
    inj = NoiseInjector(matrices=[M], bfa=True)
    c = reset_circuit()
    res = run_shots(c, c.settings[0], 30_000, noise=inj, seed=8)
    # symmetrized channel: flips at rate 0.1 regardless of the true bit
    rate = res.layer_flip_counts[0][0] / res.accepted
    assert rate == pytest.approx(0.1, abs=0.01)


def test_state_after_the_last_layer_is_not_evolved_unless_measured(monkeypatch):
    # calibration measures every bit in its only layer and nothing after it:
    # the outcomes are drawn, but no row is collapsed, un-twirled or tabled
    m, shots = 3, 5000
    circuit = experiments.build_calibration_circuit(m)
    matrix = np.kron(np.kron([[0.97, 0.06], [0.03, 0.94]], [[0.99, 0.02], [0.01, 0.98]]),
                     [[0.95, 0.1], [0.05, 0.9]])
    noise = NoiseInjector(matrices=[ConfusionMatrix(matrix)], bfa=True)
    want = calibrate(per_shot_run(circuit, circuit.settings[0], shots, noise=noise,
                                  seed=6).layer_reported_counts[0])

    tables, collapses, twirls = [], [], []
    measure, apply_x_masks = engine.measure, engine.apply_x_masks

    def measure_spy(*args, collapse=True, **kwargs):
        collapses.append(collapse)
        return measure(*args, collapse=collapse, **kwargs)

    def apply_x_masks_spy(*args):
        twirls.append(args)
        return apply_x_masks(*args)

    monkeypatch.setattr(simulator, "_apply_table", lambda *args: tables.append(args))
    monkeypatch.setattr(engine, "measure", measure_spy)
    monkeypatch.setattr(engine, "apply_x_masks", apply_x_masks_spy)
    q_hat = experiments.run_calibration(m, shots, noise=noise, seed=6)
    assert tables == [] and collapses == [False]
    assert len(twirls) == 1  # the twirl before the measurement, not its undoing
    assert q_hat.tobytes() == want.tobytes()


def test_multi_layer_mask_split():
    # two layers, 1 bit each; constant syndrome on layer 1 only, mask on layer 1
    layer0 = FeedforwardLayer(measured=(0,), table=xor_feedback_table((0,)))
    layer1 = FeedforwardLayer(measured=(1,), table=xor_feedback_table((1,)))
    setting = TerminalSetting(name="t", measured=(0, 1),
                              observables=(("zeros", ZeroProjector((0, 1))),))
    c = DynamicCircuit(n=2, prep=(h(0), h(1)), layers=(layer0, layer1),
                       settings=(setting,))

    class FixedMask:
        m, xi = 2, 1.0

        def sample(self, rng, size):
            # mask 0b01: flips only the layer-1 lookup
            return np.full(size, 0b01, dtype=np.int64), np.ones(size, dtype=np.int8)

    res = run_shots(c, setting, 300, noise=constant_syndrome(0, 1, 0, 0),
                    weights=FixedMask(), seed=2)
    # layer 0: clean reading, mask 0 -> reset works; layer 1: syndrome 1
    # cancelled by mask bit -> reset works as well
    assert estimate_observables(res)[0].estimate == 1.0


# ---------------------------------------------------------------------------
# feedforward tables on collapsed rows

def test_reset_table_builds_full_rows_only_for_merged_states(monkeypatch):
    # one 8192-shot batch of the reset-wide benchmark config: the table runs
    # on the split rows' slices, and no full-row array has more rows than the
    # merge leaves
    plan = config.plan_config({"experiment": "reset", "parameters": {"n": 6},
                               "noise": {"kind": "uniform", "m": 6, "rate": 0.03},
                               "mitigation": "prom-general", "shots": 8192, "seed": 7})
    n = plan.circuit.n
    assert batch_size_for(n) == 8192
    full, merged, tabled = [], [], []

    def spy(fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        for a in (*args, *(out if isinstance(out, tuple) else (out,))):
            if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[1] == 1 << n:
                full.append(a.shape[0])
        return out

    for name in ("zero_states", "apply_gates", "apply_x_masks", "measure", "expand",
                 "merge_rows"):
        monkeypatch.setattr(engine, name, lambda *a, _fn=getattr(engine, name), **k:
                            spy(_fn, *a, **k))
    merge_slices, apply_table = engine.merge_slices, simulator._apply_table

    def merge_spy(*args):
        out = merge_slices(*args)
        merged.append(out[0].size)
        return out

    def table_spy(states, *rest):
        tabled.append(states.shape)
        return apply_table(states, *rest)

    monkeypatch.setattr(engine, "merge_slices", merge_spy)
    monkeypatch.setattr(simulator, "_apply_table", table_spy)
    config.run_plan(plan)
    assert len(merged) == len(tabled) == 1
    assert tabled[0][1] == 1 << (n - plan.circuit.layers[0].m)
    assert merged[0] < tabled[0][0]
    assert full and max(full) == merged[0]


def confusion(m: int) -> ConfusionMatrix:
    matrix = np.ones((1, 1))
    for j in range(m):
        up, down = 0.02 + 0.01 * j, 0.07 - 0.01 * j
        matrix = np.kron(matrix, [[1 - up, down], [up, 1 - down]])
    return ConfusionMatrix(matrix)


def table_circuit(fallback: bool) -> DynamicCircuit:
    """Two layers on four qubits.  Layer 0 measures (2, 0) and its table
    flips measured qubits and runs rz and cx on the unmeasured 1 and 3;
    ``fallback`` puts an h on measured qubit 0 into one entry."""
    entries = [(), (x(0), rz(0.7, 1)), (x(2), cx(3, 1)),
               (x(0), x(2), rz(1.9, 3), cx(1, 3), x(0))]
    if fallback:
        entries[1] = (h(0), rz(0.7, 1))
    layer0 = FeedforwardLayer(measured=(2, 0), table=tuple(entries), pre_gates=(cx(1, 2),),
                              post_gates=(h(2),))
    layer1 = FeedforwardLayer(measured=(1,), table=xor_feedback_table((1,)),
                              pre_gates=(cx(3, 1),))
    setting = TerminalSetting(name="t", measured=(0, 1, 2, 3), basis_gates=(h(3),),
                              observables=(("zzzz", PauliString("ZZZZ", (0, 1, 2, 3))),))
    prep = (h(0), ry(0.9, 1), h(2), cx(0, 3), rx(0.4, 3), cx(2, 1))
    return DynamicCircuit(n=4, prep=prep, layers=(layer0, layer1), settings=(setting,))


@pytest.mark.parametrize("bfa", [False, True])
@pytest.mark.parametrize("fallback", [False, True])
def test_both_table_forms_give_the_per_shot_records(monkeypatch, fallback, bfa):
    circuit = table_circuit(fallback)
    setting = circuit.settings[0]
    assert (simulator._compact_table(circuit.layers[0], circuit.n) is None) == fallback
    widths, apply_table = [], simulator._apply_table

    def table_spy(states, *rest):
        widths.append(states.shape[1])
        return apply_table(states, *rest)

    monkeypatch.setattr(simulator, "_apply_table", table_spy)
    noise = NoiseInjector(matrices=[confusion(2), confusion(1)], bfa=bfa)
    weights = TensoredWeights([0.05, 0.1, 0.02])
    got = run_shots(circuit, setting, 3000, noise=noise, weights=weights, seed=4)
    want = per_shot_run(circuit, setting, 3000, noise=noise, weights=weights, seed=4)
    assert result_bytes(got) == result_bytes(want)
    # layer 0 tables full rows or 2-qubit slices; layer 1 always 3-qubit slices
    assert set(widths) == {16 if fallback else 4, 8}

    dtype = simulator._pick_dtype(circuit, setting)
    _, records = branching_batch(circuit, setting, 500, noise, weights, stream(4, 1), dtype)
    assert records == per_shot_batch(circuit, setting, 500, noise, weights, stream(4, 1),
                                     dtype, collect=True)[1]


# ---------------------------------------------------------------------------
# worker processes

def two_setting_run():
    """A noisy, mitigated reset with a Z and an X-basis setting, and jobs of
    unequal shot counts that are not multiples of the batch size."""
    c = reset_circuit()
    turned = TerminalSetting(name="x", measured=(0,), basis_gates=(h(0),),
                             observables=(("zeros", ZeroProjector((0,))),))
    c = DynamicCircuit(n=1, prep=c.prep, layers=c.layers, settings=(c.settings[0], turned))
    model = TensoredModel([0.1])
    batch = batch_size_for(c.n)
    jobs = [(c.settings[0], 2 * batch + 17, 3), (turned, batch + 5000, 4)]
    kw = dict(noise=NoiseInjector(model=model), weights=solve_weights(model), seed=12)
    return c, jobs, kw


def assert_no_child_left():
    """Every forked worker has been reaped: this process has no child left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def result_bytes(result) -> tuple:
    """Every count of a result as bytes, with its dtype."""
    arrays = [result.signed_counts, *result.layer_reported_counts, *result.layer_flip_counts]
    return (result.setting, result.shots, result.accepted, result.discarded, result.xi,
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


@pytest.mark.parametrize("workers", [2, 3, 9])
def test_worker_processes_give_the_serial_records(monkeypatch, workers):
    # 3 + 2 batches: workers=9 asks for more processes than there are batches;
    # eight CPUs, so the CPU cap does not lower the count on a smaller machine
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    c, jobs, kw = two_setting_run()
    one = run_settings(c, jobs, workers=1, **kw)
    many = run_settings(c, jobs, workers=workers, **kw)
    assert [r.setting for r in many] == [setting for setting, _, _ in jobs]
    assert list(map(result_bytes, many)) == list(map(result_bytes, one))
    assert result_bytes(one[1]) == result_bytes(run_shots(c, jobs[1][0], jobs[1][1],
                                                          trial=jobs[1][2], **kw))
    assert_no_child_left()


def test_worker_claims_take_every_batch_once():
    # 3000 one-shot batches over five processes on however few cores: a lost
    # or doubled claim leaves a count other than 1 at that batch's index
    batches = 3000

    class CountingRun:
        def batch(self, j, b, size):
            counts = np.zeros((2, batches), dtype=np.int64)
            counts[0, b] = 1
            return RunResult(setting=None, shots=size, accepted=size, discarded=0,
                             signed_counts=counts, layer_reported_counts=[],
                             layer_flip_counts=[])

    results = {}

    def add(j, part):
        results[j] = results[j].merge(part) if j in results else part

    start = time.perf_counter()
    simulator._run_forked(CountingRun(), simulator._batches([(None, batches, 0)], 1), 4, add)
    assert time.perf_counter() - start < 30
    assert results[0].shots == batches
    assert (results[0].signed_counts == [[1] * batches, [0] * batches]).all()
    assert_no_child_left()


@pytest.mark.parametrize("where", ["child", "parent"])
def test_batch_error_reraises_and_leaves_no_process(monkeypatch, where):
    # two CPUs, so that a child is forked on a one-CPU machine too
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    c, jobs, kw = two_setting_run()
    parent, real = os.getpid(), simulator._run_batch

    def failing(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise OverflowError(f"batch in the {where}")
        if where == "child":
            time.sleep(0.05)  # leave the child batches to claim
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "_run_batch", failing)
    with pytest.raises(OverflowError, match=where):
        run_settings(c, jobs, workers=2, **kw)
    assert_no_child_left()


class Unbuildable(Exception):
    """Pickles, but cannot be rebuilt from its pickle (two required args)."""

    def __init__(self, what, where):
        super().__init__(f"{what} in the {where}")


def failing_in_the_child(monkeypatch, fail):
    """A two-CPU ``two_setting_run`` whose child calls ``fail`` on its first
    batch; the caller's batches sleep, so that the child surely claims one."""
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent, real = os.getpid(), simulator._run_batch

    def batch(*args, **kwargs):
        if os.getpid() != parent:
            fail()
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "_run_batch", batch)
    return two_setting_run()


def test_worker_error_that_cannot_be_rebuilt_goes_back_as_its_repr(monkeypatch):
    def fail():
        raise Unbuildable("batch", "child")

    c, jobs, kw = failing_in_the_child(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=r"Unbuildable\('batch in the child'\)"):
        run_settings(c, jobs, workers=2, **kw)
    assert_no_child_left()


def test_worker_that_dies_without_its_counts_raises(monkeypatch):
    c, jobs, kw = failing_in_the_child(monkeypatch, lambda: os._exit(7))
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="exit code 7"):
        run_settings(c, jobs, workers=2, **kw)
    assert time.perf_counter() - start < 10
    assert_no_child_left()


def test_without_fork_workers_run_in_process(monkeypatch):
    c, jobs, kw = two_setting_run()
    one = run_settings(c, jobs, workers=1, **kw)

    def no_fork():
        raise AssertionError("no fork without the fork start method")

    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(simulator.os, "fork", no_fork)
    assert (list(map(result_bytes, run_settings(c, jobs, workers=2, **kw)))
            == list(map(result_bytes, one)))


@pytest.mark.parametrize("cpus, children", [(1, []), (2, [1]), (3, [2])])
def test_worker_count_capped_at_usable_cpus(monkeypatch, cpus, children):
    # 4000 workers on a 4-batch run: one child fewer than the usable CPUs is
    # forked (this process runs batches too), and none with one CPU
    sizes = []

    def fork_spy(run, tasks, size, add):  # records the child count, forks nothing
        sizes.append(size)
        for j, b, shots in tasks:
            add(j, run.batch(j, b, shots))

    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(simulator, "_run_forked", fork_spy)
    c = reset_circuit()
    shots = 4 * batch_size_for(c.n)
    one = run_shots(c, c.settings[0], shots, seed=4)
    capped = run_shots(c, c.settings[0], shots, seed=4, workers=4000)
    assert sizes == children
    assert result_bytes(capped) == result_bytes(one)
    assert_no_child_left()


def test_run_settings_checks_every_job_first():
    c, jobs, kw = two_setting_run()
    with pytest.raises(ValueError, match="shots"):
        run_settings(c, [jobs[0], (jobs[1][0], 0, 5)], workers=2, **kw)
    assert_no_child_left()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap pad is a glibc malloc setting")
def test_batches_reuse_freed_heap_instead_of_faulting_pages_in():
    import resource  # POSIX only
    # GHZ(2, 2) with layered weights, two 16,384-shot batches per setting:
    # measure's per-shot arrays are 128 KiB each, glibc's mmap threshold.
    # Without the heap pad the heap top is trimmed after every batch and
    # grown again by the next, some 10,000 minor faults per run.
    raw = {"experiment": "ghz", "parameters": {"b": 2, "p": 2},
           "noise": {"kind": "uniform", "m": 1, "rate": 0.05},
           "mitigation": "prom-layered", "shots": 2 * 16384, "seed": 5}
    config.run_config(raw)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    config.run_config(raw)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_heap_pad_is_one_mallopt_call_where_the_c_library_has_it(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(simulator.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    simulator._pad_heap.__wrapped__()
    assert calls == [(simulator.M_TOP_PAD, 16 << 20)]
    # a C library without mallopt: nothing is set, and nothing raises
    monkeypatch.setattr(simulator.ctypes, "CDLL", lambda name: SimpleNamespace())
    simulator._pad_heap.__wrapped__()
    assert calls == [(simulator.M_TOP_PAD, 16 << 20)]
