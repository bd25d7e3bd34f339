import json
import multiprocessing
import os

import numpy as np
import pytest

from oracles import per_shot_batch, per_shot_run
from promkit import config, engine, experiments, simulator
from promkit.bits import stream
from promkit.circuits import (DynamicCircuit, FeedforwardLayer, PauliString,
                              TerminalSetting, ZeroProjector, cx, h, rx, ry, rz, s, x,
                              xor_feedback_table)
from promkit.mitigation import EstimatorAccumulator, TensoredWeights, solve_weights
from promkit.readout import (ConfusionMatrix, GeneralModel, TensoredModel, UniformModel,
                             calibrate)
from promkit.simulator import (NoiseInjector, batch_size_for, estimate_observables,
                               run_settings, run_shot, run_shots)


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
    for _ in range(50):
        rec = run_shot(c, c.settings[0], rng, noise=NoiseInjector(model=model),
                       weights=w)
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
    acc = EstimatorAccumulator(xi=w.xi)
    rng = stream(77, 0, 0)  # the single batch's stream
    for _ in range(shots):
        rec = run_shot(c, c.settings[0], rng, noise=noise, weights=w)
        acc.add(values[rec.terminal_outcome] * rec.sign)
    # same channel and estimator, independent sampling path: agreement in
    # distribution, not bitwise — compare within combined standard errors
    assert abs(acc.estimate - est.estimate) < 5 * np.hypot(acc.stderr, est.stderr)


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
    total_counts = a.counts + b.counts
    merged = a.merge(b)
    assert merged.shots == 1500
    assert merged.accepted == 1500
    assert np.array_equal(merged.counts, total_counts)


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
    _, records = simulator._run_batch(circuit, setting, 500, noise, weights, stream(4, 1),
                                      dtype, collect=True)
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
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("where", ["child", "parent"])
def test_batch_error_reraises_and_leaves_no_process(monkeypatch, where):
    # two CPUs, so that a child is forked on a one-CPU machine too
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    c, jobs, kw = two_setting_run()
    parent, real = os.getpid(), simulator._run_batch

    def failing(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise OverflowError(f"batch in the {where}")
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "_run_batch", failing)
    with pytest.raises(OverflowError, match=where):
        run_settings(c, jobs, workers=2, **kw)
    assert multiprocessing.active_children() == []


def test_without_fork_workers_run_in_process(monkeypatch):
    c, jobs, kw = two_setting_run()
    one = run_settings(c, jobs, workers=1, **kw)

    def no_pool(*args, **kwargs):
        raise AssertionError("no process pool without fork")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", no_pool)
    assert (list(map(result_bytes, run_settings(c, jobs, workers=2, **kw)))
            == list(map(result_bytes, one)))


@pytest.mark.parametrize("cpus, children", [(1, []), (2, [1]), (3, [2])])
def test_worker_count_capped_at_usable_cpus(monkeypatch, cpus, children):
    # 4000 workers on a 4-batch run: the pool gets one process fewer than the
    # usable CPUs (this process runs batches too), and none with one CPU
    sizes = []

    def pool_spy(run, tasks, size, add):  # records the pool size, forks nothing
        sizes.append(size)
        for j, b, shots in tasks:
            add(j, run.batch(j, b, shots))

    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(simulator, "_run_forked", pool_spy)
    c = reset_circuit()
    shots = 4 * batch_size_for(c.n)
    one = run_shots(c, c.settings[0], shots, seed=4)
    capped = run_shots(c, c.settings[0], shots, seed=4, workers=4000)
    assert sizes == children
    assert result_bytes(capped) == result_bytes(one)
    assert multiprocessing.active_children() == []


def test_run_settings_checks_every_job_first():
    c, jobs, kw = two_setting_run()
    with pytest.raises(ValueError, match="shots"):
        run_settings(c, [jobs[0], (jobs[1][0], 0, 5)], workers=2, **kw)
    assert multiprocessing.active_children() == []
