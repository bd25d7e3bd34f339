"""Shot-based execution of dynamic circuits with injectable readout errors.

Readout errors corrupt only the classical record: the statevector collapses
on the *true* outcome, while the reported outcome (true XOR syndrome, or a
confusion-matrix sample under the asymmetric model) drives the feedforward
lookup.  ``NoiseInjector`` maps the kind of noise to the reports a layer
draws and to the symmetrized channel that mitigation weights invert.
Mitigation masks are XORed onto the reported outcome before the lookup, and
each shot carries the sign of its mask's quasiprobability weight.

Shots run in fixed-size batches; batch b of trial t draws all randomness from
an independent stream keyed by (seed, t, b), and a run's counts are integer
sums over its batches, so results are bit-identical for a given (config, seed)
no matter how batches are scheduled across workers.  ``run_settings`` takes
every (setting, shots, trial) job of a run in one call.  With one worker its
batches run in this process, in order.  With ``workers`` > 1 it forks
``workers`` - 1 processes once per call (at most one fewer than the usable
CPUs), which inherit the circuit, noise and weights instead of receiving them
pickled; this process runs its own share of the batches while they run
theirs, and they send back only counts.  Batches are generated lazily, with a
few per child in flight.  Where the ``fork`` start method does not exist,
every batch runs in this process.

Within a batch the statevector is evolved once per distinct state, not once
per shot.  Rows split after each twirl, each mid-circuit measurement and
each table lookup.  A table whose gates are X on measured qubits or touch
only unmeasured ones runs on collapsed rows (see ``engine``): the X gates and
an un-twirl XOR the slot, and the rest act on the slice; rows merge on
(slot, slice) before they expand.  Any other table expands first and merges
full rows after.  So feedforward that steers many histories to one state (a
reset, say) leaves one row for them all.  The last layer of a setting that
measures no qubit collapses no row.  Every shot draws its randomness in a
fixed order and reads its outcome against a row with the nonzero amplitudes
of a one-row-per-shot simulation, so the records are that simulation's.
"""
from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .bits import check_size, split_index, stream
from .circuits import DynamicCircuit, TerminalSetting
from .mitigation import EstimatorAccumulator, MitigationWeights, terminal_rem
from .readout import ConfusionMatrix, GeneralModel, LayeredModel, SyndromeModel

MAX_BATCH = 16384
TARGET_BATCH_ELEMENTS = 1 << 21  # ~16 MiB of complex64 amplitudes per batch


def batch_size_for(n: int) -> int:
    """Deterministic batch size: depends only on the qubit count."""
    return int(min(MAX_BATCH, max(64, TARGET_BATCH_ELEMENTS >> n)))


@dataclass
class NoiseInjector:
    """Configuration of the injected readout errors.

    At most one of the two mid-circuit mechanisms may be active:

    * ``model``     — symmetrized channel: a joint syndrome distribution over
                      all mid-circuit bits (layer slices are XORed onto the
                      reported outcomes).  Bit-flip averaging is implicit in
                      this mode (the channel is already symmetric).
    * ``matrices``  — asymmetric hardware: one confusion matrix per layer.
                      With ``bfa=True`` each measurement is sandwiched in a
                      uniformly random X-mask (applied to the state) and the
                      report is classically flipped back.

    With neither, reports are the true outcomes.  ``terminal`` optionally
    adds a symmetrized channel on the terminal measurement, the target of
    terminal readout-error correction.  The sampler calls ``draw_syndromes``
    per batch and ``reports`` per layer; weights and oracle read ``symmetrized``.
    """

    model: SyndromeModel | None = None
    matrices: list[ConfusionMatrix] | None = None
    bfa: bool = False
    terminal: SyndromeModel | None = None

    def __post_init__(self):
        if self.model is not None and self.matrices is not None:
            raise ValueError("choose one of model / matrices")
        if self.bfa and self.matrices is None:
            raise ValueError("bfa only applies to the asymmetric (matrices) mode")

    def validate_for(self, circuit: DynamicCircuit, setting: TerminalSetting) -> None:
        if self.model is not None and self.model.m != circuit.m:
            raise ValueError(f"noise model covers {self.model.m} bits, "
                             f"circuit measures {circuit.m}")
        if self.matrices is not None:
            if len(self.matrices) != len(circuit.layers):
                raise ValueError("need one confusion matrix per layer")
            for mat, layer in zip(self.matrices, circuit.layers):
                if mat.m_bits != layer.m:
                    raise ValueError("confusion matrix width mismatch")
        if self.terminal is not None and self.terminal.m != len(setting.measured):
            raise ValueError("terminal noise width mismatch")

    def symmetrized(self) -> SyndromeModel | None:
        """The symmetrized channel of the mid-circuit reports: the model, or the
        bit-flip-averaged confusion matrices, one part each; else None."""
        if not self.bfa:  # bfa implies matrices, so the model or None
            return self.model
        parts = [GeneralModel(mat.symmetrize()) for mat in self.matrices]
        return parts[0] if len(parts) == 1 else LayeredModel(parts)

    def draw_syndromes(self, circuit: DynamicCircuit, rng, size: int) -> list | None:
        """Per layer, the model's (largest repeat, size) syndromes, drawn
        before the shots; None without a model."""
        if self.model is None:
            return None
        repeat = max((layer.repeat for layer in circuit.layers), default=1)
        return split_index(np.stack([self.model.sample(rng, size) for _ in range(repeat)]),
                           circuit.layer_widths)

    def reports(self, index: int, layer, true, twirl, syndromes, rng) -> np.ndarray:
        """Layer ``index``'s (repeat, size) reports of ``true``, given the
        batch's ``draw_syndromes`` and the X-mask ``twirl`` the state was
        measured under (0 without BFA); later repetitions draw fresh twirls."""
        if self.model is not None:
            return true ^ syndromes[index][:layer.repeat]
        if self.matrices is None:
            return np.broadcast_to(true, (layer.repeat, true.size))
        out = np.empty((layer.repeat, true.size), dtype=np.int64)
        for j in range(layer.repeat):
            if j and self.bfa:
                twirl = rng.integers(0, 1 << layer.m, size=true.size)
            out[j] = self.matrices[index].sample_reported(true ^ twirl, rng) ^ twirl
        return out


@dataclass
class RunResult:
    """Aggregated outcome of a run of one terminal setting."""

    setting: TerminalSetting
    shots: int
    accepted: int
    discarded: int
    signed_counts: np.ndarray              # (2, 2**k): [mask-sign +, mask-sign -]
    layer_reported_counts: list[np.ndarray]  # per layer, consensus reports (accepted shots)
    layer_flip_counts: list[np.ndarray]      # per layer, per-bit consensus != true (accepted)
    xi: float = 1.0

    def merge(self, other: "RunResult") -> "RunResult":
        self.shots += other.shots
        self.accepted += other.accepted
        self.discarded += other.discarded
        self.signed_counts += other.signed_counts
        for mine, theirs in zip(self.layer_reported_counts, other.layer_reported_counts):
            mine += theirs
        for mine, theirs in zip(self.layer_flip_counts, other.layer_flip_counts):
            mine += theirs
        return self

    @property
    def counts(self) -> np.ndarray:
        """Plain histogram of terminal outcomes (signs ignored)."""
        return self.signed_counts.sum(axis=0)


@dataclass
class ShotRecord:
    """Full classical record of a single shot (unit-test hook)."""

    true_outcomes: list[int]
    reported_outcomes: list[int]
    lookup_indices: list[int]
    mask: int
    sign: int
    discarded: bool
    terminal_outcome: int | None


@dataclass
class ObservableEstimate:
    name: str
    estimate: float
    stderr: float
    xi: float
    accepted: int
    discarded: int
    single_shot_variance: float


def _pick_dtype(circuit: DynamicCircuit, setting: TerminalSetting):
    real = circuit.is_real() and all(g.is_real for g in setting.basis_gates)
    return np.float32 if real else np.complex64


def _apply_table(states, table, lookup, n):
    for v in np.unique(lookup):
        gates = table[int(v)]
        if not gates:
            continue
        sel = lookup == v
        states[sel] = engine.apply_gates(states[sel], gates, n)
    return states


def _compact_table(layer, n: int):
    """(xor, entries) if every table gate is an X on a measured qubit or acts
    on unmeasured ones only, else None: ``xor[v]`` XORs entry v's X gates onto
    the slot, and ``entries[v]`` holds its other gates on the slice's qubits."""
    bit = {q: 1 << (layer.m - 1 - j) for j, q in enumerate(layer.measured)}
    rest = {q: i for i, q in enumerate(q for q in range(n) if q not in bit)}
    xor = np.zeros(len(layer.table), dtype=np.int64)
    entries = []
    for v, gates in enumerate(layer.table):
        others = []
        for g in gates:
            if g.name == "x" and g.qubits[0] in bit:
                xor[v] ^= bit[g.qubits[0]]
            elif all(q in rest for q in g.qubits):
                others.append(replace(g, qubits=tuple(rest[q] for q in g.qubits)))
            else:
                return None
        entries.append(tuple(others))
    return xor, tuple(entries)


def _compile(circuit: DynamicCircuit) -> tuple:
    return tuple(_compact_table(layer, circuit.n) for layer in circuit.layers)


def _consensus(reports: np.ndarray, layer) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit consensus across QND repetitions.

    Returns (consensus outcome, accepted mask).  ``reports`` is (repeat, batch).
    """
    if layer.repeat == 1:
        return reports[0], np.ones(reports.shape[1], dtype=bool)
    if layer.consensus == "unanimous":
        # every bit agrees across the repetitions iff every report does
        return reports[0], (reports == reports[0]).all(axis=0)
    consensus = np.zeros(reports.shape[1], dtype=np.int64)
    for j in range(layer.m):
        bit = 1 << j
        ones = np.count_nonzero(reports & bit, axis=0)
        consensus[2 * ones > layer.repeat] |= bit
    return consensus, np.ones(reports.shape[1], dtype=bool)


def _run_batch(circuit: DynamicCircuit, setting: TerminalSetting, size: int,
               noise: NoiseInjector | None, weights: MitigationWeights | None,
               rng: np.random.Generator, dtype, collect: bool = False, tables=None):
    """Run one batch of ``size`` shots.

    ``states`` holds one row per distinct state and ``branch[i]`` is shot
    i's row; ``tables`` is ``_compile(circuit)``, made here if not given.
    """
    n = circuit.n
    noise = NoiseInjector() if noise is None else noise
    tables = _compile(circuit) if tables is None else tables

    # all classical randomness that can be presampled is drawn up front in a
    # fixed order, so the draw sequence does not depend on outcomes
    syndromes = noise.draw_syndromes(circuit, rng, size)
    if weights is not None:
        masks, signs = weights.sample(rng, size)
    else:
        masks = np.zeros(size, dtype=np.int64)
        signs = np.ones(size, dtype=np.int8)
    mask_parts = split_index(masks, circuit.layer_widths)

    states = engine.zero_states(1, n, dtype=dtype)
    states = engine.apply_gates(states, circuit.prep, n)
    branch = np.zeros(size, dtype=np.int64)

    accepted = np.ones(size, dtype=bool)
    trues, reporteds, lookups = [], [], []
    last = len(circuit.layers) - 1
    for li, layer in enumerate(circuit.layers):
        # the state after the last layer is read only by a terminal measurement
        live = li < last or bool(setting.measured)
        states = engine.apply_gates(states, layer.pre_gates, n)

        twirl = 0
        if noise.bfa:
            twirl = rng.integers(0, 1 << layer.m, size=size)
            branch, parent, row_twirl = engine.split(branch, twirl, layer.m)
            states = engine.apply_x_masks(states[parent], layer.measured, row_twirl, n)
        (slots, slices), true, branch = engine.measure(states, layer.measured, n, rng,
                                                       rows=branch, collapse=live)
        if noise.bfa:
            true = true ^ twirl
            if live:  # un-twirl: a row's slot becomes its shots' true outcome
                slots[branch] = true

        reports = noise.reports(li, layer, true, twirl, syndromes, rng)
        consensus, layer_ok = _consensus(reports, layer)
        accepted &= layer_ok
        lookup = consensus ^ mask_parts[li]
        if live:
            branch, parent, row_lookup = engine.split(branch, lookup, layer.m)
            if tables[li] is None:
                states = engine.expand(slots[parent], slices[parent], layer.measured, n)
                states = _apply_table(states, layer.table, row_lookup, n)
                states, branch = engine.merge_rows(states, branch)
            else:
                xor, entries = tables[li]  # on collapsed rows; merged rows expand
                slices = _apply_table(slices[parent], entries, row_lookup, n - layer.m)
                slots, slices, branch = engine.merge_slices(slots[parent] ^ xor[row_lookup],
                                                            slices, branch)
                states = engine.expand(slots, slices, layer.measured, n)
            states = engine.apply_gates(states, layer.post_gates, n)

        trues.append(true)
        reporteds.append(consensus)
        lookups.append(lookup)

    if setting.measured:
        states = engine.apply_gates(states, setting.basis_gates, n)
        _, term, _ = engine.measure(states, setting.measured, n, rng, rows=branch,
                                    collapse=False)
        if noise.terminal is not None:
            term = term ^ noise.terminal.sample(rng, size)
    else:
        term = np.zeros(size, dtype=np.int64)

    k_term = len(setting.measured)
    counts = np.zeros((2, 1 << k_term), dtype=np.int64)
    pos = accepted & (signs > 0)
    neg = accepted & (signs < 0)
    counts[0] = np.bincount(term[pos], minlength=1 << k_term)
    counts[1] = np.bincount(term[neg], minlength=1 << k_term)

    rep_counts, flip_counts = [], []
    for li, layer in enumerate(circuit.layers):
        reported = reporteds[li][accepted]
        rep_counts.append(np.bincount(reported, minlength=1 << layer.m))
        flips = trues[li][accepted] ^ reported
        # bit 0 is the most significant bit of the outcome
        flip_counts.append(np.array([np.count_nonzero(flips & (1 << (layer.m - 1 - j)))
                                     for j in range(layer.m)], dtype=np.int64))

    result = RunResult(setting=setting, shots=size, accepted=int(accepted.sum()),
                       discarded=int(size - accepted.sum()), signed_counts=counts,
                       layer_reported_counts=rep_counts, layer_flip_counts=flip_counts,
                       xi=weights.xi if weights is not None else 1.0)
    if not collect:
        return result
    records = [ShotRecord(true_outcomes=[int(t[i]) for t in trues],
                          reported_outcomes=[int(r[i]) for r in reporteds],
                          lookup_indices=[int(l[i]) for l in lookups],
                          mask=int(masks[i]), sign=int(signs[i]),
                          discarded=not bool(accepted[i]),
                          terminal_outcome=int(term[i]) if setting.measured else None)
               for i in range(size)]
    return result, records


Job = tuple[TerminalSetting, int, int]  # (setting, shots, trial)


@dataclass(frozen=True)
class _Run:
    """Everything a batch of a ``run_settings`` call reads besides its index."""

    circuit: DynamicCircuit
    jobs: tuple[Job, ...]
    noise: NoiseInjector | None
    weights: MitigationWeights | None
    seed: int
    dtypes: tuple
    tables: tuple  # the layers' _compile forms

    def batch(self, j: int, b: int, size: int) -> RunResult:
        setting, _, trial = self.jobs[j]
        return _run_batch(self.circuit, setting, size, self.noise, self.weights,
                          stream(self.seed, trial, b), self.dtypes[j], tables=self.tables)


# the run of a forked child, set by _init_child in the child only
_child_run: _Run | None = None


def _init_child(run: _Run) -> None:
    global _child_run
    _child_run = run


def _child_batch(j: int, b: int, size: int) -> tuple[int, RunResult]:
    result = _child_run.batch(j, b, size)
    result.setting = None  # the parent has it; only counts go back
    return j, result


def _batches(jobs, batch: int):
    """(job, batch index, shots) of every batch of every job, lazily."""
    for j, (_, shots, _) in enumerate(jobs):
        for b, start in enumerate(range(0, shots, batch)):
            yield j, b, min(batch, shots - start)


def _run_forked(run: _Run, tasks, children: int, add) -> None:
    """Run ``tasks`` across ``children`` forked processes and this one.

    Each child keeps about two batches in flight; this process runs the next
    batch itself whenever they have enough, and hands ``add`` every result.
    """
    pool = ProcessPoolExecutor(children, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_child, initargs=(run,))
    pending = set()
    try:
        for j, b, size in tasks:
            if len(pending) < 2 * children:
                pending.add(pool.submit(_child_batch, j, b, size))
                continue
            add(j, run.batch(j, b, size))
            done = {future for future in pending if future.done()}
            pending -= done
            for future in done:
                add(*future.result())
        for future in wait(pending).done:
            add(*future.result())
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_settings(circuit: DynamicCircuit, jobs: list[Job], *,
                 noise: NoiseInjector | None = None,
                 weights: MitigationWeights | None = None,
                 seed: int = 0, workers: int = 1) -> list[RunResult]:
    """Run every ``(setting, shots, trial)`` job; one aggregated result per job.

    With ``workers`` > 1, up to ``workers`` - 1 forked processes, and no more
    than the usable CPUs less one, share the batches with this one (see the
    module docstring); the results do not depend on ``workers``.
    """
    jobs = tuple(jobs)
    for setting, shots, _ in jobs:
        if shots < 1:
            raise ValueError("shots must be positive")
        if noise is not None:
            noise.validate_for(circuit, setting)
    if weights is not None and weights.m != circuit.m:
        raise ValueError(f"weights cover {weights.m} bits, circuit measures {circuit.m}")
    run = _Run(circuit, jobs, noise, weights, seed,
               tuple(_pick_dtype(circuit, setting) for setting, _, _ in jobs), _compile(circuit))

    batch = batch_size_for(circuit.n)
    # each QND repetition holds a batch of reports, and of model syndromes
    repeat = max((layer.repeat for layer in circuit.layers), default=1)
    if repeat > 1:
        check_size((repeat * batch - 1).bit_length(), "QND repetitions x batch")
    results: list[RunResult | None] = [None] * len(jobs)

    def add(j: int, part: RunResult) -> None:
        results[j] = part if results[j] is None else results[j].merge(part)

    tasks = _batches(jobs, batch)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    children = min(workers, cpus, sum(-(-shots // batch) for _, shots, _ in jobs)) - 1
    if children > 0 and "fork" in multiprocessing.get_all_start_methods():
        _run_forked(run, tasks, children, add)
    else:
        for j, b, size in tasks:
            add(j, run.batch(j, b, size))
    for result, (setting, _, _) in zip(results, jobs):
        result.setting = setting
    return results


def run_shots(circuit: DynamicCircuit, setting: TerminalSetting, shots: int, *,
              noise: NoiseInjector | None = None,
              weights: MitigationWeights | None = None,
              seed: int = 0, trial: int = 0, workers: int = 1) -> RunResult:
    """Run ``shots`` shots of one terminal setting and aggregate the counts:
    ``run_settings`` with one job."""
    return run_settings(circuit, [(setting, shots, trial)], noise=noise, weights=weights,
                        seed=seed, workers=workers)[0]


def run_shot(circuit: DynamicCircuit, setting: TerminalSetting,
             rng: np.random.Generator, *, noise: NoiseInjector | None = None,
             weights: MitigationWeights | None = None) -> ShotRecord:
    """Single-shot path returning the full classical record."""
    if noise is not None:
        noise.validate_for(circuit, setting)
    _, records = _run_batch(circuit, setting, 1, noise, weights, rng,
                            _pick_dtype(circuit, setting), collect=True)
    return records[0]


def _signed_moments(result: RunResult, values: np.ndarray, plus: np.ndarray,
                    minus: np.ndarray) -> EstimatorAccumulator:
    """Moments of the signed single-shot outcomes values[t] * sign, from the
    per-sign terminal histograms."""
    acc = EstimatorAccumulator(xi=result.xi)
    acc.add_moments(result.accepted, float(values @ (plus - minus)),
                    float((values * values) @ (plus + minus)), result.discarded)
    return acc


def estimate_observables(result: RunResult, terminal_q: np.ndarray | None = None,
                         ) -> list[ObservableEstimate]:
    """Turn a run's signed counts into per-observable estimates.

    If ``terminal_q`` is given, the terminal readout channel is inverted on
    the (per-sign) count histograms before evaluation.
    """
    plus, minus = result.signed_counts.astype(np.float64)
    if terminal_q is not None:
        plus = terminal_rem(plus, terminal_q)
        minus = terminal_rem(minus, terminal_q)
    out = []
    for name, values in result.setting.value_table():
        acc = _signed_moments(result, values, plus, minus)
        out.append(ObservableEstimate(
            name=name, estimate=acc.estimate, stderr=acc.stderr, xi=result.xi,
            accepted=result.accepted, discarded=result.discarded,
            single_shot_variance=acc.single_shot_variance))
    return out


def aggregate_estimate(results: list[RunResult], scale: float = 1.0) -> tuple[float, float]:
    """scale times the sum of every observable over independent settings.

    Used e.g. for stabilizer fidelities.  Observables sharing a setting are
    read from the same shots, so their per-shot sum is estimated as one
    quantity; the settings' standard errors combine in quadrature.
    """
    total, var = 0.0, 0.0
    for result in results:
        values = np.sum([vals for _, vals in result.setting.value_table()], axis=0)
        acc = _signed_moments(result, values, *result.signed_counts.astype(np.float64))
        total += acc.estimate
        var += acc.stderr ** 2
    return scale * total, scale * float(np.sqrt(var))
