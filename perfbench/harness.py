"""Runs one workload and turns its timings, checks and trace into metrics.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload once untraced and twice traced at ``workers=1``; the
per-layer metrics come from the traced runs, whose exact counts must agree.
"""
from __future__ import annotations

import gc
import hashlib
import itertools
import os
import platform
import resource
import statistics
import subprocess
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from promkit import config as configmod
from tracing import KERNEL_PASSES, Tracer, layer_of, root_time, summarize
from workloads import WORKLOADS

SETUP_BLOCK = 25          # set-up takes milliseconds: time it many times, report the median
COPY_REPS = 31
PER_CALL_MIN = 100        # spans with at least this many calls report p50 / p90

END_TO_END = (
    ("shots_per_s", "shots/s"),
    ("shots_per_s.w2", "shots/s"),
    ("effective_shots_per_s", "shots/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

KERNELS = tuple(name.split(".", 1)[1] for name in KERNEL_PASSES)
LAYERS = ("engine", "simulator", "readout", "mitigation", "bits", "oracle",
          "config", "experiments")
# Spans reported as ".s" (self time) and ".calls"; the two marked True
# report their total time instead, children included.
SPANS = (
    *((f"engine.{k}", False) for k in KERNELS),
    ("engine.apply_gates", False),
    ("simulator.run_shots", True),
    ("simulator.table", True),
    ("simulator.estimate", False),
    ("readout.sample", False),
    ("readout.sample_reported", False),
    ("readout.symmetrize", False),
    ("mitigation.sample", False),
    ("mitigation.solve", False),
    ("bits.alias_build", False),
    ("bits.alias_draw", False),
    ("bits.fwht", False),
    ("bits.index_to_bits", False),
    ("oracle.tensor", False),
    ("oracle.masked", False),
    ("oracle.mitigated", False),
    ("config.validate", False),
    ("config.build_circuit", False),
    ("config.build_noise", False),
    ("config.build_mitigation", False),
    ("experiments.settings", False),
    ("experiments.run_calibration", False),
)
# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = ("engine.rows", *(f"engine.{k}.calls" for k in KERNELS),
                "engine.apply_gates.calls", "simulator.run_shots.calls",
                "readout.draws", "mitigation.draws")


def per_layer_units() -> list[tuple[str, str]]:
    out = []
    for name, _ in SPANS:
        out += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
    out += [(f"engine.{k}.gbps", "GB/s") for k in KERNELS]
    out += [("engine.copy_floor.gbps", "GB/s"), ("engine.rows", "count"),
            ("readout.draws", "count"), ("mitigation.draws", "count")]
    out += [(f"{layer}.self.s", "s") for layer in LAYERS]
    out += [("trace.wall.s", "s"), ("trace.uncovered.s", "s"),
            ("trace.shots_per_s.untraced", "shots/s"),
            ("trace.shots_per_s.traced", "shots/s"), ("trace.overhead_pct", "%")]
    return out


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operations(self, checks: dict, differs=frozenset(), context: str = "") -> None:
        for label, problem in checks.items():
            self.attempted += 1
            if label in differs:
                problem = "; ".join(filter(None, [problem, context]))
            if problem:
                self.failed += 1
                self.problems.append(f"{label}: {problem}")

    def crash(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: {traceback.format_exc(limit=3)}")

    def invariant(self, problem: str) -> None:
        """A failed check of the benchmark's own invariants (not an operation)."""
        self.problems.append(problem)


def _timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return perf_counter() - start, out


def _compare(workload, tally: Tally, ref, out, other, what: str) -> None:
    try:
        checks = workload.check(out, ref)
    except Exception:  # output the checks cannot read fails every operation
        reason = traceback.format_exc(limit=2)
        checks = {label: f"unreadable output: {reason}" for label in out.operations}
    differs = {label for label, text in out.operations.items()
               if other.operations.get(label) != text}
    if out.identity != other.identity and not differs:
        differs = set(checks)
    tally.operations(checks, differs, f"output differs from the {what} output")


def end_to_end(name: str, raw: dict, seconds: float, workdir: Path) -> tuple[dict, dict, Tally]:
    """Alternating workers=1 and workers=2 runs of the user path while the
    next one fits in ``seconds``, with a block of set-up timings before the
    first run and after each run, so that set-up samples the whole window.
    Every output is checked against the exact reference, and must equal the
    first workers=1 output byte for byte."""
    workload = WORKLOADS[name]
    tally = Tally()
    cfg = configmod.validate_config(raw)
    ref = workload.reference(workload.reference_input(cfg, workdir))
    setup = []

    def setup_block() -> None:
        setup.extend(_timed(workload.setup, raw)[0] for _ in range(SETUP_BLOCK))

    begin = perf_counter()
    deadline = begin + seconds
    setup_block()
    rates = {1: [], 2: []}
    effective = []
    step_s = {}
    first = None
    for workers in itertools.cycle((1, 2)):
        step_start = perf_counter()
        if workers in step_s and step_start + step_s[workers] > deadline:
            break
        prepared = workload.prepare(cfg)
        gc.collect()
        try:
            dt, out = _timed(workload.execute, prepared, workers)
        except Exception:  # a crash is a failed operation; keep measuring
            tally.crash(f"workers={workers} run")
            out = None
        if out is not None:
            rates[workers].append(out.shots / dt)
            if workers == 1:
                effective.append(out.effective_shots / dt)
            first = first or out
            _compare(workload, tally, ref, out, first, "first workers=1")
        setup_block()
        step_s[workers] = perf_counter() - step_start
    if not rates[1] or not rates[2]:
        raise RuntimeError("no run of the user path completed: " + "; ".join(tally.problems))

    metrics = {
        "shots_per_s": statistics.median(rates[1]),
        "shots_per_s.w2": statistics.median(rates[2]),
        "effective_shots_per_s": statistics.median(effective),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"measured_s": perf_counter() - begin, "shots_per_run": first.shots,
              "samples": {"shots_per_s": rates[1], "shots_per_s.w2": rates[2],
                          "setup_s": setup}}
    return {key: (metrics[key], unit) for key, unit in END_TO_END}, detail, tally


def per_layer(name: str, raw: dict, workdir: Path) -> tuple[dict, dict, Tally, list]:
    workload = WORKLOADS[name]
    tally = Tally()
    cfg = configmod.validate_config(raw)
    ref_input = workload.reference_input(cfg, workdir)
    ref = workload.reference(ref_input)
    untraced_s, base = _timed(workload.execute, workload.prepare(cfg), 1)
    _compare(workload, tally, ref, base, base, "untraced")

    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            t0 = perf_counter()
            workload.setup(raw)
            prepared = workload.prepare(cfg)
            t1 = perf_counter()
            out = workload.execute(prepared, 1)
            t2 = perf_counter()
            traced_ref = workload.reference(ref_input)
            t3 = perf_counter()
        if not tracer.restored():
            tally.invariant("a traced attribute was not restored")
        if not workload.same_reference(traced_ref, ref):
            tally.invariant("the traced reference differs from the untraced one")
        _compare(workload, tally, ref, out, base, "untraced")
        runs.append((tracer, t3 - t0, out.shots / (t2 - t1)))

    reports = [_layer_report(tracer, wall) for tracer, wall, _ in runs]
    counts = [{key: rep[key] for key in EXACT_COUNTS} for rep in reports]
    if counts[0] != counts[1]:
        tally.invariant(f"exact counts differ between traced runs: {counts}")

    metrics = {}
    for key, _ in per_layer_units():
        if key in EXACT_COUNTS or key.endswith(".calls"):
            metrics[key] = reports[0][key]
        elif key in reports[0]:
            metrics[key] = statistics.fmean(rep[key] for rep in reports)
    tracer = runs[0][0]
    floor = copy_floor(*tracer.batch) if tracer.batch else None
    metrics["engine.copy_floor.gbps"] = floor["gbps"] if floor else 0.0
    untraced = base.shots / untraced_s
    traced = statistics.fmean(rate for _, _, rate in runs)
    metrics["trace.shots_per_s.untraced"] = untraced
    metrics["trace.shots_per_s.traced"] = traced
    metrics["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0)

    stats = summarize(tracer.spans)
    detail = {
        "per_call": {key: {"n": st.calls,
                           "p50_ms": 1e3 * float(np.percentile(st.durations, 50)),
                           "p90_ms": 1e3 * float(np.percentile(st.durations, 90))}
                     for key, st in sorted(stats.items()) if st.calls >= PER_CALL_MIN},
        "layer_share_of_wall": _shares(metrics),
        "kernel_context": _kernel_context(stats, floor),
        "exact_counts_repeat": counts[0] == counts[1],
        "wrapped_attributes": len(tracer.patched),
        # A traced name the program no longer has reads 0 calls, and is listed here.
        "missing_entry_points": tracer.missing,
    }
    units = dict(per_layer_units())
    return {key: (metrics[key], units[key]) for key in units}, detail, tally, runs


def _shares(metrics: dict) -> dict:
    wall = metrics["trace.wall.s"]
    shares = {layer: metrics[f"{layer}.self.s"] / wall for layer in LAYERS}
    shares["uncovered"] = metrics["trace.uncovered.s"] / wall
    return shares


def _layer_report(tracer: Tracer, wall: float) -> dict:
    stats = summarize(tracer.spans)
    report = {}
    for name, total in SPANS:
        st = stats.get(name)
        report[f"{name}.calls"] = st.calls if st else 0
        report[f"{name}.s"] = (st.total if total else st.self_time) if st else 0.0
    for k in KERNELS:
        st = stats.get(f"engine.{k}")
        report[f"engine.{k}.gbps"] = st.nbytes / st.self_time / 1e9 if st else 0.0
    report["engine.rows"] = sum(stats[f"engine.{k}"].rows
                                for k in KERNELS if f"engine.{k}" in stats)
    for layer in ("readout", "mitigation"):
        report[f"{layer}.draws"] = sum(st.draws for key, st in stats.items()
                                       if layer_of(key) == layer)
    for layer in LAYERS:
        report[f"{layer}.self.s"] = sum(st.self_time for key, st in stats.items()
                                        if layer_of(key) == layer)
    report["trace.wall.s"] = wall
    report["trace.uncovered.s"] = wall - root_time(tracer.spans)
    return report


def copy_floor(shape, dtype) -> dict:
    """``ndarray.copy`` of one state batch: an in-cache bandwidth floor."""
    batch = np.ones(shape, dtype=dtype)
    times = []
    for _ in range(COPY_REPS):
        start = perf_counter()
        copied = batch.copy()
        times.append(perf_counter() - start)
        del copied
    seconds = statistics.median(times)
    return {"shape": list(shape), "dtype": str(np.dtype(dtype)),
            "mib": batch.nbytes / 2 ** 20, "seconds": seconds,
            "gbps": 2 * batch.nbytes / seconds / 1e9}


def _kernel_context(stats, floor) -> dict:
    kernels = {k: {"passes": KERNEL_PASSES[f"engine.{k}"], "rows": st.rows,
                   "computed_bytes": st.nbytes}
               for k in KERNELS if (st := stats.get(f"engine.{k}"))}
    caches = cache_sizes()
    llc = max(caches.items(), key=lambda item: item[0], default=(None, None))
    fits = floor is not None and llc[1] is not None and floor["mib"] * 2 ** 20 < _bytes(llc[1])
    return {"bytes": "computed: rows x 2^n x itemsize x passes (one read and one "
                     "write of the touched part), not measured traffic",
            "batch": floor, "caches": caches,
            "copy_floor": f"an {'in-cache' if fits else 'out-of-cache'} figure: the "
                          f"batch {'fits in' if fits else 'exceeds'} the {llc[0]} "
                          f"cache ({llc[1]})" if floor else None,
            "kernels": kernels}


def _bytes(size: str) -> int:
    units = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


# -- environment -----------------------------------------------------------

def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _source(root: Path) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def environment(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "caches": cache_sizes(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas(),
        "git_commit": _git_commit(root), **_source(root),
    }


# -- entry point -----------------------------------------------------------

def run_benchmark(name: str, seed: int, seconds: float, trace: int, root: Path,
                  shots: int | None = None) -> tuple[dict, dict, dict, list]:
    """Returns (environment, detail, result, spans of the first traced run)."""
    workload = WORKLOADS[name]
    workdir = root / "perfbench" / "out"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(root, name, seed, seconds, trace)
    raw = workload.config(seed, shots)
    spans = []
    if trace:
        metrics, detail, tally, runs = per_layer(name, raw, workdir)
        spans = runs[0][0].spans
    else:
        metrics, detail, tally = end_to_end(name, raw, seconds, workdir)
    detail["problems"] = tally.problems
    result = {"correct": tally.failed == 0 and not tally.problems,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    return env, detail, result, spans
