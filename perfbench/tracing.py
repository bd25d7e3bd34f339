"""Span tracing of promkit's layers from outside the program.

A ``Tracer`` replaces each traced function with a wrapper at every place a
caller looks it up: the attribute of its defining module, every other
promkit module (or the package) that bound the name with ``from .x import
name``, and, for methods, the class (and every subclass) that defines the
method.  Each call then records a span (name, start, end, parent, rows,
bytes, draws) in memory.  ``restore`` puts every original object back.

Spans are taken only in the calling thread's order, so the traced run must
use ``workers=1``.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Computed traffic of each engine kernel, in full passes over its state batch:
# the touched part read once and written once.  The ``apply_cx`` kernel moves
# only the half of the amplitudes whose control bit is 1; ``zero_states`` only
# writes.  These are "computed" bytes, not measured memory traffic.
KERNEL_PASSES = {
    "engine.zero_states": 1,
    "engine.apply_1q": 2,
    "engine.apply_cx": 1,
    "engine.apply_x": 2,
    "engine.measure": 2,
    "engine.apply_x_masks": 2,
}

# (span name, module, attribute) for module-level functions.
FUNCTIONS = (
    ("engine.zero_states", "engine", "zero_states"),
    ("engine.apply_1q", "engine", "apply_1q"),
    ("engine.apply_cx", "engine", "apply_cx"),
    ("engine.apply_x", "engine", "apply_x"),
    ("engine.measure", "engine", "measure"),
    ("engine.apply_x_masks", "engine", "apply_x_masks"),
    ("engine.apply_gates", "engine", "apply_gates"),
    ("simulator.run_shots", "simulator", "run_shots"),
    ("simulator.table", "simulator", "_apply_table"),
    ("simulator.estimate", "simulator", "estimate_observables"),
    ("simulator.estimate", "simulator", "aggregate_estimate"),
    ("readout.symmetrize", "readout", "symmetrize"),
    ("mitigation.solve", "mitigation", "solve_weights"),
    ("bits.fwht", "bits", "fwht"),
    ("bits.index_to_bits", "bits", "index_to_bits"),
    ("oracle.tensor", "oracle", "exact_trajectory_tensor"),
    ("config.validate", "config", "validate_config"),
    ("config.build_circuit", "config", "build_circuit"),
    ("config.build_noise", "config", "build_noise"),
    ("config.build_mitigation", "config", "build_mitigation"),
    ("experiments.settings", "experiments", "ghz_stabilizer_settings"),
    ("experiments.run_calibration", "experiments", "run_calibration"),
)

# (span name, module, base class, method): wrapped on the base class and on
# every subclass whose own ``__dict__`` defines the method.
METHODS = (
    ("readout.sample", "readout", "SyndromeModel", "sample"),
    ("readout.sample_reported", "readout", "ConfusionMatrix", "sample_reported"),
    ("mitigation.sample", "mitigation", "MitigationWeights", "sample"),
    ("mitigation.solve", "mitigation", "MitigationWeights", "__init__"),
    ("bits.alias_build", "bits", "AliasSampler", "__init__"),
    ("bits.alias_draw", "bits", "AliasSampler", "draw"),
    ("oracle.masked", "oracle", "TrajectoryTensor", "masked"),
    ("oracle.mitigated", "oracle", "TrajectoryTensor", "mitigated"),
)

# The oracle is a reference computation on single statevectors: engine calls
# inside it are part of its own time, not shot-path kernel work.
OPAQUE = frozenset({"oracle.tensor"})

# Samplers whose outermost calls count drawn values.
DRAWS = frozenset({"readout.sample", "readout.sample_reported", "mitigation.sample"})


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the root
    rows: int = 0    # engine kernels: state rows in the batch
    nbytes: int = 0  # engine kernels: computed bytes moved
    draws: int = 0   # samplers: values drawn

    @property
    def duration(self) -> float:
        return self.end - self.start


def _first_array(result):
    if isinstance(result, tuple):
        result = result[0]
    return result if isinstance(result, np.ndarray) else None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # shape and dtype of the largest state batch an engine kernel returned
        self.batch: tuple[tuple[int, ...], np.dtype] | None = None
        self.batch_bytes = 0
        self._stack: list[int] = []
        self._opaque = False

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> "Tracer":
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "promkit" or key.startswith("promkit."))]
        by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
        for name, module, attr in FUNCTIONS:
            original = getattr(by_name.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, module, base, method in METHODS:
            cls = getattr(by_name.get(module), base, None)
            if cls is None:
                self.missing.append(f"{module}.{base}.{method}")
                continue
            for klass in [cls, *_subclasses(cls)]:
                original = vars(klass).get(method)
                if original is not None:
                    self._patch(klass, method, self._wrap(original, name))
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is the original object again."""
        return all(vars(owner).get(attr) is original
                   for owner, attr, original in self.patched)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        opaque = name in OPAQUE
        passes = KERNEL_PASSES.get(name)
        draws = name in DRAWS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._opaque = opaque
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._opaque = False
                tracer._stack.pop()
                rows = nbytes = drawn = 0
                array = _first_array(result)
                if array is not None and passes is not None:
                    rows, nbytes = array.shape[0], array.nbytes * passes
                    if array.nbytes > tracer.batch_bytes:
                        tracer.batch = (array.shape, array.dtype)
                        tracer.batch_bytes = array.nbytes
                elif array is not None and draws:
                    drawn = array.size
                tracer.spans[index] = Span(name, start, end, parent, rows, nbytes, drawn)

        return traced


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- derived figures ------------------------------------------------------

@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0     # outermost spans of this name, children included
    self_time: float = 0.0
    rows: int = 0
    nbytes: int = 0
    draws: int = 0         # outermost calls only
    durations: list = field(default_factory=list)


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per-name calls, total and self time, rows, bytes and draws.

    Self time is a span's duration minus the durations of its direct child
    spans; summed over all spans it equals the duration of the root spans.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    stats: dict[str, SpanStats] = {}
    for i, span in enumerate(spans):
        st = stats.setdefault(span.name, SpanStats())
        nested = _nested_in_same_name(spans, span)
        st.calls += 1
        st.self_time += span.duration - child_time[i]
        st.rows += span.rows
        st.nbytes += span.nbytes
        st.durations.append(span.duration)
        if not nested:
            st.total += span.duration
            st.draws += span.draws
    return stats


def _nested_in_same_name(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False


def root_time(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent < 0)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
