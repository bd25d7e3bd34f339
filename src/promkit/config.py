"""JSON run configuration and result records.

A config names an experiment, its parameters, the injected readout noise,
the mitigation mode, and the shot plan.  Records echo the config and carry
per-observable estimates; re-running the same config + seed reproduces the
``record`` object byte for byte (wall time lives outside it).
"""
from __future__ import annotations

import contextlib
import csv
import inspect
import json
import math
import numbers
import os
import time
from array import array
from dataclasses import dataclass

import numpy as np

from . import experiments
from .bits import check_size
from .circuits import (DynamicCircuit, FeedforwardLayer, Gate, PauliString,
                       TerminalSetting, ZeroProjector, cx, h, rx, ry, rz, s,
                       sdg, x, y, z)
from .mitigation import (ChannelInverse, GeneralWeights, MitigationWeights,
                         TensoredWeights, solve_weights)
from .readout import (ConfusionMatrix, GeneralModel, LayeredModel,
                      SyndromeModel, TensoredModel, UniformModel)
from .simulator import (NoiseInjector, aggregate_estimate, estimate_observables,
                        run_settings)


class ConfigError(ValueError):
    """The configuration violates the schema."""


_DEFAULTS = {"parameters": {}, "noise": None, "mitigation": "none",
             "terminal_rem": False, "shots": 10000, "trials": 1, "seed": 0,
             "out": None}
_TOP_KEYS = set(_DEFAULTS) | {"experiment"}


def read_json(path, what: str):
    """The JSON document at ``path``; ``what`` names it in the error."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"{what} path must be a string, got {path!r}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _known(obj, keys, what: str) -> dict:
    """``obj``, a JSON object that holds no key outside ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object, got {obj!r}")
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return obj


@dataclass(frozen=True)
class RunPlan:
    """A checked config with the circuit (before mitigation) and the noise
    it runs: what ``plan_config`` builds once for every command."""

    cfg: dict
    circuit: DynamicCircuit
    noise: NoiseInjector | None


def plan_config(raw: dict) -> RunPlan:
    """Check ``raw`` and build its circuit and noise; every config check
    lives here, so errors surface before any shots run."""
    _known(raw, _TOP_KEYS, "config")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment'")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    if not isinstance(cfg["experiment"], str):
        raise ConfigError("'experiment' must be a string")
    if not isinstance(cfg["parameters"], dict):
        raise ConfigError("'parameters' must be an object")
    for key in ("shots", "trials", "seed"):
        if not isinstance(cfg[key], int) or isinstance(cfg[key], bool) or cfg[key] < 0:
            raise ConfigError(f"'{key}' must be a non-negative integer")
    if cfg["shots"] < 1 or cfg["trials"] < 1:
        raise ConfigError("'shots' and 'trials' must be at least 1")
    if not isinstance(cfg["terminal_rem"], bool):
        raise ConfigError("'terminal_rem' must be true or false")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError("'out' must be a path string")
    circuit = build_circuit(cfg["experiment"], cfg["parameters"])
    noise = build_noise(cfg["noise"])
    if noise is not None:
        try:
            for setting in circuit.settings:
                noise.validate_for(circuit, setting)
        except ValueError as exc:
            raise ConfigError(f"noise does not fit '{cfg['experiment']}': {exc}") from exc
    _validate_mitigation(cfg["mitigation"])
    if not circuit.settings:
        raise ConfigError(f"experiment '{cfg['experiment']}' defines no "
                          "terminal settings to estimate")
    # run_plan holds one job per (trial, setting), and its result holds a
    # (2, 2**k) count table over the setting's k terminal bits
    outcomes = cfg["trials"] * sum(1 << len(setting.measured) for setting in circuit.settings)
    check_size((outcomes - 1).bit_length(), "trials x settings x terminal outcomes")
    if cfg["terminal_rem"] and (noise is None or noise.terminal is None):
        raise ConfigError("terminal_rem needs noise with a 'terminal' channel")
    return RunPlan(cfg, circuit, noise)


def validate_config(raw: dict) -> dict:
    return plan_config(raw).cfg


# ---------------------------------------------------------------------------
# circuits

def _integer(value, what: str) -> int:
    """``value`` as an int: an integer, or a float with no fractional part."""
    if (isinstance(value, bool) or not isinstance(value, (numbers.Integral, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _integers(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list of integers, got {values!r}")
    return tuple(_integer(v, what) for v in values)


def _real(value, what: str) -> float:
    """``value`` as a float: a finite integer or float, not a bool."""
    if not isinstance(value, bool) and isinstance(value, (numbers.Integral, float)):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if math.isfinite(value):
                return float(value)
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _reals(values, what: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list of numbers, got {values!r}")
    return [_real(v, what) for v in values]


def _real_table(values, what: str, ndim: int) -> np.ndarray:
    """``values``, a list (``ndim`` 1) or a list of equal-length lists
    (``ndim`` 2) of finite numbers that are not bools, as a float64 array.

    ``array.fromlist`` reads the rows at C speed and refuses any entry that
    is not a real number, and then ``_real`` names it.  It reads a bool as 0
    or 1, so only the rows that hold an exact 0 or 1 have the types of their
    entries looked at one by one.
    """
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list, got {values!r}")
    rows = values if ndim == 2 else [values]
    flat = array("d")
    try:
        for row in rows:
            flat.fromlist(row)
    except (TypeError, OverflowError):
        for row in rows:
            _reals(row, what)
        raise
    if len(set(map(len, rows))) > 1:
        raise ConfigError(f"{what} must have rows of equal length")
    table = np.frombuffer(flat).reshape(len(rows), -1)
    if not np.isfinite(table).all():
        for row in rows:
            _reals(row, what)
    for i in np.flatnonzero(((table == 0) | (table == 1)).any(axis=1)).tolist():
        if bool in set(map(type, rows[i])):
            _reals(rows[i], what)
    return table if ndim == 2 else table[0]


_FIXED_GATES = {"h": h, "x": x, "y": y, "z": z, "s": s, "sdg": sdg}
_ROTATIONS = {"rx": rx, "ry": ry, "rz": rz}


def _parse_gate(item) -> Gate:
    if not isinstance(item, list) or not item or not isinstance(item[0], str):
        raise ConfigError(f"bad gate entry {item!r}")
    name, *args = item
    qubit = f"qubit of gate {item!r}"
    if name in _FIXED_GATES and len(args) == 1:
        return _FIXED_GATES[name](_integer(args[0], qubit))
    if name in _ROTATIONS and len(args) == 2:
        return _ROTATIONS[name](_real(args[0], f"angle of gate {item!r}"),
                                _integer(args[1], qubit))
    if name == "cx" and len(args) == 2:
        return cx(_integer(args[0], qubit), _integer(args[1], qubit))
    raise ConfigError(f"bad gate entry {item!r}")


def _parse_gates(items) -> tuple[Gate, ...]:
    return tuple(_parse_gate(g) for g in (items or []))


def _parse_observable(spec: dict):
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"bad observable {spec!r}")
    if "pauli" in spec:
        _known(spec, ("name", "pauli", "qubits", "sign"), "Pauli observable")
        qubits = spec.get("qubits")
        if qubits is not None:
            qubits = _integers(qubits, "observable 'qubits'")
        ob = PauliString(spec["pauli"], qubits, _integer(spec.get("sign", 1), "observable 'sign'"))
    elif "zeros" in spec:
        _known(spec, ("name", "zeros"), "projector observable")
        ob = ZeroProjector(_integers(spec["zeros"], "observable 'zeros'"))
    else:
        raise ConfigError(f"observable {spec!r} needs 'pauli' or 'zeros'")
    return str(spec["name"]), ob


def load_circuit_file(path: str) -> DynamicCircuit:
    """Custom circuit description: gates as [name, args...], feedforward
    tables as lists of gate lists, settings with Pauli/projector observables."""
    raw = _known(read_json(path, "circuit file"), ("n", "prep", "layers", "settings"),
                 "circuit file")
    if "n" not in raw:
        raise ConfigError("circuit file needs a qubit count 'n'")
    try:
        layers = []
        for spec in raw.get("layers", []):
            _known(spec, ("measured", "table", "pre", "post", "repeat", "consensus"), "layer")
            layers.append(FeedforwardLayer(
                measured=_integers(spec["measured"], "layer 'measured'"),
                table=tuple(_parse_gates(entry) for entry in spec["table"]),
                pre_gates=_parse_gates(spec.get("pre")),
                post_gates=_parse_gates(spec.get("post")),
                repeat=_integer(spec.get("repeat", 1), "layer 'repeat'"),
                consensus=spec.get("consensus", "none")))
        settings = []
        for spec in raw.get("settings", []):
            _known(spec, ("name", "measured", "observables", "basis"), "setting")
            settings.append(TerminalSetting(
                name=str(spec["name"]),
                measured=_integers(spec["measured"], "setting 'measured'"),
                observables=tuple(_parse_observable(ob) for ob in spec.get("observables", [])),
                basis_gates=_parse_gates(spec.get("basis"))))
        return DynamicCircuit(n=_integer(raw["n"], "circuit 'n'"),
                              prep=_parse_gates(raw.get("prep")),
                              layers=tuple(layers), settings=tuple(settings))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad circuit file {path}: {exc}") from exc


_COERCE = {"int": _integer, "float": _real, "str": lambda value, what: value}
# experiment -> (builder, {parameter: (coerce, required)}), read once from the builders'
# signatures: the annotation picks the coercion; no default means required
_BUILDERS = {name: (builder, {key: (_COERCE[p.annotation], p.default is p.empty)
                              for key, p in inspect.signature(builder).parameters.items()})
             for name, builder in {**experiments.EXPERIMENTS,
                                   "custom": load_circuit_file}.items()}


def build_circuit(experiment: str, parameters: dict) -> DynamicCircuit:
    """Instantiate the named experiment; 'custom' loads a circuit file."""
    if experiment not in _BUILDERS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    builder, spec = _BUILDERS[experiment]
    _known(parameters, spec, f"'{experiment}' parameter")
    arguments = {}
    for key, (coerce, required) in spec.items():
        if key in parameters:
            arguments[key] = coerce(parameters[key], f"experiment parameter '{key}'")
        elif required:
            raise ConfigError(f"experiment parameter '{key}' is required")
    try:
        circuit = builder(**arguments)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for '{experiment}': {exc}") from exc
    check_size(circuit.n, "statevector")  # a circuit file's too, before any loop over n
    return circuit


# ---------------------------------------------------------------------------
# noise

_MODEL_KEYS = {"uniform": ("m", "rate"), "tensored": ("rates",), "layered": ("parts",),
               "general": ("q",)}


def _build_model(spec: dict) -> SyndromeModel:
    if not isinstance(spec, dict):
        raise ConfigError(f"noise model must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind in _MODEL_KEYS:
        _known(spec, ("kind",) + _MODEL_KEYS[kind], f"{kind} noise")
    if kind == "uniform":
        return UniformModel(_integer(spec["m"], "uniform noise 'm'"),
                            _real(spec["rate"], "noise 'rate'"))
    if kind == "tensored":
        return TensoredModel(_reals(spec["rates"], "noise 'rates'"))
    if kind == "layered":
        return LayeredModel([_build_model(p) for p in spec["parts"]])
    if kind == "general":
        return GeneralModel(_real_table(spec["q"], "noise 'q'", 1))
    raise ConfigError(f"unknown noise model kind {kind!r}")


def build_noise(spec: dict | None) -> NoiseInjector | None:
    """Noise spec: a model kind, or 'asymmetric' with per-layer confusion
    matrices (optionally bit-flip averaged); 'terminal' adds a terminal
    readout channel."""
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("noise spec must be an object with a 'kind'")
    spec = dict(spec)
    terminal_spec = spec.pop("terminal", None)
    try:
        terminal = _build_model(terminal_spec) if terminal_spec is not None else None
        if spec["kind"] == "asymmetric":
            _known(spec, ("kind", "matrices", "bfa"), "asymmetric noise")
            matrices = [ConfusionMatrix(_real_table(mat, "noise 'matrices'", 2))
                        for mat in spec["matrices"]]
            bfa = spec.get("bfa", True)
            if not isinstance(bfa, bool):
                raise ConfigError(f"noise 'bfa' must be true or false, got {bfa!r}")
            return NoiseInjector(matrices=matrices, bfa=bfa, terminal=terminal)
        return NoiseInjector(model=_build_model(spec), terminal=terminal)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise spec: {exc}") from exc


# ---------------------------------------------------------------------------
# mitigation

_PROM_MODES = ("prom-general", "prom-tensored", "prom-layered")


def _validate_mitigation(spec) -> dict:
    if isinstance(spec, str):
        spec = {"mode": spec}
    if not isinstance(spec, dict) or "mode" not in spec:
        raise ConfigError("mitigation must be a mode string or object with 'mode'")
    mode = spec["mode"]
    if mode in ("none",) + _PROM_MODES:
        return _known(spec, ("mode",), "mitigation")
    if mode == "rep":
        _known(spec, ("mode", "repeat", "consensus"), "mitigation")
        repeat = spec.get("repeat")
        consensus = spec.get("consensus")
        if not isinstance(repeat, int) or repeat < 2:
            raise ConfigError("rep mitigation needs an integer 'repeat' >= 2")
        if consensus not in ("majority", "unanimous"):
            raise ConfigError("rep 'consensus' must be majority or unanimous")
        if consensus == "majority" and repeat % 2 == 0:
            raise ConfigError("majority vote needs an odd 'repeat'")
        return spec
    raise ConfigError(f"unknown mitigation mode {mode!r}")


def symmetrized_model(noise: NoiseInjector | None) -> SyndromeModel:
    """The symmetrized channel that prom-* weights invert
    (``NoiseInjector.symmetrized``)."""
    model = None if noise is None else noise.symmetrized()
    if model is None:
        raise ConfigError("no symmetrized readout channel to invert: needs a noise "
                          "model, or asymmetric noise under bit-flip averaging (bfa: true)")
    return model


def build_mitigation(spec, circuit: DynamicCircuit,
                     noise: NoiseInjector | None
                     ) -> tuple[DynamicCircuit, MitigationWeights | None]:
    """Resolve the mitigation mode: weights for prom-*, modified circuit for rep."""
    spec = _validate_mitigation(spec)
    mode = spec["mode"]
    if mode == "none":
        return circuit, None
    if mode == "rep":
        return experiments.apply_rep_strategy(circuit, spec["repeat"], spec["consensus"]), None
    model = symmetrized_model(noise)
    if mode == "prom-layered":
        return circuit, solve_weights(model)
    if mode == "prom-general":
        return circuit, GeneralWeights(model.expand())
    # prom-tensored: every part must factor over bits
    parts = model.parts if isinstance(model, LayeredModel) else [model]
    if not all(isinstance(part, TensoredModel) for part in parts):
        raise ConfigError("prom-tensored needs uniform or per-bit noise")
    return circuit, TensoredWeights(np.concatenate([part.rates for part in parts]))


# ---------------------------------------------------------------------------
# running

def _setting_trial_stream(trial: int, index: int, n_settings: int) -> int:
    # distinct RNG stream per (trial, setting), stable under worker count
    return trial * n_settings + index


def run_config(cfg: dict, workers: int = 1) -> dict:
    """Check and build ``cfg``, then run it: ``run_plan(plan_config(cfg))``."""
    return run_plan(plan_config(cfg), workers)


def run_plan(plan: RunPlan, workers: int = 1) -> dict:
    """Solve the plan's weights, execute trials x settings x shots and
    assemble the result record."""
    from . import __version__

    started = time.perf_counter()
    cfg, noise = plan.cfg, plan.noise
    circuit, weights = build_mitigation(cfg["mitigation"], plan.circuit, noise)
    # one spectrum for every observable of every setting and trial
    terminal_q = ChannelInverse(noise.terminal.expand()) if cfg["terminal_rem"] else None

    settings = circuit.settings
    runs = run_settings(circuit, [(setting, cfg["shots"],
                                   _setting_trial_stream(trial, index, len(settings)))
                                  for trial in range(cfg["trials"])
                                  for index, setting in enumerate(settings)],
                        noise=noise, weights=weights, seed=cfg["seed"], workers=workers)
    trials = []
    for trial in range(cfg["trials"]):
        per_setting = []
        results = runs[trial * len(settings):(trial + 1) * len(settings)]
        for setting, result in zip(settings, results):
            if result.accepted == 0:  # consensus discarded every shot
                raise ConfigError(f"trial {trial}, setting '{setting.name}': no accepted "
                                  f"shots of {result.shots}; nothing to estimate")
            estimates = estimate_observables(result, terminal_q=terminal_q)
            per_setting.append({
                "setting": setting.name,
                "shots": result.shots,
                "accepted": result.accepted,
                "discarded": result.discarded,
                "estimates": [{"observable": e.name,
                               "estimate": e.estimate,
                               "stderr": e.stderr} for e in estimates],
            })
        entry = {"trial": trial, "settings": per_setting}
        if circuit.aggregate is not None:
            name, scale = circuit.aggregate
            estimate, stderr = aggregate_estimate(results, scale=scale,
                                                  terminal_q=terminal_q)
            entry["derived"] = {name: estimate, f"{name}_stderr": stderr}
        trials.append(entry)

    record = {
        "version": __version__,
        "config": {k: cfg[k] for k in sorted(_TOP_KEYS)},
        "circuit": {"n": circuit.n,
                    "mid_circuit_bits": circuit.m,
                    "cx_count": circuit.cx_count(),
                    "measurement_count": circuit.m,
                    "two_qubit_depth": circuit.two_qubit_depth()},
        "xi": weights.xi if weights is not None else 1.0,
        "trials": trials,
    }
    return {"record": record, "wall_time_s": time.perf_counter() - started}


# ---------------------------------------------------------------------------
# persistence

CSV_COLUMNS = ("trial", "observable", "estimate", "stderr", "xi",
               "shots_accepted", "shots_discarded")


def record_rows(record: dict) -> list[dict]:
    """Flatten a record into stable per-trial CSV rows."""
    rows = []
    for entry in record["trials"]:
        for per_setting in entry["settings"]:
            for est in per_setting["estimates"]:
                rows.append({"trial": entry["trial"],
                             "observable": est["observable"],
                             "estimate": est["estimate"],
                             "stderr": est["stderr"],
                             "xi": record["xi"],
                             "shots_accepted": per_setting["accepted"],
                             "shots_discarded": per_setting["discarded"]})
        derived = entry.get("derived", {})
        for name in [key for key in derived if not key.endswith("_stderr")]:
            rows.append({"trial": entry["trial"],
                         "observable": name,
                         "estimate": derived[name],
                         "stderr": derived[f"{name}_stderr"],
                         "xi": record["xi"],
                         "shots_accepted": sum(s["accepted"] for s in entry["settings"]),
                         "shots_discarded": sum(s["discarded"] for s in entry["settings"])})
    return rows


def dump_json(payload: dict, path: str | None) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def csv_path_for(out: str) -> str:
    return out[:-5] + ".csv" if out.endswith(".json") else out + ".csv"


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
