"""Command-line interface.

Subcommands:
  run        execute a configured experiment, write JSON record (+ CSV)
  oracle     exact ideal / per-mask / mitigated expectations for a config
  weights    solve mitigation weights for a noise spec
  calibrate  synthesize calibration shots and estimate the syndrome channel
  bench      sweep mitigation strategies on one experiment

Exit codes: 0 ok, 1 usage or schema error, 2 singular channel, 3 size cap.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import config as configmod
from . import experiments, oracle
from .bits import SizeCapError
from .mitigation import (GeneralWeights, LayeredWeights, SingularChannelError,
                         TensoredWeights, overhead_bound, shot_budget,
                         solve_weights)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _file_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="JSON config file")
    sub.add_argument("--out", default=None, help="override config output path")


def _common_flags(sub: argparse.ArgumentParser) -> None:
    _file_flags(sub)
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--shots", type=int, default=None, help="override config shots")
    sub.add_argument("--trials", type=int, default=None, help="override config trials")
    sub.add_argument("--workers", type=positive_int, default=1,
                     help="shot-batch worker processes (at least 1; at most the "
                          "usable CPU count)")


def _load(args: argparse.Namespace) -> configmod.RunPlan:
    """The config file with the flags applied, checked and built once."""
    raw = configmod.read_json(args.config, "config")
    if isinstance(raw, dict):
        raw.update({key: getattr(args, key) for key in ("seed", "shots", "trials", "out")
                    if getattr(args, key) is not None})
    return configmod.plan_config(raw)


def _emit(payload: dict, out: str | None, rows: list[dict] | None = None) -> None:
    text = configmod.dump_json(payload, out)
    if out is None:
        print(text)
    else:
        print(f"wrote {out}")
        if rows is not None:
            csv_path = configmod.csv_path_for(out)
            configmod.write_csv(rows, csv_path)
            print(f"wrote {csv_path}")


def cmd_run(args: argparse.Namespace) -> int:
    plan = _load(args)
    payload = configmod.run_plan(plan, workers=args.workers)
    _emit(payload, plan.cfg["out"], configmod.record_rows(payload["record"]))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    plan = _load(args)
    cfg, circuit = plan.cfg, plan.circuit
    if plan.noise is None:
        q = np.zeros(1 << circuit.m)
        q[0] = 1.0
    else:
        q = configmod.symmetrized_model(plan.noise).expand()
    alpha = GeneralWeights(q).alpha()

    # one walk of the circuit for the observables of every setting
    tensor = oracle.exact_trajectory_tensor(
        circuit, [ob for setting in circuit.settings
                  for ob in oracle.exact_setting_observables(setting)])
    settings_out, b = [], 0
    for setting in circuit.settings:
        entries = []
        for name, _ in setting.observables:
            entries.append({"observable": name, "ideal": tensor.ideal(b),
                            "per_mask": tensor.per_mask(b, q).tolist(),
                            "mitigated": tensor.mitigated(b, q, alpha)})
            b += 1
        settings_out.append({"setting": setting.name, "observables": entries})
    payload = {"experiment": cfg["experiment"], "parameters": cfg["parameters"],
               "mid_circuit_bits": circuit.m, "q": q.tolist(),
               "settings": settings_out}
    _emit(payload, cfg["out"])
    return 0


def _noise_spec_of(raw: dict) -> dict:
    return raw["noise"] if isinstance(raw, dict) and "noise" in raw and "kind" not in raw else raw


def _part_entries(weights) -> list[dict]:
    if isinstance(weights, LayeredWeights):
        return [entry for part in weights.parts for entry in _part_entries(part)]
    if isinstance(weights, TensoredWeights):
        return [{"kind": "tensored", "rates": weights.rates.tolist(),
                 "alpha_bits": weights.alpha_bits.tolist(), "xi": weights.xi}]
    return [{"kind": "general", "q": weights.q.tolist(),
             "alpha": weights.alpha().tolist(), "xi": weights.xi}]


def cmd_weights(args: argparse.Namespace) -> int:
    raw = configmod.read_json(args.config, "noise spec")
    model = configmod.symmetrized_model(configmod.build_noise(_noise_spec_of(raw)))
    weights = solve_weights(model)
    eta = model.total_error()
    payload = {"xi": weights.xi, "eta": eta, "parts": _part_entries(weights),
               "overhead_bound": overhead_bound(eta) if eta < 0.5 else None,
               "shots_per_noiseless_shot": shot_budget(weights.xi, 1)}
    _emit(payload, args.out)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    plan = _load(args)
    cfg, noise, m = plan.cfg, plan.noise, plan.circuit.m
    if noise is None:
        raise configmod.ConfigError("calibrate needs a noise spec")
    if m == 0:
        raise configmod.ConfigError(f"calibrate needs mid-circuit measurements; "
                                    f"'{cfg['experiment']}' has none")
    if noise.matrices is not None and len(noise.matrices) != 1:
        raise configmod.ConfigError(f"calibrate takes a single confusion matrix over all "
                                    f"{m} mid-circuit bits, got {len(noise.matrices)}")
    q_hat = experiments.run_calibration(m, cfg["shots"], noise=noise,
                                        seed=cfg["seed"], workers=args.workers)
    payload = {"m": m, "shots": cfg["shots"], "q_hat": q_hat.tolist(),
               "eta_hat": float(1 - q_hat[0])}
    if noise.model is not None and m <= 16:
        from .readout import total_variation_distance
        q_true = noise.model.expand()
        payload["q_true"] = q_true.tolist()
        payload["tvd"] = total_variation_distance(q_hat, q_true)
    w = GeneralWeights(q_hat)
    payload["xi_hat"] = w.xi
    _emit(payload, cfg["out"])
    return 0


_BENCH_MODES = (
    ("none", "none"),
    ("prom", "prom-layered"),
    ("rep-majority-3", {"mode": "rep", "repeat": 3, "consensus": "majority"}),
    ("rep-unanimous-2", {"mode": "rep", "repeat": 2, "consensus": "unanimous"}),
)


def cmd_bench(args: argparse.Namespace) -> int:
    plan = _load(args)
    cfg = plan.cfg
    if cfg["noise"] is None:
        raise configmod.ConfigError("bench needs a noise spec to compare against")
    modes_out, rows = [], []
    for label, mitigation in _BENCH_MODES:
        sub = dataclasses.replace(plan, cfg=dict(cfg, mitigation=mitigation, out=None))
        payload = configmod.run_plan(sub, workers=args.workers)
        record = payload["record"]
        for row in configmod.record_rows(record):
            rows.append(dict(row, observable=f"{label}:{row['observable']}"))
        modes_out.append({"mitigation": label, "xi": record["xi"],
                          "trials": record["trials"],
                          "wall_time_s": payload["wall_time_s"]})
    payload = {"experiment": cfg["experiment"], "parameters": cfg["parameters"],
               "noise": cfg["noise"], "shots": cfg["shots"], "seed": cfg["seed"],
               "modes": modes_out}
    _emit(payload, cfg["out"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promkit",
        description="Shot-based dynamic-circuit simulator with probabilistic "
                    "readout-error mitigation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, desc in (
            ("run", cmd_run, "execute an experiment config"),
            ("oracle", cmd_oracle, "exact expectations for a config"),
            ("weights", cmd_weights, "solve mitigation weights for a noise spec"),
            ("calibrate", cmd_calibrate, "estimate the syndrome channel from shots"),
            ("bench", cmd_bench, "compare mitigation strategies")):
        sp = sub.add_parser(name, help=desc)
        (_file_flags if func is cmd_weights else _common_flags)(sp)
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except configmod.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularChannelError as exc:
        print(f"error: singular channel: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: size cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
