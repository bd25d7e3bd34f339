"""Self-test of the benchmark: a tiny-shot pass of every workload.

    python3 -m pytest perfbench/tests -q
"""
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_promkit(ROOT)

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SHOTS = {"ghz-fusion": 1024, "teleport-chain": 1024, "reset-wide": 1024,
              "calibration-bfa": 2048}
ENVIRONMENT_KEYS = {"nproc", "cpu_model", "caches", "python", "numpy", "blas",
                    "git_commit", "seed", "src_lines"}


def _attributes() -> dict:
    """(owner, name) -> object for every attribute of promkit's modules and
    of the classes they define."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key != "promkit" and not key.startswith("promkit."):
            continue
        for attr, value in vars(mod).items():
            out[(key, attr)] = value
            if inspect.isclass(value) and value.__module__ == key:
                for cattr, cvalue in vars(value).items():
                    out[(f"{key}.{attr}", cattr)] = cvalue
    return out


def test_workloads_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(harness.WORKLOADS) == list(TINY_SHOTS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(TINY_SHOTS))
def test_tiny_pass(name, trace):
    before = _attributes()
    env, detail, result, spans = harness.run_benchmark(
        name, 7, 0.5, trace, ROOT, shots=TINY_SHOTS[name])

    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert ENVIRONMENT_KEYS <= set(env)
    after = _attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed, changed

    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in metrics.values()), metrics
        return
    assert spans and detail["exact_counts_repeat"] and not detail["missing_entry_points"]
    layers = sum(metrics[f"{layer}.self.s"] for layer in harness.LAYERS)
    assert layers + metrics["trace.uncovered.s"] == pytest.approx(metrics["trace.wall.s"])
    assert metrics["trace.uncovered.s"] >= 0
    assert metrics["engine.rows"] > 0 and metrics["simulator.run_shots.calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ghz-fusion",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
