"""promkit benchmark: one workload, one run.

    python3 perfbench/run.py --workload ghz-fusion --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports promkit from its
``src/``.  With ``--trace 0`` it measures the end-to-end metrics for about
``--seconds`` seconds; with ``--trace 1`` it runs the traced per-layer pass.
Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
preceded by an environment line and a detail line.  The same three objects,
and the spans of a traced run, are written under ``perfbench/out/``.
Exits non-zero, printing no result, when the checkout has no promkit source.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_promkit(root: Path):
    """Import promkit from the checkout's own source tree, and nowhere else."""
    src = root / "src"
    if not (src / "promkit" / "__init__.py").is_file():
        raise ImportError(f"no promkit source under {src}")
    sys.path.insert(0, str(src))
    import promkit
    if Path(promkit.__file__).resolve().parent != (src / "promkit").resolve():
        raise ImportError(f"promkit was imported from {promkit.__file__}, not {src}")
    return promkit


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_promkit(ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 1
    env, detail, result, spans = harness.run_benchmark(
        args.workload, args.seed, args.seconds, args.trace, ROOT)

    stem = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"environment": env, "detail": detail, "result": result}, indent=1) + "\n")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent,
                                     span.rows, span.nbytes, span.draws]) + "\n")
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
