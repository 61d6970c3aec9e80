"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload insitu --seed 1 --seconds 10 --trace 0

Workloads: ``insitu`` (in-situ generation and selection), ``serve_hot``
and ``serve_cold`` (TCP query serving with a fitting and a thrashing
cache), ``mine`` (correlation mining on stored indices).  Each builds its
inputs from ``--seed``, checks every answer against an oracle, and
prints three JSON lines: the host block, a report with every metric and
its sample counts, and last the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate traced run that reports the per-layer
metrics and writes its spans to a JSONL file.  Per-layer metrics of
layers a workload never calls read 0 (see ``predictions.json``).

Full runs write their result and span files under
``.perfbench/results``; ``--smoke`` runs shrink every workload and
write under ``.perfbench/smoke`` instead, so a smoke result never
stands in for a full one.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

from common import Config, Tracer, host_block

HERE = Path(__file__).resolve().parent
WORKLOADS = ("insitu", "serve_hot", "serve_cold", "mine")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def _spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def _predictions() -> dict:
    with open(HERE / "predictions.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {root / 'src' / 'repro'}; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    module = importlib.import_module(
        "serve" if args.workload.startswith("serve") else args.workload
    )
    spec = _spec(root)
    kind = "smoke" if args.smoke else "results"
    results_dir = root / ".perfbench" / kind
    work = root / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cfg = Config(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.smoke, work)
    tracer = Tracer(bool(args.trace))
    try:
        outcome = module.run(cfg, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host = host_block(root, args.seed, args.smoke)
    if args.trace:
        base = outcome.notes["untraced_wall_s"]
        outcome.layers["trace.overhead_pct"] = (
            100.0 * (outcome.notes["traced_wall_s"] - base) / base
        )
        declared = spec["per_layer"]
        predicted = _predictions()["per_layer"]
        expected = {
            name for name, p in predicted.items()
            if args.workload in p["workloads"]
        }
        missing = expected - set(outcome.layers)
        extra = set(outcome.layers) - set(predicted)
        if missing or extra:
            raise SystemExit(
                f"perfbench: {args.workload} layer metrics disagree with "
                f"predictions.json: missing {sorted(missing)}, "
                f"unknown {sorted(extra)}"
            )
        values = {m["name"]: outcome.layers.get(m["name"], 0.0) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = {m["name"]: outcome.metrics[m["name"]] for m in declared}
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    report = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "notes": outcome.notes,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump({"host": host, **report, "attempted": outcome.attempted,
                   "failed": outcome.failed}, fh, indent=2)
    if args.trace:
        tracer.write_jsonl(results_dir / f"{stem}.spans.jsonl")

    print(json.dumps({"host": host}))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
