"""Run one CEPR benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 cepr_bench/run.py --workload stock-top5 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
makes a separate traced run and prints the per-layer metrics.  Every run
checks the program's output against references computed outside the timed
regions.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

Earlier lines carry extra figures (p90 and p99 latency with their sample
count, generator lateness, unscaled throughput and the host-speed factor)
and any output mismatch.  See ``cepr_bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stock-top5", "mq64", "stock-top5-proc1", "serve-stock")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hook: corrupt one rank value where emissions are collected
    # (engine callback or wire frame) to prove the output check catches it.
    parser.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    # Internal: the fresh-process replay behind an embedded peak_rss_mb.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no CEPR sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    if args.workload in ("stock-top5", "mq64"):
        from cepr_bench import embedded

        if args.child:
            return embedded.child_main(args.workload, args.seed)
        result = embedded.run(args.workload, args.seed, args.seconds, bool(args.trace), args.perturb)
    elif args.workload == "stock-top5-proc1":
        from cepr_bench import proc

        result = proc.run(args.seed, args.seconds, bool(args.trace), args.perturb)
    else:
        from cepr_bench import serve

        result = serve.run(args.seed, args.seconds, bool(args.trace), args.perturb)

    for key, value in result["info"].items():
        print(f"info {key} = {value}")
    for problem in result["problems"]:
        print(f"MISMATCH {problem}")
    correct = not result["problems"]
    attempted = max(1, int(result["attempted"]))
    failed = int(result.get("failed", 0)) if correct else attempted
    from cepr_bench.layers import END_TO_END, PER_LAYER

    values = result["layers"] if args.trace else result["metrics"]
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in (PER_LAYER if args.trace else END_TO_END).items()
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
