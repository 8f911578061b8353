"""Repeat an untraced bench/run.py over several seeds and summarize each metric.

    python3 bench/sweep.py --workload mutation-sweep --seeds 1-10 --seconds 30

For every metric it prints the values, their median, first and third
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median.  ``--out PATH``
also writes that summary as JSON.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", help="write the summary as JSON")
    args = parser.parse_args()

    results, machines = [], []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        machines += [json.loads(x[len("machine "):]) for x in lines if x.startswith("machine ")]
        results.append(result)
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} {line}", flush=True)

    summary = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": parse_seeds(args.seeds),
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "machine": machines[0] if machines else None,
        "loadavg_start": [m["loadavg_start"] for m in machines],
        "metrics": {
            name: dict(unit=meta["unit"], **summarize([r["metrics"][name]["value"] for r in results]))
            for name, meta in results[0]["metrics"].items()
        },
    }
    for name, s in summary["metrics"].items():
        print(f"{name:40s} median {s['median']:.5g} {s['unit']:6s} q1 {s['q1']:.5g} "
              f"q3 {s['q3']:.5g} spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
