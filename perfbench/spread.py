"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cli-sweep --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed (trace off, for BENCHMARK.json's
``run_seconds``) and prints, per metric, the median, the quartiles, the
interquartile range as a share of the median and that metric's bound from
BENCHMARK.json.  A spread above a third of the
bound is flagged, since the benchmark should repeat well inside its bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed ops", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
              flush=True)
    ok = True
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        flag = "" if share < metric["bound"] / 3 else "  <-- wide"
        ok = ok and not flag
        print(f"{metric['name']:<20} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"iqr/median {share:.4f} bound {metric['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
