"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steadiness.py --seeds 1-10

Runs ``bench/run.py`` once per seed and workload of BENCHMARK.json, one at a
time, with the workloads interleaved inside each seed, for ``run_seconds``.
For every end-to-end metric it prints the median of the runs, the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, and that share over the metric's bound.  A spread above
a third of its bound marks the metric as unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seed_list(args.seeds):
        for w in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append(result)
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    steady = True
    print(f"\n{'workload':<10} {'metric':<20} {'median':>12} {'iqr/med':>8} {'/bound':>7}")
    for w in names:
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med
            ratio = spread / m["bound"]
            flag = "" if ratio < 1 / 3 else "  UNSTEADY"
            steady &= not flag
            print(f"{w:<10} {m['name']:<20} {med:>12.6g} {spread:>8.4f} {ratio:>7.3f}{flag}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
