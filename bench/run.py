"""Verdict benchmark for twistcheck: time from document text to PASS/FAIL.

    python3 bench/run.py --workload corpus-r3|pair-r5|batch-r3 --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Rounds run one at a time (a closed loop, one job in
flight, one thread), each in a fresh interpreter, so no module-level cache
carries over between rounds, as with ``twistcheck check``.  Rounds start
until the next one would end after ``--seconds``; there is always at least
one.  Every verdict is compared with the answer its input was built to have.
Timings are brought to a reference host speed, sampled while each round runs
(``round.HostSpeed``), because the host's own speed drifts.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs each round twice, untraced and then traced, checks that both give the
same verdicts (ignoring ``ms``), writes the spans under ``.bench_trace/`` and
prints the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

TIME_LIMIT_S = 170.0  # the whole run, so that it ends well within 180 s


class BenchError(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_round(workload: str, seed: int, index: int, trace_path: Path | None,
              timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # string hashing decides set and dict order inside the program; fix it so
    # that a seed gives the same computation in every run
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(index)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {index} did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"round {index} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t  # interpreter start to exit
    return result


def run_rounds(workload: str, seed: int, seconds: float, traced: bool) -> tuple[list, list, float]:
    """Untraced rounds (and, with ``traced``, a traced twin of each) until
    the next round would overrun ``seconds``.  Returns the untraced and the
    traced round results and the wall time of all rounds."""
    plain, twins = [], []
    trace_dir = ROOT / ".bench_trace"
    if traced:
        trace_dir.mkdir(exist_ok=True)
    start = time.perf_counter()
    walls = []
    index = 0
    while True:
        t = time.perf_counter()
        left = TIME_LIMIT_S - (t - start)
        plain.append(run_round(workload, seed, index, None, left))
        if traced:
            path = trace_dir / f"{workload}-seed{seed}-round{index}.jsonl"
            left = TIME_LIMIT_S - (time.perf_counter() - start)
            twins.append(run_round(workload, seed, index, path, left))
        walls.append(time.perf_counter() - t)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    return plain, twins, time.perf_counter() - start


def verdict_summary(rounds: list[dict]) -> dict:
    attempted = errors = matched = 0
    unexpected, known = Counter(), Counter()
    for r in rounds:
        for job, check, expected, passed, verdict, *_ in r["checks"]:
            attempted += 1
            if verdict == "Error":
                errors += 1
            elif passed == expected:
                matched += 1
            elif (job, check) in workloads.KNOWN_DEFECTS:
                known[(job, check)] += 1
            else:
                unexpected[(job, check, verdict)] += 1
    return {"attempted": attempted, "errors": errors, "matched": matched,
            "unexpected": unexpected, "known": known,
            "messages": [m for r in rounds for m in r["errors"]]}


def end_to_end(rounds: list[dict], summary: dict) -> dict:
    """Each timing is taken per round, brought to the reference host speed
    with that round's ``speed_scale`` (see ``round.HostSpeed``), and the
    median over the rounds is reported, so that one round slowed by the host
    does not move it."""

    def median(fn):
        return statistics.median(fn(r) for r in rounds)

    return {
        "setup_s": median(lambda r: r["setup_s"] * r["speed_scale"]),
        "round_s": median(lambda r: r["round_s"] * r["speed_scale"]),
        "checks_per_s": median(
            lambda r: len(r["checks"]) / ((r["wall_s"] - r["paused_s"]) * r["speed_scale"])),
        "job_s.p50": median(lambda r: percentile(r["job_s"], 0.5) * r["speed_scale"]),
        "job_s.p90": median(lambda r: percentile(r["job_s"], 0.9) * r["speed_scale"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "verdict_match_share": summary["matched"] / summary["attempted"],
    }


def per_layer(plain: list[dict], twins: list[dict], declared: list[dict]) -> tuple[dict, dict]:
    names = {k for t in twins for k, v in t["trace"].items() if not isinstance(v, dict)}
    metrics = {k: statistics.median(t["trace"].get(k, 0.0) for t in twins) for k in names}
    # a check kind that the workload never runs has no span
    for m in declared:
        if m["name"].startswith("check."):
            metrics.setdefault(m["name"], 0.0)
    metrics["trace.overhead"] = statistics.median(
        t["round_s"] / p["round_s"] for p, t in zip(plain, twins))
    traffic = {
        "chart_dim_share_by_round": [t["trace"]["traffic.chart_dim_share"] for t in twins],
        "input_dims": sorted(Counter(d for r in plain for d in r["dims"]).items()),
    }
    return metrics, traffic


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "twistcheck" / "__init__.py").is_file():
        print(f"no twistcheck sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        plain, twins, wall = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    summary = verdict_summary(plain + twins)
    same = all([c[5] for c in p["checks"]] == [c[5] for c in t["checks"]]
               for p, t in zip(plain, twins))
    if args.trace:
        metrics, traffic = per_layer(plain, twins, declared)
    else:
        metrics, traffic = end_to_end(plain, summary), None

    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        print(f"metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} round(s) in {wall:.1f} s, "
          f"jobs per round {[len(r['job_s']) for r in plain]}, {summary['attempted']} check(s); "
          f"timings are per round, median over the rounds")
    print(f"  host speed: median scale {statistics.median(r['speed_scale'] for r in plain):.4g} "
          f"(timings below are measured times times the scale); measured round wall time "
          f"median {statistics.median(r['round_s'] for r in plain):.4g} s")
    for m in declared:
        print(f"  {m['name']:<42} {metrics[m['name']]:>14.6g} {m['unit']}")
    mismatched = summary["attempted"] - summary["matched"]
    print(f"  verdict_mismatch_share = {mismatched}/{summary['attempted']}"
          f" = {mismatched / summary['attempted']:.6g}")
    for (job, check), n in sorted(summary["known"].items()):
        print(f"  known defect x{n}: {job} {check}: {workloads.KNOWN_DEFECTS[(job, check)]}")
    for (job, check, verdict), n in sorted(summary["unexpected"].items()):
        print(f"  MISMATCH x{n}: {job} {check} gave {verdict}")
    for msg in summary["messages"]:
        print(f"  ERROR: {msg}")
    if args.trace:
        print(f"  traced verdicts identical to untraced: {same}")
        print(f"  traffic: {json.dumps(traffic)}")

    failed = summary["errors"] + sum(summary["unexpected"].values())
    result = {
        "correct": failed == 0 and same,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
