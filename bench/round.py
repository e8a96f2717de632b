"""One benchmark round in a fresh interpreter.

    python3 bench/round.py --workload W --seed S --round K --spawned-ns T [--trace PATH]

``--spawned-ns`` is ``time.monotonic_ns()`` taken by the parent just before
it started this interpreter (the clock is system-wide, so it can be compared
across processes).  Set-up runs from then until twistcheck is imported and
every document of the round went through ``scenario.loads``.  The round
proper then takes each job from its text to its verdicts.  The result is one
JSON line on stdout.  With ``--trace`` the layer tracer is installed after
set-up, and its spans are written to PATH at the end.

An untraced round also samples the speed of the host (see ``HostSpeed``).  Its
times are reported as measured, minus the time of the samples, together with
the scale that brings them to the reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads


def _outcome_record(o) -> list:
    # everything but ``ms``: used to compare traced and untraced verdicts
    return [o.name, o.verdict, o.passed, o.max_residual, list(o.assumptions)]


class HostSpeed:
    """Samples how fast the host runs pure Python while a round runs.

    A shared host can change speed by a third within seconds: a fixed loop of
    pure Python took from 0.37 to 0.77 s between trials, and wall time and CPU
    time moved together.  Medians over the rounds of one run do not remove
    drift that slow.  So every ``PERIOD_S`` a SIGALRM handler, which runs in
    the main thread between bytecodes, times the same short loop.  The time
    spent in these samples is taken out of every timing of the round, and
    ``scale()`` brings a time to a host on which the loop takes
    ``REFERENCE_S``.
    """

    PERIOD_S = 0.2
    REFERENCE_S = 0.010
    LOOP = 100_000

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0  # wall time spent sampling
        self._old_handler = None

    def sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        s = 0
        for i in range(self.LOOP):
            s += i * i % 7
        d = time.perf_counter() - t
        self.samples.append(d)
        self.paused += d

    def scale(self) -> float:
        return self.REFERENCE_S / statistics.fmean(self.samples)

    def __enter__(self) -> "HostSpeed":
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace")
    args = ap.parse_args(argv)

    entered_ns = time.monotonic_ns()
    jobs = workloads.round_jobs(args.workload, args.seed, args.round)

    t = time.perf_counter()
    import twistcheck
    from twistcheck import scenario

    src = workloads.ROOT / "src"
    if Path(twistcheck.__file__).resolve().parent.parent != src:
        print(f"twistcheck was imported from {twistcheck.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    for job in jobs:
        scenario.loads(job.text)
    setup_s = (entered_ns - args.spawned_ns) / 1e9 + (time.perf_counter() - t)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()

    def run_job(job):
        sc = scenario.loads(job.text)
        return scenario.run(sc)

    if tracer is not None:
        run_job = tracer.wrap("bench.job", run_job)

    # a traced round is not sampled: the samples would land in its spans
    speed = HostSpeed()
    job_s = []
    checks = []  # per check: [job, check, expected, passed, verdict, record, ms]
    errors = []
    with speed if tracer is None else contextlib.nullcontext():
        start, start_paused = time.perf_counter(), speed.paused
        for job in jobs:
            t, t_paused = time.perf_counter(), speed.paused
            try:
                outcomes = run_job(job)
            except Exception as exc:  # any exception stops the whole job
                outcomes = None
                errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
            job_s.append(time.perf_counter() - t - (speed.paused - t_paused))
            want = [name for name, _ in job.expected]
            if outcomes is not None and [o.name for o in outcomes] != want:
                errors.append(f"{job.name}: ran checks {[o.name for o in outcomes]}, "
                              f"expected {want}")
                outcomes = None
            if outcomes is None:
                checks += [[job.name, name, exp, None, "Error", None, 0.0]
                           for name, exp in job.expected]
                continue
            for o, (name, passes) in zip(outcomes, job.expected):
                checks.append([job.name, name, passes, o.passed, o.verdict,
                               _outcome_record(o), o.ms])
        round_s = time.perf_counter() - start - (speed.paused - start_paused)

    result = {
        "setup_s": setup_s,
        "round_s": round_s,
        "job_s": job_s,
        # 1 and 0 for a traced round, which is not sampled
        "speed_scale": speed.scale() if speed.samples else 1.0,
        "paused_s": speed.paused,
        "checks": checks,
        "errors": errors,
        "dims": [job.dims for job in jobs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
        result["trace"] = layer_metrics(tracer, round_s)
    print(json.dumps(result))
    return 0


TENSOR_OPS = ("wedge", "ext_d", "interior", "lie", "schouten", "sharp1", "sharp",
              "sharp_tensor", "pullback", "pushforward_projection", "pushforward_diffeo",
              "apply")


def layer_metrics(tracer, round_s: float) -> dict:
    """The per-layer metrics of one traced round, by name."""
    agg = tracer.agg

    def calls(name):
        return agg[name].calls if name in agg else 0

    def total(name):
        return agg[name].total if name in agg else 0.0

    def per_call_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    new = max(calls("expr.new"), 1)
    traffic = tracer.traffic()
    m = {
        "expr.new.calls": calls("expr.new"),
        "expr.mul.us": per_call_us("expr.mul"),
        "expr.add.us": per_call_us("expr.add"),
        "expr.diff.us": per_call_us("expr.diff"),
        "expr.subst.us": per_call_us("expr.subst"),
        "expr.parse.calls": calls("expr.parse"),
        "expr.terms.mean": tracer.expr_terms / new,
        "expr.chart_dim.mean": sum(d * n for d, n in tracer.expr_dims.items()) / new,
        "expr.exp_share": traffic["expr.exp_share"],
        "expr.den_share": traffic["expr.den_share"],
        "expr.self_s": sum(a.self for name, a in agg.items() if name.startswith("expr.")),
    }
    for op in TENSOR_OPS:
        m[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
        m[f"tensor.{op}.self_s"] = agg[f"tensor.{op}"].self if f"tensor.{op}" in agg else 0.0
    m["tensor.nonzero_share"] = traffic["tensor.nonzero_share"]
    m["linsolve.solve.calls"] = calls("linsolve.solve")
    m["linsolve.solve.s"] = total("linsolve.solve")
    m["linsolve.solve.max_n"] = tracer.linsolve_max_n
    # each check kind's share of the scenario._run_check spans; a kind the
    # round does not run has no entry
    for name, a in agg.items():
        if name.startswith("check."):
            m[f"{name}.s"] = a.total
    brackets = calls("jacobi.algebroid_bracket")
    m["jacobi.algebroid_bracket.calls"] = brackets
    m["jacobi.algebroid_bracket.distinct_share"] = (
        len(tracer.brackets) / brackets if brackets else 0.0)
    m["contact.reeb.calls"] = calls("contact.reeb")
    m["contact.contact_bivector.calls"] = calls("contact.contact_bivector")
    m["groupoid.build_pair_groupoid.s"] = total("groupoid.build_pair_groupoid")
    m["groupoid.suspend.s"] = total("groupoid.suspend")
    m["expr.is_zero.calls"] = calls("expr.is_zero")
    m["expr.is_zero.sampled_share"] = (
        tracer.is_zero_sampled / calls("expr.is_zero") if calls("expr.is_zero") else 0.0)
    m["expr.eval.calls"] = calls("expr.eval")
    m["numpy.det.calls"] = calls("numpy.det")
    m["numpy.matrix_rank.calls"] = calls("numpy.matrix_rank")
    m["scenario.loads.s"] = total("scenario.loads")
    # share of the traced round that the per-check spans account for
    m["trace.check_cover"] = total("scenario._run_check") / round_s
    m["traffic.chart_dim_share"] = traffic["expr.chart_dim_share"]
    return m


if __name__ == "__main__":
    sys.exit(main())
