"""invgen benchmark: closed-loop analyses, one client, one process.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

A workload is a list of programs (see ``workloads.py``).  The client
analyses them in turn, each analysis starting when the previous one has
returned, and repeats whole passes over the list until ``--seconds`` have
passed and at least ``MIN_PASSES`` passes are done.  One analysis is what
``invgen analyze --check`` runs: parse, fold the graph onto a feedback
vertex set, strategy iteration, certification.  Every result is compared
with the job's independent reference bounds; a mismatch, a failed
certification, an exception or (on ``expo``) a step count outside the
published tolerance counts as a failed analysis.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced at every layer boundary, prints the
per-layer metrics per pass and writes the spans to ``.perfbench/``.  The
last line of standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import spans  # noqa: E402
from workloads import STEP_TOLERANCE, WORKLOADS, Job, canonical  # noqa: E402

LAYERS = ("numeric", "lp", "formula", "smt", "cfg", "engine", "cli")
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# Passes every run completes.  The tail percentile is fixed per workload at
# the highest one that leaves TAIL_BEYOND samples beyond it in a run of this
# many passes, so that it reads the same program's times whether a faster
# program fits more passes or not.
MIN_PASSES = {"corpus": 4, "expo": 11, "diamonds": 6}


def load_invgen() -> SimpleNamespace:
    """Import the invgen layers afresh (as a new process would)."""
    for name in [n for n in sys.modules if n == "invgen" or n.startswith("invgen.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"invgen.{n}") for n in LAYERS})


def set_up(workload: str, seed: int) -> Tuple[SimpleNamespace, List[Job], float]:
    """Import, generate the inputs and load or compute their references,
    ``SETUP_REPEATS`` times; returns the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        inv = load_invgen()
        jobs = WORKLOADS[workload](inv.cli, seed)
        times.append(time.perf_counter() - started)
    return inv, jobs, statistics.median(times)


@dataclass
class Outcome:
    total_s: float = 0.0
    bounds_s: float = 0.0
    bounds: Optional[str] = None    # canonical JSON, as in the reference
    stats: object = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def analyze(inv: SimpleNamespace, job: Job) -> Outcome:
    """One closed-loop request: the ``invgen analyze --check`` pipeline,
    then the comparison with the reference (outside the timed part)."""
    out = Outcome()
    started = time.perf_counter()
    try:
        prog = inv.cli.parse_program(job.text)
        g, template = inv.cli.program_to_cfg(prog)
        cut = frozenset(prog.cutset) if prog.cutset is not None \
            else inv.cfg.feedback_vertex_set(g)
        g = inv.cfg.compress(g, cut)
        bounds, stats = inv.engine.run(g, template, inv.engine.EngineOptions(smt_cmd=job.solver))
        out.bounds_s = time.perf_counter() - started
        cert = inv.engine.check_post_fixpoint(g, template, bounds, backend=job.solver,
                                              stats=stats)
        out.total_s = time.perf_counter() - started
    except Exception:  # a failed analysis is counted, never dropped
        out.total_s = time.perf_counter() - started
        out.bounds_s = out.bounds_s or out.total_s
        out.error = f"{job.name}: {traceback.format_exc()}"
        return out
    out.stats = stats
    out.bounds = canonical({node: {label: str(bounds[(node, i)])
                                   for i, label in enumerate(template.labels)}
                            for node in g.nodes})
    if out.bounds != job.reference:
        out.error = f"{job.name}: bounds {out.bounds} differ from reference {job.reference}"
    elif not cert.verified:
        out.error = f"{job.name}: certification failed"
    elif not stats.converged:
        out.error = f"{job.name}: iteration did not converge"
    elif job.steps is not None and abs(stats.improvement_steps - job.steps) > STEP_TOLERANCE:
        out.error = (f"{job.name}: {stats.improvement_steps} improvement steps, "
                     f"reported {job.steps} +- {STEP_TOLERANCE}")
    return out


class Client:
    """Runs passes and keeps every outcome."""

    def __init__(self, inv: SimpleNamespace, jobs: List[Job]):
        self.inv, self.jobs = inv, jobs
        self.outcomes: List[Outcome] = []

    def one_pass(self, analyze_fn=analyze) -> float:
        started = time.perf_counter()
        for job in self.jobs:
            out = analyze_fn(self.inv, job)
            if out.error is not None and all(o.ok for o in self.outcomes):
                print(f"error: {out.error}", file=sys.stderr)
            self.outcomes.append(out)
        return time.perf_counter() - started

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)


def quantile(values: List[float], p: float) -> float:
    """Linear interpolation between order statistics at (n - 1) * p."""
    xs = sorted(values)
    h = (len(xs) - 1) * p
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (h - lo)


def end_to_end(client: Client, elapsed: float, setup_s: float,
               min_passes: int) -> Dict[str, Tuple[float, str]]:
    totals = [o.total_s for o in client.outcomes]
    n = len(totals)
    p = 1 - TAIL_BEYOND / (len(client.jobs) * min_passes)
    beyond = sum(1 for t in totals if t > quantile(totals, p))
    print(f"analysis_tail_s is p{100 * p:.1f} of {n} analyses ({beyond} beyond it)")
    print(f"error_rate = {client.failed / n:.6f} ({client.failed} of {n} analyses failed)")
    return {
        "setup_s": (setup_s, "s"),
        "analyses_per_s": (n / elapsed, "1/s"),
        "analysis_p50_s": (statistics.median(totals), "s"),
        "analysis_tail_s": (quantile(totals, p), "s"),
        "bounds_p50_s": (statistics.median(o.bounds_s for o in client.outcomes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1 - client.failed / n, "ratio"),
    }


def traced_run(client: Client, seconds: float, env: dict, tag: str) -> Dict[str, Tuple[float, str]]:
    tracer = spans.Tracer()
    # the root span of each request
    traced_analyze = tracer.wrap("bench.analysis", analyze,
                                 lambda args, out: {"job": args[1].name, "ok": out.ok})
    plain_s = traced_s = 0.0
    passes = 0
    stats_sum = {"improvement_steps": 0, "smt_queries": 0, "lp_solves": 0}

    def traced_pass() -> float:
        first = len(client.outcomes)
        tracer.install()
        try:
            took = client.one_pass(traced_analyze)
        finally:
            tracer.uninstall()
        for out in client.outcomes[first:]:
            if out.stats is not None:
                for key in stats_sum:
                    stats_sum[key] += getattr(out.stats, key)
        return took

    started = time.perf_counter()
    while passes == 0 or time.perf_counter() - started < seconds:
        # which pass of the pair runs first alternates, so that the first
        # (cold) pass and drift in machine speed do not bias the ratio
        if passes % 2:
            traced_s += traced_pass()
            plain_s += client.one_pass()
        else:
            plain_s += client.one_pass()
            traced_s += traced_pass()
        passes += 1

    metrics = spans.per_layer(tracer.spans, passes)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    for key, value in stats_sum.items():
        metrics[f"stats.{key}"] = (value / passes, "count")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{tag}.jsonl"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"env": env, "traced_passes": passes,
                                 "metrics": {k: v for k, (v, _) in metrics.items()}}) + "\n")
        for span in tracer.dump():
            handle.write(json.dumps(span) + "\n")
    return metrics


def environment(inv: SimpleNamespace, seed: int, load: str) -> dict:
    rat = inv.numeric.Rat
    return {
        "python": sys.version.split()[0],
        "arithmetic": "gmpy2" if rat.__module__.startswith("gmpy2") else "fractions",
        "nproc": os.cpu_count(),
        "loadavg": load,
        "seed": seed,
    }


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return " ".join(handle.read().split()[:3])
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load = read_loadavg()
    if not os.path.isdir(os.path.join(SRC, "invgen")):
        print(f"error: no invgen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the loopback solver subprocess imports invgen too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    try:
        inv, jobs, setup_s = set_up(args.workload, args.seed)
    except (ImportError, OSError, RuntimeError, ValueError) as err:
        print(f"error: cannot set up workload {args.workload!r}: {err}", file=sys.stderr)
        return 2
    env = environment(inv, args.seed, load)
    print(f"workload {args.workload}: {len(jobs)} analyses per pass; env {json.dumps(env)}")

    client = Client(inv, jobs)
    if args.trace:
        metrics = traced_run(client, args.seconds, env, f"{args.workload}-{args.seed}")
    else:
        min_passes = MIN_PASSES[args.workload]
        started = time.perf_counter()
        passes = 0
        while passes < min_passes or time.perf_counter() - started < args.seconds:
            client.one_pass()
            passes += 1
        metrics = end_to_end(client, time.perf_counter() - started, setup_s, min_passes)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted = len(client.outcomes)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
