"""Checks of the benchmark itself.  Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import make_reference  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def inv():
    return bench.load_invgen()


def cheap_jobs(inv):
    corpus = {j.name: j for j in workloads.corpus_jobs(inv.cli, 0)}
    expo = {j.name: j for j in workloads.expo_jobs(inv.cli, 0)}
    diamonds = sorted(workloads.diamond_jobs(inv.cli, 0), key=lambda j: j.name)
    return [corpus["running.prg"], corpus["diamonds.prg"], expo["gen_expo(2)"], diamonds[0]]


def traced(inv, jobs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcomes = [bench.analyze(inv, job) for job in jobs]
    finally:
        tracer.uninstall()
    return outcomes, tracer


def test_traced_and_untraced_runs_give_identical_bounds(inv):
    jobs = cheap_jobs(inv)
    plain = [bench.analyze(inv, job) for job in jobs]
    with_spans, tracer = traced(inv, jobs)
    assert tracer.spans
    for job, a, b in zip(jobs, plain, with_spans):
        assert a.ok and b.ok, (job.name, a.error, b.error)
        assert a.bounds == b.bounds == job.reference


def test_lp_calls_split_by_caller_sum_to_all_lp_calls(inv):
    _, tracer = traced(inv, cheap_jobs(inv))
    m = {k: v for k, (v, _) in spans.per_layer(tracer.spans, 1).items()}
    callers = m["lp.improve.calls"] + m["lp.evaluate.calls"] + m["lp.certify.calls"]
    assert m["lp.solve.calls"] == callers
    assert min(m["lp.improve.calls"], m["lp.evaluate.calls"], m["lp.certify.calls"]) > 0
    assert m["smt.theory.calls"] == m["lp.feasible_strict.calls"]


def test_wrappers_replace_every_from_import_binding(inv):
    bindings = [(inv.engine, "lp_solve"), (inv.engine, "smt_check"),
                (inv.engine, "build_psi"), (inv.smt, "lp_feasible_strict"),
                (inv.cli, "compress"), (inv.cli, "check_post_fixpoint"),
                (inv.lp, "lp_solve")]
    originals = [getattr(mod, name) for mod, name in bindings]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (mod, name), original in zip(bindings, originals):
            assert getattr(mod, name).__wrapped__ is original, (mod.__name__, name)
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in bindings] == originals


def test_per_layer_counts_repeat_exactly(inv):
    jobs = cheap_jobs(inv)
    counts = []
    for _ in range(2):
        _, tracer = traced(inv, jobs)
        counts.append({k: v for k, (v, unit) in spans.per_layer(tracer.spans, 1).items()
                       if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["engine.improvement_steps"] > 0


def test_expo_step_count_outside_tolerance_fails(inv):
    job = next(j for j in workloads.expo_jobs(inv.cli, 0) if j.name == "gen_expo(1)")
    wrong = workloads.Job(job.name, job.text, job.reference,
                          steps=job.steps + workloads.STEP_TOLERANCE + 1)
    assert bench.analyze(inv, job).ok
    assert not bench.analyze(inv, wrong).ok


def test_wrong_reference_fails(inv):
    job = cheap_jobs(inv)[0]
    out = bench.analyze(inv, workloads.Job(job.name, job.text, job.reference.replace("2001", "2002")))
    assert not out.ok and "differ" in out.error


@pytest.mark.parametrize("seed", [0, 7])
def test_interval_reference_matches_kleene_oracle(inv, seed):
    kleene_oracle = getattr(inv.engine, "kleene_oracle", None)
    if kleene_oracle is None:
        pytest.skip("invgen.engine.kleene_oracle is gone")
    for job in workloads.diamond_jobs(inv.cli, seed):
        prog = inv.cli.parse_program(job.text)
        g, template = inv.cli.program_to_cfg(prog)
        g = inv.cfg.compress(g, inv.cfg.feedback_vertex_set(g))
        bounds = kleene_oracle(g, template, max_steps=5000)
        got = {n: {lab: str(bounds[(n, i)]) for i, lab in enumerate(template.labels)}
               for n in g.nodes}
        assert workloads.canonical(got) == job.reference, job.name


def test_diamond_inputs_depend_only_on_the_seed(inv):
    def texts(seed):
        return [j.text for j in workloads.diamond_jobs(inv.cli, seed)]
    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_reference_json_is_current():
    expected = {name: make_reference.kleene_bounds(workloads._read(
        os.path.join(workloads.CORPUS_DIR, name)))
        for name in ("running.prg", "octagon_swap.prg", "loop2.prg")}
    with open(workloads.REFERENCE, encoding="utf-8") as handle:
        stored = json.load(handle)["corpus"]
    for name, bounds in expected.items():
        assert stored[name] == bounds


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for workload in ("corpus", "expo", "diamonds"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
