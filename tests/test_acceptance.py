"""Acceptance suite: one test per shipping criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import io
import json
import os
import random
import time
import warnings

from invgen.cfg import compress, feedback_vertex_set
from invgen.cli import analyze, gen_expo, parse_program, program_to_cfg
from invgen.engine import (
    EngineOptions, check_post_fixpoint, kleene_oracle, run,
)
from invgen.formula import build_psi, selectors_of
from invgen.lp import OPTIMAL, lp_solve
from invgen.numeric import ext
from invgen.smt import SmtSession, smt_check, smt_check_external

from conftest import CORPUS_DIR, corpus_files, external_solver_cmd
from generators import random_cfg, random_lp, random_psi_inputs, random_state
from oracles import (
    brute_force_smt, check_model, cold_smt_check, eval_formula, fm_solve, lp_text,
)


def verdict(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def load(name):
    with open(os.path.join(CORPUS_DIR, name)) as handle:
        prog = parse_program(handle.read())
    g, T = program_to_cfg(prog)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cut = frozenset(prog.cutset) if prog.cutset is not None else feedback_vertex_set(g)
        return compress(g, cut), T


def test_criterion_1_running_example_exact():
    started = time.perf_counter()
    report = analyze(os.path.join(CORPUS_DIR, "running.prg"))
    elapsed = time.perf_counter() - started
    got = {report.labels[i]: str(report.bounds[("n1", i)]) for i in range(2)}
    start_row = {report.labels[i]: str(report.bounds[("st", i)]) for i in range(2)}
    ok = got == {"x1": "2001", "-x1": "2000"} and \
        start_row == {"x1": "inf", "-x1": "inf"} and elapsed < 1.0
    verdict(1, ok, f"running example bounds {got}, start {start_row}, {elapsed:.3f}s")


def test_criterion_2_worked_trace_values():
    g, T = load("running.prg")
    sink = io.StringIO()
    run(g, T, EngineOptions(trace=sink))
    seen = [json.loads(line)["rho"]["n1"]["x1"] for line in sink.getvalue().splitlines()]
    expect = ["0", "1", "2001"]
    position = 0
    for value in seen:
        if position < len(expect) and value == expect[position]:
            position += 1
    ok = position == len(expect)
    verdict(2, ok, f"d(n1,x1) passes through 0, 1, 2001 in order; trace {seen}")


def test_criterion_3_intro_loops_exact():
    results = {}
    ok = True
    for name in ("loop1.prg", "loop2.prg"):
        started = time.perf_counter()
        report = analyze(os.path.join(CORPUS_DIR, name))
        elapsed = time.perf_counter() - started
        got = {report.labels[i]: str(report.bounds[("h", i)]) for i in range(2)}
        results[name] = (got, round(elapsed, 3))
        ok = ok and got == {"i": "11", "-i": "0"} and elapsed < 1.0
    verdict(3, ok, f"loop-head interval is exactly [0, 11]: {results}")


def test_criterion_4_exponential_family_growth():
    reported = {1: 5, 2: 7, 3: 11, 4: 19, 5: 35, 6: 67}
    started = time.perf_counter()
    steps = {}
    for n, want in reported.items():
        prog = parse_program(gen_expo(n))
        g, T = program_to_cfg(prog)
        g = compress(g, feedback_vertex_set(g))
        _, stats = run(g, T)
        steps[n] = stats.improvement_steps
    elapsed = time.perf_counter() - started
    ok = all(abs(steps[n] - want) <= 3 for n, want in reported.items()) and elapsed < 60.0
    doubling = all(steps[n + 1] > 1.5 * steps[n] for n in range(3, 6))
    verdict(4, ok and doubling,
            f"improvement steps {steps} vs reported {reported}, {elapsed:.1f}s total")


def test_criterion_5_certification_all_corpus_and_negative():
    failures = []
    for path in corpus_files():
        name = os.path.basename(path)
        g, T = load(name)
        bounds, _ = run(g, T)
        if not check_post_fixpoint(g, T, bounds).verified:
            failures.append(name)
    # generated family, desk sizes
    for n in (1, 2, 3):
        prog = parse_program(gen_expo(n))
        g, T = program_to_cfg(prog)
        bounds, _ = run(g, T)
        if not check_post_fixpoint(g, T, bounds).verified:
            failures.append(f"expo{n}")

    # deliberately weakened bounds must produce a checkable counterexample
    g, T = load("running.prg")
    bounds, _ = run(g, T)
    bad = dict(bounds)
    bad[("n1", 0)] = ext(2000)
    bad[("n1", 1)] = ext(2000)
    cert = check_post_fixpoint(g, T, bad)
    negative_ok = not cert.verified
    if negative_ok:
        edge = g.edges[cert.edge_index]
        model = cert.model
        point = model.reals
        negative_ok = eval_formula(edge.statement, point, model.selectors)
        source_ok = all(
            T.rows[i].evaluate(point) <= bad[(edge.source, i)].value
            for i in range(len(T)) if bad[(edge.source, i)].is_finite)
        row = T.rows[cert.row].rename(
            {v: v + "'" for v in T.rows[cert.row].variables()})
        negative_ok = negative_ok and source_ok and \
            row.evaluate(point) > bad[(edge.target, cert.row)].value
    ok = not failures and negative_ok
    verdict(5, ok, f"certification clean on {len(corpus_files()) + 3} programs "
                   f"(failures: {failures or 'none'}); weakened bounds gave a "
                   f"substitution-checked counterexample: {negative_ok}")


def test_criterion_6_kleene_oracle_equivalence():
    convergent, mismatches = [], []
    for path in corpus_files():
        name = os.path.basename(path)
        g, T = load(name)
        oracle = kleene_oracle(g, T, max_steps=5000)
        if oracle is None:
            continue
        convergent.append(name)
        bounds, _ = run(g, T)
        if bounds != oracle:
            mismatches.append(name)
    ok = len(convergent) >= 10 and not mismatches
    verdict(6, ok, f"{len(convergent)} convergent corpus programs, "
                   f"mismatches: {mismatches or 'none'}")


def test_criterion_7_lp_matches_fourier_motzkin():
    rng = random.Random(2024)
    total, value_checked = 0, 0
    for _ in range(500):
        problem = random_lp(rng)
        want_status, want_value = fm_solve(problem)
        got = lp_solve(problem)
        assert got.status == want_status, lp_text(problem)
        if want_status == OPTIMAL:
            assert got.value == want_value, lp_text(problem)
            value_checked += 1
        total += 1
    verdict(7, total >= 500,
            f"{total} random LPs match the projection oracle exactly "
            f"({value_checked} with finite optima)")


def test_criterion_8_smt_matches_brute_force_and_external():
    rng = random.Random(4096)
    total, sat_count, external_checked = 0, 0, 0
    declarations = set()
    with SmtSession(external_solver_cmd()) as session:
        for _ in range(500):
            stmt, rows, d, j, c = random_psi_inputs(rng)
            problem = build_psi(stmt, d, rows, j, c)
            got = smt_check(problem)
            assert got.is_sat == brute_force_smt(problem)
            cold = cold_smt_check(problem)
            assert got.status == cold.status
            if got.is_sat:
                assert got.model.selectors == cold.model.selectors
                assert check_model(problem, got.model)
                sat_count += 1
            external = smt_check_external(problem, session)
            assert external.status == got.status
            if external.is_sat:
                assert check_model(problem, external.model)
            external_checked += 1
            total += 1
            declarations.update(f"(declare-const a{s} Bool)"
                                for s in selectors_of(problem.skeleton))
            declarations.update(f"(declare-const |{v}| Real)" for v in problem.real_vars)
        # nothing survived the 500 (push 1) / (pop 1) frames: every symbol is
        # free to declare again, and no assertion is left to contradict
        leftover = session.ask("(push 1)\n" + "\n".join(sorted(declarations)) +
                               "\n(check-sat)\n(pop 1)\n")
    clean = leftover == ["sat"]
    verdict(8, total >= 500 and external_checked == total and clean,
            f"{total} improvement queries match selector enumeration "
            f"({sat_count} sat, all models substitution-checked, selectors "
            f"equal to the cold search's; "
            f"external backend agreed on all {external_checked} through one "
            f"session, no state left after its frames: {clean})")


def test_criterion_9_compression_preserves_reachability():
    from test_cfg import one_step_reachable, path_formula, simple_paths

    rng = random.Random(515)
    graphs, states_checked = 0, 0
    for _ in range(100):
        g = random_cfg(rng)
        cut = feedback_vertex_set(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c = compress(g, cut)
        anchors = set(c.nodes)
        path_cache = {(e.source, e.target): simple_paths(g, anchors, e.source, e.target)
                      for e in c.edges}
        for _ in range(20):
            pre = random_state(rng, g.program_vars)
            for e in c.edges:
                got = one_step_reachable(e.statement, pre)
                want = any(one_step_reachable(path_formula(g, p), pre)
                           for p in path_cache[(e.source, e.target)])
                assert got == want, f"{e.source}->{e.target} at {pre}"
            states_checked += 1
        graphs += 1
    verdict(9, graphs >= 100 and states_checked >= 100 * 20,
            f"{graphs} random programs, 20 states each: one-step reachability "
            f"after folding equals path reachability before")
