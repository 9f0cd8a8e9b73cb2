import os
import random
import shlex
import subprocess
import sys
import time
from collections import Counter

import pytest

from invgen.formula import (
    And, Atom, SmtProblem, UNSAT_PROBLEM, build_psi, eliminate_equalities, formula_vars,
    parse_linexpr, parse_statement, primed,
)
from invgen.numeric import Rat, ext
from invgen.smt import (
    SmtBackendError, SmtSession, _smt_declarations, smt_check, smt_check_external,
)

from conftest import CORPUS_DIR, LOOPBACK, external_solver_cmd
import oracles
from generators import random_psi_inputs, random_shared_statement, random_update
from oracles import brute_force_smt, check_model, cold_smt_check

RUNNING_BODY = ("x1 <= 1000 & x2' = -x1 & "
                "((x2' <= -1 & x1' = -2*x1) | (x2' >= 0 & x1' = -x1 + 1))")


def running_psi(d, j, c):
    stmt = parse_statement(RUNNING_BODY)
    rows = [parse_linexpr("x1"), parse_linexpr("-x1")]
    return build_psi(stmt, [ext(x) for x in d], rows, j, c)


def problem_of(text):
    f = parse_statement(text)
    return SmtProblem(f, tuple(formula_vars(f)))


def test_running_example_improvement_query():
    res = smt_check(running_psi((0, 0), 0, ext(0)))
    assert res.is_sat
    assert res.model.selectors == {0: 1}
    assert check_model(running_psi((0, 0), 0, ext(0)), res.model)


def test_plain_contradiction():
    assert not smt_check(problem_of("x <= 0 & 0 < x")).is_sat
    assert not smt_check(UNSAT_PROBLEM).is_sat


def test_disjunct_rescues_satisfiability():
    res = smt_check(problem_of("(x <= -1 & 1 <= x) | x = 2"))
    assert res.is_sat
    assert res.model.selectors == {0: 1}
    assert res.model.reals["x"] == 2


def test_model_uses_strict_interior():
    res = smt_check(problem_of("x < 1 & 0 < x"))
    assert res.is_sat
    assert 0 < res.model.reals["x"] < 1


def test_bound_clause_absent_for_minus_infinity():
    stmt = parse_statement("x1' = x1")
    rows = [parse_linexpr("x1")]
    from invgen.numeric import NEG_INF, POS_INF
    psi = build_psi(stmt, [POS_INF], rows, 0, NEG_INF)
    assert smt_check(psi).is_sat  # always-enabled statement, no threshold


def test_matches_brute_force_small():
    from invgen.formula import atoms_of, select_path

    rng = random.Random(41)
    for _ in range(120):
        stmt, rows, d, j, c = random_psi_inputs(rng)
        problem = build_psi(stmt, d, rows, j, c)
        got = smt_check(problem)
        assert got.is_sat == brute_force_smt(problem)
        # warm-started checks find the same first model as cold ones
        cold = cold_smt_check(problem)
        assert got.status == cold.status
        if got.is_sat:
            assert got.model.selectors == cold.model.selectors
            assert check_model(problem, got.model)
            # the model's path is sound: the real part satisfies the
            # selected sequential statement atom by atom
            seq = select_path(problem.skeleton, got.model.selectors)
            assert all(a.holds(got.model.reals) for a in atoms_of(seq))


def test_shared_subtrees_and_repeated_atoms(monkeypatch):
    # ``compress`` shares subtrees by identity, so one path can force an atom
    # more than once and reach a disjunction more than once.  The search
    # grows each node's LP by the chosen branches only; every theory check
    # must still hold exactly the atoms forced at its node, as a multiset.
    import invgen.smt as smt

    checks, nodes = [], []
    real_check, real_feasible = smt.lp_feasible_strict, oracles._atoms_feasible

    def check(problem, strict, start=None):
        checks.append(Counter(map(id, problem.constraints)))
        return real_check(problem, strict, start=start)

    def feasible(atoms):  # one call per node of the cold search
        nodes.append(Counter(id(a.row) for a in atoms))
        return real_feasible(atoms)

    monkeypatch.setattr(smt, "lp_feasible_strict", check)
    monkeypatch.setattr(oracles, "_atoms_feasible", feasible)
    rng = random.Random(47)
    repeated = sat = 0
    for _ in range(150):
        stmt, rows, d, j, c = random_psi_inputs(rng, random_shared_statement, 6)
        problem = build_psi(stmt, d, rows, j, c)
        checks.clear()
        nodes.clear()
        got = smt_check(problem)
        cold = cold_smt_check(problem)
        assert checks == nodes
        assert got.status == cold.status
        if got.is_sat:
            sat += 1
            assert got.model.selectors == cold.model.selectors
            assert check_model(problem, got.model)
        assert got.is_sat == brute_force_smt(problem)
        repeated += any(n > 1 for counts in checks for n in counts.values())
    assert repeated > 30 and 40 < sat < 130  # 53 and 93 at this seed


def test_wide_disjunction_query():
    # 500 disjuncts nest 500 deep; both queries are unsat at d = (499, 0)
    stmt = parse_statement(" | ".join(f"x' = {i}" for i in range(500)))
    rows = [parse_linexpr("x"), parse_linexpr("-x")]
    d = [ext(499), ext(0)]
    for j in (0, 1):
        assert not smt_check(build_psi(stmt, d, rows, j, d[j])).is_sat


def test_deep_disjunction_chain_query():
    # 5,000 disjuncts nest 4,999 deep; the search keeps its path on an
    # explicit stack.  The unsat query visits every leaf.
    stmt = parse_statement(" | ".join(f"x' = {i}" for i in range(5000)))
    rows = [parse_linexpr("x"), parse_linexpr("-x")]
    d = [ext(4999), ext(0)]
    assert not smt_check(build_psi(stmt, d, rows, 0, d[0])).is_sat
    res = smt_check(build_psi(stmt, d, rows, 0, ext(4998)))
    assert res.is_sat and res.model.reals["x'"] == 4999 and res.model.selectors == {0: 1}
    res = smt_check(build_psi(stmt, d, rows, 0, ext(-1)))  # the deepest leaf
    assert res.is_sat and res.model.reals["x'"] == 0
    assert res.model.selectors == {s: 0 for s in range(4999)}


def test_determinism():
    rng = random.Random(43)
    for _ in range(30):
        stmt, rows, d, j, c = random_psi_inputs(rng)
        problem = build_psi(stmt, d, rows, j, c)
        first = smt_check(problem)
        second = smt_check(problem)
        assert first.status == second.status
        if first.is_sat:
            assert first.model == second.model


def test_emission_mentions_everything():
    # the text a session sends inside each (push 1) / (pop 1) frame
    text = _smt_declarations(running_psi((0, 0), 0, ext(0)))
    assert "(declare-const a0 Bool)" in text
    assert "(declare-const |x1'| Real)" in text
    assert "(assert " in text
    assert "(set-logic" not in text  # sent once per session
    assert "(check-sat" not in text  # epilogue belongs to the session


# -- external backend ---------------------------------------------------------

def test_external_agrees_on_examples():
    cmd = external_solver_cmd()
    for problem in (running_psi((0, 0), 0, ext(0)),
                    running_psi((2001, 2000), 0, ext(2001)),
                    problem_of("x <= 0 & 0 < x"),
                    problem_of("x = 2 | x = 3")):
        internal = smt_check(problem)
        external = smt_check_external(problem, cmd)
        assert internal.status == external.status
        if external.is_sat:
            assert check_model(problem, external.model)


def test_external_value_parsing_covers_rationals():
    problem = problem_of("3*x = -2 & y = 1/3")
    res = smt_check_external(problem, LOOPBACK)
    assert res.is_sat
    assert res.model.reals["x"] == Rat(-2, 3)
    assert res.model.reals["y"] == Rat(1, 3)


def test_external_malformed_output_is_backend_error():
    with pytest.raises(SmtBackendError):
        smt_check_external(problem_of("x <= 0"), LOOPBACK + ["--mode", "garbage"])


def test_external_unknown_is_backend_error():
    with pytest.raises(SmtBackendError):
        smt_check_external(problem_of("x <= 0"), LOOPBACK + ["--mode", "unknown"])


def test_external_missing_binary_is_backend_error():
    with pytest.raises(SmtBackendError):
        smt_check_external(problem_of("x <= 0"), ["/no/such/solver"])


def test_lying_sat_claim_fails_cross_check():
    # claim-sat answers sat with an all-false assignment and no values; on an
    # unsatisfiable problem the selected path cannot be rationalized
    with pytest.raises(SmtBackendError):
        smt_check_external(problem_of("x <= 0 & 0 < x"),
                           LOOPBACK + ["--mode", "claim-sat"])


def test_lying_unsat_claim_is_caught_by_differential_harness():
    problem = running_psi((0, 0), 0, ext(0))
    internal = smt_check(problem)
    external = smt_check_external(problem, LOOPBACK + ["--mode", "claim-unsat"])
    assert internal.status != external.status  # the harness flags the mismatch


# -- external sessions ---------------------------------------------------------

@pytest.fixture
def launched(monkeypatch):
    """Every solver process started during the test."""
    procs = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return procs


def same_answer(problem, first, second):
    assert first.status == second.status
    if first.is_sat:
        assert first.model == second.model
        assert check_model(problem, first.model)


def test_session_matches_one_shot_calls_on_reused_names(launched):
    # every problem declares a0 and x, so a frame left open fails loudly
    problems = [problem_of("x <= -1 | x = 2"), problem_of("(x <= 0 & 0 < x) | x < x"),
                problem_of("(x = 7 & 7 < x) | 3*x = 5")]
    one_shot = [smt_check_external(p, LOOPBACK) for p in problems]
    assert len(launched) == 3
    with SmtSession(LOOPBACK) as session:
        for problem, want in zip(problems, one_shot):
            same_answer(problem, smt_check_external(problem, session), want)
    assert len(launched) == 4
    assert [r.status for r in one_shot] == ["sat", "unsat", "sat"]
    assert all(p.returncode is not None for p in launched)


def test_print_success_solver_frames_correctly():
    problems = [running_psi((0, 0), 0, ext(0)), problem_of("x <= 0 & 0 < x"),
                problem_of("x = 2 | x = 3")]
    with SmtSession(LOOPBACK + ["--mode", "print-success"]) as session:
        for problem in problems:
            same_answer(problem, smt_check_external(problem, session), smt_check(problem))


def test_redeclaration_is_a_backend_error_and_closes_the_session(launched):
    session = SmtSession(LOOPBACK)
    with pytest.raises(SmtBackendError, match="already declared"):
        session.ask("(declare-const x Real)\n(declare-const x Real)\n(check-sat)\n")
    assert launched[0].returncode is not None
    with pytest.raises(SmtBackendError, match="closed"):
        smt_check_external(problem_of("x <= 0"), session)


def test_silent_solver_times_out_and_is_reaped(launched):
    started = time.monotonic()
    with pytest.raises(SmtBackendError, match="timed out"):
        smt_check_external(problem_of("x <= 0"),
                           [sys.executable, "-c", "import time; time.sleep(30)"],
                           timeout=0.5)
    assert time.monotonic() - started < 5.0
    assert len(launched) == 1 and launched[0].returncode is not None


def test_solver_stderr_is_quoted_in_the_error():
    crash = [sys.executable, "-c", "import sys; sys.stderr.write('bad licence\\n')"]
    with pytest.raises(SmtBackendError, match="bad licence"):
        smt_check_external(problem_of("x <= 0"), crash)


def load_updown():
    from invgen.cfg import compress, feedback_vertex_set
    from invgen.cli import parse_program, program_to_cfg

    with open(os.path.join(CORPUS_DIR, "updown.prg")) as handle:
        g, T = program_to_cfg(parse_program(handle.read()))
    return compress(g, feedback_vertex_set(g)), T


def test_engine_phases_reap_their_sessions(launched):
    from invgen.engine import EngineOptions, check_post_fixpoint, run

    g, T = load_updown()
    bounds, _ = run(g, T, EngineOptions(smt_cmd=LOOPBACK))
    assert check_post_fixpoint(g, T, bounds, backend=LOOPBACK).verified
    assert len(launched) == 2  # one process per phase, not per query
    with pytest.raises(SmtBackendError):
        run(g, T, EngineOptions(smt_cmd=LOOPBACK + ["--mode", "unknown"]))
    with pytest.raises(SmtBackendError):
        check_post_fixpoint(g, T, bounds, backend=LOOPBACK + ["--mode", "unknown"])
    assert len(launched) == 4
    assert all(p.returncode is not None for p in launched)


def test_analyze_shares_one_session_for_run_and_check(launched):
    from invgen.cli import analyze

    report = analyze(os.path.join(CORPUS_DIR, "updown.prg"),
                     solver=shlex.join(LOOPBACK), check=True)
    assert report.certified is True
    assert len(launched) == 1 and launched[0].returncode is not None


def test_build_psi_with_prebuilt_parts_is_the_same_query():
    # the engine builds each edge's post-state rows and statement variables
    # once per analysis; the query, its variable order and its script stay
    # the same, and its bound clause is one strict atom over the post-state
    rng = random.Random(515)
    for _ in range(200):
        stmt, rows, d, j, c = random_psi_inputs(rng)
        plain = build_psi(stmt, d, rows, j, c)
        post = rows[j].rename({v: primed(v) for v in rows[j].variables()})
        shared = build_psi(stmt, d, rows, j, c, post=post, statement_vars=formula_vars(stmt))
        assert shared.real_vars == plain.real_vars == tuple(formula_vars(plain.skeleton))
        assert _smt_declarations(shared) == _smt_declarations(plain)
        if plain is UNSAT_PROBLEM:
            continue
        region = [Atom(row, "<=", di.value) for row, di in zip(rows, d) if di.is_finite]
        bound = [Atom(post.scale(-1), "<", -c.value)] if c.is_finite else []
        assert plain.skeleton.children == tuple(region) + (stmt,) + tuple(bound)


def _psi_pair(stmt, rows, d, j, c, keep):
    """The query on ``stmt`` presolved, with its definitions, and the
    ``$v``-linked query on ``stmt`` as it is."""
    presolved, defs = eliminate_equalities(stmt, keep)
    post = rows[j].rename({v: primed(v) for v in rows[j].variables()}).substitute(defs)
    return build_psi(presolved, d, rows, j, c, post=post), defs, \
        oracles.linked_psi(stmt, d, rows, j, c)


def _same_answer(psi, defs, linked, stmt, rows, j) -> bool:
    """Same verdict and selectors; a model completed from ``defs`` satisfies
    the linked query.  Returns whether it is sat."""
    got, want = smt_check(psi), smt_check(linked)
    assert got.status == want.status
    if got.is_sat:
        assert got.model.selectors == want.model.selectors
        model = oracles.completed_model(got.model, stmt, defs, rows, j)
        assert check_model(linked, model)
    return got.is_sat


def test_presolved_queries_match_linked_queries_on_random_inputs():
    rng = random.Random(606)
    solved = sat = 0
    for _ in range(500):
        stmt, rows, d, j, c = random_psi_inputs(rng)
        if rng.random() < 0.6:  # top-level equalities for the presolve to solve
            parts = [random_update(rng, ["x0", "x1"][:rng.randint(1, 2)])]
            if rng.random() < 0.5:
                parts.append(parse_statement(rng.choice(("w = x0' - 1", "x0' = 2*w"))))
            stmt = And(parts + [stmt])
        psi, defs, linked = _psi_pair(stmt, rows, d, j, c, {"x0", "x1"})
        solved += bool(defs)
        sat += _same_answer(psi, defs, linked, stmt, rows, j)
    assert solved > 250 and 100 < sat < 400


@pytest.mark.filterwarnings("ignore:dropping nodes unreachable")
def test_presolved_queries_match_linked_queries_of_run(monkeypatch):
    from invgen import engine
    from invgen.cfg import compress, feedback_vertex_set
    from invgen.cli import analyze, gen_expo, parse_program, program_to_cfg

    queries = []
    real_psi = engine._psi

    def psi(eq, idx, d, j, c):  # every query of run, with its edge and definitions
        stmt, rows = eq.cfg.edges[idx].statement, eq.template.rows
        queries.append((real_psi(eq, idx, d, j, c), eq.definitions[idx],
                        oracles.linked_psi(stmt, d, rows, j, c), stmt, rows, j))
        return queries[-1][0]

    monkeypatch.setattr(engine, "_psi", psi)
    for path in sorted(os.listdir(CORPUS_DIR)):
        analyze(os.path.join(CORPUS_DIR, path))
    for n in (1, 2, 3):
        g, template = program_to_cfg(parse_program(gen_expo(n)))
        engine.run(compress(g, feedback_vertex_set(g)), template)
    sat = sum(_same_answer(*query) for query in queries)
    assert len(queries) > 300 and sat > 40
    assert sum(1 for q in queries if q[1]) > len(queries) // 2
