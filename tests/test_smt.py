import json
import os
import random
import shlex
import subprocess
import sys
import time
from collections import Counter

import pytest

from invgen.formula import (
    FALSE_ATOM, And, Atom, build_psi, eliminate_equalities, formula_size, formula_vars,
    parse_linexpr, parse_statement, primed, selectors_of, walk,
)
from invgen.numeric import Rat, ext
from invgen.smt import (
    SmtBackendError, SmtSession, _read_sexp, _search, _smt_declarations, smt_check,
    smt_check_external,
)

from conftest import CORPUS_DIR, LOOPBACK, external_solver_cmd
import oracles
from generators import (
    gen_diamond_chain, random_psi_inputs, random_shared_statement, random_update,
)
from oracles import atoms_of, brute_force_smt, check_model, cold_smt_check, select_path

RUNNING_BODY = ("x1 <= 1000 & x2' = -x1 & "
                "((x2' <= -1 & x1' = -2*x1) | (x2' >= 0 & x1' = -x1 + 1))")


def running_psi(d, j, c):
    stmt = parse_statement(RUNNING_BODY)
    rows = [parse_linexpr("x1"), parse_linexpr("-x1")]
    return build_psi(stmt, [ext(x) for x in d], rows, j, c)


def test_running_example_improvement_query():
    res = smt_check(running_psi((0, 0), 0, ext(0)))
    assert res.is_sat
    assert res.model.selectors == {0: 1}
    assert check_model(running_psi((0, 0), 0, ext(0)), res.model)


def test_plain_contradiction():
    assert not smt_check(parse_statement("x <= 0 & 0 < x")).is_sat
    assert not smt_check(FALSE_ATOM).is_sat


def test_disjunct_rescues_satisfiability():
    res = smt_check(parse_statement("(x <= -1 & 1 <= x) | x = 2"))
    assert res.is_sat
    assert res.model.selectors == {0: 1}
    assert res.model.reals["x"] == 2


def test_model_uses_strict_interior():
    res = smt_check(parse_statement("x < 1 & 0 < x"))
    assert res.is_sat
    assert 0 < res.model.reals["x"] < 1


def test_bound_clause_absent_for_minus_infinity():
    stmt = parse_statement("x1' = x1")
    rows = [parse_linexpr("x1")]
    from invgen.numeric import NEG_INF, POS_INF
    psi = build_psi(stmt, [POS_INF], rows, 0, NEG_INF)
    assert smt_check(psi).is_sat  # always-enabled statement, no threshold


def test_matches_brute_force_small():
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
            seq = select_path(problem, got.model.selectors)
            assert all(a.holds(got.model.reals) for a in atoms_of(seq))


def test_shared_subtrees_and_repeated_atoms(monkeypatch):
    # ``compress`` shares subtrees by identity, so one path can force an atom
    # more than once and reach a disjunction more than once.  Each theory
    # check adds only its node's branch rows to its start's system; every
    # node's whole system must still hold exactly the atoms forced at the
    # node, as a multiset.
    import invgen.smt as smt

    checks, nodes = [], []
    systems = {}  # id of a check's result -> (the result, its whole system)
    real_check, real_feasible = smt.lp_feasible_strict, oracles._atoms_feasible

    def check(constraints, start=None):
        rows = (systems[id(start)][1] if start is not None else []) + list(constraints)
        checks.append(Counter(map(id, rows)))
        result = real_check(constraints, start)
        systems[id(result)] = result, rows
        return result

    def feasible(atoms):  # one call per node of the cold search
        nodes.append(Counter(id(a) for a in atoms))
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
        systems.clear()
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
    problem = running_psi((0, 0), 0, ext(0))
    text = _smt_declarations(problem)
    assert "(declare-const sel!0 Bool)" in text
    for k in range(len(formula_vars(problem))):
        assert f"(declare-const x!{k} Real)" in text
    assert "(define-fun n!0 () Bool " in text and "(ite sel!0 " in text
    assert text.endswith(f"(assert n!{text.count('(define-fun') - 1})\n")
    assert "|" not in text  # no name needs quoting
    assert "(set-logic" not in text  # sent once per session
    assert "(check-sat" not in text  # epilogue belongs to the session


# the reserved words of SMT-LIB 2.6, the general ones, then the command
# names, and the function symbols of Core and of the reals
SMTLIB_RESERVED = (
    "! _ as BINARY DECIMAL exists forall HEXADECIMAL let match NUMERAL par STRING "
    "assert check-sat check-sat-assuming declare-const declare-datatype declare-datatypes "
    "declare-fun declare-sort define-fun define-fun-rec define-funs-rec define-sort echo "
    "exit get-assertions get-assignment get-info get-model get-option get-proof "
    "get-unsat-assumptions get-unsat-core get-value pop push reset reset-assertions "
    "set-info set-logic set-option "
    "true false not => and or xor = distinct ite + - * / <= < >= >").split()


def _analyse_both_ways(prog, tmp_path, capsys):
    """``analyze --check --json --trace`` of ``prog`` with the internal
    backend and through the loopback: the report without its wall time,
    and the trace, of each."""
    from invgen.cli import main

    outputs = []
    for flags in ([], ["--solver", "external:" + shlex.join(LOOPBACK)]):
        trace = tmp_path / f"trace{len(outputs)}.jsonl"
        assert main(["analyze", str(prog), "--check", "--json", "--trace", str(trace),
                     *flags]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["stats"]["wall_ms"]
        outputs.append((doc, trace.read_bytes()))
    return outputs


def test_theory_symbols_and_non_ascii_names_need_no_quoting(tmp_path, capsys):
    # constants are named by index, so a variable may be named like a
    # reserved word or a theory symbol, which the loopback refuses to
    # declare as a conforming solver does, or hold non-ASCII letters;
    # the whole analysis agrees through the loopback
    prog = tmp_path / "symbols.prg"
    prog.write_text("vars true and ite let xé² ; template interval ; nodes st h ; start st ;"
                    "edge st -> h : true' = 0 & and' = 1 & ite' = 0 & let' = 0 & xé²' = 0 ;"
                    "edge h -> h : true <= 5 & (true' = true + 1 | true' = true + 2) & "
                    "and' = and + ite & (ite' = let | ite' = xé²) & let' = let & "
                    "xé²' = true ;", encoding="utf-8")
    internal, external = _analyse_both_ways(prog, tmp_path, capsys)
    assert internal[0]["certified"] is True
    assert internal[0]["nodes"]["h"]["true"] == "7"
    assert external == internal


def test_non_ascii_names_are_quoted_symbols():
    # SMT-LIB2 simple symbols are ASCII only; the parser takes any
    # alphanumeric identifier, which reaches the solver as its index
    problem = parse_statement("xé² <= 1 & y_1 <= 2")
    text = _smt_declarations(problem)
    assert text.isascii()
    assert "xé²" not in text and "y_1" not in text
    assert "(declare-const x!0 Real)" in text and "(declare-const x!1 Real)" in text
    assert "|" not in text
    with SmtSession(LOOPBACK) as session:
        assert smt_check_external(problem, session) == smt_check(problem)


def test_reserved_words_are_quoted_symbols():
    # a reserved word or theory symbol is no symbol a solver declares; named
    # by its index, it names a variable like any other
    with SmtSession(LOOPBACK) as session:
        for word in SMTLIB_RESERVED:
            if not word.isidentifier():
                continue  # the parser reads "-" as minus and rejects "!"
            problem = parse_statement(f"{word} <= 1 & 0 < {word} + y")
            text = _smt_declarations(problem)
            assert f"(declare-const {word} " not in text
            assert text.startswith("(declare-const x!0 Real)\n(declare-const x!1 Real)\n")
            assert smt_check_external(problem, session) == smt_check(problem)


def test_emission_is_linear_in_a_shared_formula(tmp_path, capsys):
    # compressed, k diamonds in a row are one self-loop with 2^k paths, each
    # diamond's disjunction shared by both branches of the next; written
    # once per distinct node, its text stays within 100 characters a node,
    # where writing every shared subtree out again takes 9,600 at k = 12
    from test_engine import _compressed

    for k in (4, 8, 12):
        g, _ = _compressed(gen_diamond_chain(k))
        (stmt,) = [e.statement for e in g.edges if e.source == e.target == "h"]
        assert len(_smt_declarations(stmt)) <= 100 * formula_size(stmt)
    # the loopback rebuilds the shared graph from the definitions
    prog = tmp_path / "diamonds.prg"
    prog.write_text(gen_diamond_chain(6))
    internal, external = _analyse_both_ways(prog, tmp_path, capsys)
    assert internal[0]["nodes"]["h"] == {"x": "22", "-x": "0"}
    assert external == internal


def test_steered_search_returns_the_steered_path_when_it_is_feasible():
    # steered by every full assignment in turn, the search returns that very
    # path, with a model on it, exactly when the path is feasible
    rng = random.Random(71)
    steered = 0
    for _ in range(60):
        stmt, rows, d, j, c = random_psi_inputs(rng, max_selectors=3)
        problem = build_psi(stmt, d, rows, j, c)
        sels = sorted(selectors_of(problem))
        for bits in range(2 ** len(sels)):
            prefer = {sel: bits >> i & 1 for i, sel in enumerate(sels)}
            atoms = []
            walk(problem, prefer, atoms, [])
            feasible = oracles._atoms_feasible(atoms).feasible
            got = _search(problem, prefer)
            assert got.is_sat == smt_check(problem).is_sat
            assert feasible == (got.is_sat and got.model.selectors.items() <= prefer.items())
            if feasible:
                steered += 1
                assert check_model(problem, got.model)
    assert steered > 40  # 53 at this seed


# -- external backend ---------------------------------------------------------

def test_external_agrees_on_examples():
    cmd = external_solver_cmd()
    for problem in (running_psi((0, 0), 0, ext(0)),
                    running_psi((2001, 2000), 0, ext(2001)),
                    parse_statement("x <= 0 & 0 < x"),
                    parse_statement("x = 2 | x = 3")):
        internal = smt_check(problem)
        external = smt_check_external(problem, cmd)
        assert internal.status == external.status
        if external.is_sat:
            assert check_model(problem, external.model)


def test_external_value_parsing_covers_rationals():
    problem = parse_statement("3*x = -2 & y = 1/3")
    res = smt_check_external(problem, LOOPBACK)
    assert res.is_sat
    assert res.model.reals["x"] == Rat(-2, 3)
    assert res.model.reals["y"] == Rat(1, 3)


def test_deep_solver_answers_are_quoted_shortened():
    # a deep answer that is no verdict, or a deep error, is quoted shortened
    problem = parse_statement("3*x = -2 & y = 1/3")
    for head in ("", "error "):
        solver = [sys.executable, "-c", f"print('({head}' + '(' * 3000 + 'x' + ')' * 3001)"]
        with pytest.raises(SmtBackendError, match=r"\[\[\[.*\.\.\."):
            smt_check_external(problem, solver)


def test_no_real_value_is_read_from_the_solver():
    # this solver answers (error ...) to any get-value naming a Real, so a
    # model can only come from its selector values and the exact LP
    for problem in (parse_statement("3*x = -2 & y = 1/3"), parse_statement("x <= -1 | x = 2")):
        res = smt_check_external(problem, LOOPBACK + ["--mode", "no-real-values"])
        assert res.is_sat
        assert res.model == smt_check_external(problem, LOOPBACK).model


def test_external_malformed_output_is_backend_error():
    with pytest.raises(SmtBackendError):
        smt_check_external(parse_statement("x <= 0"), LOOPBACK + ["--mode", "garbage"])


def test_external_unknown_is_backend_error():
    with pytest.raises(SmtBackendError):
        smt_check_external(parse_statement("x <= 0"), LOOPBACK + ["--mode", "unknown"])


def test_external_missing_binary_is_backend_error():
    with pytest.raises(SmtBackendError):
        smt_check_external(parse_statement("x <= 0"), ["/no/such/solver"])


def test_unbalanced_solver_output_is_backend_error():
    with pytest.raises(SmtBackendError, match="unbalanced solver output"):
        _read_sexp(")")


def test_selector_left_out_of_the_values_is_backend_error(tmp_path):
    # this solver answers sat, then gives a value to sel!0 but not to sel!1
    script = tmp_path / "forgetful.py"
    script.write_text("import sys\n"
                      "for line in sys.stdin:\n"
                      "    if line.startswith('(check-sat)'):\n"
                      "        print('sat', flush=True)\n"
                      "    elif line.startswith('(get-value'):\n"
                      "        print('((sel!0 true))', flush=True)\n")
    with pytest.raises(SmtBackendError, match="missing Boolean value for selector 1"):
        smt_check_external(parse_statement("x <= -1 | (x = 2 | x = 3)"),
                           [sys.executable, str(script)])


def test_lying_sat_claim_fails_cross_check():
    # claim-sat answers sat with an all-false assignment and no values; on an
    # unsatisfiable problem the selected path cannot be rationalized, nor on
    # a satisfiable one whose all-false path is the contradictory branch
    for text in ("x <= 0 & 0 < x", "(x <= 0 & 0 < x) | x = 2"):
        with pytest.raises(SmtBackendError, match="selected path is infeasible"):
            smt_check_external(parse_statement(text), LOOPBACK + ["--mode", "claim-sat"])


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
    problems = [parse_statement("x <= -1 | x = 2"), parse_statement("(x <= 0 & 0 < x) | x < x"),
                parse_statement("(x = 7 & 7 < x) | 3*x = 5")]
    one_shot = [smt_check_external(p, LOOPBACK) for p in problems]
    assert len(launched) == 3
    with SmtSession(LOOPBACK) as session:
        for problem, want in zip(problems, one_shot):
            same_answer(problem, smt_check_external(problem, session), want)
    assert len(launched) == 4
    assert [r.status for r in one_shot] == ["sat", "unsat", "sat"]
    assert all(p.returncode is not None for p in launched)


def test_both_backends_give_the_same_model_on_random_queries():
    # the loopback solver names the internal search's path, so the external
    # answer must be the internal one: same selectors and the same point
    rng = random.Random(5)
    sat = 0
    with SmtSession(LOOPBACK) as session:
        for _ in range(300):
            stmt, rows, d, j, c = random_psi_inputs(rng)
            problem = build_psi(stmt, d, rows, j, c)
            internal = smt_check(problem)
            assert smt_check_external(problem, session) == internal
            sat += internal.is_sat
    assert sat > 100


def test_print_success_solver_frames_correctly():
    problems = [running_psi((0, 0), 0, ext(0)), parse_statement("x <= 0 & 0 < x"),
                parse_statement("x = 2 | x = 3")]
    with SmtSession(LOOPBACK + ["--mode", "print-success"]) as session:
        for problem in problems:
            same_answer(problem, smt_check_external(problem, session), smt_check(problem))


def test_redeclaration_is_a_backend_error_and_closes_the_session(launched):
    session = SmtSession(LOOPBACK)
    with pytest.raises(SmtBackendError, match="already declared"):
        session.ask("(declare-const x Real)\n(declare-const x Real)\n(check-sat)\n")
    assert launched[0].returncode is not None
    with pytest.raises(SmtBackendError, match="closed"):
        smt_check_external(parse_statement("x <= 0"), session)


def test_silent_solver_times_out_and_is_reaped(launched):
    started = time.monotonic()
    with pytest.raises(SmtBackendError, match="timed out"):
        smt_check_external(parse_statement("x <= 0"),
                           [sys.executable, "-c", "import time; time.sleep(30)"],
                           timeout=0.5)
    assert time.monotonic() - started < 5.0
    assert len(launched) == 1 and launched[0].returncode is not None


def test_solver_stderr_is_quoted_in_the_error():
    crash = [sys.executable, "-c", "import sys; sys.stderr.write('bad licence\\n')"]
    with pytest.raises(SmtBackendError, match="bad licence"):
        smt_check_external(parse_statement("x <= 0"), crash)


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
    # the engine builds each edge's post-state rows once per analysis; the
    # query, its variable order and its script stay the same, and its bound
    # clause is one strict atom over the post-state
    rng = random.Random(515)
    for _ in range(200):
        stmt, rows, d, j, c = random_psi_inputs(rng)
        plain = build_psi(stmt, d, rows, j, c)
        post = rows[j].rename({v: primed(v) for v in rows[j].variables()})
        shared = build_psi(stmt, d, rows, j, c, post=post)
        assert formula_vars(shared) == formula_vars(plain)
        assert _smt_declarations(shared) == _smt_declarations(plain)
        if plain is FALSE_ATOM:
            continue
        region = [Atom(row, "<=", di.value) for row, di in zip(rows, d) if di.is_finite]
        bound = [Atom(post.scale(-1), "<", -c.value)] if c.is_finite else []
        assert plain.children == tuple(region) + (stmt,) + tuple(bound)


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

    def psi(eq, idx, d, j, c):  # every query asked, with its edge and definitions
        stmt, rows = eq.cfg.edges[idx].statement, eq.template.rows
        queries.append((real_psi(eq, idx, d, j, c), eq.presolved(idx)[1],
                        oracles.linked_psi(stmt, d, rows, j, c), stmt, rows, j))
        return queries[-1][0]

    monkeypatch.setattr(engine, "_psi", psi)
    for path in sorted(os.listdir(CORPUS_DIR)):
        for local in (False, True):  # run and certification, both improvement modes
            analyze(os.path.join(CORPUS_DIR, path), local_opt=local, check=True)
    for n in (1, 2, 3):
        g, template = program_to_cfg(parse_program(gen_expo(n)))
        engine.run(compress(g, feedback_vertex_set(g)), template)
    sat = sum(_same_answer(*query) for query in queries)
    assert len(queries) > 300 and sat > 40
    assert sum(1 for q in queries if q[1]) > len(queries) // 2
