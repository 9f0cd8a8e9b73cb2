import io
import json
import random
import shlex
import time
import warnings
from types import SimpleNamespace

import pytest

from invgen import engine
from invgen.cfg import Cfg, compress, feedback_vertex_set
from invgen.cli import analyze, gen_expo, parse_program, program_to_cfg
from invgen.engine import (
    BOTTOM, TOP, EngineError, EngineOptions, EquationSystem, StratPath, Template,
    abstract_transform_row, check_post_fixpoint, evaluate, Stats, improve, kleene_oracle,
    run,
)
from invgen.formula import parse_linexpr, parse_statement
from invgen.numeric import NEG_INF, POS_INF, ext

from conftest import LOOPBACK, corpus_files
from generators import gen_chain, gen_octagon, random_cfg
from oracles import (
    atoms_of, cold_smt_check, enumerate_path_choices, eval_formula, full_evaluate,
    select_path,
)

RUNNING_BODY = ("x1 <= 1000 & x2' = -x1 & "
                "((x2' <= -1 & x1' = -2*x1) | (x2' >= 0 & x1' = -x1 + 1))")


def running_cfg():
    return Cfg(["st", "n1"], "st",
               [("st", parse_statement("x1' = 0"), "n1"),
                ("n1", parse_statement(RUNNING_BODY), "n1")],
               ["x1", "x2"])


def running_template():
    return Template([parse_linexpr("x1"), parse_linexpr("-x1")])


def expand(bounds, labels=None):
    return {f"{node}[{row}]": str(v) for (node, row), v in bounds.items()}


def test_equation_system_shape():
    eq = EquationSystem(running_cfg(), running_template())
    assert len(eq.order) == 4
    assert eq.choices[("st", 0)] == [TOP]
    assert eq.choices[("n1", 0)] == [0, 1]


def test_no_incoming_edges_means_empty_max():
    g = Cfg(["st", "dead"], "st", [], ["x"])
    T = Template([parse_linexpr("x")])
    bounds, _ = run(g, T)
    assert bounds[("st", 0)] is POS_INF
    assert bounds[("dead", 0)] is NEG_INF


def test_template_validation():
    with pytest.raises(EngineError):
        Template([])
    with pytest.raises(EngineError):
        Template([parse_linexpr("0")])
    with pytest.raises(EngineError):
        Template([parse_linexpr("x + 1")])
    with pytest.raises(EngineError):
        EquationSystem(running_cfg(), Template([parse_linexpr("zz")]))
    # a row's text labels it, and its k-th repeat gets #k
    x = parse_linexpr("x")
    assert Template([x] * 3).labels == ["x", "x#2", "x#3"]


def test_worked_iteration_trace():
    """Step the loop by hand and pin every intermediate strategy and bound."""
    eq = EquationSystem(running_cfg(), running_template())
    sigma = eq.initial_strategy()
    rho = eq.initial_bounds()

    sigma = improve(eq, sigma, rho)
    assert sigma[("st", 0)] is TOP
    assert sigma[("n1", 0)] is BOTTOM  # source bounds are still -inf
    rho = evaluate(eq, sigma, rho)
    assert rho[("n1", 0)] is NEG_INF

    sigma = improve(eq, sigma, rho)
    assert sigma[("n1", 0)] == StratPath(0, {})
    assert sigma[("n1", 1)] == StratPath(0, {})
    rho = evaluate(eq, sigma, rho)
    assert rho[("n1", 0)] == ext(0) and rho[("n1", 1)] == ext(0)

    sigma = improve(eq, sigma, rho)
    assert sigma[("n1", 0)] == StratPath(1, {0: 1})  # loop edge, second disjunct
    assert sigma[("n1", 1)] == StratPath(0, {})      # unchanged
    rho = evaluate(eq, sigma, rho)
    assert rho[("n1", 0)] == ext(1) and rho[("n1", 1)] == ext(0)

    sigma = improve(eq, sigma, rho)
    assert sigma[("n1", 1)] == StratPath(1, {0: 0})  # loop edge, first disjunct
    rho = evaluate(eq, sigma, rho)
    assert rho[("n1", 0)] == ext(2001) and rho[("n1", 1)] == ext(2000)

    assert improve(eq, sigma, rho) is None  # stable: least solution reached


def test_run_returns_least_solution_and_stats():
    bounds, stats = run(running_cfg(), running_template())
    assert bounds[("n1", 0)] == ext(2001)
    assert bounds[("n1", 1)] == ext(2000)
    assert bounds[("st", 0)] is POS_INF
    assert stats.improvement_steps == 4
    assert stats.converged
    assert stats.smt_queries > 0 and stats.lp_solves > 0


def test_ascent_is_monotone_and_strict_while_running():
    eq = EquationSystem(running_cfg(), running_template())
    sigma = eq.initial_strategy()
    rho = eq.initial_bounds()
    while True:
        improved = improve(eq, sigma, rho)
        if improved is None:
            break
        sigma = improved
        new = evaluate(eq, sigma, rho)
        assert all(new[k] >= rho[k] for k in eq.order)
        assert any(new[k] > rho[k] for k in eq.order)
        rho = new
        # after every evaluation the bounds are a pre-solution of the
        # chosen system: every chosen operand evaluates to at least rho
        for key in eq.order:
            entry = sigma[key]
            if isinstance(entry, StratPath):
                assert _entry_value(eq, key, entry, rho) >= rho[key]
            elif entry is TOP:
                assert rho[key] is POS_INF


def test_evaluate_all_bottom_is_identity():
    eq = EquationSystem(running_cfg(), running_template())
    sigma = eq.initial_strategy()
    rho = eq.initial_bounds()
    assert evaluate(eq, sigma, rho) == rho


def test_component_reading_a_bottom_source_is_neg_inf():
    # b reads a, whose keys are bottom, so b's region is empty.  improve
    # never builds this strategy (a query from a -inf source is false), so
    # the rule is only reached by hand
    g = Cfg(["st", "a", "b"], "st",
            [("st", parse_statement("x' = 0"), "a"), ("a", parse_statement("x' = x + 1"), "b")],
            ["x"])
    eq = EquationSystem(g, Template([parse_linexpr("x"), parse_linexpr("-x")]))
    sigma = {("st", 0): TOP, ("st", 1): TOP, ("a", 0): BOTTOM, ("a", 1): BOTTOM,
             ("b", 0): StratPath(1, {}), ("b", 1): StratPath(1, {})}
    rho = evaluate(eq, sigma, eq.initial_bounds())
    assert rho[("st", 0)] is POS_INF and rho[("a", 0)] is NEG_INF
    assert rho[("b", 0)] is NEG_INF and rho[("b", 1)] is NEG_INF


def test_improve_never_touches_equal_value_choices():
    eq = EquationSystem(running_cfg(), running_template())
    sigma = eq.initial_strategy()
    rho = eq.initial_bounds()
    for _ in range(3):
        sigma = improve(eq, sigma, rho)
        rho = evaluate(eq, sigma, rho)
    # at rho3 the init-edge choice for (n1, 1) is exactly rho's value (0):
    # not strictly better, so the strategy entry must stay
    assert rho[("n1", 1)] == ext(0)
    sigma4 = improve(eq, sigma, rho)
    assert sigma4[("n1", 1)] != sigma[("n1", 1)]  # changed to the loop edge
    assert sigma4[("n1", 0)] == sigma[("n1", 0)]  # kept: no better choice


def test_max_iters_cap_flags_nonfinal():
    bounds, stats = run(running_cfg(), running_template(),
                        EngineOptions(max_iters=2))
    assert not stats.converged
    assert stats.improvement_steps == 2
    assert bounds[("n1", 0)] == ext(0)  # sound from below


@pytest.mark.parametrize("cap", [0, -1])
def test_max_iters_below_one_is_rejected_before_any_step(cap):
    # a cap that allows no step would otherwise still run one and report
    # it as non-final; the CLI rejects the same values as a usage error
    sink = io.StringIO()
    with pytest.raises(EngineError, match="max_iters"):
        run(running_cfg(), running_template(), EngineOptions(max_iters=cap, trace=sink))
    assert sink.getvalue() == ""


def test_trace_records_every_step():
    sink = io.StringIO()
    run(running_cfg(), running_template(), EngineOptions(trace=sink))
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [r["step"] for r in records] == [1, 2, 3, 4]
    assert records[1]["rho"]["n1"]["x1"] == "0"
    assert records[2]["rho"]["n1"]["x1"] == "1"
    assert records[3]["rho"]["n1"]["x1"] == "2001"
    assert all("changed" in r for r in records)


def test_abstract_transform_row_cases():
    T = running_template()
    body = atoms_of(select_path(parse_statement(RUNNING_BODY), {0: 1}))
    # from the point region {x1 = 0}: sup of x1' is 1
    assert abstract_transform_row(body, [ext(0), ext(0)], T, 0) == ext(1)
    # empty source region
    assert abstract_transform_row(body, [NEG_INF, ext(0)], T, 0) is NEG_INF
    # disabled guard: x2' = -x1 <= -1 needs x1 >= 1, but x1 <= 0
    guarded = atoms_of(select_path(parse_statement(RUNNING_BODY), {0: 0}))
    assert abstract_transform_row(guarded, [ext(0), ext(0)], T, 0) is NEG_INF
    # unbounded image
    free = atoms_of(parse_statement("x1' = x1"))
    assert abstract_transform_row(free, [POS_INF, POS_INF], T, 0) is POS_INF


def test_strict_supremum_uses_closure():
    T = Template([parse_linexpr("x")])
    stmt = atoms_of(parse_statement("x < 5 & x' = x + 1"))
    # nonempty strict region: sup over the closure
    assert abstract_transform_row(stmt, [ext(10)], T, 0) == ext(6)
    # empty strict region: x < 5 and x >= 5 from the template row side is fine,
    # but x < 5 with source x <= 4 still nonempty; emptiness via the guard:
    empty = atoms_of(parse_statement("x < 5 & 5 < x & x' = 0"))
    assert abstract_transform_row(empty, [ext(10)], T, 0) is NEG_INF


def test_local_opt_on_running_example_matches_plain():
    # only one improving path exists at rho2, so both operators agree
    eq = EquationSystem(running_cfg(), running_template())
    sigma = eq.initial_strategy()
    rho = eq.initial_bounds()
    for _ in range(2):
        sigma = improve(eq, sigma, rho)
        rho = evaluate(eq, sigma, rho)
    plain = improve(eq, sigma, rho)
    best = improve(eq, sigma, rho, local=True)
    assert plain[("n1", 0)] == best[("n1", 0)] == StratPath(1, {0: 1})
    bounds, stats = run(running_cfg(), running_template(),
                        EngineOptions(local_opt=True))
    assert bounds[("n1", 0)] == ext(2001)


def test_local_opt_dominates_every_path_value():
    rng = random.Random(31)
    checked = 0
    for _ in range(25):
        g = random_cfg(rng)
        cut = feedback_vertex_set(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = compress(g, cut)
        T = Template([parse_linexpr("x"), parse_linexpr("-x"),
                      parse_linexpr("y"), parse_linexpr("-y")])
        eq = EquationSystem(g, T)
        sigma = eq.initial_strategy()
        rho = eq.initial_bounds()
        for _ in range(3):
            improved = improve(eq, sigma, rho, local=True)
            if improved is None:
                break
            sigma = improved
            rho = evaluate(eq, sigma, rho)
        improved = improve(eq, sigma, rho, local=True)
        if improved is None:
            continue
        for key in eq.order:
            entry = improved[key]
            if not isinstance(entry, StratPath):
                continue
            chosen = _entry_value(eq, key, entry, rho)
            for idx in eq.choices[key]:
                edge = eq.cfg.edges[idx]
                d = [rho[(edge.source, i)] for i in range(len(T))]
                for path in enumerate_path_choices(edge.statement):
                    seq = select_path(edge.statement, path)
                    val = abstract_transform_row(atoms_of(seq), d, T, key[1])
                    assert chosen >= val
                    checked += 1
    assert checked > 50


def _entry_value(eq, key, entry, rho):
    edge = eq.cfg.edges[entry.edge_index]
    d = [rho[(edge.source, i)] for i in range(len(eq.template))]
    seq = select_path(edge.statement, entry.path)
    return abstract_transform_row(atoms_of(seq), d, eq.template, key[1])


@pytest.mark.filterwarnings("ignore:dropping nodes unreachable")
def test_local_opt_entry_values_match_the_transformer(monkeypatch):
    # --local-opt reads each improving entry's value from one LP over its
    # evaluation rows (the presolved statement, strict atoms relaxed); it
    # must be the transformer's over the statement as parsed
    from invgen.cli import gen_expo

    values = []
    real = engine._entry_value

    def entry_value(eq, key, entry, bounds, stats):
        value = real(eq, key, entry, bounds, stats)
        if isinstance(entry, StratPath):
            values.append((value, _entry_value(eq, key, entry, bounds), key, entry))
        return value

    monkeypatch.setattr(engine, "_entry_value", entry_value)
    for path in corpus_files():
        analyze(path, local_opt=True)
    for n in (1, 2, 3, 4):
        g, template = program_to_cfg(parse_program(gen_expo(n)))
        run(compress(g, feedback_vertex_set(g)), template, EngineOptions(local_opt=True))
    rng = random.Random(37)
    T = Template([parse_linexpr(row) for row in ("x", "-x", "y", "-y", "x - y")])
    for _ in range(100):
        g = random_cfg(rng)
        run(compress(g, feedback_vertex_set(g)), T, EngineOptions(local_opt=True))
    for got, want, key, entry in values:
        assert got == want, (key, entry)
    assert len(values) > 300
    assert sum(1 for got, *_ in values if got.is_pos_inf) > 50


def test_evaluate_detects_infinity_by_unboundedness():
    g = Cfg(["st", "n"], "st",
             [("st", parse_statement("x' = 0"), "n"),
              ("n", parse_statement("x' = x + 1"), "n")], ["x"])
    T = Template([parse_linexpr("x")])
    bounds, stats = run(g, T)
    assert bounds[("n", 0)] is POS_INF


def test_kleene_oracle_matches_run_on_running_example():
    g, T = running_cfg(), running_template()
    bounds, _ = run(g, T)
    oracle = kleene_oracle(g, T, max_steps=5000)
    assert oracle is not None
    assert oracle == bounds


def test_kleene_oracle_on_acyclic_graph_converges_fast():
    g = Cfg(["a", "b", "c"], "a",
             [("a", parse_statement("x' = 1"), "b"),
              ("b", parse_statement("x' = x + 1"), "c")], ["x"])
    T = Template([parse_linexpr("x"), parse_linexpr("-x")])
    oracle = kleene_oracle(g, T, max_steps=len(g.nodes) + 1)
    assert oracle is not None
    assert oracle[("c", 0)] == ext(2) and oracle[("c", 1)] == ext(-2)


def test_kleene_oracle_intro_loop_converges_quickly(corpus_dir):
    import os

    from invgen.cli import parse_program, program_to_cfg

    with open(os.path.join(corpus_dir, "loop1.prg")) as handle:
        prog = parse_program(handle.read())
    g, T = program_to_cfg(prog)
    g = compress(g, frozenset(prog.cutset))
    # hand iteration at the head: 0, 2, 4, 6, 8, 10, 11; the exit node lags
    # one application behind and the fixpoint needs one confirming pass
    oracle = kleene_oracle(g, T, max_steps=10)
    assert oracle is not None
    assert oracle[("h", 0)] == ext(11) and oracle[("h", 1)] == ext(0)
    assert oracle[("end", 0)] == ext(11) and oracle[("end", 1)] == ext(-10)
    assert kleene_oracle(g, T, max_steps=3) is None


def test_kleene_oracle_reports_divergence():
    g = Cfg(["st", "n"], "st",
             [("st", parse_statement("x' = 0"), "n"),
              ("n", parse_statement("x' = x + 1"), "n")], ["x"])
    T = Template([parse_linexpr("x")])
    assert kleene_oracle(g, T, max_steps=50) is None


def test_certification_of_final_result():
    g, T = running_cfg(), running_template()
    bounds, _ = run(g, T)
    assert check_post_fixpoint(g, T, bounds).verified


def test_certification_rejects_weakened_bounds():
    g, T = running_cfg(), running_template()
    bounds, _ = run(g, T)
    bad = dict(bounds)
    bad[("n1", 0)] = ext(2000)  # claim x1 <= 2000 instead of 2001
    cert = check_post_fixpoint(g, T, bad)
    assert not cert.verified
    assert cert.row == 0
    edge = g.edges[cert.edge_index]
    model = cert.model
    # the witness satisfies the edge formula ...
    assert eval_formula(edge.statement, model.reals, model.selectors)
    # ... starts inside the claimed bounds ...
    assert model.reals["x1"] <= 2000 and -model.reals["x1"] <= 2000
    # ... and lands strictly above the claimed row bound
    assert model.reals["x1'"] > 2000


def test_certification_vacuous_on_all_infinite_bounds():
    g, T = running_cfg(), running_template()
    bounds = {key: POS_INF for key in EquationSystem(g, T).order}
    assert check_post_fixpoint(g, T, bounds).verified


def test_certification_rejects_start_rows_below_infinity():
    # a start row's equation is the constant +inf, so a vector that leaves
    # out the initial states is no post-fixpoint, however the edges map it
    g, T = running_cfg(), running_template()
    nothing = {key: NEG_INF for key in EquationSystem(g, T).order}
    cert = check_post_fixpoint(g, T, nothing)
    assert (cert.verified, cert.edge_index, cert.row) == (False, None, 0)
    bounds, _ = run(g, T)
    assert check_post_fixpoint(g, T, bounds).verified
    for j in range(len(T)):
        lowered = dict(bounds)
        lowered[("st", j)] = ext(0)
        cert = check_post_fixpoint(g, T, lowered)
        assert (cert.verified, cert.edge_index, cert.row) == (False, None, j)


def test_random_programs_certify_and_match_oracle():
    rng = random.Random(999)
    agree = 0
    for _ in range(20):
        g = random_cfg(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = compress(g, feedback_vertex_set(g))
        T = Template([parse_linexpr(s) for s in ("x", "-x", "y", "-y")])
        bounds, _ = run(g, T)
        assert check_post_fixpoint(g, T, bounds).verified
        other, _ = run(g, T, EngineOptions(local_opt=True))
        assert other == bounds  # operator choice cannot change the least solution
        oracle = kleene_oracle(g, T, max_steps=400)
        if oracle is not None:
            assert oracle == bounds
            agree += 1
    assert agree >= 10


def test_octagon_family_matches_kleene_oracle_and_certifies():
    # the octagon family scales the template: 2n^2 rows over n variables
    for n in (2, 3):
        g, T = program_to_cfg(parse_program(gen_octagon(n)))
        g = compress(g, feedback_vertex_set(g))
        assert len(T.rows) == 2 * n * n
        bounds, stats = run(g, T)
        assert stats.converged and stats.improvement_steps == 3
        assert bounds == kleene_oracle(g, T, max_steps=100)
        assert check_post_fixpoint(g, T, bounds).verified


def test_deterministic_runs():
    sink1, sink2 = io.StringIO(), io.StringIO()
    b1, s1 = run(running_cfg(), running_template(), EngineOptions(trace=sink1))
    b2, s2 = run(running_cfg(), running_template(), EngineOptions(trace=sink2))
    assert b1 == b2
    assert (s1.improvement_steps, s1.smt_queries, s1.lp_solves) == \
        (s2.improvement_steps, s2.smt_queries, s2.lp_solves)
    assert sink1.getvalue() == sink2.getvalue()


# -- incremental evaluation against the per-variable oracle ---------------------

@pytest.fixture
def checked_evaluate(monkeypatch):
    """Check every evaluation inside ``run`` against ``full_evaluate``;
    returns the number of evaluations checked and the sizes of the
    components solved, so far."""
    seen = SimpleNamespace(evaluations=0, sizes=[])
    evaluate, solve_component = engine.evaluate, engine._solve_component

    def checked(eq, strategy, bounds, stats=None, changed=None):
        got = evaluate(eq, strategy, bounds, stats, changed)
        assert got == full_evaluate(eq, strategy, bounds)
        seen.evaluations += 1
        return got

    def recorded(eq, component, *args):
        seen.sizes.append(len(component))
        return solve_component(eq, component, *args)

    monkeypatch.setattr(engine, "evaluate", checked)
    monkeypatch.setattr(engine, "_solve_component", recorded)
    return seen


def test_incremental_evaluation_matches_full_evaluation(checked_evaluate):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unreachable nodes in the corpus
        for path in corpus_files():
            analyze(path)
    for n in (2, 3):
        g, T = program_to_cfg(parse_program(gen_octagon(n)))
        run(compress(g, feedback_vertex_set(g)), T)
    rng = random.Random(4242)
    T = Template([parse_linexpr(s) for s in ("x", "-x", "y", "-y")])
    for _ in range(20):
        g = random_cfg(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = compress(g, feedback_vertex_set(g))
        run(g, T)
    assert checked_evaluate.evaluations > 50
    assert 1 in checked_evaluate.sizes and max(checked_evaluate.sizes) > 1


def _loop_cfg(loop: str) -> Cfg:
    return Cfg(["st", "n"], "st",
               [("st", parse_statement("x' = 0 & y' = 0"), "n"),
                ("n", parse_statement(loop), "n")], ["x", "y"])


def test_unbounded_component_falls_back_to_one_lp_per_variable():
    # both rows at n read both rows at n: one component of two keys whose
    # sum LP is unbounded, since y' = y leaves the y row free
    eq = EquationSystem(_loop_cfg("x <= 5 & x' = x + 1 & y' = y"),
                        Template([parse_linexpr("x"), parse_linexpr("y")]))
    strategy = {("st", 0): TOP, ("st", 1): TOP,
                ("n", 0): StratPath(1, {}), ("n", 1): StratPath(1, {})}
    stats = Stats()
    got = evaluate(eq, strategy, eq.initial_bounds(), stats)
    assert got[("n", 0)] == ext(6) and got[("n", 1)] is POS_INF
    assert stats.lp_solves == 3  # the sum LP, then one per variable
    assert got == full_evaluate(eq, strategy, eq.initial_bounds())


def test_one_key_component_without_bound_is_infinite():
    eq = EquationSystem(_loop_cfg("x' = x + 1 & y' = 0"),
                        Template([parse_linexpr("x"), parse_linexpr("y")]))
    strategy = {("st", 0): TOP, ("st", 1): TOP,
                ("n", 0): StratPath(1, {}), ("n", 1): StratPath(0, {})}
    stats = Stats()
    got = evaluate(eq, strategy, eq.initial_bounds(), stats)
    # (n, 1) reads only st; (n, 0) reads both rows at n, so it comes second
    assert got[("n", 0)] is POS_INF and got[("n", 1)] == ext(0)
    assert stats.lp_solves == 2
    assert got == full_evaluate(eq, strategy, eq.initial_bounds())


def test_keys_outside_the_affected_set_keep_their_bounds():
    g = Cfg(["st", "a", "b"], "st",
            [("st", parse_statement("x' = 0"), "a"),
             ("st", parse_statement("x' = 1"), "b"),
             ("a", parse_statement("x <= 3 & x' = x + 1"), "a"),
             ("b", parse_statement("x <= 7 & x' = x + 1"), "b")], ["x"])
    eq = EquationSystem(g, Template([parse_linexpr("x")]))
    first = {("st", 0): TOP, ("a", 0): StratPath(0, {}),
             ("b", 0): StratPath(1, {})}
    bounds = evaluate(eq, first, eq.initial_bounds())
    assert bounds == {("st", 0): POS_INF, ("a", 0): ext(0), ("b", 0): ext(1)}
    second = dict(first)
    second[("a", 0)] = StratPath(2, {})
    stats = Stats()
    got = evaluate(eq, second, bounds, stats, [("a", 0)])
    assert got == full_evaluate(eq, second, bounds)
    assert got[("a", 0)] == ext(4) and stats.lp_solves == 1
    # (b, 0) reads nothing that changed: its bound is kept, not solved again
    low = dict(bounds)
    low[("b", 0)] = ext(0)
    assert evaluate(eq, second, low, None, [("a", 0)])[("b", 0)] == ext(0)
    assert evaluate(eq, second, low)[("b", 0)] == ext(1)


OCTAGON_GATE_S = 3.0


def _octagon_within_time_gate(n):
    # the template grows with the square of the variables; these sizes are
    # checked for speed and certification only (Kleene iteration is too slow)
    started = time.perf_counter()
    g, T = program_to_cfg(parse_program(gen_octagon(n)))
    g = compress(g, feedback_vertex_set(g))
    bounds, stats = run(g, T)
    assert stats.converged and stats.improvement_steps == 3
    assert check_post_fixpoint(g, T, bounds).verified
    elapsed = time.perf_counter() - started
    assert elapsed < OCTAGON_GATE_S, f"gen_octagon({n}) took {elapsed:.2f} s"


def test_octagon_four_variables_within_time_gate():
    _octagon_within_time_gate(4)


def test_octagon_six_variables_within_time_gate():
    # one evaluation LP of 1,554 rows over 147 variables, 1.4 % dense: a
    # tableau must pay for its nonzeros, not for its 1,848 columns
    _octagon_within_time_gate(6)


# -- what improvement asks -------------------------------------------------------

def _compressed(text):
    g, T = program_to_cfg(parse_program(text))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compress(g, feedback_vertex_set(g)), T


def test_chain_of_loops_asks_linearly_many_queries():
    # k + 1 loops in a row: a loop's unsat answers hold until its own source
    # bounds move, so the queries grow linearly in k, not quadratically
    for k in (10, 40):
        g, T = _compressed(gen_chain(k))
        bounds, stats = run(g, T)
        assert stats.converged and stats.improvement_steps == 2 * k + 3
        assert stats.smt_queries <= 30 * k
        assert bounds[(f"l{k}", T.labels.index("x"))] == ext(10 * (k + 1) + 1)
        assert check_post_fixpoint(g, T, bounds).verified


def test_memo_skips_only_unsat_queries(monkeypatch):
    # every (edge, row) query that the unsat memo skips is asked again, of
    # the cold oracle search, and must be unsat
    known_unsat = engine._known_unsat
    skipped = []

    def checked(eq, idx, d, j, c):
        if not known_unsat(eq, idx, d, j, c):
            return False
        assert not cold_smt_check(engine._psi(eq, idx, d, j, c)).is_sat
        skipped.append(idx)
        return True

    monkeypatch.setattr(engine, "_known_unsat", checked)
    texts = [gen_expo(n) for n in (1, 2, 3, 4)] + [gen_octagon(n) for n in (2, 3, 4)]
    programs = [_compressed(text) for text in texts + [gen_chain(10)]]
    rng = random.Random(2828)
    T = Template([parse_linexpr(s) for s in ("x", "-x", "y", "-y")])
    for _ in range(30):
        g = random_cfg(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            programs.append((compress(g, feedback_vertex_set(g)), T))
    for local in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # unreachable nodes in the corpus
            for path in corpus_files():
                analyze(path, local_opt=local)
        for g, T in programs:
            run(g, T, EngineOptions(local_opt=local))
    assert len(skipped) > 2000  # 3,897 at this seed


def test_memo_answers_for_the_same_source_bounds_and_no_lower_threshold():
    # the loop takes x up to 6: unsat against 6, so against 7 too, but not
    # against 5, nor once x's bound at the source has moved
    eq = EquationSystem(_loop_cfg("x <= 5 & x' = x + 1 & y' = y"),
                        Template([parse_linexpr("x"), parse_linexpr("y")]))
    bounds = {("st", 0): POS_INF, ("st", 1): POS_INF, ("n", 0): ext(6), ("n", 1): ext(0)}
    moved = dict(bounds)
    moved[("n", 1)] = ext(1)
    stats = Stats()
    for at, threshold, want, queries in ((bounds, ext(6), None, 2), (bounds, ext(7), None, 2),
                                         (bounds, ext(5), StratPath(1, {}), 4),
                                         (moved, ext(7), None, 5)):
        got = engine._find_improving(eq, ("n", 0), at, threshold, stats, None)
        assert (got, stats.smt_queries) == (want, queries)


def test_empty_source_region_reaches_no_backend(monkeypatch):
    # a query from a -inf source bound is unsat without a query: neither
    # backend sees it, and it is not counted
    query, internal, external = engine._query, engine.smt_check, engine.smt_check_external
    seen = SimpleNamespace(empty=False, empties=0, asked=0)

    def watched(eq, idx, d, j, c, stats, backend):
        seen.empty = any(di.is_neg_inf for di in d)
        seen.empties += seen.empty
        try:
            return query(eq, idx, d, j, c, stats, backend)
        finally:
            seen.empty = False

    def asked(check):
        def asked_check(formula, *backend):
            assert not seen.empty
            seen.asked += 1
            return check(formula, *backend)
        return asked_check

    monkeypatch.setattr(engine, "_query", watched)
    monkeypatch.setattr(engine, "smt_check", asked(internal))
    monkeypatch.setattr(engine, "smt_check_external", asked(external))
    counted = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unreachable nodes in the corpus
        for path in corpus_files():
            counted += analyze(path, check=True).stats.smt_queries
        for path in corpus_files()[:4]:
            counted += analyze(path, check=True, solver=shlex.join(LOOPBACK)).stats.smt_queries
    assert seen.empties > 50 and seen.asked == counted  # 94 and 298
