import random

import pytest

from invgen.lp import (
    Constraint, FeasResult, INFEASIBLE, LpError, LpProblem, LpResult, OPTIMAL,
    UNBOUNDED, _Tableau, lp_feasible_strict, lp_solve,
)
from invgen.numeric import Rat

from generators import degenerate_lp, random_lp, sparse_lp
from oracles import (
    _RationalTableau, constraint_of, fm_feasible, fm_solve, fm_strict_rows, lp_text, negated,
    rational_lp_solve, rows_of, strictly,
)


def lp(variables, objective, rows):
    """An LP of (coefficients, relation, right-hand side) rows, each ``=``
    written as its two ``<=`` rows."""
    return LpProblem(variables, objective,
                     [r for c, rel, rhs in rows for r in rows_of(c, rel, rhs)])


def test_single_bound():
    res = lp_solve(lp(["x"], {"x": 1}, [({"x": 1}, "<=", 5)]))
    assert res.status == OPTIMAL
    assert res.value == 5
    assert res.witness["x"] == 5


def test_strategy_evaluation_example():
    # max d11 st. d11 <= -x1+1, x1 <= 0, x1 <= d11, -x1 <= d12, d12 <= 0
    res = lp_solve(lp(
        ["d11", "d12", "x1"], {"d11": 1},
        [({"d11": 1, "x1": 1}, "<=", 1),
         ({"x1": 1}, "<=", 0),
         ({"x1": 1, "d11": -1}, "<=", 0),
         ({"x1": -1, "d12": -1}, "<=", 0),
         ({"d12": 1}, "<=", 0)]))
    assert res.status == OPTIMAL
    assert res.value == 1


def test_infeasible_and_unbounded():
    assert lp_solve(lp(["x"], {}, [({"x": 1}, "<=", -1),
                                   ({"x": -1}, "<=", -1)])).status == INFEASIBLE
    assert lp_solve(lp(["x"], {"x": 1}, [({"x": -1}, "<=", 0)])).status == UNBOUNDED


def test_equality_rows():
    res = lp_solve(lp(["x", "y"], {"y": 1},
                      [({"x": 1}, "=", Rat(7, 2)), ({"y": 1, "x": -1}, "<=", 1)]))
    assert res.status == OPTIMAL
    assert res.value == Rat(9, 2)
    assert res.witness["x"] == Rat(7, 2)


def test_degenerate_and_redundant_rows():
    res = lp_solve(lp(["x", "y"], {"x": 1, "y": 1},
                      [({"x": 1, "y": 1}, "<=", 2),
                       ({"x": 1, "y": 1}, "<=", 2),
                       ({"x": 1}, "=", 1),
                       ({"y": 1}, "<=", 1)]))
    assert res.status == OPTIMAL
    assert res.value == 2


def test_constant_rows():
    assert lp_solve(lp(["x"], {}, [({}, "<=", -1)])).status == INFEASIBLE
    assert lp_solve(lp(["x"], {}, [({}, "<=", 1)])).status == OPTIMAL


def test_undeclared_variable_rejected():
    with pytest.raises(LpError):
        lp(["x"], {"y": 1}, [])
    with pytest.raises(LpError):
        lp(["x"], {}, [({"z": 1}, "<=", 0)])


def test_strict_feasibility_basics():
    p = lp(["x"], {}, [({"x": 1}, "<=", 0), ({"x": -1}, "<=", 0)])
    assert not lp_feasible_strict(strictly(p.constraints, {0})).feasible  # x < 0 and x >= 0
    p = lp(["x"], {}, [({"x": 1}, "<=", 1)])
    got = lp_feasible_strict(strictly(p.constraints, {0}))  # x < 1
    assert got.feasible and got.witness["x"] < 1
    with pytest.raises(LpError):
        lp_feasible_strict([constraint_of({"$strict": 1}, 0)])  # reserved name


def test_lp_solve_reads_a_strict_row_as_its_closure():
    # only lp_feasible_strict reads strictness: max x subject to x < 1 is 1
    res = lp_solve(LpProblem(["x"], {"x": 1}, strictly([constraint_of({"x": 1}, 1)], {0})))
    assert (res.status, res.value) == (OPTIMAL, 1)


def test_strict_needs_interior_point():
    # 0 <= x and x < epsilon for every epsilon is fine; x < 0 with x >= 0 is not
    p = lp(["x", "y"], {}, [({"x": 1, "y": -1}, "<=", 0),
                            ({"y": 1, "x": -1}, "<=", 0)])
    assert not lp_feasible_strict(strictly(p.constraints, {0})).feasible  # x < y and y <= x


def test_witness_satisfies_all_rows_exactly():
    rng = random.Random(7)
    for _ in range(150):
        problem = random_lp(rng)
        res = lp_solve(problem)
        if res.status != OPTIMAL:
            continue
        value = sum((c * res.witness[v] for v, c in problem.objective.items()), Rat(0))
        assert value == res.value
        for row in problem.constraints:
            total = sum((q * res.witness[v] for v, q in row.coeffs), Rat(0))
            assert total <= row.rhs


def test_matches_fourier_motzkin_oracle_small():
    rng = random.Random(11)
    for _ in range(120):
        problem = random_lp(rng)
        status, value = fm_solve(problem)
        res = lp_solve(problem)
        assert res.status == status
        if status == OPTIMAL:
            assert res.value == value


DEGENERATE = [
    lp(["x", "y"], {"x": 1, "y": 1},
       [({"x": 1, "y": 1}, "<=", 2), ({"x": -1}, "<=", 0), ({"y": -1}, "<=", 0)]),
    lp(["x", "y"], {"x": 1, "y": 1},
       [({"x": 1, "y": 1}, "<=", 2), ({"x": 1, "y": 1}, "<=", 2),
        ({"x": 1}, "=", 1), ({"y": 1}, "<=", 1)]),
    lp(["x", "y", "z"], {"x": 1, "y": 2, "z": -1},
       [({"x": 1, "y": 1}, "<=", 0), ({"x": 1, "z": -1}, "<=", 0),
        ({"y": 1, "z": 1}, "<=", 0), ({"x": -1}, "<=", 0), ({"y": 1}, "=", 0)]),
    # The slack basis is infeasible on three or more rows with equal negative
    # right-hand sides and every reduced cost is 0, so every dual ratio ties
    # and the least-index rules pick every pivot.
    lp(["x", "y", "z"], {"x": 1, "y": 1, "z": 1},
       [({"x": -1, "y": -1}, "<=", -1), ({"y": -1, "z": -1}, "<=", -1),
        ({"x": -1, "z": -1}, "<=", -1), ({"x": 1, "y": 1, "z": 1}, "<=", 3)]),
    # one "=" row given three times: the redundant pairs stay in the tableau
    lp(["x", "y"], {"x": 1},
       [({"x": 1, "y": 1}, "=", -2), ({"x": 1, "y": 1}, "=", -2),
        ({"x": 1, "y": 1}, "=", -2), ({"y": -1}, "<=", 4)]),
    lp(["x", "y"], {"x": 1, "y": -1},
       [({"x": -1}, "<=", -1), ({"y": -1}, "<=", -1), ({"x": -1, "y": -1}, "<=", -1),
        ({"x": 1, "y": -1}, "=", 0)]),
    lp(["x", "y"], {},
       [({"x": 1}, "<=", -1), ({"y": 1}, "<=", -1), ({"x": -1, "y": -1}, "<=", -1)]),
    lp(["x", "y"], {"x": 1, "y": 1},
       [({"x": -1}, "<=", -1), ({"y": -1}, "<=", -1), ({"x": -1, "y": -1}, "<=", -1)]),
]


def test_degenerate_cases_match_fourier_motzkin_oracle():
    want = [(OPTIMAL, 2), (OPTIMAL, 2), (OPTIMAL, 0), (OPTIMAL, 3), (OPTIMAL, 2),
            (OPTIMAL, 0), (INFEASIBLE, None), (UNBOUNDED, None)]
    for problem, (status, value) in zip(DEGENERATE, want, strict=True):
        res = lp_solve(problem)
        assert (res.status, res.value) == fm_solve(problem) == (status, value), \
            lp_text(problem)


def test_matches_rational_tableau_oracle(monkeypatch):
    # Exactly the pivots: both tableaus number rows and columns alike, so
    # their (leave, enter) sequences must be equal, and with them the
    # witness, even where the optimum is not unique.
    pivots = {_Tableau: [], _RationalTableau: []}
    for cls, log in pivots.items():
        def recorded(self, leave, enter, pivot=cls._pivot, log=log):
            log.append((leave, enter))
            pivot(self, leave, enter)
        monkeypatch.setattr(cls, "_pivot", recorded)
    rng = random.Random(23)
    problems = DEGENERATE + [random_lp(rng) for _ in range(300)] + \
        [degenerate_lp(rng) for _ in range(300)] + [sparse_lp(rng) for _ in range(100)]
    total = 0
    for problem in problems:
        for log in pivots.values():
            log.clear()
        assert lp_solve(problem) == rational_lp_solve(problem), lp_text(problem)
        assert pivots[_Tableau] == pivots[_RationalTableau], lp_text(problem)
        total += len(pivots[_Tableau])
    assert total > len(problems)


def _scaled(problem, rng):
    """Each row, and the objective, times a positive rational with a big
    numerator and denominator."""
    def factor():
        return Rat(10**12 + rng.randint(1, 999), 7 ** rng.randint(1, 12))

    rows = []
    for row in problem.constraints:
        f = factor()
        rows.append(Constraint(tuple((v, q * f) for v, q in row.coeffs), row.rhs * f))
    f = factor()
    objective = {v: c * f for v, c in problem.objective.items()}
    return LpProblem(problem.variables, objective, rows), f


def test_rational_and_large_coefficients():
    rng = random.Random(29)
    optimal = 0
    for _ in range(120):
        problem = random_lp(rng)
        scaled, f = _scaled(problem, rng)
        want = lp_solve(problem)
        got = lp_solve(scaled)
        fm_status, fm_value = fm_solve(scaled)
        assert got == rational_lp_solve(scaled), lp_text(scaled)
        assert got.status == want.status == fm_status
        if got.status != OPTIMAL:
            continue
        optimal += 1
        assert got.value == want.value * f == fm_value
        for row in scaled.constraints:
            total = sum((q * got.witness[v] for v, q in row.coeffs), Rat(0))
            assert total <= row.rhs
    assert optimal > 30


def _inequalities(problem):
    """Indices of the rows that are not half of an equality: not next to
    their own negation, the pair that ``rows_of`` writes an ``=`` as."""
    rows = problem.constraints
    halves = {i for i in range(1, len(rows)) if rows[i] == negated(rows[i - 1])}
    return [i for i in range(len(rows)) if i not in halves and i + 1 not in halves]


def test_strict_feasibility_matches_fm_oracle():
    rng = random.Random(13)
    for _ in range(150):
        problem = random_lp(rng)
        rows = strictly(problem.constraints,
                        {i for i in _inequalities(problem) if rng.random() < 0.4})
        got = lp_feasible_strict(rows)
        want = fm_feasible(problem.variables, fm_strict_rows(rows))
        assert got.feasible == want
        if got.feasible:
            for c in rows:
                total = sum((q * got.witness[v] for v, q in c.coeffs), Rat(0))
                assert total < c.rhs if c.strict else total <= c.rhs


def test_no_sampled_feasible_point_beats_the_optimum():
    rng = random.Random(19)
    spot_checks = 0
    for _ in range(120):
        problem = random_lp(rng)
        res = lp_solve(problem)
        if res.status != OPTIMAL:
            continue
        points = [res.witness]
        points += [{v: Rat(rng.randint(-12, 12), rng.choice((1, 2, 3)))
                    for v in problem.variables} for _ in range(30)]
        # midpoints of feasible samples stay feasible (convexity)
        feasible = [p for p in points if _satisfies(problem, p)]
        for a in feasible:
            for b in feasible[:3]:
                feasible.append({v: (a[v] + b[v]) / 2 for v in problem.variables})
            break
        for p in feasible:
            value = sum((c * p[v] for v, c in problem.objective.items()), Rat(0))
            assert value <= res.value
            spot_checks += 1
    assert spot_checks > 100


def _satisfies(problem, point):
    for row in problem.constraints:
        total = sum((q * point[v] for v, q in row.coeffs), Rat(0))
        if not total <= row.rhs:
            return False
    return True


def test_determinism():
    rng = random.Random(17)
    for _ in range(40):
        problem = random_lp(rng)
        first = lp_solve(problem)
        second = lp_solve(problem)
        assert first == second


def test_dump_format():
    p = lp(["x", "y"], {"x": 1}, [({"x": 2, "y": -1}, "<=", Rat(3, 2))])
    text = lp_text(p)
    assert "max:" in text and "<=" in text and "3/2" in text


# -- warm starts ----------------------------------------------------------------

def _grown(problem, rng, tag, small=False):
    """``problem`` extended by one to three new rows over old variables and
    up to two new ones, some of them ``=`` rows; ``small`` keeps
    coefficients in [-2, 2] and right-hand sides at 0, for ratio ties."""
    room = max(0, 4 - len(problem.variables))
    names = problem.variables + [f"{tag}{i}" for i in range(rng.randint(0, min(2, room)))]
    rows = []
    for _ in range(rng.randint(1, 3)):
        picked = rng.sample(names, rng.randint(1, min(3, len(names))))
        if small:
            coeffs = {v: Rat(rng.randint(-2, 2)) for v in picked}
            rhs = Rat(0)
        else:
            coeffs = {v: Rat(rng.randint(-9, 9)) for v in picked}
            rhs = Rat(rng.randint(-9, 9), rng.choice((1, 2)))
        rel = "=" if rng.random() < 0.2 else "<="
        rows.extend(rows_of(coeffs, rel, rhs))
    return problem.extend(rows)


def _check_warm(problem, start):
    """Solve ``problem`` warm from ``start`` and check it against the cold
    solve and, up to 3 variables (beyond that projection gets slow), the
    Fourier-Motzkin oracle; returns the warm result and whether FM ran."""
    warm = lp_solve(problem, start=start)
    cold = lp_solve(problem)
    assert warm.status == cold.status, lp_text(problem)
    fm = len(problem.variables) <= 3
    if fm:
        assert (warm.status, warm.value) == fm_solve(problem), lp_text(problem)
    if warm.status == OPTIMAL:
        assert warm.value == cold.value, lp_text(problem)
        assert _satisfies(problem, warm.witness)
        value = sum((c * warm.witness[v] for v, c in problem.objective.items()), Rat(0))
        assert value == warm.value
    return warm, fm


def test_warm_start_matches_cold_and_fm_oracle():
    # a child never gets unbounded: its rows only cut its parent's bounded set
    rng = random.Random(31)
    outcomes = {OPTIMAL: 0, INFEASIBLE: 0}
    grandchildren = fm_checked = 0
    for k in range(500):
        small = k % 2 == 1
        parent = degenerate_lp(rng) if small else random_lp(rng)
        start = lp_solve(parent)
        if start.status != OPTIMAL:
            continue
        child = _grown(parent, rng, "y", small)
        warm, fm = _check_warm(child, start)
        outcomes[warm.status] += 1
        fm_checked += fm
        # the start is left as it was: a sibling solved from it agrees
        assert lp_solve(child, start=start) == warm
        if warm.status == OPTIMAL:
            # chained: the grandchild starts from the child's warm solve
            _, fm = _check_warm(_grown(child, rng, "z", small), warm)
            fm_checked += fm
            grandchildren += 1
    assert outcomes[OPTIMAL] > 150 and outcomes[INFEASIBLE] > 30
    assert grandchildren > 150 and fm_checked > 200
    # wide sparse parents: the warm start shares many rows with its parent
    sparse = 0
    for _ in range(60):
        parent = sparse_lp(rng)
        start = lp_solve(parent)
        if start.status == OPTIMAL:
            child = _grown(parent, rng, "y")
            warm, _ = _check_warm(child, start)
            assert lp_solve(child, start=start) == warm
            sparse += 1
    assert sparse > 20


def test_warm_strict_feasibility_matches_cold_and_fm_oracle():
    rng = random.Random(37)
    feasible = infeasible = 0
    for _ in range(300):
        parent = random_lp(rng)
        parent = LpProblem(parent.variables, {}, parent.constraints)
        strict = {i for i in _inequalities(parent) if rng.random() < 0.4}
        start = lp_feasible_strict(strictly(parent.constraints, strict))
        if start.lp.status != OPTIMAL:
            continue
        child = _grown(parent, rng, "y")
        n = len(parent.constraints)
        strict |= {i for i in _inequalities(child) if i >= n and rng.random() < 0.4}
        rows = strictly(child.constraints, strict)
        got = lp_feasible_strict(rows[n:], start=start)
        want = fm_feasible(child.variables, fm_strict_rows(rows))
        assert got.feasible == lp_feasible_strict(rows).feasible == want
        if not got.feasible:
            infeasible += 1
            continue
        feasible += 1
        for c in rows:
            total = sum((q * got.witness[v] for v, q in c.coeffs), Rat(0))
            assert total < c.rhs if c.strict else total <= c.rhs
    assert feasible > 50 and infeasible > 30


def test_warm_start_outside_its_contract_is_an_error():
    parent = lp(["x", "y"], {"x": 1}, [({"x": 1, "y": 1}, "<=", 4), ({"y": -1}, "<=", 0)])
    start = lp_solve(parent)
    assert start.status == OPTIMAL and start.value == 4
    rows = parent.constraints
    extra = constraint_of({"x": 1}, 3)
    child = parent.extend([extra])
    assert lp_solve(child, start=start).value == 3
    bad = [
        LpProblem(["x", "y"], {"x": 1}, rows + [extra]),  # equal rows, not extended
        child.extend([constraint_of({"y": 1}, 9)]),  # a grandchild
        LpProblem(["x", "y"], {"x": 1}, rows).extend([extra]),  # an equal, distinct base
    ]
    for problem in bad:
        with pytest.raises(LpError):
            lp_solve(problem, start=start)
    infeasible_rows = [constraint_of({"x": 1}, -1), constraint_of({"x": -1}, -1)]
    infeasible = lp_solve(LpProblem(["x", "y"], {"x": 1}, infeasible_rows))
    unbounded = lp_solve(lp(["x", "y"], {"x": 1}, [({"y": 1}, "<=", 0)]))
    assert (infeasible.status, unbounded.status) == (INFEASIBLE, UNBOUNDED)
    for not_optimal in (infeasible, unbounded, LpResult(OPTIMAL, Rat(4), start.witness)):
        with pytest.raises(LpError):
            lp_solve(child, start=not_optimal)
    with pytest.raises(LpError):
        lp_feasible_strict([extra], start=FeasResult(True))  # no LP to start from
    # a check whose relaxed LP is infeasible has no tableau to start from
    empty = lp_feasible_strict(infeasible_rows)
    assert empty.lp.status == INFEASIBLE
    with pytest.raises(LpError):
        lp_feasible_strict([extra], start=empty)
