"""Seeded random instance generators shared by property and acceptance tests."""

import random

from invgen.cfg import Cfg, Edge
from invgen.formula import And, Atom, LinExpr, Or, label_selectors, primed
from invgen.lp import LpProblem
from invgen.numeric import NEG_INF, POS_INF, Rat, ext

from oracles import constraint_of


def random_rat(rng: random.Random, lo=-9, hi=9) -> Rat:
    return Rat(rng.randint(lo, hi), rng.choice((1, 1, 1, 2, 3)))


def random_lp(rng: random.Random) -> LpProblem:
    """Random instance per the LP property suite: <= 4 vars, <= 6 rows,
    integer coefficients in [-9, 9], occasional equality rows.  Half the
    instances bound every objective direction so finite optima are common."""
    nvars = rng.randint(1, 4)
    names = [f"x{i}" for i in range(nvars)]
    objective = {v: Rat(rng.randint(-9, 9)) for v in names if rng.random() < 0.8}
    rows = []
    if rng.random() < 0.5:
        for v, c in objective.items():
            if c:
                sign = Rat(1) if c > 0 else Rat(-1)
                rows.append(constraint_of({v: sign}, "<=", Rat(rng.randint(0, 9))))
    for _ in range(rng.randint(1, max(1, 6 - len(rows)))):
        coeffs = {v: Rat(rng.randint(-9, 9)) for v in names if rng.random() < 0.8}
        rel = "=" if rng.random() < 0.15 else "<="
        rows.append(constraint_of(coeffs, rel, Rat(rng.randint(-9, 9))))
    return LpProblem(names, objective, rows)


def degenerate_lp(rng: random.Random) -> LpProblem:
    """A box around the origin cut by rows through the origin, with small
    coefficients: many ratio-test ties and many optimal vertices, so the
    pivot rule decides which witness comes out."""
    names = [f"x{i}" for i in range(rng.randint(2, 4))]
    objective = {v: Rat(rng.randint(-2, 2)) for v in names}
    rows = []
    for _ in range(rng.randint(3, 7)):
        coeffs = {v: Rat(rng.randint(-2, 2)) for v in names}
        rows.append(constraint_of(coeffs, "=" if rng.random() < 0.1 else "<=", Rat(0)))
    for v in names:
        rows.append(constraint_of({v: Rat(1)}, "<=", Rat(rng.choice((1, 1, 2)))))
        rows.append(constraint_of({v: Rat(-1)}, "<=", Rat(rng.choice((1, 1, 2)))))
    return LpProblem(names, objective, rows)


def random_atom(rng: random.Random, variables) -> Atom:
    coeffs = {}
    for v in rng.sample(variables, rng.randint(1, min(2, len(variables)))):
        coeffs[v] = Rat(rng.randint(-3, 3)) or Rat(1)
    rel = "<" if rng.random() < 0.25 else "<="
    return Atom(LinExpr(coeffs), rel, random_rat(rng, -6, 6))


def random_statement(rng: random.Random, variables, max_selectors: int):
    """Random negation-free formula tree with at most ``max_selectors``
    disjunctions; selectors labeled pre-order at the end."""
    budget = [rng.randint(0, max_selectors)]

    def build(depth: int):
        roll = rng.random()
        if depth >= 4 or roll < 0.35:
            return random_atom(rng, variables)
        if roll < 0.6 and budget[0] > 0:
            budget[0] -= 1
            return Or(build(depth + 1), build(depth + 1), -1)
        return And(build(depth + 1) for _ in range(rng.randint(2, 3)))

    return label_selectors(build(0))


def random_shared_statement(rng: random.Random, variables, max_selectors: int):
    """Like ``random_statement``, but a child is often a node built before,
    so atoms and whole ``And`` / ``Or`` subtrees are shared by identity, as
    ``compress`` shares them.  One path can then force an atom more than
    once and reach a disjunction more than once."""
    budget = [rng.randint(1, max_selectors)]
    built = []

    def build(depth: int):
        if len(built) > 1 and rng.random() < 0.25:
            return rng.choice(built)
        roll = rng.random()
        if depth >= 4 or roll < 0.25:
            node = random_atom(rng, variables)
        elif roll < 0.6 and budget[0] > 0:
            budget[0] -= 1
            node = Or(build(depth + 1), build(depth + 1), -1)
        else:
            node = And(build(depth + 1) for _ in range(rng.randint(2, 3)))
        built.append(node)
        return node

    return label_selectors(build(0))


def random_psi_inputs(rng: random.Random, make_statement=random_statement,
                      max_selectors: int = 10):
    """Statement, template rows, bound vector, row index and threshold for
    a random improvement query."""
    n = rng.randint(1, 2)
    unprimed = [f"x{i}" for i in range(n)]
    variables = unprimed + [primed(v) for v in unprimed]
    if rng.random() < 0.3:
        variables.append("w")  # statement-local auxiliary
    stmt = make_statement(rng, variables, max_selectors=max_selectors)
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = {v: Rat(rng.randint(-2, 2)) or Rat(1)
                  for v in rng.sample(unprimed, rng.randint(1, n))}
        rows.append(LinExpr(coeffs))
    d = []
    for _ in rows:
        roll = rng.random()
        if roll < 0.15:
            d.append(POS_INF)
        elif roll < 0.2:
            d.append(NEG_INF)
        else:
            d.append(ext(random_rat(rng, -5, 8)))
    j = rng.randrange(len(rows))
    c = NEG_INF if rng.random() < 0.3 else ext(random_rat(rng, -6, 6))
    return stmt, rows, d, j, c


def random_update(rng: random.Random, variables):
    """One deterministic assignment block x' = affine(x), as a conjunction."""
    parts = []
    for v in variables:
        expr = LinExpr.constant(Rat(rng.randint(-3, 3)))
        for src in variables:
            if rng.random() < 0.5:
                expr = expr.add(LinExpr.var(src).scale(Rat(rng.randint(-2, 2))))
        diff = LinExpr.var(primed(v)).sub(expr)
        parts.append(And((Atom(LinExpr(diff.coeffs), "<=", -diff.const),
                          Atom(LinExpr(diff.scale(-1).coeffs), "<=", diff.const))))
    return And(parts)


def random_cfg(rng: random.Random):
    """Small random program: <= 8 nodes, guarded affine updates, a few
    branching edges."""
    variables = ["x", "y"]
    n_nodes = rng.randint(3, 8)
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for _ in range(rng.randint(n_nodes - 1, min(10, n_nodes + 4))):
        src = rng.choice(nodes)
        dst = rng.choice(nodes)
        guard = random_atom(rng, variables)
        stmt = And((guard, random_update(rng, variables)))
        if rng.random() < 0.3:
            stmt = Or(stmt, And((random_atom(rng, variables),
                                 random_update(rng, variables))), -1)
        edges.append(Edge(src, label_selectors(stmt), dst))
    return Cfg(nodes, "n0", edges, variables)


def random_state(rng: random.Random, variables):
    return {v: random_rat(rng, -4, 4) for v in variables}


def gen_octagon(n: int) -> str:
    """A program over n variables with the octagon template (2n^2 rows):
    every variable starts at 0 and one loop adds 1 to each while x0 <= 9."""
    names = [f"x{i}" for i in range(n)]
    init = " & ".join(f"{v}' = 0" for v in names)
    step = " & ".join(f"{v}' = {v} + 1" for v in names)
    return (f"vars {' '.join(names)} ;\n"
            "template octagon ;\n"
            "nodes st h ;\n"
            "start st ;\n"
            f"edge st -> h : {init} ;\n"
            f"edge h -> h : x0 <= 9 & {step} ;\n")
