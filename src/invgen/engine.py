"""Max-strategy iteration over template linear constraint domains.

The fixpoint system has one variable per (node, template row).  Start rows
are the constant +inf; every other variable is the maximum, over incoming
edges, of the edge's abstract transformer applied to the source bounds.  A
strategy picks one operand per maximum (an edge plus a path through its
disjunctions, +inf at a start row, or bottom); the loop alternates

  * improvement: a satisfiability query per (variable, operand) asks
    whether some transition pushes the row strictly above its current
    bound; a model's selector values identify the improving path, and
  * evaluation: the least solution of the chosen conjunctive system above
    the current bounds.  Only the variables whose operand changed, and the
    variables that read them, are solved again.  They are split into
    strongly connected components of the read graph and solved in
    dependency order (the chaotic-iteration order of Bourdoncle), each by
    one exact LP that maximises the sum of its variables, with everything
    upstream pinned (Gawlitza & Seidl's strategy evaluation).  An unbounded
    sum falls back to one LP per variable of that component, where an
    unbounded LP means the bound is +inf,

until no query succeeds, which is exactly when the bounds are the least
solution, i.e. the strongest inductive invariant expressible with the
template.  Termination needs no widening: strategies never repeat.

Both steps, and certification, read each edge statement presolved on its
first query: its top-level equalities are substituted away, into the
statement and into the template rows over the post-state, so no query or
LP carries them, and every query keeps its verdict.  Only what can change
is asked: a query from an empty source region is unsat without a query,
and since bounds only grow, ``improve`` skips a query whose source bounds
equal those of the last unsat answer for its (edge, row) and whose
threshold is no lower (a transition above it is above that answer's).
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .cfg import Cfg
from .formula import (
    Atom, LinExpr, build_psi, eliminate_equalities, formula_vars, paths,
    primed, walk,
)
from .lp import Constraint, LpProblem, OPTIMAL, UNBOUNDED, lp_feasible_strict, lp_solve
from .numeric import NEG_INF, ONE, POS_INF, ZERO, ExtRat, ext
from .smt import (
    UNSAT, SmtModel, SmtResult, SmtSession, smt_check, smt_check_external, solver_session,
)

VarKey = Tuple[str, int]  # (node, template row index)


class EngineError(Exception):
    """Internal contract violation (e.g. infeasible evaluation LP)."""


class Template:
    """Rows of the template constraint matrix, as linear expressions over
    the program variables (no constant parts), with printable labels."""

    def __init__(self, rows: Sequence[LinExpr]):
        self.rows = list(rows)
        if not self.rows:
            raise EngineError("template needs at least one row")
        for row in self.rows:
            if not row.coeffs:
                raise EngineError("template row without variables")
            if row.const != 0:
                raise EngineError("template row must not carry a constant offset")
        # a row's text labels it; duplicate rows are allowed, and the k-th
        # repeat gets ``#k``, which row text cannot contain
        self.labels: List[str] = []
        seen: Dict[str, int] = {}
        for row in self.rows:
            label = str(row)
            seen[label] = k = seen.get(label, 0) + 1
            self.labels.append(label if k == 1 else f"{label}#{k}")

    def __len__(self):
        return len(self.rows)


class Stats:
    __slots__ = ("improvement_steps", "smt_queries", "lp_solves", "wall_time", "converged")

    def __init__(self):
        self.improvement_steps = self.smt_queries = self.lp_solves = 0
        self.wall_time, self.converged = 0.0, True

    def as_dict(self) -> Dict[str, int]:
        return {
            "improvement_steps": self.improvement_steps,
            "smt_queries": self.smt_queries,
            "lp_solves": self.lp_solves,
            "wall_ms": int(round(self.wall_time * 1000)),
        }


# -- strategies --------------------------------------------------------------

class _Marker:
    """A strategy entry that is no path: ``BOTTOM`` (-inf) or ``TOP`` (the
    constant +inf of a start row); ``text`` is how ``--trace`` prints it."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return self.text


BOTTOM = _Marker("bottom")
TOP = _Marker("const inf")


class StratPath(NamedTuple):
    """A path entry: an edge and a choice per selector of its statement."""
    edge_index: int
    path: Dict[int, int]


class EquationSystem:
    """The per-(node, row) maximum equations of a program and template,
    with what the improvement queries and evaluation LPs of one analysis
    share.  Per edge, on its first query (``presolved``): its statement
    presolved by ``eliminate_equalities`` (the unprimed program variables
    kept), the definitions of the eliminated variables and each template
    row over the post-state with them substituted.  Per (edge, row),
    ``unsat`` holds the source bounds and threshold of the last unsat
    answer of ``improve``'s queries."""

    def __init__(self, cfg: Cfg, template: Template):
        self.cfg = cfg
        self.template = template
        declared = set(cfg.program_vars)
        for row in template.rows:
            for v in row.variables():
                if v not in declared:
                    raise EngineError(f"template row uses undeclared variable {v!r}")
        incoming: Dict[str, List] = {n: [] for n in cfg.nodes}
        for idx, edge in enumerate(cfg.edges):
            incoming[edge.target].append(idx)
        incoming[cfg.start] = [TOP]
        self.order = [(node, i) for node in cfg.nodes for i in range(len(template))]
        # the operands of each key's maximum: incoming edge indices, or [TOP]
        self.choices: Dict[VarKey, List] = {key: incoming[key[0]] for key in self.order}
        self.index = {key: k for k, key in enumerate(self.order)}
        self._declared = declared
        self._presolved: Dict[int, tuple] = {}
        self.unsat: Dict[Tuple[int, int], Tuple[List[ExtRat], ExtRat]] = {}

    def presolved(self, idx: int) -> Tuple[object, Dict[str, LinExpr], List[LinExpr]]:
        """Edge ``idx``'s presolved statement, definitions and post rows."""
        entry = self._presolved.get(idx)
        if entry is None:
            statement, defs = eliminate_equalities(self.cfg.edges[idx].statement,
                                                   self._declared)
            posts = [row.rename({v: primed(v) for v in row.variables()}).substitute(defs)
                     for row in self.template.rows]
            entry = self._presolved[idx] = (statement, defs, posts)
        return entry

    def initial_strategy(self) -> Dict[VarKey, object]:
        return {key: BOTTOM for key in self.order}

    def initial_bounds(self) -> Dict[VarKey, ExtRat]:
        return {key: NEG_INF for key in self.order}

    def lp_var(self, key: VarKey) -> str:
        """The variable of ``key`` in evaluation LPs."""
        return f"$b{self.index[key]}"


# -- abstract transformer of a single path ------------------------------------

def abstract_transform_row(path: Sequence[Atom], d: Sequence[ExtRat], template: Template,
                           j: int) -> ExtRat:
    """Best bound of template row ``j`` after one step along a path, given
    by its atoms, from the region ``T x <= d``.

    Strict atoms decide emptiness (empty source or disabled guard gives
    -inf); the supremum itself is taken over the closure (``lp_solve``),
    which coincides with the strict supremum whenever the set is nonempty.
    """
    rows = template.rows
    if any(di.is_neg_inf for di in d):
        return NEG_INF
    atoms = [Atom(row, "<=", d[i].value)
             for i, row in enumerate(rows) if d[i].is_finite]
    atoms.extend(path)
    target = rows[j].rename({v: primed(v) for v in rows[j].variables()})
    feas = lp_feasible_strict(atoms)
    if not feas.feasible:
        return NEG_INF
    columns = dict.fromkeys(v for row in atoms for v, _ in row.coeffs)
    columns.update(dict.fromkeys(target.coeffs))
    res = lp_solve(LpProblem(list(columns), dict(target.coeffs), atoms))
    if res.status == UNBOUNDED:
        return POS_INF
    if res.status != OPTIMAL:
        raise EngineError("optimum LP infeasible after a feasible strict check")
    return ext(res.value)


# -- improvement --------------------------------------------------------------

def _source_bounds(eq: EquationSystem, idx: int, bounds) -> List[ExtRat]:
    """The bounds of every template row at edge ``idx``'s source."""
    source = eq.cfg.edges[idx].source
    return [bounds[(source, i)] for i in range(len(eq.template))]


def _psi(eq: EquationSystem, idx: int, d: Sequence[ExtRat], j: int, c: ExtRat):
    """The improvement query of row ``j`` over edge ``idx``'s presolved statement."""
    statement, _, posts = eq.presolved(idx)
    return build_psi(statement, d, eq.template, j, c, post=posts[j])


def _query(eq: EquationSystem, idx: int, d: List[ExtRat], j: int, c: ExtRat,
           stats: Optional[Stats], backend) -> SmtResult:
    """Counted query: can edge ``idx`` take a state within the source bounds
    ``d`` to one strictly above ``c`` in row ``j``?  ``backend`` None
    decides internally.  An empty source region (a -inf bound) is unsat
    without a query."""
    if any(di.is_neg_inf for di in d):
        return SmtResult(UNSAT)
    if stats is not None:
        stats.smt_queries += 1
    formula = _psi(eq, idx, d, j, c)
    if backend is None:
        return smt_check(formula)
    return smt_check_external(formula, backend)


def _known_unsat(eq: EquationSystem, idx: int, d: List[ExtRat], j: int, c: ExtRat) -> bool:
    """Whether the memo shows the query of row ``j`` over edge ``idx`` from
    ``d`` against ``c`` unsat: its last unsat answer had the same source
    bounds and a threshold at most ``c``, and a transition above ``c`` is
    above that threshold too."""
    last = eq.unsat.get((idx, j))
    return last is not None and last[0] == d and c >= last[1]


def _find_improving(eq: EquationSystem, key: VarKey, bounds, threshold: ExtRat,
                    stats, backend):
    """First operand of the maximum whose value strictly exceeds the
    threshold (always below +inf), in declared order; None if there is none.
    Queries the memo shows unsat are not asked."""
    j = key[1]
    for idx in eq.choices[key]:
        if idx is TOP:
            return TOP
        d = _source_bounds(eq, idx, bounds)
        if _known_unsat(eq, idx, d, j, threshold):
            continue
        res = _query(eq, idx, d, j, threshold, stats, backend)
        if res.is_sat:
            return StratPath(idx, res.model.selectors)
        eq.unsat[(idx, j)] = (d, threshold)
    return None


def _entry_value(eq: EquationSystem, key: VarKey, entry, bounds, stats) -> ExtRat:
    """The value of ``key``'s improving operand ``entry`` at ``bounds``: one
    LP maximises the key's variable over the entry's evaluation rows, every
    source pinned.  An improving path is strictly feasible within the source
    region, so the closure's maximum is the supremum."""
    if entry is TOP:
        return POS_INF
    var = eq.lp_var(key)
    rows = _entry_rows(eq, key, entry, bounds, ())
    res = lp_solve(LpProblem([var], {var: ONE}, []).extend(rows))
    if stats is not None:
        stats.lp_solves += 1
    if res.status == UNBOUNDED:
        return POS_INF
    if res.status != OPTIMAL:
        raise EngineError(f"the strategy path of {key} is infeasible at the current bounds")
    return ext(res.value)


def improve(eq: EquationSystem, strategy, bounds, *, stats: Optional[Stats] = None,
            backend=None, local: bool = False):
    """One strategy-improvement pass; returns the improved strategy, or
    None when the current bounds already solve every equation.

    By default the first strictly improving operand is taken (the first
    model found); with ``local`` each changed variable gets a locally
    optimal operand, found by re-querying with the threshold raised to the
    value of the best operand so far.  Variables whose bound is already
    +inf cannot improve and are not queried, and neither are operands that
    ``eq.unsat`` shows unsat; each unsat answer is put there.
    """
    changed: Dict[VarKey, object] = {}
    for key in eq.order:
        current = bounds[key]
        if current.is_pos_inf:
            continue
        entry = _find_improving(eq, key, bounds, current, stats, backend)
        if entry is None:
            continue
        if local:
            while True:
                value = _entry_value(eq, key, entry, bounds, stats)
                if value.is_pos_inf:
                    break
                better = _find_improving(eq, key, bounds, value, stats, backend)
                if better is None:
                    break
                entry = better
        changed[key] = entry
    if not changed:
        return None
    new_strategy = dict(strategy)
    new_strategy.update(changed)
    return new_strategy


# -- strategy evaluation -------------------------------------------------------

def _entry_rows(eq: EquationSystem, key: VarKey, entry: StratPath, bounds,
                inside) -> List[Constraint]:
    """The evaluation rows of ``key`` under ``entry``, over a copy of the
    edge's variables named with the key's prefix ``$q<k>_``: the path's
    atoms in the presolved statement, strict ones relaxed to ``<=``; the
    link, which bounds the key's LP variable by its row over the post-state,
    with the edge's definitions substituted; and per template row over the
    pre-state, its source's bound.  That is a read of the source's LP
    variable when the source is ``inside``, a row pinned at its value in
    ``bounds`` when that is finite, and nothing at +inf; no caller passes a
    -inf source."""
    prefix = f"$q{eq.index[key]}_"
    atoms: List[Atom] = []
    unresolved: List = []
    statement, _, posts = eq.presolved(entry.edge_index)
    walk(statement, entry.path, atoms, unresolved)
    if unresolved:
        raise EngineError(f"the strategy path of {key} leaves a disjunction open")
    rows = [Constraint(tuple((prefix + v, c) for v, c in a.coeffs), a.rhs)
            for a in atoms]
    post = posts[key[1]]
    rows.append(Constraint(((eq.lp_var(key), ONE),) + tuple(
        (prefix + v, -c) for v, c in post.coeffs.items()), post.const))
    source = eq.cfg.edges[entry.edge_index].source
    for i, row in enumerate(eq.template.rows):
        pre = tuple((prefix + v, c) for v, c in row.coeffs.items())
        src = (source, i)
        if src in inside:
            rows.append(Constraint(pre + ((eq.lp_var(src), -ONE),), ZERO))
        elif bounds[src].is_finite:
            rows.append(Constraint(pre, bounds[src].value))
    return rows


def _components(keys: Sequence[VarKey], reads) -> List[List[VarKey]]:
    """Strongly connected components of the graph on ``keys`` whose edges
    go from each key to the keys ``reads(key)`` yields, each one after every
    component it reads (Tarjan's algorithm, with an explicit stack)."""
    index: Dict[VarKey, int] = {}
    low: Dict[VarKey, int] = {}
    stack: List[VarKey] = []
    on_stack: Set[VarKey] = set()
    out: List[List[VarKey]] = []
    work: List[Tuple[VarKey, Iterator[VarKey]]] = []  # keys with successors left

    def visit(key: VarKey) -> None:
        index[key] = low[key] = len(index)
        stack.append(key)
        on_stack.add(key)
        work.append((key, iter(reads(key))))

    for root in keys:
        if root in index:
            continue
        visit(root)
        while work:
            key, succs = work[-1]
            for succ in succs:
                if succ not in index:
                    visit(succ)
                    break
                if succ in on_stack:
                    low[key] = min(low[key], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[key])
                if low[key] == index[key]:
                    component: List[VarKey] = []
                    while not component or component[-1] != key:
                        component.append(stack.pop())
                        on_stack.discard(component[-1])
                    out.append(component)
    return out


def _solve_component(eq: EquationSystem, component: Sequence[VarKey], strategy,
                     result: Dict[VarKey, ExtRat], stats: Optional[Stats]) -> None:
    """Put the greatest bounds of ``component`` into ``result``, which holds
    every key the component reads from outside it.

    One LP maximises the sum of the component's variables: feasible bound
    vectors are closed under componentwise max, so a bounded LP has a
    greatest point and that point alone attains the optimum.  An unbounded
    one falls back to one LP per variable, where unbounded means +inf."""
    inside = set(component)
    constraints = [row for key in component
                   for row in _entry_rows(eq, key, strategy[key], result, inside)]

    def solve(objective: Sequence[VarKey]):
        # the component's variables, then the copies' in order of first occurrence
        problem = LpProblem([eq.lp_var(k) for k in component],
                            {eq.lp_var(k): ONE for k in objective}, [])
        res = lp_solve(problem.extend(constraints))
        if stats is not None:
            stats.lp_solves += 1
        if res.status not in (OPTIMAL, UNBOUNDED):
            raise EngineError(
                "evaluation LP infeasible; the strategy was not a proper improvement")
        return res

    res = solve(component)
    if res.status == OPTIMAL and len(component) > 1:
        witness = res.witness
        for key in component:
            result[key] = ext(witness[eq.lp_var(key)])
    elif res.status == OPTIMAL:
        result[component[0]] = ext(res.value)
    elif len(component) == 1:
        result[component[0]] = POS_INF
    else:
        for key in component:
            res = solve([key])
            result[key] = POS_INF if res.status == UNBOUNDED else ext(res.value)


def evaluate(eq: EquationSystem, strategy, bounds, stats: Optional[Stats] = None,
             changed: Optional[Sequence[VarKey]] = None) -> Dict[VarKey, ExtRat]:
    """Least solution of the chosen conjunctive system above ``bounds``.

    Bottom variables are -inf, top ones +inf, and variables already at +inf
    stay there.  Key ``(n, j)`` of a path entry reads every row of its
    edge's source.  Only the keys in ``changed`` (by default all
    of them) and the keys reading them, transitively, are solved again;
    every other key keeps its bound, which the same equations gave before.
    The keys to solve are split into strongly connected components of the
    read graph, solved sources first.  A component reading a -inf source
    from outside it is -inf (an empty source region), and with it every key
    of the component, since each reads that source transitively.  Any
    other is solved by one LP over the rows of its entries: per key, a copy
    of the statement variables, the non-strict relaxation of the chosen
    path, the target-row link and the source-region rows, where a source
    outside the component is pinned to its value (and dropped at +inf).
    """
    m = len(eq.template)
    result = dict(bounds)  # keys not solved again keep their bounds
    source: Dict[VarKey, str] = {}
    for key in eq.order:
        entry = strategy[key]
        if entry is BOTTOM:
            result[key] = NEG_INF
        elif entry is TOP:
            result[key] = POS_INF
        elif not bounds[key].is_pos_inf:
            source[key] = eq.cfg.edges[entry.edge_index].source
    readers: Dict[str, List[VarKey]] = {}
    for key, node in source.items():
        readers.setdefault(node, []).append(key)
    affected: Set[VarKey] = set()
    work = list(eq.order if changed is None else changed)
    while work:
        key = work.pop()
        if key not in affected:
            affected.add(key)
            work.extend(readers.get(key[0], ()))

    solve = [key for key in source if key in affected]
    solving = set(solve)

    def reads(key: VarKey) -> Iterator[VarKey]:
        return (src for src in ((source[key], i) for i in range(m)) if src in solving)

    for component in _components(solve, reads):
        inside = set(component)
        if any(result[(source[key], i)].is_neg_inf and (source[key], i) not in inside
               for key in component for i in range(m)):
            result.update(dict.fromkeys(component, NEG_INF))
        else:
            component.sort(key=eq.index.__getitem__)
            _solve_component(eq, component, strategy, result, stats)

    for key in eq.order:
        if result[key] < bounds[key]:
            raise EngineError(f"evaluation decreased {key}; broken pre-solution")
    return result


# -- the main loop -------------------------------------------------------------

class EngineOptions(NamedTuple):
    local_opt: bool = False
    # None = internal backend; a solver command gets one session per run
    smt_cmd: Optional[Union[SmtSession, str, Sequence[str]]] = None
    max_iters: Optional[int] = None
    trace: Optional[object] = None  # file-like, one JSON record per iteration


def _trace_record(sink, eq: EquationSystem, step: int, changed_keys, strategy,
                  bounds, stats: Stats) -> None:
    labels = eq.template.labels

    def describe(entry) -> str:
        if not isinstance(entry, StratPath):
            return entry.text
        edge = eq.cfg.edges[entry.edge_index]
        path = ",".join(f"{s}:{v}" for s, v in sorted(entry.path.items()))
        return f"edge {entry.edge_index} {edge.source}->{edge.target} path[{path}]"

    record = {
        "step": step,
        "changed": {f"{node}[{labels[i]}]": describe(strategy[(node, i)])
                    for node, i in changed_keys},
        "rho": {node: {labels[i]: str(bounds[(node, i)]) for i in range(len(labels))}
                for node in eq.cfg.nodes},
        "smt_queries": stats.smt_queries,
        "lp_solves": stats.lp_solves,
    }
    sink.write(json.dumps(record) + "\n")


def run(g: Cfg, template: Template,
        opts: Optional[EngineOptions] = None) -> Tuple[Dict[VarKey, ExtRat], Stats]:
    """Compute the least solution of the equation system of ``g`` and the
    template: the strongest inductive invariant expressible as one bound
    per (node, row).

    Starts from all-bottom / all minus-infinity and alternates improvement
    and evaluation until stable.  If ``opts.max_iters`` is hit first, the
    current (sound from below, possibly non-least) bounds are returned with
    ``stats.converged`` off.  An external solver command in ``opts.smt_cmd``
    runs as one session for the whole run, closed before returning.
    """
    opts = opts or EngineOptions()
    if opts.max_iters is not None and opts.max_iters < 1:
        raise EngineError(f"max_iters must be at least 1, not {opts.max_iters}")
    eq = EquationSystem(g, template)
    strategy = eq.initial_strategy()
    bounds = eq.initial_bounds()
    stats = Stats()
    started = time.perf_counter()
    with solver_session(opts.smt_cmd) as backend:
        while True:
            improved = improve(eq, strategy, bounds, stats=stats, backend=backend,
                               local=opts.local_opt)
            if improved is None:
                break
            changed_keys = [k for k in eq.order if improved[k] != strategy[k]]
            strategy = improved
            bounds = evaluate(eq, strategy, bounds, stats, changed_keys)
            stats.improvement_steps += 1
            if opts.trace is not None:
                _trace_record(opts.trace, eq, stats.improvement_steps, changed_keys,
                              strategy, bounds, stats)
            if opts.max_iters is not None and stats.improvement_steps >= opts.max_iters:
                stats.converged = False
                break
    stats.wall_time = time.perf_counter() - started
    return bounds, stats


# -- certification and test oracle ---------------------------------------------

class CertResult(NamedTuple):
    verified: bool
    edge_index: Optional[int] = None  # None, if not verified: a start row below +inf
    row: Optional[int] = None
    model: Optional[object] = None

    def __bool__(self):
        return self.verified


def check_post_fixpoint(g: Cfg, template: Template, bounds,
                        *, backend=None, stats: Optional[Stats] = None) -> CertResult:
    """Certificate: every start row is +inf, and no edge maps a state
    inside the source bounds strictly above any finite target row bound.

    Checks, per edge and finite row, that the improvement formula against
    the candidate's own bound is unsatisfiable; a model, completed to fit
    the original statement (its other variables 0, then the edge's
    definitions), is a concrete escaping transition (counterexample).  It
    re-runs the search that ``improve`` uses, on the same presolved
    formulas of its own ``EquationSystem``, so it is not independent of
    that search.  ``backend`` is None (internal), an open
    ``SmtSession``, or a solver command run as one session for the whole
    check.  A start row below +inf fails with ``edge_index`` None.
    """
    eq = EquationSystem(g, template)
    for j in range(len(template)):
        if not bounds[(g.start, j)].is_pos_inf:
            return CertResult(False, None, j)
    with solver_session(backend) as session:
        for idx, edge in enumerate(g.edges):
            for j in range(len(template)):
                c = bounds[(edge.target, j)]
                if c.is_pos_inf:
                    continue
                res = _query(eq, idx, _source_bounds(eq, idx, bounds), j, c, stats, session)
                if res.is_sat:
                    reals = dict.fromkeys(formula_vars(edge.statement), ZERO)
                    reals.update(res.model.reals)
                    for v, expr in eq.presolved(idx)[1].items():
                        reals[v] = expr.evaluate(reals)
                    return CertResult(False, idx, j, SmtModel(res.model.selectors, reals))
    return CertResult(True)


def kleene_oracle(g: Cfg, template: Template,
                  max_steps: int = 1000) -> Optional[Dict[VarKey, ExtRat]]:
    """Plain Kleene iteration of the abstract transformer, no widening.

    Evaluates every equation by brute force (all paths through each edge
    statement, one transformer LP per path and row) and iterates to a
    fixed point.  Returns None when ``max_steps`` passes do not converge;
    intended as an independent test oracle, not for production use.
    """
    eq = EquationSystem(g, template)
    paths_cache = {idx: list(paths(e.statement)) for idx, e in enumerate(g.edges)}
    bounds = eq.initial_bounds()
    for _ in range(max_steps):
        new: Dict[VarKey, ExtRat] = {}
        for key in eq.order:
            node, j = key
            best = NEG_INF
            for idx in eq.choices[key]:
                if idx is TOP:
                    best = POS_INF
                    continue
                d = _source_bounds(eq, idx, bounds)
                for path in paths_cache[idx]:
                    val = abstract_transform_row(path, d, template, j)
                    if val > best:
                        best = val
            new[key] = best
        if new == bounds:
            return bounds
        bounds = new
    return None
