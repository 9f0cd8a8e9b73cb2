"""Independent test oracles.

Everything here is deliberately brute force and kept away from the code
paths it checks: Fourier-Motzkin elimination replays LP classification by
projection, ``select_path``, ``atoms_of`` and ``enumerate_path_choices``
walk paths recursively, apart from ``formula.walk``, the
selector-enumeration oracle replays satisfiability by trying every path,
``cold_smt_check`` replays the selector search with no warm start,
``rational_lp_solve`` replays the simplex pivot for pivot on ``Rat``
entries, ``full_evaluate`` replays strategy evaluation with one LP per
variable over the whole system, and the ``ref_*`` functions replay
``LinExpr`` arithmetic with every result built by the validating
constructor.
"""

from typing import Collection, Dict, List, Optional, Sequence, Tuple

from invgen.engine import BOTTOM, TOP, EngineError
from invgen.formula import (
    FALSE_ATOM, REL_LE, REL_LT, And, Atom, FormulaError, LinExpr, Or, PathChoice,
    formula_vars, map_atoms, primed, rename_vars, selectors_of,
)
from invgen.lp import (
    Constraint, INFEASIBLE, LpError, LpProblem, LpResult, OPTIMAL, UNBOUNDED,
    lp_feasible_strict, lp_solve,
)
from invgen.numeric import (
    NEG_INF, ONE, POS_INF, ExtRat, Rat, ZERO, as_rat, ext,
)
from invgen.smt import SAT, UNSAT, SmtModel, SmtResult


def constraint_of(coeffs: Dict[str, Rat], rhs) -> Constraint:
    """The LP row ``coeffs <= rhs``; zero coefficients are dropped."""
    items = tuple((v, as_rat(c)) for v, c in coeffs.items() if c != 0)
    return Constraint(items, as_rat(rhs))


def rows_of(coeffs: Dict[str, Rat], rel: str, rhs) -> List[Constraint]:
    """The LP rows of ``coeffs rel rhs``: one for ``<=``, and for ``=`` the
    pair ``coeffs <= rhs``, ``-coeffs <= -rhs``."""
    if rel not in ("<=", "="):
        raise LpError(f"unsupported relation {rel!r}")
    row = constraint_of(coeffs, rhs)
    return [row] if rel == "<=" else [row, negated(row)]


def strictly(rows: Sequence[Constraint], indices: Collection[int]) -> List[Constraint]:
    """``rows`` with those at ``indices`` made strict."""
    return [Constraint(r.coeffs, r.rhs, r.strict or i in indices) for i, r in enumerate(rows)]


def negated(row: Constraint) -> Constraint:
    """The row ``-coeffs <= -rhs``, which with ``row`` makes an equality."""
    return Constraint(tuple((v, -c) for v, c in row.coeffs), -row.rhs)


def parse_ext(text: str) -> ExtRat:
    """Parse the canonical text form (``inf``, ``-inf`` or a rational)."""
    s = text.strip()
    if s == "inf":
        return POS_INF
    if s == "-inf":
        return NEG_INF
    return ext(Rat(s))


def ref_add(a: LinExpr, b: LinExpr) -> LinExpr:
    coeffs = dict(a.coeffs)
    for v, c in b.coeffs.items():
        coeffs[v] = coeffs.get(v, ZERO) + c
    return LinExpr(coeffs, a.const + b.const)


def ref_scale(a: LinExpr, factor) -> LinExpr:
    f = as_rat(factor)
    return LinExpr({v: c * f for v, c in a.coeffs.items()}, a.const * f)


def ref_sub(a: LinExpr, b: LinExpr) -> LinExpr:
    return ref_add(a, ref_scale(b, -1))


def ref_substitute(a: LinExpr, defs: Dict[str, LinExpr]) -> LinExpr:
    out = LinExpr({v: c for v, c in a.coeffs.items() if v not in defs}, a.const)
    for v, c in a.coeffs.items():
        if v in defs:
            out = ref_add(out, ref_scale(defs[v], c))
    return out


def ref_rename(a: LinExpr, mapping: Dict[str, str]) -> LinExpr:
    coeffs: Dict[str, Rat] = {}
    for v, c in a.coeffs.items():
        target = mapping.get(v, v)
        coeffs[target] = coeffs.get(target, ZERO) + c
    return LinExpr(coeffs, a.const)


def ref_relation(lhs: LinExpr, rel: str, rhs: LinExpr) -> List[Atom]:
    """The atoms ``lhs rel rhs`` desugars to, each side's difference taken
    on its own: ``a = b`` is ``a - b <= 0`` and ``b - a <= 0``, ``a != b``
    is ``a - b < 0`` or ``b - a < 0``, ``>`` and ``>=`` swap the sides."""
    if rel in (">=", ">"):
        lhs, rhs, rel = rhs, lhs, rel.replace(">", "<")

    def atom(a, r, b):
        diff = ref_sub(a, b)
        return Atom(LinExpr(diff.coeffs), r, -diff.const)

    if rel in (REL_LE, REL_LT):
        return [atom(lhs, rel, rhs)]
    half = REL_LE if rel == "=" else REL_LT
    return [atom(lhs, half, rhs), atom(rhs, half, lhs)]


def eval_formula(formula, env: Dict[str, Rat],
                 selectors: Optional[Dict[int, int]] = None) -> bool:
    """Exact truth of a formula at a rational point.

    With ``selectors`` given, disjunctions whose selector is assigned follow
    the assigned branch (the path semantics of a model); unassigned or
    absent selectors fall back to plain disjunction.
    """
    if isinstance(formula, Atom):
        return formula.holds(env)
    if isinstance(formula, And):
        return all(eval_formula(ch, env, selectors) for ch in formula.children)
    if selectors is not None and formula.selector in selectors:
        branch = formula.right if selectors[formula.selector] else formula.left
        return eval_formula(branch, env, selectors)
    return eval_formula(formula.left, env, selectors) or \
        eval_formula(formula.right, env, selectors)


def format_statement(formula) -> str:
    """Canonical text form; re-parsing yields a semantically equal formula."""
    if isinstance(formula, Atom):
        return str(formula)
    if isinstance(formula, And):
        if not formula.children:
            return "0 <= 0"
        parts = []
        for ch in formula.children:
            text = format_statement(ch)
            if isinstance(ch, Or):
                text = f"({text})"
            parts.append(text)
        return " & ".join(parts)
    left = format_statement(formula.left)
    right = format_statement(formula.right)
    if isinstance(formula.left, Or):
        left = f"({left})"
    if isinstance(formula.right, Or):
        right = f"({right})"
    return f"{left} | {right}"


def format_program(prog) -> str:
    """Pretty-print a program file; re-parsing gives the same program."""
    lines = ["vars " + " ".join(prog.variables) + " ;"]
    if prog.int_vars:
        lines.append("ints " + " ".join(v for v in prog.variables if v in prog.int_vars) + " ;")
    if prog.template_kind == "explicit":
        lines.append("template { " + " ".join(f"{row} ;" for row in prog.template_rows) + " } ;")
    else:
        lines.append(f"template {prog.template_kind} ;")
    lines.append("nodes " + " ".join(prog.nodes) + " ;")
    lines.append(f"start {prog.start} ;")
    for e in prog.edges:
        mark = " [int]" if e.int_relax else ""
        lines.append(f"edge {e.source} -> {e.target}{mark} : "
                     f"{format_statement(e.statement)} ;")
    if prog.cutset is not None:
        lines.append("cutset " + " ".join(prog.cutset) + " ;")
    return "\n".join(lines) + "\n"


LINK_VAR = "$v"


def linked_psi(statement, d, template, j, c):
    """The improvement query as it was built before the presolve: the
    statement as it is, a fresh variable ``$v`` equal to row ``j`` over the
    post-state (two atoms) and the bound clause ``$v > c``."""
    rows = getattr(template, "rows", template)
    if any(di.is_neg_inf for di in d):
        return FALSE_ATOM
    parts = [Atom(row, REL_LE, d[i].value) for i, row in enumerate(rows) if d[i].is_finite]
    target = rows[j].rename({v: primed(v) for v in rows[j].variables()})
    v = LinExpr({LINK_VAR: 1})
    parts += [statement, Atom(v.sub(target), REL_LE, 0), Atom(target.sub(v), REL_LE, 0)]
    if c.is_finite:
        parts.append(Atom(LinExpr({LINK_VAR: -1}), REL_LT, -c.value))
    return And(parts)


def completed_model(model: SmtModel, statement, defs, rows=None, j=None) -> SmtModel:
    """``model`` with every variable of ``statement`` that it lacks at 0 and
    then each defined variable at its definition's value; with ``rows`` and
    ``j``, also ``$v`` at row ``j`` over the post-state, as ``linked_psi``
    defines it."""
    reals = dict.fromkeys(formula_vars(statement), ZERO)
    reals.update(model.reals)
    for v, expr in defs.items():
        reals[v] = expr.evaluate(reals)
    if rows is not None:
        reals[LINK_VAR] = rows[j].rename(
            {v: primed(v) for v in rows[j].variables()}).evaluate(reals)
    return SmtModel(dict(model.selectors), reals)




def _eliminate(rows, var):
    """One Fourier-Motzkin step: project ``var`` away exactly."""
    zero, pos, neg = [], [], []
    for row in rows:
        a = row[0].get(var, 0)
        if a == 0:
            zero.append(row)
        elif a > 0:
            pos.append(row)
        else:
            neg.append(row)
    out = list(zero)
    for pc, pr, ps in pos:
        pa = pc[var]
        for nc, nr, ns in neg:
            na = -nc[var]
            combo = {}
            for v, q in pc.items():
                if v != var:
                    combo[v] = combo.get(v, Rat(0)) + q / pa
            for v, q in nc.items():
                if v != var:
                    combo[v] = combo.get(v, Rat(0)) + q / na
            combo = {v: q for v, q in combo.items() if q != 0}
            out.append((combo, pr / pa + nr / na, ps or ns))
    return _tightest(out)


def _tightest(rows):
    """The rows scaled so that their first coefficient (in sorted variable
    order) is +1 or -1, keeping per direction only the tightest one: the
    smaller right-hand side, a strict row winning a tie.  The solution set
    is unchanged; without this, redundant rows pile up at every step."""
    best = {}
    for coeffs, rhs, strict in rows:
        if coeffs:
            f = abs(coeffs[min(coeffs)])
            coeffs = {v: q / f for v, q in coeffs.items()}
            rhs = rhs / f
        key = tuple(sorted(coeffs.items()))
        kept = best.get(key)
        if kept is None or rhs < kept[1] or (rhs == kept[1] and strict):
            best[key] = (coeffs, rhs, strict)
    return list(best.values())


def _constants_ok(rows):
    for coeffs, rhs, strict in rows:
        if not coeffs:
            if strict and not rhs > 0:
                return False
            if not strict and rhs < 0:
                return False
    return True


def fm_feasible(variables, rows):
    """Exact satisfiability of mixed strict/non-strict rows by projection.

    ``rows``: iterable of (coeffs dict, rhs, strict flag).
    """
    rows = [(dict(c), r, s) for c, r, s in rows]
    for var in variables:
        if not _constants_ok(rows):
            return False
        rows = _eliminate(rows, var)
    return _constants_ok(rows)


def fm_strict_rows(rows: Sequence[Constraint]):
    """LP rows as ``fm_feasible`` takes them, each with its own relation."""
    return [(dict(c.coeffs), c.rhs, c.strict) for c in rows]


def fm_solve(problem: LpProblem):
    """Classify an LpProblem by projection, reading a strict row as its
    closure, as ``lp_solve`` does; returns (status, value)."""
    rows = [(dict(c.coeffs), c.rhs, False) for c in problem.constraints]
    if not fm_feasible(problem.variables, rows):
        return "infeasible", None
    # adjoin t = objective, project out everything else, read off sup t
    t = "$fm_obj"
    obj = dict(problem.objective)
    rows.append(({t: Rat(1), **{v: -q for v, q in obj.items()}}, Rat(0), False))
    rows.append(({t: Rat(-1), **obj}, Rat(0), False))
    for var in problem.variables:
        rows = _eliminate(rows, var)
    upper = None
    for coeffs, rhs, _ in rows:
        a = coeffs.get(t, 0)
        if a > 0:
            bound = rhs / a
            if upper is None or bound < upper:
                upper = bound
    if upper is None:
        return "unbounded", None
    return "optimal", upper


def check_model(formula, model) -> bool:
    """Exact substitution check: does the model satisfy the formula?"""
    return eval_formula(formula, model.reals, model.selectors)


def check_selector_invariant(formula) -> None:
    """Every distinct Or node must carry a distinct selector id."""
    sels = selectors_of(formula)
    if len(sels) != len(set(sels)):
        raise FormulaError("duplicate selector ids in formula")


def _expr_str(coeffs: Dict[str, Rat]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for v, c in coeffs.items():
        if c == 1:
            term = v
        elif c == -1:
            term = f"-{v}"
        else:
            term = f"{c}*{v}"
        parts.append(term if not parts else (f"+ {term}" if c > 0 else f"- {term.lstrip('-')}"))
    return " ".join(parts)


def lp_text(problem: LpProblem) -> str:
    """Plain-text form of an LP, one constraint per line (for failure messages)."""
    lines = ["max: " + _expr_str(problem.objective)]
    for row in problem.constraints:
        rel = "<" if row.strict else "<="
        lines.append(f"  {_expr_str(dict(row.coeffs))} {rel} {row.rhs}")
    return "\n".join(lines)


def select_path(formula, choice: PathChoice):
    """Resolve every reachable disjunction according to ``choice``.

    The result is a sequential statement (no Or nodes).  A reachable Or
    whose selector is missing from the choice is an error.
    """
    memo: Dict[int, object] = {}

    def walk(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Atom):
            new = node
        elif isinstance(node, And):
            new = And(walk(ch) for ch in node.children)
        else:
            if node.selector not in choice:
                raise FormulaError(f"no choice for selector {node.selector}")
            new = walk(node.right if choice[node.selector] else node.left)
        memo[key] = new
        return new

    return walk(formula)


def enumerate_path_choices(formula) -> List[PathChoice]:
    """All selector assignments that pick one path through the formula.

    Intended for brute-force oracles and small statements; the result can
    be exponential in the number of disjunctions.  Shared disjunction nodes
    are assigned consistently (one value per selector).
    """
    memo: Dict[int, List[PathChoice]] = {}

    def merge(lefts: List[PathChoice], rights: List[PathChoice]) -> List[PathChoice]:
        out = []
        for a in lefts:
            for b in rights:
                if all(a.get(k, v) == v for k, v in b.items()):
                    out.append({**a, **b})
        return out

    def walk(node) -> List[PathChoice]:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Atom):
            result = [{}]
        elif isinstance(node, And):
            result = [{}]
            for ch in node.children:
                result = merge(result, walk(ch))
        else:
            result = [{node.selector: 0, **p} for p in walk(node.left)] + \
                     [{node.selector: 1, **p} for p in walk(node.right)]
        memo[key] = result
        return result

    return walk(formula)


def atoms_of(formula) -> List[Atom]:
    """Flatten a sequential (Or-free) formula into its atoms."""
    out: List[Atom] = []

    def walk(node):
        if isinstance(node, Atom):
            out.append(node)
        elif isinstance(node, And):
            for ch in node.children:
                walk(ch)
        else:
            raise FormulaError("formula is not sequential (contains a disjunction)")

    walk(formula)
    return out


def _atoms_feasible(atoms):
    """One cold strict-feasibility check of a conjunction of atoms."""
    return lp_feasible_strict([Constraint(tuple(a.lin.coeffs.items()), a.rhs, a.rel == REL_LT)
                               for a in atoms])


def brute_force_smt(formula) -> bool:
    """Satisfiability by trying every selector assignment."""
    sels = selectors_of(formula)
    for mask in range(1 << len(sels)):
        choice = {s: (mask >> i) & 1 for i, s in enumerate(sels)}
        seq = select_path(formula, choice)
        if _atoms_feasible(atoms_of(seq)).feasible:
            return True
    return False


def cold_smt_check(formula) -> SmtResult:
    """The selector search as it ran before warm starts: depth first, the
    least reachable unassigned selector next, value 0 before 1, and one
    fresh ``lp_feasible_strict`` over all forced atoms at every node.  The
    first model in that order fixes the selectors of ``smt_check``."""

    def forced(assign):
        atoms, pending, stack = [], [], [formula]
        while stack:
            node = stack.pop()
            if isinstance(node, Atom):
                atoms.append(node)
            elif isinstance(node, And):
                stack.extend(reversed(node.children))
            elif node.selector in assign:
                stack.append(node.right if assign[node.selector] else node.left)
            else:
                pending.append(node.selector)
        return atoms, pending

    def search(assign):
        atoms, pending = forced(assign)
        feas = _atoms_feasible(atoms)
        if not feas.feasible:
            return None
        if not pending:
            return SmtModel(dict(assign), {v: feas.witness.get(v, ZERO)
                                           for v in formula_vars(formula)})
        sel = min(pending)
        for value in (0, 1):
            assign[sel] = value
            model = search(assign)
            if model is not None:
                return model
            del assign[sel]
        return None

    model = search({})
    return SmtResult(UNSAT) if model is None else SmtResult(SAT, model)


def rational_lp_solve(problem: LpProblem) -> LpResult:
    """``lp_solve`` on a tableau of ``Rat`` entries (the pre-integer core)."""
    tab = _RationalTableau(problem)
    if not tab.dual_simplex():
        return LpResult(INFEASIBLE)
    if tab.phase_two() == UNBOUNDED:
        return LpResult(UNBOUNDED)
    witness = tab.witness()
    value = ZERO
    for v, c in problem.objective.items():
        value = value + c * witness[v]
    return LpResult(OPTIMAL, value, witness)


class _RationalTableau:
    """The simplex of ``invgen.lp`` on a tableau of rationals.

    Every entry is a ``Rat``; free variables are split as u - w >= 0.  The
    start is the slack basis, each slack basic even with a negative
    right-hand side, with every reduced cost 0.  A dual simplex makes it feasible: the leaving row has a
    negative right-hand side and the least basic column, the entering
    column a negative entry in that row and the least ``zrow[j] / a``, ties
    going to the least column.  A primal simplex then optimizes: Bland's
    rule picks the entering column and the ratio test breaks ties on the
    least basis index.  The fraction-free tableau promises exactly this
    pivot sequence, so the two must agree in status, value and witness.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self.var_index = {v: i for i, v in enumerate(problem.variables)}
        n2 = 2 * len(problem.variables)

        raw: List[Tuple[List[Rat], Rat]] = []
        for row in problem.constraints:
            dense = [ZERO] * n2
            for v, c in row.coeffs:
                j = 2 * self.var_index[v]
                dense[j] = dense[j] + c
                dense[j + 1] = dense[j + 1] - c
            raw.append((dense, row.rhs))

        m = len(raw)
        self.ncols = n2 + m  # structural + one slack per row
        self.rows: List[List[Rat]] = []
        self.rhs: List[Rat] = []
        self.basis: List[int] = []
        for i, (dense, b) in enumerate(raw):
            row = dense + [ZERO] * m
            row[n2 + i] = ONE
            self.rows.append(row)
            self.rhs.append(b)
            self.basis.append(n2 + i)
        self.zrow = [ZERO] * self.ncols

    # -- simplex core -----------------------------------------------------

    def _pivot(self, leave: int, enter: int) -> None:
        # Only the nonzero columns of the pivot row can change another row,
        # so the eliminations touch those columns alone, in place.
        prow = self.rows[leave]
        piv = prow[enter]
        nonzero = [(j, p) for j, p in enumerate(prow) if p != 0]
        if piv != 1:
            inv = ONE / piv
            nonzero = [(j, p * inv) for j, p in nonzero]
            for j, p in nonzero:
                prow[j] = p
            self.rhs[leave] = self.rhs[leave] * inv
        prhs = self.rhs[leave]
        for i, row in enumerate(self.rows):
            if i == leave:
                continue
            f = row[enter]
            if f != 0:
                for j, p in nonzero:
                    row[j] = row[j] - f * p
                self.rhs[i] = self.rhs[i] - f * prhs
        f = self.zrow[enter]
        if f != 0:
            for j, p in nonzero:
                self.zrow[j] = self.zrow[j] - f * p
        self.basis[leave] = enter

    # -- phases ------------------------------------------------------------

    def dual_simplex(self) -> bool:
        while True:
            leave = -1
            for i, b in enumerate(self.rhs):
                if b < 0 and (leave < 0 or self.basis[i] < self.basis[leave]):
                    leave = i
            if leave < 0:
                return True
            row = self.rows[leave]
            enter = -1
            best = None
            for j in range(self.ncols):
                if row[j] < 0:
                    ratio = self.zrow[j] / row[j]
                    if best is None or ratio < best:
                        best = ratio
                        enter = j
            if enter < 0:
                return False
            self._pivot(leave, enter)

    def phase_two(self) -> str:
        cost = [ZERO] * self.ncols
        for v, c in self.problem.objective.items():
            j = 2 * self.var_index[v]
            cost[j] = c
            cost[j + 1] = -c
        self.zrow = zrow = list(cost)
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb != 0:
                row = self.rows[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        zrow[j] = zrow[j] - cb * row[j]
        while True:
            enter = -1
            for j in range(self.ncols):  # Bland: least improving index
                if zrow[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or \
                            (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    def witness(self) -> Dict[str, Rat]:
        col_val = {b: self.rhs[i] for i, b in enumerate(self.basis)}
        out = {}
        for v, i in self.var_index.items():
            out[v] = col_val.get(2 * i, ZERO) - col_val.get(2 * i + 1, ZERO)
        return out


def relaxed(atom: Atom) -> Atom:
    """The non-strict closure of an atom."""
    return atom if atom.rel == REL_LE else Atom(atom.lin, REL_LE, atom.rhs)


def nonstrict_relaxation(formula):
    """Replace every strict atom by its non-strict closure."""
    return map_atoms(formula, relaxed)


def full_evaluate(eq, strategy, bounds):
    """Strategy evaluation with no reuse: every variable that is not pinned
    is the maximum of its own LP over one shared system of all of them
    (per equation, fresh copies of the statement variables, the non-strict
    relaxation of the chosen path, the target-row link and the
    source-region rows); an unbounded LP pins the variable to +inf."""
    m = len(eq.template)
    rows = eq.template.rows
    pinned = {}
    for key in eq.order:
        entry = strategy[key]
        if entry is BOTTOM:
            pinned[key] = NEG_INF
        elif entry is TOP or bounds[key].is_pos_inf:
            pinned[key] = POS_INF

    while True:  # propagate empty source regions
        grew = False
        for key in eq.order:
            if key in pinned:
                continue
            edge = eq.cfg.edges[strategy[key].edge_index]
            if any(pinned.get((edge.source, i)) is not None
                   and pinned[(edge.source, i)].is_neg_inf for i in range(m)):
                pinned[key] = NEG_INF
                grew = True
        if not grew:
            break

    remaining = [key for key in eq.order if key not in pinned]
    result = dict(pinned)
    if not remaining:
        return result
    lp_var = {key: f"$b{i}" for i, key in enumerate(remaining)}
    variables = [lp_var[key] for key in remaining]
    seen = set(variables)
    constraints = []

    def add_row(coeffs, rhs):
        for v in coeffs:
            if v not in seen:
                seen.add(v)
                variables.append(v)
        constraints.append(constraint_of(coeffs, rhs))

    for copy_id, key in enumerate(remaining):
        entry = strategy[key]
        edge = eq.cfg.edges[entry.edge_index]
        seq = nonstrict_relaxation(select_path(edge.statement, entry.path))
        mapping = {v: f"$q{copy_id}_{v}" for v in formula_vars(seq)}
        for x in eq.cfg.program_vars:
            mapping.setdefault(x, f"$q{copy_id}_{x}")
            mapping.setdefault(primed(x), f"$q{copy_id}_{primed(x)}")
        for atom in atoms_of(rename_vars(seq, mapping)):
            add_row(dict(atom.lin.coeffs), atom.rhs)
        row = rows[key[1]]
        target = row.rename({v: mapping[primed(v)] for v in row.variables()})
        add_row({lp_var[key]: ONE, **target.scale(-1).coeffs}, 0)
        for i, row in enumerate(rows):
            bkey = (edge.source, i)
            pre = row.rename({v: mapping[v] for v in row.variables()})
            pin = pinned.get(bkey)
            if bkey in lp_var:
                add_row({**pre.coeffs, lp_var[bkey]: -ONE}, 0)
            elif pin is not None and pin.is_finite:
                add_row(dict(pre.coeffs), pin.value)

    for key in remaining:
        res = lp_solve(LpProblem(variables, {lp_var[key]: ONE}, constraints))
        if res.status == UNBOUNDED:
            result[key] = POS_INF
        elif res.status == OPTIMAL:
            result[key] = ext(res.value)
        else:
            raise EngineError("evaluation LP infeasible")
    return result
