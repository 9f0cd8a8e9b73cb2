"""Exact-rational linear programming.

A simplex over exact rationals.  Free variables are split into
nonnegative pairs and ``=`` rows are expanded into two ``<=`` rows.  Every
solve starts from the slack basis, which is dual feasible since every
reduced cost is 0: a dual simplex makes it primal feasible or finds a row
that shows the problem infeasible, and a primal simplex then optimizes.
No artificial columns are needed (Dutertre & de Moura, CAV 2006, also
decide feasibility without them).  Bland's least-index rules guarantee
termination without any perturbation.  The tableau is fraction-free (Edmonds 1967; Bareiss
1968): each row is a dense list of ``int`` numerators over one positive
``int`` denominator, so the pivot loop does integer arithmetic only, and
``Rat`` values appear only when the problem is read in and the witness is
read out.  The pivot sequence is exactly that of a tableau of rationals.
Every outcome (infeasible / optimal with witness / unbounded) is exact;
there is no floating point anywhere.

An ``OPTIMAL`` result keeps its final tableau, so a later problem that
only adds variables and rows can start from it (the branch-and-bound warm
start): the new rows are appended exactly as a slack basis is built, and
the dual simplex alone restores a nonnegative right-hand side.  The old
reduced costs stay optimal, because the objective is the same and the new
columns cost nothing.

Mixed strict/non-strict feasibility is decided by ``lp_feasible_strict``:
maximize an auxiliary slack that strict rows must leave open.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .numeric import Rat, ZERO, ONE, as_rat

INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_DELTA = "$strict"  # reserved auxiliary for strict-row slack


class LpError(Exception):
    """Malformed problem (undeclared variable, bad relation, ...)."""


@dataclass(frozen=True)
class Constraint:
    """A row ``sum(coeffs) rel rhs`` with rel one of ``<=`` or ``=``."""

    coeffs: Tuple[Tuple[str, Rat], ...]
    rel: str
    rhs: Rat

    @staticmethod
    def of(coeffs: Dict[str, Rat], rel: str, rhs) -> "Constraint":
        if rel not in ("<=", "="):
            raise LpError(f"unsupported relation {rel!r}")
        items = tuple((v, as_rat(c)) for v, c in coeffs.items() if c != 0)
        return Constraint(items, rel, as_rat(rhs))


class LpProblem:
    """Maximize a linear objective subject to ``<=`` / ``=`` rows."""

    def __init__(self, variables: Sequence[str], objective: Dict[str, Rat],
                 constraints: Sequence[Constraint]):
        self.variables = list(variables)
        if len(set(self.variables)) != len(self.variables):
            raise LpError("duplicate variable declaration")
        declared = set(self.variables)
        self.objective = {v: as_rat(c) for v, c in objective.items() if c != 0}
        for v in self.objective:
            if v not in declared:
                raise LpError(f"objective uses undeclared variable {v!r}")
        self.constraints = list(constraints)
        for row in self.constraints:
            for v, _ in row.coeffs:
                if v not in declared:
                    raise LpError(f"constraint uses undeclared variable {v!r}")


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Optional[Rat] = None
    witness: Optional[Dict[str, Rat]] = None
    # the final tableau of an OPTIMAL solve, for warm starts
    tableau: Optional[_Tableau] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FeasResult:
    feasible: bool
    witness: Optional[Dict[str, Rat]] = None
    # the solve of the relaxed problem, for warm starts
    lp: Optional[LpResult] = field(default=None, compare=False, repr=False)


def lp_solve(problem: LpProblem, start: Optional[LpResult] = None) -> LpResult:
    """Exactly classify the problem and compute an attained optimum.

    Returns ``LpResult(OPTIMAL, value, witness)`` where the witness
    satisfies every row exactly and attains the value, or the
    ``INFEASIBLE`` / ``UNBOUNDED`` classification.

    Without ``start`` the solve begins at the slack basis of ``problem``,
    whose reduced costs are all 0: a dual simplex makes it feasible and a
    primal simplex then optimizes.  ``start`` is an earlier ``OPTIMAL``
    result whose problem has the same objective and whose variables and
    rows are each a prefix of ``problem``'s; anything else raises
    ``LpError``.  The solve then begins at a copy of its final tableau
    (``start`` itself is never changed), extended by the same code that
    builds a slack basis, and the dual simplex alone finishes it: its
    reduced costs stay optimal, and rows only shrink the feasible set of a
    bounded problem, so the result is never unbounded.  Status and value
    are those of a cold solve; the witness may differ.
    """
    if start is None:
        tab = _Tableau(problem)
    else:
        if start.status != OPTIMAL or start.tableau is None:
            raise LpError("a warm start must be an optimal result")
        tab = start.tableau.extended(problem)
    if not tab.dual_simplex():
        return LpResult(INFEASIBLE)
    if start is None and tab.phase_two() == UNBOUNDED:
        return LpResult(UNBOUNDED)
    witness = tab.witness()
    value = ZERO
    for v, c in problem.objective.items():
        value = value + c * witness[v]
    return LpResult(OPTIMAL, value, witness, tab)


def lp_feasible_strict(problem: LpProblem, strict_rows: Set[int],
                       start: Optional[FeasResult] = None) -> FeasResult:
    """Decide a system where some ``<=`` rows must hold strictly.

    Maximizes an auxiliary slack d with ``row + d <= rhs`` for every strict
    row and ``d <= 1``; the mixed system is satisfiable iff the optimum is
    positive.  The witness then satisfies strict rows with room to spare.
    The column of d and the row ``d <= 1`` come first, so the relaxed
    problem of a prefix extension of ``problem`` (same strict rows among the
    old ones) extends the relaxed problem of ``start``, an earlier result of
    this function, and is solved warm from its ``lp``.
    """
    for i in strict_rows:
        if not 0 <= i < len(problem.constraints):
            raise LpError(f"strict row index {i} out of range")
        if problem.constraints[i].rel != "<=":
            raise LpError("strict row must be a <= constraint")
    rows = [Constraint(((_DELTA, ONE),), "<=", ONE)]
    for i, row in enumerate(problem.constraints):
        if i in strict_rows:
            rows.append(Constraint(row.coeffs + ((_DELTA, ONE),), "<=", row.rhs))
        else:
            rows.append(row)
    relaxed = LpProblem([_DELTA] + problem.variables, {_DELTA: ONE}, rows)
    if start is not None and start.lp is None:
        raise LpError("a warm start must carry its LP result")
    res = lp_solve(relaxed, None if start is None else start.lp)
    if res.status != OPTIMAL or res.value <= 0:
        return FeasResult(False, lp=res)
    witness = {v: q for v, q in res.witness.items() if v != _DELTA}
    return FeasResult(True, witness, res)


class _Tableau:
    """Fraction-free simplex tableau; every free variable is split as u - w >= 0.

    Row ``i`` is ``rows[i]``, a dense list of ``int`` numerators (one column
    per split variable and per slack, then the right-hand side) over the
    positive ``int`` denominator ``den[i]``; one gcd per update keeps it in
    lowest terms.  The column of ``u`` is ``col[v]``, that of ``w`` the next
    one.  The reduced-cost row ``zrow`` is an ``int`` list at some positive
    scale, since only its signs and ratios are read.  Bland's rule, the
    ratio tests (by cross-multiplication) and their tie-breaks are those of
    a rational tableau, so the pivot sequence, and with it every witness,
    is exactly the same.
    """

    def __init__(self, problem: LpProblem):
        """The slack basis of ``problem``: each slack basic, even where its
        right-hand side is negative, and every reduced cost 0, so the
        tableau is dual feasible."""
        self.problem = problem
        self.col: Dict[str, int] = {}
        self.ncols = 0
        self.rows: List[List[int]] = []  # numerators, right-hand side last
        self.den: List[int] = []
        self.basis: List[int] = []
        self.zrow = [0]
        self._append(problem.variables, problem.constraints)

    def extended(self, problem: LpProblem) -> "_Tableau":
        """A copy of this optimal tableau for ``problem``, which extends this
        one's problem by variables and rows.  The reduced costs stay dual
        feasible: the new columns' are 0."""
        old = self.problem
        nvars, nrows = len(old.variables), len(old.constraints)
        if problem.objective != old.objective or \
                problem.variables[:nvars] != old.variables or \
                problem.constraints[:nrows] != old.constraints:
            raise LpError("a warm start must be a prefix of the problem "
                          "with the same objective")
        tab = copy.copy(self)  # _append rebuilds rows and zrow
        tab.problem = problem
        tab.col, tab.den, tab.basis = dict(self.col), list(self.den), list(self.basis)
        tab._append(problem.variables[nvars:], problem.constraints[nrows:])
        return tab

    def _append(self, variables: Sequence[str],
                constraints: Sequence[Constraint]) -> None:
        """Give each new variable a ``u``/``w`` column pair and each new
        (``=``-expanded) row a slack, all at the end, with reduced cost 0.
        Each new row is put into canonical form against the basis, with its
        slack basic.  Every row is rebuilt as a new list, so a tableau this
        one was copied from is left as it was."""
        for k, v in enumerate(variables):
            self.col[v] = self.ncols + 2 * k
        nslack = self.ncols + 2 * len(variables)
        raw = _raw_rows(constraints, self.col, nslack)
        pad = [0] * (nslack + len(raw) - self.ncols)
        self.ncols = nslack + len(raw)
        self.rows = [row[:-1] + pad + row[-1:] for row in self.rows]
        self.zrow = self.zrow[:-1] + pad + self.zrow[-1:]
        old = len(self.rows)
        nonzero: Dict[int, List[Tuple[int, int]]] = {}
        for k, (row, b, den) in enumerate(raw):
            row += [0] * len(raw) + [b]
            row[nslack + k] = den
            for i in range(old):
                f = row[self.basis[i]]
                if f:
                    prow = self.rows[i]
                    if i not in nonzero:
                        nonzero[i] = [(j, p) for j, p in enumerate(prow) if p]
                    row, den = _eliminate(row, den, f, prow, self.den[i], nonzero[i])
            self.rows.append(row)
            self.den.append(den)
            self.basis.append(nslack + k)

    # -- simplex core -----------------------------------------------------

    def _reduced_costs(self, cost: List[int]) -> List[int]:
        # zrow / scale = cost - sum over basic rows of cost[b] * row / den
        zrow = cost + [0]
        scale = 1
        for i, b in enumerate(self.basis):
            if cost[b] != 0:
                row = self.rows[i]
                nonzero = [(j, a) for j, a in enumerate(row) if a]
                zrow, scale = _eliminate(zrow, scale, cost[b] * scale, row,
                                         self.den[i], nonzero)
        return zrow

    def _pivot(self, leave: int, enter: int) -> None:
        # The normalised pivot row is prow / q: its own denominator cancels.
        # A negative pivot (the dual simplex's) flips the row's sign.
        rows, dens, zrow = self.rows, self.den, self.zrow
        prow = rows[leave]
        q = prow[enter]
        if q < 0:
            prow = [-p for p in prow]
            q = -q
        g = gcd(*prow)
        if g != 1:
            prow = [p // g for p in prow]
            q //= g
        rows[leave] = prow
        dens[leave] = q
        nonzero = [(j, p) for j, p in enumerate(prow) if p]
        for i, row in enumerate(rows):
            f = row[enter]
            if f != 0 and i != leave:
                rows[i], dens[i] = _eliminate(row, dens[i], f, prow, q, nonzero)
        if zrow[enter] != 0:
            zrow[:], _ = _eliminate(zrow, 0, zrow[enter], prow, q, nonzero)
        self.basis[leave] = enter

    def dual_simplex(self) -> bool:
        """Pivot a dual feasible tableau to a nonnegative right-hand side,
        keeping the reduced costs dual feasible; False if infeasible.

        Bland's rule: the leaving row has a negative right-hand side and the
        least basic column, the entering column has a negative entry in that
        row and the least ratio ``reduced cost / entry``, ties going to the
        least column.  When no column qualifies, that row alone shows the
        problem infeasible."""
        rows, basis, zrow = self.rows, self.basis, self.zrow
        while True:
            leave = -1
            for i, row in enumerate(rows):  # Bland: least basic column
                if row[-1] < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return True
            # Least ratio zrow[j] / a over a < 0; the row's denominator and
            # the objective's scale cancel, so cross-multiply numerators.
            row = rows[leave]
            enter = -1
            best_z = best_a = 0
            for j in range(self.ncols):
                a = row[j]
                if a < 0 and (enter < 0 or zrow[j] * best_a < best_z * a):
                    best_z, best_a, enter = zrow[j], a, j
            if enter < 0:
                return False
            self._pivot(leave, enter)

    def phase_two(self) -> str:
        """The primal simplex from a feasible tableau, with Bland's rule."""
        # The objective over the lcm of its denominators: same signs.
        objective = self.problem.objective
        scale = lcm(*(int(c.denominator) for c in objective.values()))
        cost = [0] * self.ncols
        for v, c in objective.items():
            j = self.col[v]
            cost[j] = int(c.numerator) * (scale // int(c.denominator))
            cost[j + 1] = -cost[j]
        self.zrow = zrow = self._reduced_costs(cost)
        while True:
            enter = -1
            for j in range(self.ncols):  # Bland: least improving index
                if zrow[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            # Ratio rhs / a per row; the row's denominator cancels, so
            # compare the numerator ratios by cross-multiplication.
            leave = -1
            best_b = best_a = 0
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    b = row[-1]
                    if leave < 0:
                        better = True
                    else:
                        lhs, rhs = b * best_a, best_b * a
                        better = lhs < rhs or \
                            (lhs == rhs and self.basis[i] < self.basis[leave])
                    if better:
                        best_b, best_a, leave = b, a, i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    def witness(self) -> Dict[str, Rat]:
        col_val = {b: Rat(self.rows[i][-1], self.den[i])
                   for i, b in enumerate(self.basis)}
        out = {}
        for v, j in self.col.items():
            out[v] = col_val.get(j, ZERO) - col_val.get(j + 1, ZERO)
        return out


def _raw_rows(constraints: Sequence[Constraint], col: Dict[str, int],
              width: int) -> List[Tuple[List[int], int, int]]:
    """Each row as (numerators over ``width`` columns, right-hand side,
    denominator) with ``u - w`` split at ``col``; ``=`` gives two rows."""
    raw: List[Tuple[List[int], int, int]] = []
    for row in constraints:
        rhs = row.rhs
        den = lcm(int(rhs.denominator), *(int(c.denominator) for _, c in row.coeffs))
        nums = [0] * width
        for v, c in row.coeffs:
            a = int(c.numerator) * (den // int(c.denominator))
            k = col[v]
            nums[k] += a
            nums[k + 1] -= a
        b = int(rhs.numerator) * (den // int(rhs.denominator))
        raw.append((nums, b, den))
        if row.rel == "=":
            raw.append(([-a for a in nums], -b, den))
    return raw


def _eliminate(row: List[int], den: int, f: int, prow: List[int], q: int,
               nonzero: List[Tuple[int, int]]) -> Tuple[List[int], int]:
    """``row / den - (f / den) * (prow / q)`` as numerators over a denominator,
    in lowest terms.  ``nonzero`` lists the nonzero ``(column, entry)`` pairs
    of ``prow``.  A ``den`` of 0 stands for an unknown positive scale (the
    objective row): the result then keeps the signs and drops the scale."""
    if q == 1:  # only the pivot row's nonzero columns change, in place
        for j, p in nonzero:
            row[j] -= f * p
    else:
        row = [r * q - f * p for r, p in zip(row, prow)]
        den *= q
    g = gcd(den, *row)
    if g > 1:
        row = [r // g for r in row]
        den //= g
    return row, den
