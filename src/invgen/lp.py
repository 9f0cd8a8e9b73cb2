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
``int`` denominator, so the pivot loop does integer arithmetic only.  Each
``Constraint`` computes its integer form (numerators, right-hand side,
one denominator) once and keeps it, so building a tableau only places
integers.  ``Rat`` values appear again only in the result: the value is
read from the objective's basic columns, and the witness is read from the
final tableau when it is first asked for.  The pivot sequence is exactly
that of a tableau of rationals.  Every outcome (infeasible / optimal with
witness / unbounded) is exact; there is no floating point anywhere.

An ``OPTIMAL`` result keeps its final tableau, so a later problem that
only adds variables and rows can start from it (the branch-and-bound warm
start): the new rows are appended exactly as a slack basis is built, and
the dual simplex alone restores a nonnegative right-hand side.  The old
reduced costs stay optimal, because the objective is the same and the new
columns cost nothing.  ``LpProblem.extend`` builds such a problem from
the earlier one, checking only what it adds.

Mixed strict/non-strict feasibility is decided by ``lp_feasible_strict``:
maximize an auxiliary slack that strict rows must leave open.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def ints(self) -> Tuple[Tuple[Tuple[str, int], ...], int, int]:
        """The row over the lcm of its denominators: ``(variable, numerator)``
        pairs, the right-hand side's numerator and that denominator."""
        rhs = self.rhs
        den = lcm(int(rhs.denominator), *(int(c.denominator) for _, c in self.coeffs))
        nums = tuple((v, int(c.numerator) * (den // int(c.denominator)))
                     for v, c in self.coeffs)
        return nums, int(rhs.numerator) * (den // int(rhs.denominator)), den

    @cached_property
    def slackened(self) -> "Constraint":
        """``row + d <= rhs`` for the strict-row slack d of ``lp_feasible_strict``."""
        return Constraint(self.coeffs + ((_DELTA, ONE),), self.rel, self.rhs)


_DELTA_ROW = Constraint(((_DELTA, ONE),), "<=", ONE)


class LpProblem:
    """Maximize a linear objective subject to ``<=`` / ``=`` rows."""

    def __init__(self, variables: Sequence[str], objective: Dict[str, Rat],
                 constraints: Sequence[Constraint]):
        self.variables: List[str] = []
        self.constraints: List[Constraint] = []
        self._add(variables, constraints)
        declared = set(self.variables)
        self.objective = {v: as_rat(c) for v, c in objective.items() if c != 0}
        for v in self.objective:
            if v not in declared:
                raise LpError(f"objective uses undeclared variable {v!r}")

    def extend(self, variables: Sequence[str],
               constraints: Sequence[Constraint]) -> "LpProblem":
        """A new problem with this one's objective, variables and rows,
        then ``variables`` and ``constraints``; only these are checked."""
        grown = _checked(self.variables, self.objective, self.constraints)
        grown._add(variables, constraints)
        return grown

    def _add(self, variables: Sequence[str], constraints: Sequence[Constraint]) -> None:
        self.variables = self.variables + list(variables)
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise LpError("duplicate variable declaration")
        for row in constraints:
            for v, _ in row.coeffs:
                if v not in declared:
                    raise LpError(f"constraint uses undeclared variable {v!r}")
        self.constraints = self.constraints + list(constraints)


def _checked(variables: List[str], objective: Dict[str, Rat],
             constraints: List[Constraint]) -> LpProblem:
    """An ``LpProblem`` of parts that are checked already."""
    problem = LpProblem.__new__(LpProblem)
    problem.variables, problem.objective, problem.constraints = \
        variables, objective, constraints
    return problem


class LpResult:
    """The classification of an LP; an ``OPTIMAL`` one has its value and a
    witness attaining it.

    The result of a solve keeps its final tableau, for warm starts, and
    reads the witness from it when it is first asked for.  Equality
    compares status, value and witness."""

    __slots__ = ("status", "value", "tableau", "_witness")

    def __init__(self, status: str, value: Optional[Rat] = None,
                 witness: Optional[Dict[str, Rat]] = None,
                 tableau: Optional[_Tableau] = None):
        self.status, self.value = status, value
        self._witness, self.tableau = witness, tableau

    @property
    def witness(self) -> Optional[Dict[str, Rat]]:
        if self._witness is None and self.tableau is not None:
            self._witness = self.tableau.witness()
        return self._witness

    def __eq__(self, other):
        if not isinstance(other, LpResult):
            return NotImplemented
        return (self.status, self.value, self.witness) == \
            (other.status, other.value, other.witness)

    def __repr__(self):
        return f"LpResult({self.status!r}, {self.value!r}, {self.witness!r})"


class FeasResult:
    """Whether a mixed strict system is satisfiable, and if so a witness.

    ``lp`` is the solve of the relaxed problem, for warm starts; the
    witness is read from it when it is first asked for.  Equality compares
    the verdict and the witness."""

    __slots__ = ("feasible", "lp", "_witness")

    def __init__(self, feasible: bool, witness: Optional[Dict[str, Rat]] = None,
                 lp: Optional[LpResult] = None):
        self.feasible, self._witness, self.lp = feasible, witness, lp

    @property
    def witness(self) -> Optional[Dict[str, Rat]]:
        if self._witness is None and self.feasible and self.lp is not None:
            self._witness = {v: q for v, q in self.lp.witness.items() if v != _DELTA}
        return self._witness

    def __eq__(self, other):
        if not isinstance(other, FeasResult):
            return NotImplemented
        return (self.feasible, self.witness) == (other.feasible, other.witness)

    def __repr__(self):
        return f"FeasResult({self.feasible!r}, {self.witness!r})"


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
    return LpResult(OPTIMAL, tab.value(), tableau=tab)


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
    rows = [_DELTA_ROW, *problem.constraints]
    for i in strict_rows:
        if not 0 <= i < len(problem.constraints):
            raise LpError(f"strict row index {i} out of range")
        if problem.constraints[i].rel != "<=":
            raise LpError("strict row must be a <= constraint")
        rows[i + 1] = problem.constraints[i].slackened
    if _DELTA in problem.variables:
        raise LpError(f"variable name {_DELTA!r} is reserved")
    relaxed = _checked([_DELTA, *problem.variables], {_DELTA: ONE}, rows)
    if start is not None and start.lp is None:
        raise LpError("a warm start must carry its LP result")
    res = lp_solve(relaxed, None if start is None else start.lp)
    return FeasResult(res.status == OPTIMAL and res.value > 0, lp=res)


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
        tab = _Tableau.__new__(_Tableau)
        tab.problem, tab.ncols = problem, self.ncols
        tab.rows, tab.zrow = self.rows, self.zrow  # _append rebuilds both
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

    def value(self) -> Rat:
        """The objective's value, from the rows of its basic columns alone."""
        num, den = 0, 1  # the sum so far is num / den
        for v, c in self.problem.objective.items():
            for j, sign in ((self.col[v], 1), (self.col[v] + 1, -1)):  # u - w
                if j in self.basis:
                    i = self.basis.index(j)
                    d = int(c.denominator) * self.den[i]
                    num = num * d + sign * int(c.numerator) * self.rows[i][-1] * den
                    den *= d
        return Rat(num, den)

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
        coeffs, b, den = row.ints
        nums = [0] * width
        for v, a in coeffs:
            k = col[v]
            nums[k] += a
            nums[k + 1] -= a
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
