"""Exact-rational linear programming.

A simplex over exact rationals for rows ``a.x <= b``.  Free variables are
split into nonnegative pairs.  Every solve starts from the slack basis,
which is dual feasible since every reduced cost is 0: a dual simplex makes
it primal feasible or finds a row that shows the problem infeasible, and a
primal simplex then optimizes.
No artificial columns are needed (Dutertre & de Moura, CAV 2006, also
decide feasibility without them).  Bland's least-index rules guarantee
termination without any perturbation.  The tableau is fraction-free
(Edmonds 1967; Bareiss 1968) and sparse: each row maps its nonzero columns
to ``int`` numerators over one positive ``int`` denominator, so the pivot
loop does integer arithmetic only and pays for nonzeros, not for the
width of the tableau.  Each ``Constraint`` computes its integer form
(numerators, right-hand side, one denominator) once and keeps it, so
building a tableau only places integers.  A formula atom is such a row
(``formula.Atom`` extends ``Constraint``), so its integer form is computed
once however many checks it enters.  ``Rat`` values appear again only
in the result: the value is read from the objective's basic columns, and
the witness is read from the final tableau when it is first asked for.
The pivot sequence is exactly that of a dense tableau of rationals.  Every
outcome (infeasible / optimal with witness / unbounded) is exact; there is
no floating point anywhere.

A problem grows only by ``LpProblem.extend``, which appends rows and
records the problem it extends as ``base``.  An ``OPTIMAL`` result keeps
its final tableau, and a problem whose ``base`` is that tableau's problem
(by identity) starts from it, the branch-and-bound warm start: the new
rows are appended exactly as a slack basis is built, and the dual simplex
alone restores a nonnegative right-hand side.  The old reduced costs stay
optimal, because the objective is the same and the new columns cost
nothing.  No row is ever changed in place, so the warm start shares every
old row with its start.

A row may be strict, ``a.x < b``.  Only ``lp_feasible_strict`` reads that:
its relaxed solve maximizes an auxiliary slack that strict rows must leave
open.  Every other solve reads a strict row as its closure.  A check adds
rows to an earlier check's system and is solved warm from it, so a search
asserts rows, checks, and backtracks by starting from an older check.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .numeric import Rat, ZERO, ONE, as_rat

INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_DELTA = "$strict"  # reserved auxiliary for strict-row slack


class LpError(Exception):
    """Malformed problem (undeclared variable, bad warm start, ...)."""


class Constraint:
    """A row ``sum(coeffs) <= rhs``, or ``<`` when ``strict``: its relation,
    which only ``lp_feasible_strict`` reads."""

    __slots__ = ("coeffs", "rhs", "strict", "_ints")

    def __init__(self, coeffs: Tuple[Tuple[str, Rat], ...], rhs: Rat, strict: bool = False):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "strict", strict)

    def __setattr__(self, *args):
        raise AttributeError("Constraint is immutable")

    @property
    def ints(self) -> Tuple[Dict[str, int], int, int]:
        """The row over the lcm of its denominators: each variable's nonzero
        numerator (a repeated variable's summed), the right-hand side's
        numerator and that denominator; computed on first use and kept."""
        try:
            return self._ints
        except AttributeError:
            rhs = self.rhs
            den = lcm(int(rhs.denominator), *(int(c.denominator) for _, c in self.coeffs))
            nums: Dict[str, int] = {}
            for v, c in self.coeffs:
                nums[v] = nums.get(v, 0) + int(c.numerator) * (den // int(c.denominator))
            ints = ({v: a for v, a in nums.items() if a},
                    int(rhs.numerator) * (den // int(rhs.denominator)), den)
            object.__setattr__(self, "_ints", ints)
            return ints

    def __eq__(self, other):
        if not isinstance(other, Constraint):
            return NotImplemented
        return (self.coeffs, self.rhs, self.strict) == (other.coeffs, other.rhs, other.strict)


class LpProblem:
    """Maximize a linear objective subject to rows, a strict row read as its
    closure; ``base`` is the problem that this one extends, or None."""

    def __init__(self, variables: Sequence[str], objective: Dict[str, Rat],
                 constraints: Sequence[Constraint]):
        self.variables, self.constraints, self.base = list(variables), list(constraints), None
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise LpError("duplicate variable declaration")
        for row in self.constraints:
            for v, _ in row.coeffs:
                if v not in declared:
                    raise LpError(f"constraint uses undeclared variable {v!r}")
        self.objective = {v: as_rat(c) for v, c in objective.items() if c != 0}
        for v in self.objective:
            if v not in declared:
                raise LpError(f"objective uses undeclared variable {v!r}")

    def extend(self, constraints: Sequence[Constraint]) -> "LpProblem":
        """A problem whose ``base`` is this one: ``constraints`` appended,
        and their variables that this one lacks, in order of occurrence."""
        declared = set(self.variables)
        grown = LpProblem.__new__(LpProblem)
        grown.variables = self.variables + [
            v for v in dict.fromkeys(v for row in constraints for v, _ in row.coeffs)
            if v not in declared]
        grown.constraints = self.constraints + list(constraints)
        grown.objective, grown.base = self.objective, self
        return grown


# what a cold ``lp_feasible_strict`` extends: maximize d subject to d <= 1
_STRICT_BASE = LpProblem([_DELTA], {_DELTA: ONE}, [Constraint(((_DELTA, ONE),), ONE)])


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


class FeasResult(NamedTuple):
    """Whether a mixed strict system is satisfiable; ``lp`` is the solve of
    its relaxed problem, which a later check may start from."""

    feasible: bool
    lp: Optional[LpResult] = None

    @property
    def witness(self) -> Optional[Dict[str, Rat]]:
        """A point of the system as a new dict, if feasible; no ``$strict``."""
        if self.feasible:
            return {v: q for v, q in self.lp.witness.items() if v != _DELTA}
        return None


def lp_solve(problem: LpProblem, start: Optional[LpResult] = None) -> LpResult:
    """Exactly classify the problem and compute an attained optimum.

    Returns ``LpResult(OPTIMAL, value, witness)`` where the witness
    satisfies every row exactly and attains the value, or the
    ``INFEASIBLE`` / ``UNBOUNDED`` classification.  A strict row is read
    as its closure, so the value is the strict system's supremum.

    Without ``start`` the solve begins at the slack basis of ``problem``,
    whose reduced costs are all 0: a dual simplex makes it feasible and a
    primal simplex then optimizes.  ``start`` is an earlier ``OPTIMAL``
    result of the problem that ``problem`` extends (``problem.base``);
    anything else raises ``LpError``.  The solve then begins at a copy of
    its final tableau (``start`` itself is never changed), extended by the
    same code that builds a slack basis, and the dual simplex alone
    finishes it: its reduced costs stay optimal, and rows only shrink the
    feasible set of a bounded problem, so the result is never unbounded.
    Status and value are those of a cold solve; the witness may differ.
    """
    if start is None:
        tab = _Tableau(problem)
    else:
        if start.status != OPTIMAL or start.tableau is None or \
                start.tableau.problem is not problem.base:
            raise LpError("a warm start must be an optimal solve of problem.base")
        tab = start.tableau.extended(problem)
    if not tab.dual_simplex():
        return LpResult(INFEASIBLE)
    if start is None and tab.phase_two() == UNBOUNDED:
        return LpResult(UNBOUNDED)
    return LpResult(OPTIMAL, tab.value(), tableau=tab)


def lp_feasible_strict(constraints: Sequence[Constraint],
                       start: Optional[FeasResult] = None) -> FeasResult:
    """Decide ``start``'s system plus ``constraints``, each strict row
    holding strictly.

    Maximizes an auxiliary slack d with ``row + d <= rhs`` for every strict
    row and ``d <= 1``; the mixed system is satisfiable iff the optimum is
    positive.  The witness then satisfies strict rows with room to spare.
    The relaxed problem extends that of ``start``, an earlier result whose
    ``lp`` is optimal, and is solved warm from it; without ``start`` it
    extends the problem of d alone and is solved cold.
    """
    rows = [Constraint(row.coeffs + ((_DELTA, ONE),), row.rhs) if row.strict else row
            for row in constraints]
    if any(v == _DELTA for row in constraints for v, _ in row.coeffs):
        raise LpError(f"variable name {_DELTA!r} is reserved")
    if start is None:
        res = lp_solve(_STRICT_BASE.extend(rows))
    else:
        if start.lp is None or start.lp.status != OPTIMAL:
            raise LpError("a warm start must carry an optimal LP result")
        res = lp_solve(start.lp.tableau.problem.extend(rows), start.lp)
    return FeasResult(res.status == OPTIMAL and res.value > 0, res)


class _Tableau:
    """Sparse fraction-free simplex tableau; free variables split as u - w >= 0.

    Row ``i`` is ``rows[i]``, a dict from column (one per split variable
    and per slack; ``-1`` for the right-hand side) to nonzero ``int``
    numerator, over the positive ``int`` denominator ``den[i]``; one gcd per
    update keeps it in lowest terms.  Its basic column holds ``den[i]`` (the
    basic variable's coefficient is 1), so a row's numerators alone have gcd
    1, and a pivot row needs no reduction.  The column of ``u`` is ``col[v]``,
    that of ``w`` the next one.  The reduced-cost row ``zrow`` has the same
    form at some positive scale, since only its signs and ratios are read.
    Rows are never changed in place, only replaced, so tableaus may share
    them.  Bland's rule, the ratio tests (by cross-multiplication) and their
    tie-breaks are those of a rational tableau, so the pivot sequence, and
    with it every witness, is exactly the same.
    """

    def __init__(self, problem: LpProblem):
        """The slack basis of ``problem``: each slack basic, even where its
        right-hand side is negative, and every reduced cost 0, so the
        tableau is dual feasible."""
        self.problem = problem
        self.col: Dict[str, int] = {}
        self.ncols = 0
        self.rows: List[Dict[int, int]] = []
        self.den: List[int] = []
        self.basis: List[int] = []
        self.zrow: Dict[int, int] = {}
        self._append(problem.variables, problem.constraints)

    def extended(self, problem: LpProblem) -> "_Tableau":
        """A copy of this optimal tableau for ``problem``, which extends this
        one's problem (``problem.base is self.problem``).  The reduced costs
        stay dual feasible: the new columns' are 0."""
        nvars, nrows = len(self.problem.variables), len(self.problem.constraints)
        tab = _Tableau.__new__(_Tableau)
        tab.problem, tab.ncols, tab.zrow = problem, self.ncols, self.zrow
        tab.rows, tab.den, tab.basis = list(self.rows), list(self.den), list(self.basis)
        tab.col = dict(self.col)
        tab._append(problem.variables[nvars:], problem.constraints[nrows:])
        return tab

    def _append(self, variables: Sequence[str],
                constraints: Sequence[Constraint]) -> None:
        """Give each new variable a ``u``/``w`` column pair and each new
        row a slack, all at the end, with reduced cost 0.  Each new row, its
        nonzero numerators by column and the right-hand side's under ``-1``,
        is put into canonical form against the basis, with its slack basic."""
        col = self.col
        for k, v in enumerate(variables):
            col[v] = self.ncols + 2 * k
        nslack = self.ncols + 2 * len(variables)
        self.ncols = nslack + len(constraints)
        rows, dens, basis = self.rows, self.den, self.basis
        old = len(rows)
        for k, constraint in enumerate(constraints):
            coeffs, b, den = constraint.ints
            row = {-1: b} if b else {}
            for v, a in coeffs.items():
                row[col[v]], row[col[v] + 1] = a, -a
            row[nslack + k] = den
            for i in range(old):
                f = row.get(basis[i])
                if f:
                    row, den = _eliminate(row, den, f, rows[i], dens[i])
            rows.append(row)
            dens.append(den)
            basis.append(nslack + k)

    # -- simplex core -----------------------------------------------------

    def _pivot(self, leave: int, enter: int) -> None:
        # The normalised pivot row is prow / q: its own denominator cancels.
        # A negative pivot (the dual simplex's) flips the row's sign.
        rows, dens = self.rows, self.den
        prow = rows[leave]
        q = prow[enter]
        if q < 0:
            prow = {j: -p for j, p in prow.items()}
            q = -q
        rows[leave] = prow
        dens[leave] = q
        for i, row in enumerate(rows):
            f = row.get(enter)
            if f and i != leave:
                rows[i], dens[i] = _eliminate(row, dens[i], f, prow, q)
        f = self.zrow.get(enter)
        if f:
            self.zrow, _ = _eliminate(self.zrow, 0, f, prow, q)
        self.basis[leave] = enter

    def dual_simplex(self) -> bool:
        """Pivot a dual feasible tableau to a nonnegative right-hand side,
        keeping the reduced costs dual feasible; False if infeasible.

        Bland's rule: the leaving row has a negative right-hand side and the
        least basic column, the entering column has a negative entry in that
        row and the least ratio ``reduced cost / entry``, ties going to the
        least column.  When no column qualifies, that row alone shows the
        problem infeasible."""
        rows, basis = self.rows, self.basis
        while True:
            leave = -1
            for i, row in enumerate(rows):  # Bland: least basic column
                if row.get(-1, 0) < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i
            if leave < 0:
                return True
            # Least ratio zrow[j] / a over a < 0; the row's denominator and
            # the objective's scale cancel, so cross-multiply numerators.
            # The row's nonzeros come in no particular column order, so a
            # tie goes to the least column explicitly.
            zrow = self.zrow
            enter = -1
            best_z = best_a = 0
            for j, a in rows[leave].items():
                if a < 0 and j >= 0:
                    z = zrow.get(j, 0)
                    if enter < 0 or z * best_a < best_z * a or \
                            (z * best_a == best_z * a and j < enter):
                        best_z, best_a, enter = z, a, j
            if enter < 0:
                return False
            self._pivot(leave, enter)

    def phase_two(self) -> str:
        """The primal simplex from a feasible tableau, with Bland's rule."""
        # The objective over the lcm of its denominators: same signs.  Its
        # reduced costs (zrow / scale) are cost minus cost[b] * row / den
        # over the basic columns b.
        objective = self.problem.objective
        scale = lcm(*(int(c.denominator) for c in objective.values()))
        zrow: Dict[int, int] = {}
        for v, c in objective.items():
            j = self.col[v]
            zrow[j] = int(c.numerator) * (scale // int(c.denominator))
            zrow[j + 1] = -zrow[j]
        for i, b in enumerate(self.basis):
            f = zrow.get(b)
            if f:
                zrow, scale = _eliminate(zrow, scale, f, self.rows[i], self.den[i])
        self.zrow = zrow
        while True:  # Bland: the least improving column enters
            enter = min((j for j, z in self.zrow.items() if z > 0 and j >= 0),
                        default=-1)
            if enter < 0:
                return OPTIMAL
            # Ratio rhs / a per row; the row's denominator cancels, so
            # compare the numerator ratios by cross-multiplication.
            leave = -1
            best_b = best_a = 0
            for i, row in enumerate(self.rows):
                a = row.get(enter, 0)
                if a > 0:
                    b = row.get(-1, 0)
                    lhs, rhs = b * best_a, best_b * a
                    if leave < 0 or lhs < rhs or \
                            (lhs == rhs and self.basis[i] < self.basis[leave]):
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
                    num = num * d + sign * int(c.numerator) * self.rows[i].get(-1, 0) * den
                    den *= d
        return Rat(num, den)

    def witness(self) -> Dict[str, Rat]:
        col_val = {b: Rat(self.rows[i].get(-1, 0), self.den[i])
                   for i, b in enumerate(self.basis)}
        out = {}
        for v, j in self.col.items():
            out[v] = col_val.get(j, ZERO) - col_val.get(j + 1, ZERO)
        return out


def _eliminate(row: Dict[int, int], den: int, f: int, prow: Dict[int, int],
               q: int) -> Tuple[Dict[int, int], int]:
    """``row / den - (f / den) * (prow / q)`` as a new row over a
    denominator, in lowest terms; ``row`` is left as it was, and ``prow``
    stores no zero.  A ``den`` of 0 stands for an unknown positive scale
    (the objective row): the result then keeps the signs and drops it."""
    new = row.copy() if q == 1 else {j: r * q for j, r in row.items()}
    den *= q
    for j, p in prow.items():
        r = new.get(j, 0) - f * p
        if r:
            new[j] = r
        else:
            del new[j]
    g = gcd(den, *new.values())
    if g > 1:
        new = {j: r // g for j, r in new.items()}
        den //= g
    return new, den
