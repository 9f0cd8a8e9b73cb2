"""Exact-rational linear programming.

A two-phase simplex over exact rationals.  Free variables are split into
nonnegative pairs, ``=`` rows are expanded into two ``<=`` rows and Bland's
least-index pivoting rule guarantees termination without any perturbation.
The tableau is fraction-free (Edmonds 1967; Bareiss 1968): each row is a
dense list of ``int`` numerators over one positive ``int`` denominator, so
the pivot loop does integer arithmetic only, and ``Rat`` values appear only
when the problem is read in and the witness is read out.  The pivot
sequence is exactly that of a tableau of rationals.  Every outcome
(infeasible / optimal with witness / unbounded) is exact; there is no
floating point anywhere.

Mixed strict/non-strict feasibility is decided by ``lp_feasible_strict``:
maximize an auxiliary slack that strict rows must leave open.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class FeasResult:
    feasible: bool
    witness: Optional[Dict[str, Rat]] = None


def lp_solve(problem: LpProblem) -> LpResult:
    """Exactly classify the problem and compute an attained optimum.

    Returns ``LpResult(OPTIMAL, value, witness)`` where the witness
    satisfies every row exactly and attains the value, or the
    ``INFEASIBLE`` / ``UNBOUNDED`` classification.
    """
    tab = _Tableau(problem)
    if not tab.phase_one():
        return LpResult(INFEASIBLE)
    status = tab.phase_two()
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    witness = tab.witness()
    value = ZERO
    for v, c in problem.objective.items():
        value = value + c * witness[v]
    return LpResult(OPTIMAL, value, witness)


def lp_feasible_strict(problem: LpProblem, strict_rows: Set[int]) -> FeasResult:
    """Decide a system where some ``<=`` rows must hold strictly.

    Maximizes an auxiliary slack d with ``row + d <= rhs`` for every strict
    row and ``d <= 1``; the mixed system is satisfiable iff the optimum is
    positive.  The witness then satisfies strict rows with room to spare.
    """
    for i in strict_rows:
        if not 0 <= i < len(problem.constraints):
            raise LpError(f"strict row index {i} out of range")
        if problem.constraints[i].rel != "<=":
            raise LpError("strict row must be a <= constraint")
    rows = []
    for i, row in enumerate(problem.constraints):
        if i in strict_rows:
            rows.append(Constraint(row.coeffs + ((_DELTA, ONE),), "<=", row.rhs))
        else:
            rows.append(row)
    rows.append(Constraint(((_DELTA, ONE),), "<=", ONE))
    relaxed = LpProblem(problem.variables + [_DELTA], {_DELTA: ONE}, rows)
    res = lp_solve(relaxed)
    if res.status != OPTIMAL or res.value <= 0:
        return FeasResult(False)
    witness = {v: q for v, q in res.witness.items() if v != _DELTA}
    return FeasResult(True, witness)


class _Tableau:
    """Fraction-free simplex tableau; every free variable is split as u - w >= 0.

    Row ``i`` is ``rows[i]``, a dense list of ``int`` numerators (one column
    per split variable, slack and artificial, then the right-hand side)
    over the positive ``int`` denominator ``den[i]``; one gcd per update
    keeps it in lowest terms.  The objective row is an ``int`` list at some
    positive scale, since only its signs are read.  Bland's rule, the ratio
    test (by cross-multiplication) and its tie-breaks are those of a
    rational tableau, so the pivot sequence, and with it every witness, is
    exactly the same.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self.var_index = {v: i for i, v in enumerate(problem.variables)}
        n2 = 2 * len(problem.variables)

        raw: List[Tuple[List[int], int, int]] = []
        for row in problem.constraints:
            rhs = row.rhs
            den = lcm(int(rhs.denominator), *(int(c.denominator) for _, c in row.coeffs))
            nums = [0] * n2
            for v, c in row.coeffs:
                a = int(c.numerator) * (den // int(c.denominator))
                k = 2 * self.var_index[v]
                nums[k] += a
                nums[k + 1] -= a
            b = int(rhs.numerator) * (den // int(rhs.denominator))
            raw.append((nums, b, den))
            if row.rel == "=":
                raw.append(([-a for a in nums], -b, den))

        m = len(raw)
        nslack = n2 + m  # structural + one slack per row; artificials follow
        self.ncols = nslack + sum(1 for _, b, _ in raw if b < 0)
        self.rows: List[List[int]] = []  # numerators, right-hand side last
        self.den: List[int] = []
        self.basis: List[int] = []
        self.artificial: Set[int] = set()
        for i, (nums, b, den) in enumerate(raw):
            row = nums + [0] * (self.ncols - n2) + [b]
            row[n2 + i] = den
            if b < 0:
                row = [-a for a in row]
                art = nslack + len(self.artificial)
                row[art] = den
                self.artificial.add(art)
                self.basis.append(art)
            else:
                self.basis.append(n2 + i)
            self.rows.append(row)
            self.den.append(den)

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

    def _optimize(self, cost: List[int], blocked: Set[int]) -> str:
        zrow = self._reduced_costs(cost)
        while True:
            enter = -1
            for j in range(self.ncols):  # Bland: least improving index
                if j not in blocked and zrow[j] > 0:
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
            self._pivot(leave, enter, zrow)

    def _pivot(self, leave: int, enter: int, zrow: Optional[List[int]]) -> None:
        # The normalised pivot row is prow / q: its own denominator cancels.
        # A negative pivot (phase one's drive-out) flips the row's sign.
        rows, dens = self.rows, self.den
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
        if zrow is not None and zrow[enter] != 0:
            zrow[:], _ = _eliminate(zrow, 0, zrow[enter], prow, q, nonzero)
        self.basis[leave] = enter

    # -- phases ------------------------------------------------------------

    def phase_one(self) -> bool:
        if not self.artificial:
            return True
        cost = [0] * self.ncols
        for j in self.artificial:
            cost[j] = -1
        self._optimize(cost, blocked=set())
        for i, b in enumerate(self.basis):
            if b in self.artificial and self.rows[i][-1] != 0:
                return False
        # Drive leftover zero-valued artificials out of the basis; a row
        # with no real pivot candidate is redundant and can be dropped.
        for i in reversed(range(len(self.rows))):
            if self.basis[i] not in self.artificial:
                continue
            row = self.rows[i]
            enter = next((j for j in range(self.ncols)
                          if j not in self.artificial and row[j] != 0), -1)
            if enter >= 0:
                self._pivot(i, enter, None)
            else:
                del self.rows[i], self.den[i], self.basis[i]
        return True

    def phase_two(self) -> str:
        # The objective over the lcm of its denominators: same signs.
        objective = self.problem.objective
        scale = lcm(*(int(c.denominator) for c in objective.values()))
        cost = [0] * self.ncols
        for v, c in objective.items():
            j = 2 * self.var_index[v]
            cost[j] = int(c.numerator) * (scale // int(c.denominator))
            cost[j + 1] = -cost[j]
        return self._optimize(cost, blocked=self.artificial)

    def witness(self) -> Dict[str, Rat]:
        col_val = {b: Rat(self.rows[i][-1], self.den[i])
                   for i, b in enumerate(self.basis)}
        out = {}
        for v, i in self.var_index.items():
            out[v] = col_val.get(2 * i, ZERO) - col_val.get(2 * i + 1, ZERO)
        return out


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
