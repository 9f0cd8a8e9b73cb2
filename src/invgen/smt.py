"""Satisfiability of selector-guarded linear rational formulas.

The problems decided here have a very specific Boolean shape: the only
Boolean structure is the selector attached to each disjunction, so a model
is a path through the formula plus an exact rational point on that path.
The internal backend searches selector assignments in index order, depth
first on an explicit stack, and asks the exact LP layer whether the atoms
forced so far are consistent (strict atoms are handled natively); an
infeasible prefix prunes the whole subtree.
Each node keeps its frontier, the reachable disjunctions without a value.
Giving one a value walks only its chosen branch, once per time the
disjunction is reached: the atoms found there become the rows the child
appends to its parent's LP (``LpProblem.extend``), and the disjunctions
found there join the child's frontier.  Each atom's LP row is built once,
and each node's check re-solves from its parent's optimal tableau (the
warm start of ``lp_solve``), so a node pays only for its branch's rows.

An external SMT-LIB2 solver can be used instead.  An ``SmtSession`` keeps
one solver process for many queries: each query is sent inside a
``(push 1)`` / ``(pop 1)`` frame and every answer is read under a deadline.
The solver's Boolean assignment is trusted only after the rational part has
been checked (or re-derived) by exact substitution, so a misbehaving solver
surfaces as a backend error, never as a wrong verdict.
"""

from __future__ import annotations

import codecs
import os
import shlex
import subprocess
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .formula import REL_LT, And, Atom, Or, SmtProblem, selectors_of
from .lp import LpProblem, lp_feasible_strict
from .numeric import Rat, ZERO

SAT = "sat"
UNSAT = "unsat"


class SmtBackendError(Exception):
    """External solver failed: subprocess, protocol or cross-check error."""


@dataclass(frozen=True)
class SmtModel:
    selectors: Dict[int, int]
    reals: Dict[str, Rat]


@dataclass(frozen=True)
class SmtResult:
    status: str
    model: Optional[SmtModel] = None

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


# ---------------------------------------------------------------------------
# internal backend
# ---------------------------------------------------------------------------

def _walk(node, assign: Dict[int, int], atoms: List[Atom], reached: List[Or]) -> None:
    """Append to ``atoms`` the atoms under ``node`` that the partial selector
    assignment forces, in pre-order, and to ``reached`` the disjunctions
    without a value that it reaches, once per time each is reached."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            atoms.append(node)
        elif isinstance(node, And):
            stack.extend(reversed(node.children))
        else:
            val = assign.get(node.selector)
            if val is None:
                reached.append(node)
            else:
                stack.append(node.right if val else node.left)


def atoms_problem(atoms: Sequence[Atom], objective: Optional[Dict[str, Rat]] = None
                  ) -> Tuple[LpProblem, Set[int]]:
    """The atoms as ``<=`` rows of an LP maximising ``objective``, and the
    indices of the rows that must hold strictly.  Columns follow the first
    occurrence of each variable; variables only in the objective come last."""
    variables: Dict[str, None] = {}
    for atom in atoms:
        variables.update(dict.fromkeys(atom.lin.coeffs))
    variables.update(dict.fromkeys(objective or ()))
    strict = {i for i, a in enumerate(atoms) if a.rel == REL_LT}
    return LpProblem(list(variables), objective or {}, [a.row for a in atoms]), strict


def _grow(problem: LpProblem, strict: Set[int], atoms: Sequence[Atom]
          ) -> Tuple[LpProblem, Set[int]]:
    """``problem`` and its strict rows extended by ``atoms``: what
    ``atoms_problem`` gives for the parent's atoms followed by these."""
    declared = set(problem.variables)
    variables: Dict[str, None] = {}
    for atom in atoms:
        variables.update(dict.fromkeys(atom.lin.coeffs))
    n = len(problem.constraints)
    strict = strict | {n + i for i, a in enumerate(atoms) if a.rel == REL_LT}
    return problem.extend([v for v in variables if v not in declared],
                          [a.row for a in atoms]), strict


def smt_check(problem: SmtProblem) -> SmtResult:
    """Decide the problem exactly; a sat answer carries a checked model.

    The search is depth first, value 0 before 1, on an explicit stack.  A
    search node holds its frontier (each selector without a value, with the
    disjunctions that carry it, once per time each is reached), its LP and
    the LP's strict rows.  A pending child holds what it is grown from: its
    depth, selector and value, and its parent's other parts."""
    assign: Dict[int, int] = {}  # in the order assigned, so a prefix is a path
    atoms: List[Atom] = []
    reached: List[Or] = []
    _walk(problem.skeleton, assign, atoms, reached)
    frontier = _open({}, reached)
    lp, strict = atoms_problem(atoms)
    feas = lp_feasible_strict(lp, strict)
    pending: List[tuple] = []
    while True:
        if feas.feasible:
            if not frontier:
                witness = feas.witness
                reals = {v: witness.get(v, ZERO) for v in problem.real_vars}
                return SmtResult(SAT, SmtModel(dict(assign), reals))
            sel = min(frontier)
            rest = dict(frontier)
            nodes = rest.pop(sel)
            for value in (1, 0):
                pending.append((len(assign), sel, value, rest, nodes, lp, strict, feas))
        if not pending:
            return SmtResult(UNSAT)
        depth, sel, value, rest, nodes, lp, strict, start = pending.pop()
        while len(assign) > depth:
            assign.popitem()
        assign[sel] = value
        atoms, reached = [], []
        for node in nodes:
            _walk(node.right if value else node.left, assign, atoms, reached)
        frontier = _open(rest, reached)
        lp, strict = _grow(lp, strict, atoms)
        feas = lp_feasible_strict(lp, strict, start=start)


def _open(frontier: Dict[int, Tuple[Or, ...]], reached: List[Or]
          ) -> Dict[int, Tuple[Or, ...]]:
    """``frontier`` with the disjunctions of ``reached`` added."""
    if not reached:
        return frontier
    frontier = dict(frontier)
    for node in reached:
        frontier[node.selector] = frontier.get(node.selector, ()) + (node,)
    return frontier


# ---------------------------------------------------------------------------
# SMT-LIB2 emission
# ---------------------------------------------------------------------------

def _sym(name: str) -> str:
    if name and (name[0].isalpha() or name[0] == "_") and \
            all(ch.isalnum() or ch == "_" for ch in name):
        return name
    return f"|{name}|"


def _selector_name(sel: int) -> str:
    return f"a{sel}"


def _smt_rat(q) -> str:
    if q < 0:
        return f"(- {_smt_rat(-q)})"
    if q.denominator == 1:
        return str(q.numerator)
    return f"(/ {q.numerator} {q.denominator})"


def _smt_expr(lin) -> str:
    terms = []
    for v, c in lin.coeffs.items():
        terms.append(_sym(v) if c == 1 else f"(* {_smt_rat(c)} {_sym(v)})")
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def _smt_formula(node) -> str:
    if isinstance(node, Atom):
        op = "<" if node.rel == REL_LT else "<="
        return f"({op} {_smt_expr(node.lin)} {_smt_rat(node.bound)})"
    if isinstance(node, And):
        if not node.children:
            return "true"
        if len(node.children) == 1:
            return _smt_formula(node.children[0])
        return "(and " + " ".join(_smt_formula(ch) for ch in node.children) + ")"
    a = _selector_name(node.selector)
    return (f"(or (and (not {a}) {_smt_formula(node.left)})"
            f" (and {a} {_smt_formula(node.right)}))")


def _smt_declarations(problem: SmtProblem) -> str:
    lines = [f"(declare-const {_selector_name(sel)} Bool)"
             for sel in sorted(selectors_of(problem.skeleton))]
    lines.extend(f"(declare-const {_sym(v)} Real)" for v in problem.real_vars)
    lines.append(f"(assert {_smt_formula(problem.skeleton)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# external backend
# ---------------------------------------------------------------------------

def _lex(text: str):
    """(token, end offset) pairs of SMT-LIB2 text; a string or quoted
    symbol cut off by the end of the text comes last, with end None."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ";":
            i = text.find("\n", i)
            if i < 0:
                return
            continue
        if ch in "()":
            j = i + 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = j + 1 if j < n else None
        elif ch == "|":
            j = text.find("|", i + 1)
            j = j + 1 if j >= 0 else None
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
        yield text[i:j], j
        if j is None:
            return
        i = j


def _parse_sexps(text: str) -> List:
    out: List = []
    stack: List[List] = []
    for tok, end in _lex(text):
        if end is None and tok.startswith("|"):
            raise SmtBackendError("unterminated quoted symbol in solver output")
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SmtBackendError("unbalanced solver output")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise SmtBackendError("unbalanced solver output")
    return out


def _sexp_end(text: str) -> Optional[int]:
    """Offset just past the first complete s-expression in ``text``, or
    None while more input is needed."""
    depth = 0
    for tok, end in _lex(text):
        if end is None or (end == len(text) and tok[0] not in '()"|'):
            return None  # cut off, or an atom that may go on
        depth += (tok == "(") - (tok == ")")
        if depth <= 0:
            return end
    return None


def _sexp_rat(node) -> Rat:
    if isinstance(node, str):
        if "." in node:
            whole, _, frac = node.partition(".")
            scale = 10 ** len(frac)
            return Rat(int(whole or "0") * scale + int(frac or "0"), scale)
        return Rat(int(node))
    if isinstance(node, list) and node:
        if node[0] == "-" and len(node) == 2:
            return -_sexp_rat(node[1])
        if node[0] == "/" and len(node) == 3:
            return _sexp_rat(node[1]) / _sexp_rat(node[2])
    raise SmtBackendError(f"cannot read solver value {node!r}")


def _strip_sym(name: str) -> str:
    if name.startswith("|") and name.endswith("|"):
        return name[1:-1]
    return name


class SmtSession:
    """One external SMT-LIB2 solver process that answers many queries.

    The solver reads commands on stdin and answers on stdout as it goes
    (e.g. ``z3 -in``).  The session sends ``(set-logic QF_LRA)`` once;
    ``ask`` writes commands and reads one s-expression per expected answer,
    skipping the bare ``success`` tokens a solver prints when its
    ``:print-success`` option is on.  End of output, an ``(error ...)``
    answer or a timeout raises ``SmtBackendError`` and closes the session.
    Stderr goes to a temporary file whose last lines are quoted in those
    errors.  Use it as a context manager, or call ``close``: no solver
    process outlives it.
    """

    def __init__(self, solver_cmd: Union[str, Sequence[str]]):
        cmd = shlex.split(solver_cmd) if isinstance(solver_cmd, str) else list(solver_cmd)
        if not cmd:
            raise SmtBackendError("empty solver command")
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc: Optional[subprocess.Popen] = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=self._stderr, bufsize=0)
        except OSError as err:
            self._stderr.close()
            raise SmtBackendError(f"cannot launch solver {cmd[0]!r}: {err}") from None
        self._stdin = self._proc.stdin.fileno()
        self._stdout = self._proc.stdout.fileno()
        os.set_blocking(self._stdin, False)
        self._selector = DefaultSelector()
        self._selector.register(self._stdout, EVENT_READ)
        self._decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
        self._text = ""  # solver output not yet returned by ``ask``
        self.ask("(set-logic QF_LRA)\n", 0)

    def __enter__(self) -> "SmtSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ask(self, commands: str, answers: int = 1, timeout: float = 300.0) -> List:
        """Send ``commands`` and return the next ``answers`` answers, all
        within ``timeout`` seconds."""
        if self._proc is None:
            raise SmtBackendError("solver session is closed")
        deadline = time.monotonic() + timeout
        data = commands.encode()
        if data:
            self._selector.register(self._stdin, EVENT_WRITE)
        replies: List = []
        try:
            while True:
                while len(replies) < answers:
                    reply = self._next_answer()
                    if reply is None:
                        break
                    replies.append(reply)
                if len(replies) == answers and not data:
                    return replies
                remaining = deadline - time.monotonic()
                ready = self._selector.select(remaining) if remaining > 0 else []
                if not ready:
                    raise self._fail(f"solver timed out after {timeout}s")
                for key, _ in ready:
                    if key.fd == self._stdin:
                        data = data[self._write(data):]
                        if not data:
                            self._selector.unregister(self._stdin)
                    else:
                        chunk = os.read(self._stdout, 1 << 16)
                        if not chunk:
                            raise self._fail("solver closed its output")
                        self._text += self._decoder.decode(chunk)
        except SmtBackendError:
            self.close()
            raise

    def _write(self, data: bytes) -> int:
        try:
            return os.write(self._stdin, data)
        except BlockingIOError:
            return 0
        except OSError:
            raise self._fail("solver closed its input") from None

    def _next_answer(self):
        """The next complete answer in the output read so far, or None."""
        while True:
            end = _sexp_end(self._text)
            if end is None:
                return None
            sexps = _parse_sexps(self._text[:end])
            self._text = self._text[end:]
            if not sexps or sexps[0] == "success":
                continue
            answer = sexps[0]
            if isinstance(answer, list) and answer and answer[0] == "error":
                raise self._fail(f"solver error: {' '.join(map(str, answer[1:]))}")
            return answer

    def _fail(self, message: str) -> SmtBackendError:
        """Kill the solver; the error to raise, with the end of its stderr."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
        self._stderr.seek(0)
        tail = self._stderr.read().decode(errors="replace").strip().splitlines()[-5:]
        self.close()
        if tail:
            message += "; solver stderr: " + " | ".join(tail)
        return SmtBackendError(message)

    def close(self) -> None:
        """Ask the solver to exit, kill it if it does not, and reap it."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.returncode is None:
                os.write(self._stdin, b"(exit)\n")
                proc.stdin.close()
                proc.wait(timeout=2.0)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
            self._selector.close()
            self._stderr.close()


@contextmanager
def solver_session(backend) -> Iterator[Optional[SmtSession]]:
    """``backend`` ready for a series of queries: None (the internal
    backend) and open sessions are yielded as they are; a solver command is
    opened as a session, which is closed on exit."""
    if backend is None or isinstance(backend, SmtSession):
        yield backend
    else:
        with SmtSession(backend) as session:
            yield session


def smt_check_external(problem: SmtProblem,
                       solver: Union[SmtSession, str, Sequence[str]],
                       timeout: float = 300.0) -> SmtResult:
    """Decide the problem through an external SMT-LIB2 solver.

    ``solver`` is an open ``SmtSession`` or a solver command, for which a
    session is opened for this one query and closed again.  The query is
    framed by ``(push 1)`` / ``(pop 1)``, so a session can answer any number
    of them in turn; each answer must arrive within ``timeout`` seconds.
    Boolean selector values come from the solver; rational values are taken
    from the solver only when they pass exact substitution, otherwise they
    are re-derived internally on the selected path.  Everything unexpected
    raises ``SmtBackendError`` and closes the session.
    """
    if not isinstance(solver, SmtSession):
        with SmtSession(solver) as session:
            return smt_check_external(problem, session, timeout)
    try:
        return _external_query(problem, solver, timeout)
    except SmtBackendError:
        solver.close()
        raise


def _external_query(problem: SmtProblem, session: SmtSession,
                    timeout: float) -> SmtResult:
    sels = sorted(selectors_of(problem.skeleton))
    (verdict,) = session.ask(
        "(push 1)\n" + _smt_declarations(problem) + "(check-sat)\n", 1, timeout)
    if verdict == "unknown":
        raise SmtBackendError("solver answered 'unknown'")
    if verdict not in (SAT, UNSAT):
        raise SmtBackendError(f"no check-sat answer in solver output: {verdict!r}")
    if verdict == UNSAT:
        session.ask("(pop 1)\n", 0, timeout)
        return SmtResult(UNSAT)

    script = []
    if sels:
        script.append("(get-value (" + " ".join(_selector_name(s) for s in sels) + "))\n")
    if problem.real_vars:
        script.append("(get-value (" + " ".join(_sym(v) for v in problem.real_vars) + "))\n")
    values = session.ask("".join(script) + "(pop 1)\n", len(script), timeout)

    pairs: Dict[str, object] = {}
    for s in values:
        if isinstance(s, list):
            for entry in s:
                if isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str):
                    pairs[_strip_sym(entry[0])] = entry[1]

    selectors: Dict[int, int] = {}
    for sel in sels:
        val = pairs.get(_selector_name(sel))
        if val == "true":
            selectors[sel] = 1
        elif val == "false":
            selectors[sel] = 0
        else:
            raise SmtBackendError(f"missing Boolean value for selector {sel}")

    atoms: List[Atom] = []
    pending: List[Or] = []
    _walk(problem.skeleton, selectors, atoms, pending)
    if pending:
        raise SmtBackendError("solver assignment leaves a reachable disjunction open")

    reals: Optional[Dict[str, Rat]] = None
    try:
        candidate = {v: _sexp_rat(pairs[v]) for v in problem.real_vars}
        if all(a.holds(candidate) for a in atoms):
            reals = candidate
    except (KeyError, SmtBackendError):
        reals = None
    if reals is None:
        feas = lp_feasible_strict(*atoms_problem(atoms))
        if not feas.feasible:
            raise SmtBackendError(
                "solver said sat but its selected path is infeasible")
        reals = {v: feas.witness.get(v, ZERO) for v in problem.real_vars}
    return SmtResult(SAT, SmtModel(selectors, reals))

