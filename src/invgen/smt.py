"""Satisfiability of selector-guarded linear rational formulas.

The formulas decided here have a very specific Boolean shape: the only
Boolean structure is the selector attached to each disjunction, so a model
is a path through the formula plus an exact rational point on that path.
One search decides them: it assigns selectors in index order, depth first
on an explicit stack, and asks the exact LP layer whether the atoms forced
so far are consistent; an infeasible prefix prunes the whole subtree.  An
atom is its own LP row (``formula.Atom`` extends ``lp.Constraint``),
strict or not, so the search passes atoms as they are.  Each node keeps
its frontier, the reachable disjunctions without a value.  Giving one a
value walks only its chosen branch, once per time the disjunction is
reached: the atoms found there are the rows that the child's theory check
adds to its parent's (``lp_feasible_strict`` with the parent's check as
``start``), and the disjunctions found there join the child's frontier.
Each check is solved warm from its parent's optimal tableau, so a node
pays only for its branch's rows; backtracking is starting from an older
check.  A model is the path's selectors and the witness of its last check,
which holds only the variables of the path's atoms.

An external SMT-LIB2 solver can be used instead.  An ``SmtSession`` keeps
one solver process for many queries: each query is sent inside a
``(push 1)`` / ``(pop 1)`` frame and every answer is read under a deadline.
A query names its constants by index and defines each distinct subformula
once, so its text is linear in the formula and no name needs quoting; the
frame scopes the definitions with the declarations.  The solver supplies
only the verdict and, on sat, the selector values: a path through the
formula, which steers the same search (it tries the solver's value of each
selector first), as a DPLL(T) solver's Boolean assignment is checked by
its theory solver.  Both backends therefore give the same model for the
same path, no number is read from the solver, and a path that the search
does not confirm surfaces as a backend error, never as a wrong verdict.
"""

from __future__ import annotations

import codecs
import os
import reprlib
import shlex
import subprocess
import tempfile
import time
from contextlib import contextmanager
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .formula import And, Atom, Or, formula_vars, selectors_of, walk
from .lp import lp_feasible_strict
from .numeric import Rat

SAT = "sat"
UNSAT = "unsat"


class SmtBackendError(Exception):
    """External solver failed: subprocess, protocol or cross-check error."""


class SmtModel(NamedTuple):
    selectors: Dict[int, int]
    reals: Dict[str, Rat]


class SmtResult(NamedTuple):
    status: str
    model: Optional[SmtModel] = None

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


# ---------------------------------------------------------------------------
# internal backend
# ---------------------------------------------------------------------------

def smt_check(formula) -> SmtResult:
    """Decide the formula exactly; a sat answer carries a checked model: the
    value of each selector on its path, and a point on that path, which
    holds only the variables of the path's atoms.  ``smt_check_external``
    gives the same model whenever its solver names the same path."""
    return _search(formula, {})


def _search(formula, prefer: Dict[int, int]) -> SmtResult:
    """The selector search, depth first on an explicit stack, trying each
    selector's value in ``prefer`` first, else 0.  A pending node holds its
    depth, the selector value it adds, the subtrees that value reaches, its
    parent's frontier without that selector and the parent's check, which
    its own check extends by the atoms those subtrees force."""
    assign: Dict[int, int] = {}  # in the order assigned, so a prefix is a path
    pending: List[tuple] = [(0, {}, (formula,), {}, None)]
    while pending:
        depth, choice, subtrees, rest, start = pending.pop()
        while len(assign) > depth:
            assign.popitem()
        assign.update(choice)
        atoms: List[Atom] = []
        reached: List[Or] = []
        for node in subtrees:
            walk(node, assign, atoms, reached)
        frontier = _open(rest, reached)
        feas = lp_feasible_strict(atoms, start)
        if not feas.feasible:
            continue
        if not frontier:
            return SmtResult(SAT, SmtModel(dict(assign), feas.witness))
        sel = min(frontier)
        rest = dict(frontier)
        nodes = rest.pop(sel)
        first = prefer.get(sel, 0)
        for value in (1 - first, first):
            subtrees = [node.right if value else node.left for node in nodes]
            pending.append((len(assign), {sel: value}, subtrees, rest, feas))
    return SmtResult(UNSAT)


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

def _selector_name(sel: int) -> str:
    return f"sel!{sel}"


def _smt_rat(q) -> str:
    if q < 0:
        return f"(- {_smt_rat(-q)})"
    if q.denominator == 1:
        return str(q.numerator)
    return f"(/ {q.numerator} {q.denominator})"


def _smt_expr(lin, names: Dict[str, str]) -> str:
    terms = []
    for v, c in lin.coeffs.items():
        terms.append(names[v] if c == 1 else f"(* {_smt_rat(c)} {names[v]})")
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def _smt_declarations(formula) -> str:
    """The declarations and the assertion of ``formula`` in SMT-LIB2.

    Every name is a simple symbol made by index, so none needs quoting:
    selector k is ``sel!k``, the k-th variable of ``formula_vars`` is
    ``x!k``.  Each distinct ``And`` of two or more children and each ``Or``
    is defined once, children first, as ``n!k``, so the text is linear in
    the formula however often a subtree is shared; an ``Or`` is
    ``(ite sel right left)``.  Atoms are written in place, a one-child
    ``And`` as its child and an empty one as ``true``."""
    names = {v: f"x!{i}" for i, v in enumerate(formula_vars(formula))}
    lines = [f"(declare-const {_selector_name(sel)} Bool)"
             for sel in sorted(selectors_of(formula))]
    lines.extend(f"(declare-const {name} Real)" for name in names.values())
    declared = len(lines)
    terms: Dict[int, str] = {}  # by node id, the term that stands for it
    # (node, False) enters a node; (node, True) writes it from its children's terms
    stack: List[Tuple[object, bool]] = [(formula, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in terms:
            continue
        if isinstance(node, Atom):
            terms[id(node)] = f"({node.rel} {_smt_expr(node.lin, names)} {_smt_rat(node.rhs)})"
            continue
        kids = (node.left, node.right) if isinstance(node, Or) else node.children
        if not ready:
            stack.append((node, True))
            stack.extend((ch, False) for ch in reversed(kids))
            continue
        subs = [terms[id(ch)] for ch in kids]
        if isinstance(node, Or):
            body = f"(ite {_selector_name(node.selector)} {subs[1]} {subs[0]})"
        elif len(subs) > 1:
            body = "(and " + " ".join(subs) + ")"
        else:
            terms[id(node)] = subs[0] if subs else "true"
            continue
        terms[id(node)] = name = f"n!{len(lines) - declared}"
        lines.append(f"(define-fun {name} () Bool {body})")
    lines.append(f"(assert {terms[id(formula)]})")
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


def _read_sexp(text: str) -> Optional[Tuple[object, int]]:
    """The first complete s-expression in ``text``, an atom or a nested
    list of them, and the offset just past it; None while more input is
    needed."""
    stack: List[List] = []
    for tok, end in _lex(text):
        if end is None or (end == len(text) and tok[0] not in '()"|'):
            return None  # cut off, or an atom that may go on
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise SmtBackendError("unbalanced solver output")
            tok = stack.pop()
        if not stack:
            return tok, end
        stack[-1].append(tok)
    return None


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
            read = _read_sexp(self._text)
            if read is None:
                return None
            answer, end = read
            self._text = self._text[end:]
            if answer == "success":
                continue
            if isinstance(answer, list) and answer and answer[0] == "error":
                raise self._fail("solver error: " + " ".join(
                    a if isinstance(a, str) else reprlib.repr(a) for a in answer[1:]))
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


def smt_check_external(formula, solver: Union[SmtSession, str, Sequence[str]],
                       timeout: float = 300.0) -> SmtResult:
    """Decide the formula through an external SMT-LIB2 solver.

    ``solver`` is an open ``SmtSession`` or a solver command, for which a
    session is opened for this one query and closed again.  The query is
    framed by ``(push 1)`` / ``(pop 1)``, so a session can answer any number
    of them in turn; each answer must arrive within ``timeout`` seconds.
    Only the verdict and the Boolean selector values come from the solver:
    they steer ``smt_check``'s search, which must find the path they select
    and so returns the model that ``smt_check`` gives on that path.
    Everything unexpected raises ``SmtBackendError`` and closes the
    session.
    """
    with solver_session(solver) as session:
        try:
            return _external_query(formula, session, timeout)
        except SmtBackendError:
            session.close()
            raise


def _external_query(formula, session: SmtSession, timeout: float) -> SmtResult:
    sels = sorted(selectors_of(formula))
    (verdict,) = session.ask(
        "(push 1)\n" + _smt_declarations(formula) + "(check-sat)\n", 1, timeout)
    if verdict == "unknown":
        raise SmtBackendError("solver answered 'unknown'")
    if verdict not in (SAT, UNSAT):
        raise SmtBackendError(
            f"no check-sat answer in solver output: {reprlib.repr(verdict)}")
    script = ""
    if verdict == SAT and sels:
        script = "(get-value (" + " ".join(_selector_name(s) for s in sels) + "))\n"
    values = session.ask(script + "(pop 1)\n", 1 if script else 0, timeout)
    if verdict == UNSAT:
        return SmtResult(UNSAT)

    pairs: Dict[str, object] = {}
    for answer in values:
        if isinstance(answer, list):
            for entry in answer:
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

    res = _search(formula, selectors)
    if not (res.is_sat and res.model.selectors.items() <= selectors.items()):
        raise SmtBackendError("solver said sat but its selected path is infeasible")
    return res
