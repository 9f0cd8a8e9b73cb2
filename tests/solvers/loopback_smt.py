#!/usr/bin/env python3
"""A miniature SMT-LIB2 solver for wire-protocol tests.

Reads commands on stdin (set-logic / declare-const / assert / check-sat /
get-value / push / pop / exit) and answers each one on stdout as soon as
its closing parenthesis arrives, so it serves one-shot scripts and
interactive sessions alike.  Satisfiability is decided by the library's own
internal checker.  Declarations and assertions are scoped by push/pop;
declaring a symbol that is already declared answers ``(error ...)``, as a
real solver does.  Modes let tests exercise the client's error paths:

    --mode garbage        print something that is not SMT-LIB2
    --mode unknown        answer unknown
    --mode claim-sat      answer sat with all-false Booleans, no values
    --mode claim-unsat    answer unsat regardless of the problem
    --mode print-success  answer success to every command without output
    --mode no-real-values answer (error ...) to a get-value naming a Real
"""

import argparse
import os
import sys

from invgen.formula import And, Atom, LinExpr, Or
from invgen.numeric import Rat
from invgen.smt import _read_sexp, smt_check  # reuse the s-expression reader


def parse_rat(node):
    if isinstance(node, str):
        if "." in node:
            whole, _, frac = node.partition(".")
            scale = 10 ** len(frac)
            return Rat(int(whole or "0") * scale + int(frac or "0"), scale)
        return Rat(int(node))
    if node[0] == "-":
        return -parse_rat(node[1])
    if node[0] == "/":
        return parse_rat(node[1]) / parse_rat(node[2])
    raise ValueError(f"bad numeral {node!r}")


def strip(name):
    return name[1:-1] if name.startswith("|") else name


def selector_index(name):
    """k for the selector constant ``sel!k``, None for any other name."""
    head, _, k = name.partition("!")
    return int(k) if head == "sel" and k.isdigit() else None


def parse_expr(node):
    try:
        return LinExpr.constant(parse_rat(node))
    except (ValueError, TypeError):
        pass
    if isinstance(node, str):
        return LinExpr.var(strip(node))
    head = node[0]
    if head == "+":
        out = LinExpr()
        for arg in node[1:]:
            out = out.add(parse_expr(arg))
        return out
    if head == "*":
        return parse_expr(node[2]).scale(parse_rat(node[1]))
    if head == "-":
        if len(node) == 2:
            return parse_expr(node[1]).scale(-1)
        return parse_expr(node[1]).sub(parse_expr(node[2]))
    raise ValueError(f"bad term {node!r}")


def parse_formula(root):
    """The formula of an asserted term, built bottom-up on an explicit stack,
    so deep nesting needs no recursion."""
    done = []  # finished subformulas, in order
    stack = [(root, False)]  # (term, whether its arguments are in ``done``)
    while stack:
        node, built = stack.pop()
        if node == "true":
            done.append(And(()))
            continue
        head = node[0]
        if head in ("<=", "<"):
            diff = parse_expr(node[1]).sub(parse_expr(node[2]))
            done.append(Atom(LinExpr(diff.coeffs), head, -diff.const))
        elif head not in ("and", "or"):
            raise ValueError(f"bad formula {node!r}")
        elif not built:
            # emission shape of a disjunction: (or (and (not sel!K) L) (and sel!K R))
            args = node[1:] if head == "and" else [node[1][2], node[2][2]]
            stack.append((node, True))
            stack.extend((arg, False) for arg in reversed(args))
        elif head == "and":
            cut = len(done) - (len(node) - 1)
            args, done[cut:] = done[cut:], []
            done.append(And(args))
        else:
            right = done.pop()
            done.append(Or(done.pop(), right, selector_index(node[1][1][1])))
    return done[0]


def emit_rat(q):
    if q < 0:
        return f"(- {emit_rat(-q)})"
    if q.denominator == 1:
        return str(q.numerator)
    return f"(/ {q.numerator} {q.denominator})"


def commands(fd):
    """Top-level s-expressions read from ``fd``, each as soon as complete."""
    text = ""
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        text += chunk.decode()
        read = _read_sexp(text)
        while read is not None:
            yield read[0]
            text = text[read[1]:]
            read = _read_sexp(text)


class Frame:
    def __init__(self):
        self.bools, self.reals, self.assertions = [], [], []


class Loopback:
    def __init__(self, mode):
        self.mode = mode
        self.frames = [Frame()]
        self.result = None  # the last check-sat, until the assertions change

    def declared(self, name):
        return any(name in f.bools or name in f.reals for f in self.frames)

    def execute(self, cmd):
        """The answer to one command: a string, or None for no output."""
        head = cmd[0] if isinstance(cmd, list) and cmd else cmd
        if head in ("set-logic", "set-option", "exit"):
            return None
        if head == "push":
            self.frames.extend(Frame() for _ in range(int(cmd[1])))
            self.result = None
            return None
        if head == "pop":
            levels = int(cmd[1])
            if levels >= len(self.frames):
                return '(error "pop below the base level")'
            del self.frames[-levels:]
            self.result = None
            return None
        if head == "declare-const":
            name = strip(cmd[1])
            if self.declared(name):
                return f'(error "symbol {name} already declared")'
            frame = self.frames[-1]
            (frame.bools if cmd[2] == "Bool" else frame.reals).append(name)
            self.result = None
            return None
        if head == "assert":
            self.frames[-1].assertions.append(parse_formula(cmd[1]))
            self.result = None
            return None
        if head == "check-sat":
            return self.check_sat()
        if head == "get-value":
            return self.get_value([strip(n) for n in cmd[1]])
        return f'(error "unsupported command {head}")'

    def check_sat(self):
        if self.mode == "unknown":
            return "unknown"
        if self.mode == "claim-unsat":
            return "unsat"
        if self.mode == "claim-sat":
            self.result = "claimed"
            return "sat"
        assertions = [a for f in self.frames for a in f.assertions]
        formula = assertions[0] if len(assertions) == 1 else And(assertions)
        self.result = smt_check(formula)
        return self.result.status

    def get_value(self, names):
        if self.mode == "no-real-values" and \
                any(n in f.reals for f in self.frames for n in names):
            return '(error "no values for Real constants")'
        if self.result == "claimed":
            return "(" + " ".join(f"({n} false)" for n in names
                                  if selector_index(n) is not None) + ")"
        if self.result is None or not self.result.is_sat:
            return '(error "no model available")'
        parts = []
        for n in names:
            k = selector_index(n)
            if k is not None:
                v = self.result.model.selectors.get(k, 0)
                parts.append(f"({n} {'true' if v else 'false'})")
            else:
                q = self.result.model.reals.get(n, Rat(0))
                sym = n if n.isalnum() else f"|{n}|"
                parts.append(f"({sym} {emit_rat(q)})")
        return "(" + " ".join(parts) + ")"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", default="normal")
    mode = ap.parse_args().mode

    if mode == "garbage":
        print("this is not an smt solver", flush=True)
        return

    solver = Loopback(mode)
    for cmd in commands(sys.stdin.fileno()):
        try:
            answer = solver.execute(cmd)
        except (ValueError, IndexError, TypeError) as err:
            answer = f'(error "{type(err).__name__}")'
        if answer is None and mode == "print-success":
            answer = "success"
        if answer is not None:
            print(answer, flush=True)
        if cmd == ["exit"]:
            return


if __name__ == "__main__":
    main()
