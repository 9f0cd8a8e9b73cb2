"""Transition statements as negation-free formulas over linear real arithmetic.

A statement relates a pre-state (unprimed variables), a post-state (primed
variables, written ``x'``) and statement-local auxiliaries.  The tree shape
is atoms / n-ary conjunction / binary disjunction, where every disjunction
carries a distinct integer selector: a 0/1 assignment to the selectors picks
one loop-free path through the statement.  Trees are immutable and may share
subtrees; traversals are memoized on object identity so shared graphs stay
linear in size, except that a path walk visits a shared subtree each time
the path reaches it.

The surface syntax accepts ``<= < >= > = !=`` and desugars everything to
``<=`` / ``<`` atoms; negation is not part of the language and is rejected
at parse time.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .lp import Constraint
from .numeric import ExtRat, ONE, Rat, ZERO, as_rat

PRIME = "'"

REL_LE = "<="
REL_LT = "<"


class FormulaError(Exception):
    """Structural misuse of a formula (bad path choice, unexpected node)."""


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def primed(name: str) -> str:
    return name + PRIME


def is_primed(name: str) -> bool:
    return name.endswith(PRIME)


# ---------------------------------------------------------------------------
# linear expressions
# ---------------------------------------------------------------------------

class LinExpr:
    """A linear expression ``sum(c_i * v_i) + const`` with exact coefficients.

    ``coeffs`` maps each variable to a nonzero ``Rat``, in order of first
    occurrence, so printing is stable; ``const`` is a ``Rat``.  Only the
    public constructor coerces and drops zeros: the arithmetic below keeps
    that invariant itself and hands its results to ``_of`` unchecked.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict[str, Rat]] = None, const=0):
        object.__setattr__(self, "coeffs",
                           {v: as_rat(c) for v, c in (coeffs or {}).items() if c != 0})
        object.__setattr__(self, "const", as_rat(const))

    @staticmethod
    def _of(coeffs: Dict[str, Rat], const: Rat) -> "LinExpr":
        """The expression over ``coeffs``, which it owns from now on."""
        self = object.__new__(LinExpr)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", const)
        return self

    def __setattr__(self, *args):
        raise AttributeError("LinExpr is immutable")

    @staticmethod
    def var(name: str) -> "LinExpr":
        return LinExpr._of({name: ONE}, ZERO)

    @staticmethod
    def constant(c) -> "LinExpr":
        return LinExpr._of({}, as_rat(c))

    def add(self, other: "LinExpr") -> "LinExpr":
        coeffs = self.coeffs.copy()
        for v, c in other.coeffs.items():
            c = coeffs[v] + c if v in coeffs else c
            if c:
                coeffs[v] = c
            else:
                del coeffs[v]
        return LinExpr._of(coeffs, self.const + other.const if other.const else self.const)

    def sub(self, other: "LinExpr") -> "LinExpr":
        coeffs = self.coeffs.copy()
        for v, c in other.coeffs.items():
            c = coeffs[v] - c if v in coeffs else -c
            if c:
                coeffs[v] = c
            else:
                del coeffs[v]
        return LinExpr._of(coeffs, self.const - other.const if other.const else self.const)

    def scale(self, factor) -> "LinExpr":
        if factor == 1:
            return self
        if factor == -1:
            return LinExpr._of({v: -c for v, c in self.coeffs.items()}, -self.const)
        f = as_rat(factor)
        return LinExpr._of({v: c * f for v, c in self.coeffs.items()} if f else {},
                           self.const * f)

    def substitute(self, defs: Dict[str, "LinExpr"]) -> "LinExpr":
        """The expression with each variable of ``defs`` replaced by its
        definition.  A variable whose coefficient cancels is dropped at
        once, so if it comes back it comes last."""
        coeffs = {v: c for v, c in self.coeffs.items() if v not in defs}
        const = self.const
        for v, c in self.coeffs.items():
            expr = defs.get(v)
            if expr is None:
                continue
            for u, a in expr.coeffs.items():
                a = coeffs[u] + a * c if u in coeffs else a * c
                if a:
                    coeffs[u] = a
                else:
                    del coeffs[u]
            if expr.const:
                const += expr.const * c
        return LinExpr._of(coeffs, const)

    def rename(self, mapping: Dict[str, str]) -> "LinExpr":
        coeffs: Dict[str, Rat] = {}
        for v, c in self.coeffs.items():
            target = mapping.get(v, v)
            coeffs[target] = coeffs[target] + c if target in coeffs else c
        if len(coeffs) < len(self.coeffs):  # merged variables may cancel
            coeffs = {v: c for v, c in coeffs.items() if c}
        return LinExpr._of(coeffs, self.const)

    def evaluate(self, env: Dict[str, Rat]) -> Rat:
        total = self.const
        for v, c in self.coeffs.items():
            total = total + c * env.get(v, ZERO)
        return total

    def variables(self) -> Tuple[str, ...]:
        return tuple(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __str__(self):
        parts = []
        for v, c in self.coeffs.items():
            if c == 1:
                term = v
            elif c == -1:
                term = "-" + v
            else:
                term = f"{c}*{v}"
            if not parts:
                parts.append(term)
            elif c > 0:
                parts.append("+ " + term)
            else:
                parts.append("- " + term.lstrip("-"))
        if self.const != 0 or not parts:
            cs = str(self.const)
            if not parts:
                parts.append(cs)
            elif self.const > 0:
                parts.append("+ " + cs)
            else:
                parts.append("- " + cs.lstrip("-"))
        return " ".join(parts)

    def __repr__(self):
        return f"LinExpr({self})"


# ---------------------------------------------------------------------------
# formula nodes
# ---------------------------------------------------------------------------

class Atom(Constraint):
    """Normalized atom ``lin rel bound``, ``lin`` without a constant part.

    It is its own LP row: ``coeffs`` are ``lin``'s items in order, ``rhs``
    is the bound and the row is strict for ``<``."""

    __slots__ = ("lin",)

    def __init__(self, lin: LinExpr, rel: str, bound):
        if rel not in (REL_LE, REL_LT):
            raise FormulaError(f"bad relation {rel!r}")
        if lin.const:
            lin = LinExpr._of(lin.coeffs, ZERO)
        Constraint.__init__(self, tuple(lin.coeffs.items()), as_rat(bound), rel == REL_LT)
        object.__setattr__(self, "lin", lin)

    @property
    def rel(self) -> str:
        return REL_LT if self.strict else REL_LE

    def holds(self, env: Dict[str, Rat]) -> bool:
        val = self.lin.evaluate(env)
        return val < self.rhs if self.strict else val <= self.rhs

    def rename(self, mapping: Dict[str, str]) -> "Atom":
        return Atom(self.lin.rename(mapping), self.rel, self.rhs)

    def __str__(self):
        return f"{self.lin} {self.rel} {self.rhs}"

    def __repr__(self):
        return f"Atom({self})"


class And:
    __slots__ = ("children",)

    def __init__(self, children: Iterable):
        object.__setattr__(self, "children", tuple(children))

    def __setattr__(self, *args):
        raise AttributeError("And is immutable")

    def __repr__(self):
        return f"And({len(self.children)} children)"


class Or:
    __slots__ = ("left", "right", "selector")

    def __init__(self, left, right, selector: int):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "selector", selector)

    def __setattr__(self, *args):
        raise AttributeError("Or is immutable")

    def __repr__(self):
        return f"Or(selector={self.selector})"


TRUE = And(())
FALSE_ATOM = Atom(LinExpr(), REL_LE, -1)  # 0 <= -1

# A path through a statement: selector id -> 0 (left) / 1 (right).
PathChoice = Dict[int, int]


# ---------------------------------------------------------------------------
# traversals (memoized on node identity; formulas may share subtrees)
# ---------------------------------------------------------------------------

def iter_nodes(formula) -> Iterator:
    """Yield each distinct node object once, pre-order."""
    seen = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, And):
            stack.extend(reversed(node.children))
        elif isinstance(node, Or):
            stack.append(node.right)
            stack.append(node.left)


def formula_size(formula) -> int:
    return sum(1 for _ in iter_nodes(formula))


def selectors_of(formula) -> List[int]:
    """Selector ids of all distinct Or nodes, in pre-order."""
    return [node.selector for node in iter_nodes(formula) if isinstance(node, Or)]


def formula_vars(formula) -> List[str]:
    """Variable names in order of first occurrence."""
    out: List[str] = []
    seen = set()
    for node in iter_nodes(formula):
        if isinstance(node, Atom):
            for v in node.lin.variables():
                if v not in seen:
                    seen.add(v)
                    out.append(v)
    return out


def map_atoms(formula, fn: Callable[[Atom], object],
              selectors: Optional[Iterator[int]] = None):
    """Rebuild each distinct node once, with an explicit stack, passing every
    atom through ``fn``.  With ``selectors`` the Or nodes take its values
    in pre-order.  A conjunction drops its ``TRUE`` children; it is
    ``FALSE_ATOM`` if one of its children is, and ``TRUE`` if none is left."""
    memo: Dict[int, object] = {}
    # (node, None) enters a node; (node, sel) builds it from its rebuilt children
    stack: List[Tuple[object, Optional[int]]] = [(formula, None)]
    while stack:
        node, sel = stack.pop()
        if sel is None:
            if id(node) in memo:
                continue
            if isinstance(node, Atom):
                memo[id(node)] = fn(node)
            elif isinstance(node, And):
                stack.append((node, 0))
                stack.extend((ch, None) for ch in reversed(node.children))
            else:
                sel = next(selectors) if selectors is not None else node.selector
                stack.extend(((node, sel), (node.right, None), (node.left, None)))
        elif isinstance(node, And):
            kids = [memo[id(ch)] for ch in node.children if memo[id(ch)] is not TRUE]
            memo[id(node)] = FALSE_ATOM if any(k is FALSE_ATOM for k in kids) else \
                And(kids) if kids else TRUE
        else:
            memo[id(node)] = Or(memo[id(node.left)], memo[id(node.right)], sel)
    return memo[id(formula)]


def walk(node, assign: PathChoice, atoms: List[Atom], reached: List[Or]) -> None:
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


def paths(statement) -> Iterator[List[Atom]]:
    """The atoms of each path through ``statement``, in pre-order: one list
    per selector assignment that gives every reachable disjunction a value
    (a shared disjunction takes one value).  Exponential in general; meant
    for oracles and small statements."""
    stack: List[PathChoice] = [{}]
    while stack:
        assign = stack.pop()
        atoms: List[Atom] = []
        reached: List[Or] = []
        walk(statement, assign, atoms, reached)
        if reached:
            stack.extend({**assign, reached[0].selector: value} for value in (1, 0))
        else:
            yield atoms


def conjoin(parts: Sequence) -> object:
    flat = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.children)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def eliminate_equalities(statement, keep) -> Tuple[object, Dict[str, LinExpr]]:
    """Substitute the top-level equalities of ``statement`` away.

    A top-level equality is a pair of atoms ``e <= b`` and ``-e <= -b``
    reached from the root through conjunctions only, as ``=`` desugars to.
    In order, each one, with the definitions so far substituted, is solved
    for its first variable outside ``keep``, if it has one.  Then the
    statement is rebuilt once with the definitions substituted: shared
    subtrees stay shared, and every atom the substitution leaves constant
    (the solved pairs among them) folds to ``TRUE`` or ``FALSE_ATOM``.
    Exact, since ``exists v. v = e & phi`` is ``phi[e/v]``: every selector
    assignment keeps its verdict.  Returns the new statement and the
    definitions, over variables that are not defined.
    """
    defs: Dict[str, LinExpr] = {}
    halves = set()
    atoms: List[Atom] = []
    walk(statement, {}, atoms, [])
    for node in atoms:
        if not node.strict:
            # keyed on integers: hashing a Fraction costs a modular inverse
            items = [(v, c.numerator, c.denominator) for v, c in node.lin.coeffs.items()]
            p, q = node.rhs.numerator, node.rhs.denominator
            if (frozenset((v, -a, d) for v, a, d in items), -p, q) not in halves:
                halves.add((frozenset(items), p, q))
                continue
            lin = node.lin.substitute(defs)
            v = next((u for u in lin.coeffs if u not in keep), None)
            if v is None:
                continue
            c = lin.coeffs[v]
            f = -1 / c
            expr = LinExpr._of({u: a * f for u, a in lin.coeffs.items() if u != v},
                               (lin.const - node.rhs) * f)
            for w, old in defs.items():
                if v in old.coeffs:
                    defs[w] = old.substitute({v: expr})
            defs[v] = expr
    if not defs:
        return statement, defs

    def fold(atom: Atom):
        if defs.keys().isdisjoint(atom.lin.coeffs):
            return atom
        lin = atom.lin.substitute(defs)
        new = Atom(lin, atom.rel, atom.rhs - lin.const if lin.const else atom.rhs)
        return new if new.lin.coeffs else TRUE if new.holds({}) else FALSE_ATOM

    return map_atoms(statement, fold), defs


# ---------------------------------------------------------------------------
# tokenizer (shared with the program-file reader in the cli module)
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # ident | num | op | eof
    text: str
    line: int
    column: int


_TWO_CHAR_OPS = ("<=", ">=", "!=", "->")
_ONE_CHAR_OPS = "<>=&|+-*/();:{}[],"
_DIGITS = frozenset("0123456789")  # str.isdigit takes other scripts' digits too


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i:i + 2] in _TWO_CHAR_OPS:
            kind, j = "op", i + 2
        elif ch in ("!", "~"):
            raise ParseError("negation is not allowed in statements", line, col)
        elif ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            kind, j = "num", i
            while j < n and (text[j] in _DIGITS or text[j] == "."):
                j += 1
            if text.count(".", i, j) > 1 or text[j - 1] == ".":
                raise ParseError(f"malformed number {text[i:j]!r}", line, col)
        elif ch.isalpha() or ch == "_":
            kind, j = "ident", i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j < n and text[j] == PRIME:
                j += 1
                if j < n and text[j] == PRIME:
                    raise ParseError("doubly primed variable", line, col)
        elif ch in _ONE_CHAR_OPS:
            kind, j = "op", i + 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token(kind, text[i:j], line, col))
        col += j - i
        i = j
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# statement parser
# ---------------------------------------------------------------------------

_RELATIONS = ("<=", "<", ">=", ">", "=", "!=")
# how tightly each operator binds; "neg" is the prefix minus
_PREC = {"|": 1, "&": 2, **dict.fromkeys(_RELATIONS, 3), "+": 4, "-": 4, "*": 5, "/": 5,
         "neg": 6}


class TokenStream:
    def __init__(self, tokens: List[Token], pos: int = 0):
        self.tokens = tokens
        self.pos = pos

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text!r}", tok.line, tok.column)
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message + (f", found {tok.text!r}" if tok.text else ", found end of input"),
                         tok.line, tok.column)


def _parse(ts: TokenStream, formula: bool):
    """A statement if ``formula``, else an expression, read by operator
    precedence on a value stack and an operator stack: no recursion and no
    backtracking, so parentheses may nest to any depth.

    Binding grows from ``|`` through ``&``, the relations, ``+ -`` and
    ``* /`` to the prefix minus.  A parenthesis opened where a formula may
    stand (at the start of a statement, after ``&``, ``|`` or another such
    parenthesis) groups a formula or an expression; any other groups an
    expression.  Types are checked as operators arrive: a token that cannot
    follow what precedes it ends the input there, an error if a parenthesis
    is still open, and ``&`` or ``|`` after an expression is an error.
    """
    values: List[object] = []  # expressions (LinExpr) and formulas
    # operators waiting for their right operand, with their tokens; a group
    # is "(" if it may hold a formula, "e(" if it holds an expression
    ops: List[Tuple[str, Token]] = []

    def reduce() -> None:
        op, tok = ops.pop()
        rhs = values.pop()
        if op == "neg":
            values.append(rhs.scale(-1))
            return
        lhs = values.pop()
        if op in ("&", "|"):
            if isinstance(rhs, LinExpr):
                ts.error("expected a relation after expression")
            values.append(conjoin((lhs, rhs)) if op == "&" else Or(lhs, rhs, -1))
        elif op in _RELATIONS:
            values.append(_desugar_relation(lhs, op, rhs))
        elif op in ("+", "-"):
            values.append(lhs.add(rhs) if op == "+" else lhs.sub(rhs))
        elif op == "*":
            if not (rhs.is_constant or lhs.is_constant):
                raise ParseError("nonlinear product (neither factor is constant)",
                                 tok.line, tok.column)
            values.append(lhs.scale(rhs.const) if rhs.is_constant else rhs.scale(lhs.const))
        elif not rhs.is_constant:
            raise ParseError("division by a non-constant", tok.line, tok.column)
        elif rhs.const == 0:
            raise ParseError("division by zero", tok.line, tok.column)
        else:
            values.append(lhs.scale(Rat(1) / rhs.const))

    operand = True  # whether an operand comes next
    while True:
        tok = ts.peek()
        op = tok.text if tok.kind == "op" else ""
        if operand:
            ts.next()
            if op == "-":
                ops.append(("neg", tok))
            elif op == "(":
                outer = ops[-1][0] if ops else "(" if formula else "e("
                ops.append(("(" if outer in ("(", "&", "|") else "e(", tok))
            elif tok.kind == "num":
                values.append(LinExpr.constant(Rat(tok.text)))
                operand = False
            elif tok.kind == "ident":
                values.append(LinExpr.var(tok.text))
                operand = False
            else:
                raise ParseError(f"expected expression, found {tok.text!r}",
                                 tok.line, tok.column)
            continue
        prec = _PREC.get(op, 0)  # 0 reduces everything in the innermost group
        while ops and ops[-1][0] in _PREC and _PREC[ops[-1][0]] >= prec:
            reduce()
        expr = isinstance(values[-1], LinExpr)
        formulas = (ops[-1][0] if ops else "(" if formula else "e(") in ("(", "&", "|")
        if op == ")" and ops:
            ops.pop()
            ts.next()
            continue
        if 0 < prec < 3 and formulas and expr:
            ts.error("expected a relation after expression")
        if (0 < prec < 3 and formulas) or (expr and (prec > 3 or prec == 3 and formulas)):
            ops.append((op, ts.next()))
            operand = True
            continue
        while ops and ops[-1][0] in _PREC:  # the input ends before tok
            reduce()
        if isinstance(values[-1], LinExpr) and (ops[-1][0] == "(" if ops else formula):
            ts.error("expected a relation after expression")
        if ops:
            raise ParseError(f"expected ')', found {tok.text!r}", tok.line, tok.column)
        return values[-1]


def _desugar_relation(lhs: LinExpr, rel: str, rhs: LinExpr):
    if rel in (">=", ">"):
        lhs, rhs, rel = rhs, lhs, rel.replace(">", "<")
    diff = lhs.sub(rhs)
    if rel in (REL_LE, REL_LT):
        return Atom(diff, rel, -diff.const)
    # rhs - lhs in rhs.sub(lhs)'s variable order, which picks the presolve's pivot
    back = LinExpr._of({v: -diff.coeffs[v] for v in (*rhs.coeffs, *lhs.coeffs)
                        if v in diff.coeffs}, ZERO)
    half = REL_LE if rel == "=" else REL_LT
    pair = (Atom(diff, half, -diff.const), Atom(back, half, diff.const))
    # a != b  ->  a < b | b < a  (fresh selector assigned by the label pass)
    return And(pair) if rel == "=" else Or(*pair, -1)


def parse_expr_tokens(ts: TokenStream) -> LinExpr:
    return _parse(ts, False)


def parse_statement_tokens(ts: TokenStream):
    """A statement, its disjunctions labelled 0, 1, ... in pre-order."""
    return map_atoms(_parse(ts, True), lambda a: a, count())


def _parse_all(text: str, parse):
    """``parse`` over a token stream of ``text``, which it must consume."""
    ts = TokenStream(tokenize(text))
    node = parse(ts)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return node


def parse_statement(text: str):
    """Parse a statement; desugars ``>= > = !=`` and labels disjunctions."""
    return _parse_all(text, parse_statement_tokens)


def parse_linexpr(text: str) -> LinExpr:
    return _parse_all(text, parse_expr_tokens)


# ---------------------------------------------------------------------------
# the improvement formula
# ---------------------------------------------------------------------------

def build_psi(statement, d: Sequence[ExtRat], template, j: int, c: ExtRat, *,
              post: Optional[LinExpr] = None):
    """Build the satisfiability query "some transition from the source region
    pushes template row ``j`` strictly above ``c``", a conjunction.

    The source region is ``row_i(x) <= d_i`` for every finite ``d_i`` (rows
    with an infinite bound vanish; any ``-inf`` bound empties the region, so
    the query is ``FALSE_ATOM``).  The statement body is conjoined
    unchanged, then the bound clause, the one strict atom ``post > c``.
    ``post`` is row ``j`` over the post-state, by default with every
    variable primed; after ``eliminate_equalities`` it is that row with the
    same definitions substituted, which may carry a constant.  ``c`` must
    not be ``+inf`` (no value can exceed it); ``c = -inf`` drops the bound
    clause entirely.
    """
    rows = getattr(template, "rows", template)
    if len(d) != len(rows):
        raise FormulaError(f"bound vector has {len(d)} entries, template has {len(rows)}")
    if c.is_pos_inf:
        raise FormulaError("no improvement query possible against an infinite bound")
    if any(di.is_neg_inf for di in d):
        return FALSE_ATOM

    parts: List[object] = [Atom(row, REL_LE, d[i].value)
                           for i, row in enumerate(rows) if d[i].is_finite]
    parts.append(statement)
    if c.is_finite:
        if post is None:
            post = rows[j].rename({v: primed(v) for v in rows[j].variables()})
        # post > c  encoded as  -post < post.const - c
        parts.append(Atom(post.scale(-1), REL_LT, post.const - c.value))
    return And(parts)
