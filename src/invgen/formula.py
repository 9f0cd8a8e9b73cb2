"""Transition statements as negation-free formulas over linear real arithmetic.

A statement relates a pre-state (unprimed variables), a post-state (primed
variables, written ``x'``) and statement-local auxiliaries.  The tree shape
is atoms / n-ary conjunction / binary disjunction, where every disjunction
carries a distinct integer selector: a 0/1 assignment to the selectors picks
one loop-free path through the statement.  Trees are immutable and may share
subtrees; traversals are memoized on object identity so shared graphs stay
linear in size.

The surface syntax accepts ``<= < >= > = !=`` and desugars everything to
``<=`` / ``<`` atoms; negation is not part of the language and is rejected
at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .lp import Constraint
from .numeric import ExtRat, Rat, ZERO, as_rat, parse_rat, rat_str

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

    Zero coefficients are never stored; insertion order of variables is kept
    so printing is stable.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict[str, Rat]] = None, const=0):
        object.__setattr__(self, "coeffs",
                           {v: as_rat(c) for v, c in (coeffs or {}).items() if c != 0})
        object.__setattr__(self, "const", as_rat(const))

    def __setattr__(self, *args):
        raise AttributeError("LinExpr is immutable")

    @staticmethod
    def var(name: str) -> "LinExpr":
        return LinExpr({name: 1})

    @staticmethod
    def constant(c) -> "LinExpr":
        return LinExpr({}, c)

    def add(self, other: "LinExpr") -> "LinExpr":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, ZERO) + c
        return LinExpr(coeffs, self.const + other.const)

    def sub(self, other: "LinExpr") -> "LinExpr":
        return self.add(other.scale(-1))

    def scale(self, factor) -> "LinExpr":
        f = as_rat(factor)
        return LinExpr({v: c * f for v, c in self.coeffs.items()}, self.const * f)

    def substitute(self, defs: Dict[str, "LinExpr"]) -> "LinExpr":
        """The expression with each variable of ``defs`` replaced by its
        definition."""
        out = LinExpr({v: c for v, c in self.coeffs.items() if v not in defs}, self.const)
        for v, c in self.coeffs.items():
            if v in defs:
                out = out.add(defs[v].scale(c))
        return out

    def rename(self, mapping: Dict[str, str]) -> "LinExpr":
        coeffs: Dict[str, Rat] = {}
        for v, c in self.coeffs.items():
            target = mapping.get(v, v)
            coeffs[target] = coeffs.get(target, ZERO) + c
        return LinExpr(coeffs, self.const)

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
                term = f"{rat_str(c)}*{v}"
            if not parts:
                parts.append(term)
            elif c > 0:
                parts.append("+ " + term)
            else:
                parts.append("- " + term.lstrip("-"))
        if self.const != 0 or not parts:
            cs = rat_str(self.const)
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

class Atom:
    """Normalized atom: linear expression (no constant part) rel bound."""

    __slots__ = ("lin", "rel", "bound", "_row")

    def __init__(self, lin: LinExpr, rel: str, bound):
        if rel not in (REL_LE, REL_LT):
            raise FormulaError(f"bad relation {rel!r}")
        if lin.const != 0:
            lin = LinExpr(lin.coeffs)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "bound", as_rat(bound))

    def __setattr__(self, *args):
        raise AttributeError("Atom is immutable")

    def holds(self, env: Dict[str, Rat]) -> bool:
        val = self.lin.evaluate(env)
        return val <= self.bound if self.rel == REL_LE else val < self.bound

    @property
    def row(self) -> Constraint:
        """``lin <= bound`` as an LP row, built on first use and kept, so
        its integer form is computed once however many LPs it enters."""
        try:
            return self._row
        except AttributeError:
            row = Constraint(tuple(self.lin.coeffs.items()), "<=", self.bound)
            object.__setattr__(self, "_row", row)
            return row

    def rename(self, mapping: Dict[str, str]) -> "Atom":
        return Atom(self.lin.rename(mapping), self.rel, self.bound)

    def __eq__(self, other):
        if not isinstance(other, Atom):
            return NotImplemented
        return self.rel == other.rel and self.bound == other.bound and self.lin == other.lin

    def __str__(self):
        return f"{self.lin} {self.rel} {rat_str(self.bound)}"

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


def _rebuild(formula, atom_fn: Callable[[Atom], object],
             selector_iter: Optional[Iterator[int]] = None):
    """Rebuild each distinct node once, with an explicit stack, passing every
    atom through ``atom_fn``.  With ``selector_iter`` the Or nodes take its
    values in pre-order.  A conjunction drops its ``TRUE`` children; it is
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
                memo[id(node)] = atom_fn(node)
            elif isinstance(node, And):
                stack.append((node, 0))
                stack.extend((ch, None) for ch in reversed(node.children))
            else:
                sel = next(selector_iter) if selector_iter is not None else node.selector
                stack.extend(((node, sel), (node.right, None), (node.left, None)))
        elif isinstance(node, And):
            kids = [memo[id(ch)] for ch in node.children if memo[id(ch)] is not TRUE]
            memo[id(node)] = FALSE_ATOM if any(k is FALSE_ATOM for k in kids) else \
                And(kids) if kids else TRUE
        else:
            memo[id(node)] = Or(memo[id(node.left)], memo[id(node.right)], sel)
    return memo[id(formula)]


def rename_vars(formula, mapping: Dict[str, str],
                selector_iter: Optional[Iterator[int]] = None):
    """Rename variables (and optionally re-number selectors) in one pass."""
    return _rebuild(formula, lambda a: a.rename(mapping), selector_iter)


def map_atoms(formula, fn: Callable[[Atom], Atom]):
    """Rebuild the formula with every atom passed through ``fn``."""
    return _rebuild(formula, fn)


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
    stack = [statement]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.extend(reversed(node.children))
        elif isinstance(node, Atom) and node.rel == REL_LE:
            items = node.lin.coeffs.items()
            if (frozenset((v, -c) for v, c in items), -node.bound) not in halves:
                halves.add((frozenset(items), node.bound))
                continue
            lin = node.lin.substitute(defs)
            v = next((u for u in lin.coeffs if u not in keep), None)
            if v is None:
                continue
            c = lin.coeffs[v]
            expr = LinExpr({u: -a / c for u, a in lin.coeffs.items() if u != v},
                           (node.bound - lin.const) / c)
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
        new = Atom(lin, atom.rel, atom.bound - lin.const)
        return new if new.lin.coeffs else TRUE if new.holds({}) else FALSE_ATOM

    return map_atoms(statement, fold), defs


# ---------------------------------------------------------------------------
# tokenizer (shared with the program-file reader in the cli module)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str  # ident | num | op | eof
    text: str
    line: int
    column: int


_TWO_CHAR_OPS = ("<=", ">=", "!=", "->")
_ONE_CHAR_OPS = "<>=&|+-*/();:{}[],"


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
        start_col = col
        if any(text.startswith(op, i) for op in _TWO_CHAR_OPS):
            tokens.append(Token("op", text[i:i + 2], line, start_col))
            i += 2
            col += 2
            continue
        if ch in ("!", "~"):
            raise ParseError("negation is not allowed in statements", line, col)
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            lit = text[i:j]
            if lit.count(".") > 1:
                raise ParseError(f"malformed number {lit!r}", line, col)
            tokens.append(Token("num", lit, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if j < n and text[j] == PRIME:
                j += 1
                name += PRIME
                if j < n and text[j] == PRIME:
                    raise ParseError("doubly primed variable", line, col)
            tokens.append(Token("ident", name, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# statement parser
# ---------------------------------------------------------------------------

_RELATIONS = ("<=", "<", ">=", ">", "=", "!=")


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


def _parse_disjunction(ts: TokenStream):
    node = _parse_conjunction(ts)
    while ts.peek().kind == "op" and ts.peek().text == "|":
        ts.next()
        node = Or(node, _parse_conjunction(ts), -1)
    return node


def _parse_conjunction(ts: TokenStream):
    parts = [_parse_atom_or_group(ts)]
    while ts.peek().kind == "op" and ts.peek().text == "&":
        ts.next()
        parts.append(_parse_atom_or_group(ts))
    return conjoin(parts) if len(parts) > 1 else parts[0]


def _parse_atom_or_group(ts: TokenStream):
    save = ts.pos
    expr_error: Optional[ParseError] = None
    try:
        lhs = parse_expr_tokens(ts)
        tok = ts.peek()
        if tok.kind == "op" and tok.text in _RELATIONS:
            ts.next()
            rhs = parse_expr_tokens(ts)
            return _desugar_relation(lhs, tok.text, rhs)
        if ts.tokens[save].text != "(":
            ts.error("expected a relation after expression")
    except ParseError as err:
        expr_error = err
    ts.pos = save
    tok = ts.peek()
    if tok.kind == "op" and tok.text == "(":
        ts.next()
        inner = _parse_disjunction(ts)
        ts.expect_op(")")
        return inner
    raise expr_error if expr_error is not None else \
        ParseError(f"expected formula, found {tok.text!r}", tok.line, tok.column)


def _desugar_relation(lhs: LinExpr, rel: str, rhs: LinExpr):
    if rel == ">=":
        lhs, rhs, rel = rhs, lhs, "<="
    elif rel == ">":
        lhs, rhs, rel = rhs, lhs, "<"
    if rel in (REL_LE, REL_LT):
        return _atom(lhs, rel, rhs)
    if rel == "=":
        return And((_atom(lhs, REL_LE, rhs), _atom(rhs, REL_LE, lhs)))
    # a != b  ->  a < b | b < a  (fresh selector assigned by the label pass)
    return Or(_atom(lhs, REL_LT, rhs), _atom(rhs, REL_LT, lhs), -1)


def _atom(lhs: LinExpr, rel: str, rhs: LinExpr) -> Atom:
    diff = lhs.sub(rhs)
    return Atom(LinExpr(diff.coeffs), rel, -diff.const)


def parse_expr_tokens(ts: TokenStream) -> LinExpr:
    node = _parse_term(ts)
    while ts.peek().kind == "op" and ts.peek().text in ("+", "-"):
        op = ts.next().text
        rhs = _parse_term(ts)
        node = node.add(rhs) if op == "+" else node.sub(rhs)
    return node


def _parse_term(ts: TokenStream) -> LinExpr:
    node = _parse_factor(ts)
    while ts.peek().kind == "op" and ts.peek().text in ("*", "/"):
        tok = ts.next()
        rhs = _parse_factor(ts)
        if tok.text == "*":
            if rhs.is_constant:
                node = node.scale(rhs.const)
            elif node.is_constant:
                node = rhs.scale(node.const)
            else:
                raise ParseError("nonlinear product (neither factor is constant)",
                                 tok.line, tok.column)
        else:
            if not rhs.is_constant:
                raise ParseError("division by a non-constant", tok.line, tok.column)
            if rhs.const == 0:
                raise ParseError("division by zero", tok.line, tok.column)
            node = node.scale(Rat(1) / rhs.const)
    return node


def _parse_factor(ts: TokenStream) -> LinExpr:
    tok = ts.peek()
    if tok.kind == "num":
        ts.next()
        return LinExpr.constant(parse_rat(tok.text))
    if tok.kind == "ident":
        ts.next()
        if tok.text.startswith("$"):
            raise ParseError("variable names starting with '$' are reserved",
                             tok.line, tok.column)
        return LinExpr.var(tok.text)
    if tok.kind == "op" and tok.text == "-":
        ts.next()
        return _parse_factor(ts).scale(-1)
    if tok.kind == "op" and tok.text == "(":
        ts.next()
        inner = parse_expr_tokens(ts)
        ts.expect_op(")")
        return inner
    raise ParseError(f"expected expression, found {tok.text!r}", tok.line, tok.column)


def label_selectors(formula, start: int = 0):
    """Assign pre-order selector ids ``start``, ``start+1``, ... to every Or node."""
    counter = iter(range(start, start + formula_size(formula)))
    return _rebuild(formula, lambda a: a, counter)


def parse_statement_tokens(ts: TokenStream):
    node = _parse_disjunction(ts)
    return label_selectors(node)


def parse_statement(text: str):
    """Parse a statement; desugars ``>= > = !=`` and labels disjunctions."""
    ts = TokenStream(tokenize(text))
    node = parse_statement_tokens(ts)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return node


def parse_linexpr(text: str) -> LinExpr:
    ts = TokenStream(tokenize(text))
    node = parse_expr_tokens(ts)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return node


# ---------------------------------------------------------------------------
# the improvement formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmtProblem:
    """A selector-guarded satisfiability problem over exact rationals; the
    skeleton is statement-shaped (atoms / And / selector-labeled Or)."""

    skeleton: object
    real_vars: Tuple[str, ...]


UNSAT_PROBLEM = SmtProblem(FALSE_ATOM, ())


def build_psi(statement, d: Sequence[ExtRat], template, j: int, c: ExtRat, *,
              post: Optional[LinExpr] = None,
              statement_vars: Optional[Sequence[str]] = None) -> SmtProblem:
    """Build the satisfiability query "some transition from the source region
    pushes template row ``j`` strictly above ``c``".

    The source region is ``row_i(x) <= d_i`` for every finite ``d_i`` (rows
    with an infinite bound vanish; any ``-inf`` bound empties the region, so
    the canonical unsatisfiable problem is returned).  The statement body is
    conjoined unchanged, then the bound clause, the one strict atom
    ``post > c``.  ``post`` is row ``j`` over the post-state, by default
    with every variable primed; after ``eliminate_equalities`` it is that
    row with the same definitions substituted, which may carry a constant.
    ``c`` must not be ``+inf`` (no value can exceed it); ``c = -inf`` drops
    the bound clause entirely.  ``statement_vars``, ``formula_vars`` of the
    statement, can be computed once for many queries and passed in.
    """
    rows = getattr(template, "rows", template)
    if len(d) != len(rows):
        raise FormulaError(f"bound vector has {len(d)} entries, template has {len(rows)}")
    if c.is_pos_inf:
        raise FormulaError("no improvement query possible against an infinite bound")
    if any(di.is_neg_inf for di in d):
        return UNSAT_PROBLEM

    parts: List[object] = []
    for i, row in enumerate(rows):
        if d[i].is_finite:
            parts.append(Atom(row, REL_LE, d[i].value))
    # the variables in order of first occurrence, as formula_vars would list them
    real_vars: Dict[str, None] = {}
    for atom in parts:
        real_vars.update(dict.fromkeys(atom.lin.coeffs))
    real_vars.update(dict.fromkeys(
        formula_vars(statement) if statement_vars is None else statement_vars))
    parts.append(statement)
    if c.is_finite:
        if post is None:
            post = rows[j].rename({v: primed(v) for v in rows[j].variables()})
        # post > c  encoded as  -post < post.const - c
        bound = Atom(post.scale(-1), REL_LT, post.const - c.value)
        parts.append(bound)
        real_vars.update(dict.fromkeys(bound.lin.coeffs))
    return SmtProblem(And(parts), tuple(real_vars))
