"""Command-line front end and the program-file format.

A program file declares variables, a template, nodes and formula-labeled
edges::

    vars x1 x2 ;
    template interval ;            # or: template octagon ;
                                   # or: template { x1; -x1; x1+x2; }
    nodes st n1 ;
    start st ;
    edge st -> n1 : x1' = 0 ;
    edge n1 -> n1 : x1 <= 1000 & x2' = -x1 &
      ((x2' <= -1 & x1' = -2*x1) | (x2' >= 0 & x1' = -x1 + 1)) ;
    cutset n1 ;                    # optional override of the computed cut set

``#`` starts a comment; whitespace is free-form.  Variables listed in an
optional ``ints x1 ;`` directive are integer-valued: on edges marked
``[int]`` their strict atoms are tightened to non-strict ones
(``i < 10`` becomes ``i <= 9``), which is the usual sound relaxation of
integer programs to rational analysis.  There is no other integer
reasoning.

The analyzer folds the graph onto ``{start} + cut set`` (unless
``--no-compress``), runs max-strategy iteration and prints one exact bound
per (node, template row).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .cfg import Cfg, CfgError, Edge, compress, feedback_vertex_set
from .engine import (
    EngineError, EngineOptions, Stats, Template, check_post_fixpoint, run,
)
from .formula import (
    Atom, LinExpr, ParseError, TokenStream, formula_vars, is_primed,
    map_atoms, parse_expr_tokens, parse_statement_tokens, primed, tokenize,
)
from .numeric import ExtRat, Rat
from .smt import SmtBackendError, solver_session

SMT_ENV_VAR = "INVGEN_SMT"


class ProgramError(Exception):
    """Semantic error in a program file (undeclared node, bad template, ...)."""


class RawEdge(NamedTuple):
    source: str
    target: str
    int_relax: bool
    statement: object


class ProgramFile:
    __slots__ = ("variables", "int_vars", "template_kind", "template_rows", "nodes",
                 "start", "edges", "cutset")

    def __init__(self):
        self.variables, self.nodes, self.edges = [], [], []  # names, names, RawEdges
        self.int_vars: Set[str] = set()
        self.template_kind: Optional[str] = None  # interval | octagon | explicit
        self.template_rows: List[LinExpr] = []
        self.start = self.cutset = None  # a node name, a list of node names


# ---------------------------------------------------------------------------
# program-file reader
# ---------------------------------------------------------------------------

def parse_program(text: str) -> ProgramFile:
    ts = TokenStream(tokenize(text))
    prog = ProgramFile()
    while ts.peek().kind != "eof":
        tok = ts.next()
        if tok.kind != "ident":
            raise ParseError(f"expected a directive, found {tok.text!r}",
                             tok.line, tok.column)
        directive = tok.text
        if directive == "vars":
            prog.variables.extend(_ident_list(ts))
        elif directive == "ints":
            prog.int_vars.update(_ident_list(ts))
        elif directive == "template":
            _parse_template(ts, prog)
        elif directive == "nodes":
            prog.nodes.extend(_ident_list(ts))
        elif directive == "start":
            names = _ident_list(ts)
            if len(names) != 1:
                raise ParseError("start takes exactly one node", tok.line, tok.column)
            if prog.start is not None:
                raise ParseError("duplicate start directive", tok.line, tok.column)
            prog.start = names[0]
        elif directive == "edge":
            prog.edges.append(_parse_edge(ts))
        elif directive == "cutset":
            prog.cutset = (prog.cutset or []) + _ident_list(ts)
        else:
            raise ParseError(f"unknown directive {directive!r}", tok.line, tok.column)
    _validate(prog)
    return prog


def _ident_list(ts: TokenStream) -> List[str]:
    names = []
    while True:
        tok = ts.peek()
        if tok.kind == "ident":
            names.append(ts.next().text)
        elif tok.kind == "op" and tok.text == ";":
            ts.next()
            return names
        else:
            ts.error("expected a name or ';'")


def _parse_template(ts: TokenStream, prog: ProgramFile) -> None:
    if prog.template_kind is not None:
        ts.error("duplicate template directive")
    tok = ts.peek()
    if tok.kind == "ident" and tok.text in ("interval", "octagon"):
        ts.next()
        prog.template_kind = tok.text
        ts.expect_op(";")
        return
    ts.expect_op("{")
    prog.template_kind = "explicit"
    while True:
        tok = ts.peek()
        if tok.kind == "op" and tok.text == "}":
            ts.next()
            break
        prog.template_rows.append(parse_expr_tokens(ts))
        tok = ts.peek()
        if tok.kind == "op" and tok.text == ";":
            ts.next()
        elif not (tok.kind == "op" and tok.text == "}"):
            ts.error("expected ';' or '}' in template rows")
    if ts.peek().kind == "op" and ts.peek().text == ";":
        ts.next()


def _parse_edge(ts: TokenStream) -> RawEdge:
    src = ts.peek()
    if src.kind != "ident":
        ts.error("expected source node")
    ts.next()
    ts.expect_op("->")
    dst = ts.peek()
    if dst.kind != "ident":
        ts.error("expected target node")
    ts.next()
    relax = False
    if ts.peek().kind == "op" and ts.peek().text == "[":
        ts.next()
        mark = ts.peek()
        if mark.kind != "ident" or mark.text != "int":
            ts.error("expected 'int' edge annotation")
        ts.next()
        ts.expect_op("]")
        relax = True
    ts.expect_op(":")
    stmt = parse_statement_tokens(ts)
    ts.expect_op(";")
    return RawEdge(src.text, dst.text, relax, stmt)


def _validate(prog: ProgramFile) -> None:
    if not prog.variables:
        raise ProgramError("no variables declared")
    if len(set(prog.variables)) != len(prog.variables):
        raise ProgramError("duplicate variable declaration")
    for v in prog.variables:
        if is_primed(v):
            raise ProgramError(f"vars declares primed variable {v!r}")
    for v in prog.int_vars:
        if v not in prog.variables:
            raise ProgramError(f"ints declares unknown variable {v!r}")
    if not prog.nodes:
        raise ProgramError("no nodes declared")
    if prog.start is None:
        raise ProgramError("no start node declared")
    if prog.start not in prog.nodes:
        raise ProgramError(f"start node {prog.start!r} is not declared")
    for e in prog.edges:
        for name in (e.source, e.target):
            if name not in prog.nodes:
                raise ProgramError(f"edge uses undeclared node {name!r}")
    if prog.cutset is not None:
        for n in prog.cutset:
            if n not in prog.nodes:
                raise ProgramError(f"cutset names undeclared node {n!r}")
    if prog.template_kind is None:
        raise ProgramError("no template directive")


# ---------------------------------------------------------------------------
# elaboration: template expansion, integer relaxation, lints
# ---------------------------------------------------------------------------

def expand_template(prog: ProgramFile) -> Template:
    if prog.template_kind == "explicit":
        return Template(prog.template_rows)
    rows: List[LinExpr] = []
    for v in prog.variables:
        rows.append(LinExpr.var(v))
        rows.append(LinExpr.var(v).scale(-1))
    if prog.template_kind == "octagon":
        for i, a in enumerate(prog.variables):
            for b in prog.variables[i + 1:]:
                va, vb = LinExpr.var(a), LinExpr.var(b)
                rows.extend([va.add(vb), va.sub(vb),
                             vb.sub(va), va.add(vb).scale(-1)])
    return Template(rows)


def _floor(q) -> Rat:
    return Rat(q.numerator // q.denominator)


def relax_integer_atoms(statement, int_vars: Set[str]):
    """Tighten strict atoms over integer variables: lin < c  ->  lin <= c',
    with c' = c - 1 for integral c and floor(c) otherwise.  Applies only
    when every variable (ignoring primes) is integer and every coefficient
    is an integer, so the left side is integer-valued."""
    def fix(atom: Atom) -> Atom:
        if not atom.strict:
            return atom
        for v, c in atom.lin.coeffs.items():
            if c.denominator != 1 or (v[:-1] if is_primed(v) else v) not in int_vars:
                return atom
        c = atom.rhs
        new_bound = c - 1 if c.denominator == 1 else _floor(c)
        return Atom(atom.lin, "<=", new_bound)

    return map_atoms(statement, fix)


def lint_program(prog: ProgramFile) -> List[str]:
    """Frame-condition lint: a primed program variable that never occurs in
    an edge formula is unconstrained by that edge."""
    notes = []
    for e in prog.edges:
        names = formula_vars(e.statement)
        present = set(names)
        missing = [v for v in prog.variables if primed(v) not in present]
        if missing:
            notes.append(
                f"edge {e.source} -> {e.target}: no constraint on "
                + ", ".join(primed(v) for v in missing)
                + " (unchanged variables need an explicit frame conjunct)")
        for v in names:
            if is_primed(v) and v[:-1] not in prog.variables:
                notes.append(f"edge {e.source} -> {e.target}: {v} is primed but "
                             f"{v[:-1]} is not a declared variable")
    return notes


def program_to_cfg(prog: ProgramFile) -> Tuple[Cfg, Template]:
    edges = []
    for e in prog.edges:
        stmt = e.statement
        if e.int_relax:
            stmt = relax_integer_atoms(stmt, prog.int_vars)
        edges.append(Edge(e.source, stmt, e.target))
    g = Cfg(prog.nodes, prog.start, edges, prog.variables)
    return g, expand_template(prog)


# ---------------------------------------------------------------------------
# analysis driver and reports
# ---------------------------------------------------------------------------

class Report(NamedTuple):
    nodes: List[str]
    labels: List[str]
    bounds: Dict[Tuple[str, int], ExtRat]
    stats: Stats
    certified: Optional[bool]
    counterexample: Optional[str]
    lints: List[str]


def analyze(path: str, *, solver: Optional[str] = None, local_opt: bool = False,
            max_iters: Optional[int] = None, check: bool = False,
            no_compress: bool = False, trace: Optional[object] = None) -> Report:
    with open(path, "r", encoding="utf-8") as handle:
        prog = parse_program(handle.read())
    lints = lint_program(prog)
    g, template = program_to_cfg(prog)
    if not no_compress:
        cut = frozenset(prog.cutset) if prog.cutset is not None else feedback_vertex_set(g)
        with warnings.catch_warnings(record=True) as dropped:
            warnings.simplefilter("always")
            g = compress(g, cut)
        lints.extend(str(w.message) for w in dropped)
    with solver_session(solver) as backend:
        opts = EngineOptions(local_opt=local_opt, smt_cmd=backend,
                             max_iters=max_iters, trace=trace)
        bounds, stats = run(g, template, opts)
        cert = check_post_fixpoint(g, template, bounds, backend=backend,
                                   stats=stats) if check else None
    counterexample = None
    if cert is not None and not cert.verified:
        edge = g.edges[cert.edge_index]
        point = {v: str(q) for v, q in sorted(cert.model.reals.items())
                 if not v.startswith("$")}
        counterexample = (f"edge {edge.source} -> {edge.target}, row "
                          f"{template.labels[cert.row]}, state {point}")
    return Report(list(g.nodes), list(template.labels), bounds, stats,
                  None if cert is None else cert.verified, counterexample, lints)


def emit_report(report: Report, fmt: str = "text", show_stats: bool = False) -> str:
    """Text table or JSON; bounds are exact rational strings, never floats."""
    if fmt == "json":
        doc = {
            "nodes": {
                node: {label: str(report.bounds[(node, i)])
                       for i, label in enumerate(report.labels)}
                for node in report.nodes
            },
            "stats": report.stats.as_dict(),
            "final": report.stats.converged,
            "certified": report.certified,
        }
        return json.dumps(doc, indent=2)
    lines = []
    width = max(len(label) for label in report.labels)
    for node in report.nodes:
        lines.append(f"node {node}:")
        for i, label in enumerate(report.labels):
            lines.append(f"  {label:<{width}} <= {report.bounds[(node, i)]}")
    if show_stats:
        s = report.stats.as_dict()
        lines.append(f"improvement steps: {s['improvement_steps']}")
        lines.append(f"smt queries:       {s['smt_queries']}")
        lines.append(f"linear programs:   {s['lp_solves']}")
        lines.append(f"wall time:         {s['wall_ms']} ms")
    if not report.stats.converged:
        lines.append("note: iteration cap hit; bounds are sound from below but not final")
    if report.certified is not None:
        lines.append(f"certified: {'yes' if report.certified else 'NO'}")
        if report.counterexample:
            lines.append(f"counterexample: {report.counterexample}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# benchmark generator
# ---------------------------------------------------------------------------

def gen_expo(n: int) -> str:
    """Program whose analysis needs about 2^n strategy improvement steps.

    A single self-loop increments x1; auxiliary chains y1..yn (powers of
    two) and zn..z0 (remainders) force, per loop path, an exact binary
    decomposition of x1, so consecutive integer bounds each need a fresh
    path.  The template is the single upper bound on x1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    parts = ["y1 = 1"]
    for k in range(2, n + 1):
        parts.append(f"y{k} = 2*y{k - 1}")
    parts.append(f"z{n} = x1")
    for k in range(n, 0, -1):
        parts.append(f"(z{k} >= y{k} & z{k - 1} = z{k} - y{k}"
                     f" | z{k} <= y{k} - 1 & z{k - 1} = z{k})")
    parts.append("x1' = x1 + 1")
    body = "\n    & ".join(parts)
    return (
        "# exponential strategy-iteration stressor\n"
        "vars x1 ;\n"
        "template { x1 ; } ;\n"
        "nodes st n1 ;\n"
        "start st ;\n"
        "edge st -> n1 : x1' = 0 ;\n"
        f"edge n1 -> n1 : {body} ;\n"
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _solver_from_flag(value: Optional[str]) -> Optional[str]:
    if value is None or value == "internal":
        return None
    if value == "external":
        cmd = os.environ.get(SMT_ENV_VAR)
        if not cmd:
            raise ProgramError(
                f"--solver external needs a command ({SMT_ENV_VAR} is not set)")
        return cmd
    if value.startswith("external:"):
        return value[len("external:"):]
    raise ProgramError(f"bad --solver value {value!r} "
                       "(use internal, external or external:<command>)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="invgen",
        description="Least inductive invariants in template linear constraint "
                    "domains, by SMT-guided max-strategy iteration.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a program file")
    pa.add_argument("file")
    pa.add_argument("--solver", default="internal",
                    help="internal | external | external:<command>")
    pa.add_argument("--local-opt", action="store_true",
                    help="use locally optimal strategy improvements")
    pa.add_argument("--json", action="store_true", help="machine-readable output")
    pa.add_argument("--stats", action="store_true", help="print iteration counters")
    pa.add_argument("--trace", metavar="FILE", help="write per-iteration JSON records")
    pa.add_argument("--max-iters", type=int, metavar="N",
                    help="cap on improvement steps (result flagged non-final)")
    pa.add_argument("--check", action="store_true",
                    help="re-certify the result edge by edge")
    pa.add_argument("--no-compress", action="store_true",
                    help="analyze the graph as written, without path compression")

    pg = sub.add_parser("gen-expo", help="emit the exponential benchmark family")
    pg.add_argument("n", type=int)
    pg.add_argument("-o", "--output", metavar="FILE")

    args = parser.parse_args(argv)
    try:
        if args.command == "gen-expo":
            text = gen_expo(args.n)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            else:
                sys.stdout.write(text)
            return 0

        if args.max_iters is not None and args.max_iters < 1:
            raise ProgramError(f"--max-iters must be at least 1, not {args.max_iters}")
        solver = _solver_from_flag(args.solver)
        trace_handle = open(args.trace, "w", encoding="utf-8") if args.trace else None
        try:
            report = analyze(args.file, solver=solver, local_opt=args.local_opt,
                             max_iters=args.max_iters, check=args.check,
                             no_compress=args.no_compress, trace=trace_handle)
        finally:
            if trace_handle is not None:
                trace_handle.close()
        for note in report.lints:
            print(f"warning: {note}", file=sys.stderr)
        print(emit_report(report, "json" if args.json else "text",
                          show_stats=args.stats))
        return 0
    except (ParseError, ProgramError, CfgError, EngineError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SmtBackendError as err:
        print(f"solver backend error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as err:
        print(f"error: input too large to analyze ({type(err).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
