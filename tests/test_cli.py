import json
import os
import subprocess
import sys

import jsonschema
import pytest

from invgen.cli import (
    ProgramError, analyze, emit_report, gen_expo, lint_program, main, parse_program,
    program_to_cfg, relax_integer_atoms,
)
from invgen.formula import ParseError, parse_statement

from conftest import CORPUS_DIR
from oracles import format_program, format_statement

REPORT_SCHEMA = {
    "type": "object",
    "required": ["nodes", "stats", "final", "certified"],
    "additionalProperties": False,
    "properties": {
        "nodes": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": {
                    "type": "string",
                    "pattern": r"^(-?inf|-?\d+(/\d+)?)$",
                },
            },
        },
        "stats": {
            "type": "object",
            "required": ["improvement_steps", "smt_queries", "lp_solves", "wall_ms"],
            "additionalProperties": False,
            "properties": {
                "improvement_steps": {"type": "integer"},
                "smt_queries": {"type": "integer"},
                "lp_solves": {"type": "integer"},
                "wall_ms": {"type": "integer"},
            },
        },
        "final": {"type": "boolean"},
        "certified": {"type": ["boolean", "null"]},
    },
}


def corpus(name):
    return os.path.join(CORPUS_DIR, name)


def test_parse_program_structure():
    with open(corpus("running.prg")) as handle:
        prog = parse_program(handle.read())
    assert prog.variables == ["x1", "x2"]
    assert prog.template_kind == "explicit"
    assert [str(r) for r in prog.template_rows] == ["x1", "-x1"]
    assert prog.nodes == ["st", "n1"]
    assert prog.start == "st"
    assert len(prog.edges) == 2


def test_program_validation_errors():
    with pytest.raises(ProgramError, match="start"):
        parse_program("vars x ; template interval ; nodes a ; start b ;")
    with pytest.raises(ProgramError, match="undeclared node"):
        parse_program("vars x ; template interval ; nodes a ; start a ;"
                      "edge a -> b : x' = x ;")
    with pytest.raises(ProgramError, match="template"):
        parse_program("vars x ; nodes a ; start a ;")
    with pytest.raises(ProgramError, match="ints"):
        parse_program("vars x ; ints y ; template interval ; nodes a ; start a ;")
    with pytest.raises(ParseError):
        parse_program("vars x ; template interval ; nodes a ; start a ; edge a -> : x' = x ;")


def test_interval_and_octagon_expansion():
    prog = parse_program("vars x y ; template interval ; nodes a ; start a ;")
    _, T = program_to_cfg(prog)
    assert T.labels == ["x", "-x", "y", "-y"]
    prog = parse_program("vars x y ; template octagon ; nodes a ; start a ;")
    _, T = program_to_cfg(prog)
    assert T.labels == ["x", "-x", "y", "-y", "x + y", "x - y", "y - x", "-x - y"]


def test_integer_relaxation_only_on_marked_edges():
    text = ("vars i r ; ints i ; template interval ; nodes a ; start a ;"
            "edge a -> a [int] : i < 10 & r < 10 & i' = i & r' = r ;"
            "edge a -> a : i < 10 & i' = i & r' = r ;")
    prog = parse_program(text)
    g, _ = program_to_cfg(prog)
    marked = format_statement(g.edges[0].statement)
    assert "i <= 9" in marked          # integer variable, marked edge
    assert "r < 10" in marked          # real variable untouched
    plain = format_statement(g.edges[1].statement)
    assert "i < 10" in plain           # unmarked edge untouched


def test_integer_relaxation_rounding():
    stmt = parse_statement("2*i < 7")  # integral bound: becomes bound - 1
    relaxed = relax_integer_atoms(stmt, {"i"})
    assert format_statement(relaxed) == "2*i <= 6"
    stmt = parse_statement("i + 1/2 < 2")  # fractional bound 3/2: floor to 1
    relaxed = relax_integer_atoms(stmt, {"i"})
    assert format_statement(relaxed) == "i <= 1"
    stmt = parse_statement("1/2 * i < 2")  # fractional coefficient: not integer-valued
    assert format_statement(relax_integer_atoms(stmt, {"i"})) == "1/2*i < 2"


def test_lint_flags_missing_frame_conjunct():
    text = ("vars x y ; template interval ; nodes a b ; start a ;"
            "edge a -> b : x' = 1 ;")
    notes = lint_program(parse_program(text))
    assert any("y'" in note for note in notes)
    text = ("vars x ; template interval ; nodes a b ; start a ;"
            "edge a -> b : x' = 1 & q' = 2 ;")
    notes = lint_program(parse_program(text))
    assert any("q'" in note for note in notes)


def test_file_round_trip_preserves_semantics():
    for name in ("running.prg", "loop2.prg", "octagon_swap.prg"):
        with open(corpus(name)) as handle:
            prog = parse_program(handle.read())
        again = parse_program(format_program(prog))
        assert again.variables == prog.variables
        assert again.nodes == prog.nodes
        assert again.start == prog.start
        assert again.cutset == prog.cutset
        assert [format_statement(e.statement) for e in again.edges] == \
            [format_statement(e.statement) for e in prog.edges]
        g1, t1 = program_to_cfg(prog)
        g2, t2 = program_to_cfg(again)
        assert t1.labels == t2.labels


def test_analyze_running_example():
    report = analyze(corpus("running.prg"), check=True)
    row = {report.labels[i]: str(report.bounds[("n1", i)]) for i in range(2)}
    assert row == {"x1": "2001", "-x1": "2000"}
    assert str(report.bounds[("st", 0)]) == "inf"
    assert report.certified is True
    text = emit_report(report)
    assert "x1  <= 2001" in text
    assert "-x1 <= 2000" in text


def test_analyze_loops_yield_0_11():
    for name in ("loop1.prg", "loop2.prg"):
        report = analyze(corpus(name))
        bounds = {report.labels[i]: str(report.bounds[("h", i)]) for i in range(2)}
        assert bounds == {"i": "11", "-i": "0"}


def test_empty_edges_without_compression():
    report = analyze(corpus("empty_edges.prg"), no_compress=True)
    assert str(report.bounds[("st", 0)]) == "inf"
    assert str(report.bounds[("other", 0)]) == "-inf"


def test_json_report_schema_and_exact_strings():
    report = analyze(corpus("running.prg"), check=True)
    doc = json.loads(emit_report(report, "json"))
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["nodes"]["n1"]["x1"] == "2001"
    assert doc["nodes"]["st"]["x1"] == "inf"
    assert doc["final"] is True
    assert doc["certified"] is True
    report = analyze(corpus("half_step.prg"))
    doc = json.loads(emit_report(report, "json"))
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["nodes"]["h"]["x"] == "2"
    assert doc["certified"] is None


def test_fractional_bound_prints_as_fraction():
    text = ("vars x ; template interval ; nodes st h ; start st ; cutset h ;"
            "edge st -> h : x' = 7/2 ;")
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".prg", delete=False) as handle:
        handle.write(text)
        path = handle.name
    try:
        report = analyze(path)
        doc = json.loads(emit_report(report, "json"))
        assert doc["nodes"]["h"]["x"] == "7/2"
    finally:
        os.unlink(path)


def test_gen_expo_shape_and_round_trip():
    text = gen_expo(3)
    prog = parse_program(text)
    assert prog.variables == ["x1"]
    assert [str(r) for r in prog.template_rows] == ["x1"]
    loop = prog.edges[1].statement
    from invgen.formula import selectors_of
    assert len(selectors_of(loop)) == 3
    # output re-parses and pretty-prints stably
    again = parse_program(format_program(prog))
    assert format_statement(again.edges[1].statement) == format_statement(loop)
    with pytest.raises(ValueError):
        gen_expo(0)


def test_gen_expo_equation_system_size():
    from invgen.engine import EquationSystem

    prog = parse_program(gen_expo(4))
    g, T = program_to_cfg(prog)
    eq = EquationSystem(g, T)
    # one fixpoint variable per (node, declared template row)
    assert len(eq.order) == len(g.nodes) * len(T) == 2


def test_gen_expo_step_counts_small():
    import tempfile
    for n, steps in ((1, 5), (2, 7)):
        with tempfile.NamedTemporaryFile("w", suffix=".prg", delete=False) as handle:
            handle.write(gen_expo(n))
            path = handle.name
        try:
            report = analyze(path)
            assert abs(report.stats.improvement_steps - steps) <= 3
        finally:
            os.unlink(path)


def test_cli_main_text_and_json(capsys):
    assert main(["analyze", corpus("running.prg"), "--stats", "--check"]) == 0
    out = capsys.readouterr().out
    assert "x1  <= 2001" in out and "certified: yes" in out
    assert "improvement steps: 4" in out
    assert main(["analyze", corpus("running.prg"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_cli_main_trace_and_max_iters(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code = main(["analyze", corpus("running.prg"), "--trace", str(trace),
                 "--max-iters", "2", "--stats"])
    assert code == 0
    out = capsys.readouterr().out
    assert "not final" in out
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [r["step"] for r in records] == [1, 2]
    # the start rows take the constant +inf, then n1's rows the entry edge
    assert records[0]["changed"] == {"st[x1]": "const inf", "st[-x1]": "const inf"}
    assert records[1]["changed"] == {"n1[x1]": "edge 0 st->n1 path[]",
                                     "n1[-x1]": "edge 0 st->n1 path[]"}


def test_capped_result_is_marked_not_final(capsys):
    # one step leaves n1 at -inf, which would claim n1 unreachable if final
    assert main(["analyze", corpus("running.prg"), "--max-iters", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["nodes"]["n1"]["x1"] == "-inf"
    assert doc["final"] is False
    assert main(["analyze", corpus("running.prg"), "--max-iters", "1"]) == 0
    out = capsys.readouterr().out
    assert "x1  <= -inf" in out and "not final" in out
    assert main(["analyze", corpus("running.prg")]) == 0
    assert "not final" not in capsys.readouterr().out


def test_cli_main_no_compress(capsys):
    assert main(["analyze", corpus("running_g1.prg"), "--no-compress"]) == 0
    out = capsys.readouterr().out
    assert "node n3:" in out  # interior nodes survive without compression


def test_cli_main_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.prg"
    bad.write_text("vars x ; template interval ; nodes a ; start a ;"
                   "edge a -> a : !(x <= 1) ;")
    assert main(["analyze", str(bad)]) == 2
    assert "negation" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path / "missing.prg")]) == 2
    capsys.readouterr()
    assert main(["analyze", corpus("running.prg"), "--solver", "bogus"]) == 2


def test_malformed_numbers_are_reported_where_they_stand(tmp_path, capsys):
    # a literal with a second dot, or ending in one, is a parse error with
    # its location, in a statement and in a template alike
    prog = tmp_path / "bad.prg"
    for template, edge, where in (
            ("interval", "x' = 1.", "'1.' (line 5, column 21)"),
            ("{ x ; 2.x ; }", "x' = 1", "'2.' (line 2, column 16)"),
            ("interval", "x' = 1.2.3", "'1.2.3' (line 5, column 21)")):
        prog.write_text(f"vars x ;\ntemplate {template} ;\nnodes st n ;\nstart st ;\n"
                        f"edge st -> n : {edge} ;\n")
        assert main(["analyze", str(prog)]) == 2
        assert capsys.readouterr().err == f"error: malformed number {where}\n"


def test_second_start_directive_is_an_error(tmp_path, capsys):
    # a second start must not silently replace the first
    prog = tmp_path / "two_starts.prg"
    prog.write_text("vars x ;\ntemplate interval ;\nnodes a b ;\nstart a ;\n"
                    "edge a -> b : x' = 1 ;\n  start b ;\n")
    assert main(["analyze", str(prog)]) == 2
    assert capsys.readouterr().err == \
        "error: duplicate start directive (line 6, column 3)\n"


PREAMBLE = ["vars x ;", "template interval ;", "nodes a ;", "start a ;"]


@pytest.mark.parametrize("line, replaces, message", [
    ("start a b ;", 3, "start takes exactly one node (line 4, column 1)"),
    ("foo a ;", None, "unknown directive 'foo' (line 5, column 1)"),
    ("edge a -> a [real] : x' = x ;", None,
     "expected 'int' edge annotation, found 'real' (line 5, column 14)"),
    ("vars x x ;", 0, "duplicate variable declaration"),
    ("vars x' ;", 0, "vars declares primed variable \"x'\""),
    ("cutset z ;", None, "cutset names undeclared node 'z'"),
    ("edge a -> a : x' = x / y ;", None, "division by a non-constant (line 5, column 22)"),
    # numbers are ASCII: other scripts' digits are neither misread nor a traceback
    ("edge a -> a : x' = x + \u00b2 ;", None, "unexpected character '\u00b2' (line 5, column 24)"),
    ("edge a -> a : x' = x + \u0663 ;", None, "unexpected character '\u0663' (line 5, column 24)"),
])
def test_program_file_errors_are_reported(line, replaces, message, tmp_path, capsys):
    # each case appends a fifth line or replaces one of the preamble's
    lines = list(PREAMBLE)
    if replaces is None:
        lines.append(line)
    else:
        lines[replaces] = line
    prog = tmp_path / "bad.prg"
    prog.write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(prog)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_failed_certification_is_reported(capsys):
    # one step leaves n1 at -inf, which the entry edge already beats
    assert main(["analyze", corpus("running.prg"), "--max-iters", "1", "--check"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("certified: NO\n"
                        "counterexample: edge st -> n1, row x1, state {\"x1'\": '0'}\n")
    assert main(["analyze", corpus("running.prg"), "--max-iters", "1", "--check",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["final"] is False and doc["certified"] is False


def test_wide_disjunction_is_analysed_not_a_traceback(tmp_path):
    # 1,000 disjuncts nest 999 deep; every formula walk of the analysis and
    # the selector search use explicit stacks, so the command analyses it,
    # with either backend and with --local-opt.  The third step's query for
    # -x is unsat and searches the whole chain.  Run to the end, the default
    # analysis takes 1,001 steps, one per disjunct.
    from conftest import LOOPBACK

    def analyse(template, disjuncts, *flags):
        prog = tmp_path / "wide.prg"
        prog.write_text(f"vars x ; template {template} ; nodes st a ; start st ; cutset a ;"
                        f"edge st -> a : x' = 0 ; edge a -> a : {' | '.join(disjuncts)} ;")
        proc = subprocess.run([sys.executable, "-m", "invgen.cli", "analyze", str(prog),
                               "--json", *flags], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    wide = [f"x' = {i}" for i in range(1000)]
    doc = analyse("interval", wide, "--max-iters", "3")
    assert doc["final"] is False
    assert doc["nodes"]["a"] == {"x": "1", "-x": "0"}
    external = analyse("interval", wide, "--max-iters", "3",
                       "--solver", "external:" + " ".join(LOOPBACK))
    assert external["nodes"] == doc["nodes"] and external["final"] is False
    # the locally optimal step jumps to the top at once
    doc = analyse("{ x ; }", wide[::-1], "--local-opt", "--check")
    assert doc["final"] is True and doc["certified"] is True
    assert doc["nodes"]["a"] == {"x": "999"}


def test_deeply_parenthesised_edge_is_analysed(tmp_path):
    # the statement parser keeps its operators on an explicit stack, so an
    # edge inside 5,000 levels of parentheses, around a formula and around
    # an expression, analyses as the bare edge does
    def analyse(body):
        prog = tmp_path / "deep.prg"
        prog.write_text("vars x ; template interval ; nodes st a ; start st ; cutset a ;"
                        f"edge st -> a : x' = 0 ; edge a -> a : {body} ;")
        proc = subprocess.run([sys.executable, "-m", "invgen.cli", "analyze", str(prog),
                               "--json", "--check"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def deep(text):
        return "(" * 5000 + text + ")" * 5000

    bare = analyse("x <= 9 & x' = x + 1")
    assert bare["nodes"]["a"] == {"x": "10", "-x": "0"} and bare["certified"] is True
    wrapped = analyse(deep(f"{deep('x <= 9')} & x' = {deep('x + 1')}"))
    assert wrapped == {**bare, "stats": {**bare["stats"], "wall_ms": wrapped["stats"]["wall_ms"]}}


def test_cli_gen_expo_subcommand(tmp_path, capsys):
    assert main(["gen-expo", "2"]) == 0
    text = capsys.readouterr().out
    assert "vars x1 ;" in text
    out = tmp_path / "g.prg"
    assert main(["gen-expo", "3", "-o", str(out)]) == 0
    assert "z3 = x1" in out.read_text()


def test_cli_external_solver_flag(capsys):
    from conftest import LOOPBACK
    cmd = " ".join(LOOPBACK)
    assert main(["analyze", corpus("updown.prg"),
                 "--solver", f"external:{cmd}", "--check"]) == 0
    out = capsys.readouterr().out
    assert "x  <= 5" in out and "certified: yes" in out


def test_selector_names_cannot_clash_with_program_variables(tmp_path, capsys):
    # a variable named like a selector constant analyses through an
    # external solver as it does internally
    from conftest import LOOPBACK
    prog = tmp_path / "a0.prg"
    prog.write_text("vars a0 ; template interval ; nodes st h ; start st ;"
                    "edge st -> h : a0' = 0 ;"
                    "edge h -> h : a0 <= 5 & (a0' = a0 + 1 | a0' = a0 + 2) ;")
    assert main(["analyze", str(prog), "--check"]) == 0
    internal = capsys.readouterr().out
    assert internal.endswith("node h:\n  a0  <= 7\n  -a0 <= 0\ncertified: yes\n")
    assert main(["analyze", str(prog), "--check",
                 "--solver", "external:" + " ".join(LOOPBACK)]) == 0
    assert capsys.readouterr().out == internal


def test_trace_names_the_same_paths_through_an_external_solver(tmp_path):
    # a model keeps only the selectors on its path, whichever backend
    # answers, though the loopback gives a value to every selector
    from conftest import LOOPBACK
    prog = tmp_path / "nested.prg"
    prog.write_text("vars x ; template interval ; nodes st h ; start st ;"
                    "edge st -> h : x' = 0 ;"
                    "edge h -> h : x <= 5 & ((x' = x + 1 | x' = x + 2) | "
                    "(x' = x + 3 | x' = x + 4)) ;")
    traces = []
    for flags in ([], ["--solver", "external:" + " ".join(LOOPBACK)]):
        trace = tmp_path / f"trace{len(traces)}.jsonl"
        assert main(["analyze", str(prog), "--trace", str(trace), *flags]) == 0
        traces.append(trace.read_bytes())
    assert b"path[0:0,1:0]" in traces[0]
    assert traces[1] == traces[0]


def test_empty_solver_command_is_a_backend_error(capsys):
    assert main(["analyze", corpus("updown.prg"), "--solver", "external:"]) == 3
    assert capsys.readouterr().err == "solver backend error: empty solver command\n"


def test_cli_external_solver_from_environment(capsys, monkeypatch):
    from conftest import LOOPBACK
    monkeypatch.setenv("INVGEN_SMT", " ".join(LOOPBACK))
    assert main(["analyze", corpus("updown.prg"), "--solver", "external"]) == 0
    assert "x  <= 5" in capsys.readouterr().out
    monkeypatch.delenv("INVGEN_SMT")
    assert main(["analyze", corpus("updown.prg"), "--solver", "external"]) == 2
    assert "INVGEN_SMT" in capsys.readouterr().err


def test_cli_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "invgen.cli", "gen-expo", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "vars x1 ;" in proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize("n", ["0", "-1"])
def test_max_iters_below_one_is_a_usage_error(n, capsys):
    assert main(["analyze", corpus("running.prg"), "--max-iters", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-iters must be at least 1, not {n}\n"


def test_lints_printed_to_stderr(capsys, tmp_path):
    assert main(["analyze", corpus("running.prg")]) == 0
    err = capsys.readouterr().err
    assert "x2'" in err  # init edge leaves x2' unconstrained
    # compress's warning is a lint too, with no Python source location
    assert main(["analyze", corpus("empty_edges.prg")]) == 0
    assert capsys.readouterr().err == \
        "warning: dropping nodes unreachable from start: other\n"
    # undeclared primed variables are named in order of first occurrence,
    # whatever the string hash seed
    prog = tmp_path / "undeclared.prg"
    prog.write_text("vars x ; template interval ; nodes st ; start st ;"
                    "edge st -> st : x' = 0 & a' = 1 & b' = 2 & c' = 3 & d' = 4 ;")
    proc = subprocess.run([sys.executable, "-m", "invgen.cli", "analyze", str(prog)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "1"})
    assert proc.returncode == 0
    assert proc.stderr == "".join(
        f"warning: edge st -> st: {v}' is primed but {v} is not a declared variable\n"
        for v in "abcd")
