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
    lines = trace.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["step"] == 1


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


def test_wide_disjunction_is_analysed_not_a_traceback(tmp_path):
    # 1,000 disjuncts nest 999 deep; every formula walk of the analysis and
    # the selector search use explicit stacks, so the command analyses it.
    # The third step's query for -x is unsat and searches the whole chain.
    # Run to the end, the analysis takes 1,001 steps, one per disjunct.
    wide = " | ".join(f"x' = {i}" for i in range(1000))
    prog = tmp_path / "wide.prg"
    prog.write_text("vars x ; template interval ; nodes st a ; start st ; cutset a ;"
                    f"edge st -> a : x' = 0 ; edge a -> a : {wide} ;")
    proc = subprocess.run([sys.executable, "-m", "invgen.cli", "analyze", str(prog),
                           "--json", "--max-iters", "3"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["final"] is False
    assert doc["nodes"]["a"] == {"x": "1", "-x": "0"}


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


def test_lints_printed_to_stderr(capsys):
    assert main(["analyze", corpus("running.prg")]) == 0
    err = capsys.readouterr().err
    assert "x2'" in err  # init edge leaves x2' unconstrained
