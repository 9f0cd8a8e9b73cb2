"""Least inductive invariants in template linear constraint domains.

The library computes, for a numerical transition system and a fixed matrix
of template rows, the strongest invariant of the shape "one bound per
(program point, template row)": SMT-guided max-strategy improvement picks
paths through the transition formulas, exact-rational linear programming
evaluates each chosen strategy, and the loop stops precisely at the least
fixpoint.  See README.md for the file format and the command line.
"""

from .numeric import ExtRat, NEG_INF, POS_INF, Rat, ext, parse_rat, rat_str
from .lp import (
    Constraint, FeasResult, INFEASIBLE, LpError, LpProblem, LpResult, OPTIMAL,
    UNBOUNDED, lp_feasible_strict, lp_solve,
)
from .formula import (
    And, Atom, FormulaError, LinExpr, Or, ParseError, SmtProblem, build_psi,
    enumerate_path_choices, eval_formula, format_statement, formula_vars,
    nonstrict_relaxation, parse_linexpr, parse_statement, select_path,
)
from .smt import SAT, UNSAT, SmtBackendError, SmtModel, SmtResult, \
    check_model, smt_check, smt_check_external
from .cfg import Cfg, CfgError, Edge, compress, feedback_vertex_set, is_valid_cutset
from .engine import (
    BOTTOM, CertResult, EngineError, EngineOptions, EquationSystem, Stats,
    StratConst, StratPath, Template, abstract_transform_row,
    build_equation_system, check_post_fixpoint, evaluate, improve,
    improve_local_opt, kleene_oracle, run,
)
from .cli import (
    ProgramError, ProgramFile, Report, analyze, emit_report, format_program,
    gen_expo, parse_program, program_to_cfg,
)

__version__ = "0.1.0"
