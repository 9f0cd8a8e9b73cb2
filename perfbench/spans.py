"""Spans around the public functions of each invgen layer.

``Tracer.install`` replaces every layer function listed in ``HOOKS`` by a
wrapper that records a span (name, start, end, parent) in memory.  The
wrapper goes into every ``invgen`` module that holds the function, not
only the one defining it: ``from .lp import lp_solve`` in ``engine``
binds its own name, and patching ``invgen.lp`` alone would miss every
call the engine makes.  ``per_layer`` turns the spans into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def _lp_size(args, result):
    problem = args[0]
    return {"cells": len(problem.constraints) * len(problem.variables),
            "vars": len(problem.variables)}


def _formula_size(edges) -> Tuple[int, int]:
    """Distinct selectors and atoms of the edge formulas (subtrees shared
    by identity are counted once)."""
    seen, selectors, atoms = set(), set(), 0
    stack = [e.statement for e in edges]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if hasattr(node, "children"):
            stack.extend(node.children)
        elif hasattr(node, "selector"):
            selectors.add(node.selector)
            stack.extend((node.left, node.right))
        else:
            atoms += 1
    return len(selectors), atoms


def _compressed(args, result):
    selectors, atoms = _formula_size(result.edges)
    return {"selectors": selectors, "atoms": atoms}


# span name -> (module, function, attributes recorded from (args, result))
HOOKS: Dict[str, Tuple[str, str, Optional[Callable]]] = {
    "cli.parse": ("invgen.cli", "parse_program", None),
    "cfg.fvs": ("invgen.cfg", "feedback_vertex_set", None),
    "cfg.compress": ("invgen.cfg", "compress", _compressed),
    "engine.run": ("invgen.engine", "run", None),
    "engine.improve": ("invgen.engine", "improve",
                       lambda args, result: {"improved": result is not None}),
    "engine.evaluate": ("invgen.engine", "evaluate", None),
    "engine.certify": ("invgen.engine", "check_post_fixpoint", None),
    "formula.build_psi": ("invgen.formula", "build_psi", None),
    "smt.check": ("invgen.smt", "smt_check",
                  lambda args, result: {"sat": result.is_sat}),
    "smt.external": ("invgen.smt", "smt_check_external",
                     lambda args, result: {"sat": result.is_sat}),
    "lp.solve": ("invgen.lp", "lp_solve", _lp_size),
    "lp.feasible_strict": ("invgen.lp", "lp_feasible_strict",
                           lambda args, result: {"feasible": result.feasible}),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: Optional[dict] = None


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "invgen" or n.startswith("invgen."))]
        for name, (module, attr, attrs) in HOOKS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def dump(self) -> List[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, **(s.attrs or {})} for s in self.spans]


LP_CALLERS = {"engine.improve": "improve", "engine.evaluate": "evaluate",
              "engine.certify": "certify"}
SMT_SPANS = ("smt.check", "smt.external")
PER_PASS_COUNTS = (
    "lp.solve.calls", "lp.solve.cells", "lp.feasible_strict.calls",
    "lp.improve.calls", "lp.evaluate.calls", "lp.evaluate.cells", "lp.certify.calls",
    "smt.check.calls", "smt.theory.calls", "smt.external.calls",
    "engine.improve.calls", "engine.evaluate.calls", "engine.improvement_steps",
    "cfg.compress.out_selectors", "cfg.compress.out_atoms",
    "cli.parse.calls", "formula.build_psi.calls",
)
PER_PASS_SECONDS = (
    "lp.solve.self_s", "lp.improve.self_s", "lp.evaluate.self_s", "lp.certify.self_s",
    "smt.check.self_s", "smt.external.self_s",
    "engine.improve.incl_s", "engine.evaluate.incl_s", "engine.certify.incl_s",
    "cfg.fvs.self_s", "cfg.compress.self_s", "cli.parse.self_s", "formula.build_psi.self_s",
)


def per_layer(spans: List[Span], passes: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts and times per pass, and ratios, with their units."""
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.end - s.start

    def nearest(index: int, names) -> Optional[str]:
        parent = spans[index].parent
        while parent >= 0:
            if spans[parent].name in names:
                return spans[parent].name
            parent = spans[parent].parent
        return None

    total: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0) + value

    for i, s in enumerate(spans):
        attrs = s.attrs or {}
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", self_s[i])
        add(f"{s.name}.incl_s", s.end - s.start)
        if s.name == "lp.solve":
            add("lp.solve.cells", attrs.get("cells", 0))
            caller = nearest(i, LP_CALLERS)
            if caller is not None:
                key = "lp." + LP_CALLERS[caller]
                add(f"{key}.calls", 1)
                add(f"{key}.self_s", self_s[i])
                add(f"{key}.cells", attrs.get("cells", 0))
                if key == "lp.evaluate":
                    add("engine.evaluate.lp_vars_sum", attrs.get("vars", 0))
        elif s.name == "lp.feasible_strict" and nearest(i, SMT_SPANS):
            add("smt.theory.calls", 1)
            add("smt.theory.infeasible", 0 if attrs.get("feasible", True) else 1)
        elif s.name in SMT_SPANS:
            add(f"{s.name}.sat", 1 if attrs.get("sat") else 0)
        elif s.name == "engine.improve":
            add("engine.improvement_steps", 1 if attrs.get("improved") else 0)
        elif s.name == "cfg.compress":
            add("cfg.compress.out_selectors", attrs.get("selectors", 0))
            add("cfg.compress.out_atoms", attrs.get("atoms", 0))

    def get(key: str) -> float:
        return total.get(key, 0)

    def ratio(num: str, *dens: str) -> float:
        den = sum(get(d) for d in dens)
        return get(num) / den if den else 0.0

    out = {key: (get(key) / passes, "count") for key in PER_PASS_COUNTS}
    out.update({key: (get(key) / passes, "s") for key in PER_PASS_SECONDS})
    out.update({
        "smt.check.sat_ratio": (ratio("smt.check.sat", "smt.check.calls"), "ratio"),
        "smt.theory.per_query": (ratio("smt.theory.calls", "smt.check.calls",
                                       "smt.external.calls"), "ratio"),
        "smt.theory.infeasible_ratio": (ratio("smt.theory.infeasible", "smt.theory.calls"),
                                        "ratio"),
        "engine.evaluate.lp_vars": (ratio("engine.evaluate.lp_vars_sum", "lp.evaluate.calls"),
                                    "vars"),
    })
    return out
