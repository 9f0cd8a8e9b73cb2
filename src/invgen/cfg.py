"""Program graphs and their compression onto a cut set.

A program is a multigraph whose edges carry transition statements.  For the
analysis only the start node and a feedback vertex set (a node set whose
removal breaks every directed cycle) need abstract values; all other nodes
can be folded away.  ``compress`` rewrites the graph onto those nodes: each
new edge carries one compound statement equivalent to the union of all
simple paths between its endpoints through folded-away interior nodes.

The compound statements are built structurally over the interior DAG with
per-node memoization and shared subtrees, so their size stays linear in the
interior subgraph rather than in the (possibly exponential) number of paths.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Set

from .formula import (
    TRUE, Or, conjoin, formula_vars, is_primed, map_atoms, primed,
)


class CfgError(Exception):
    """Ill-formed graph or invalid cut set."""


class Edge(NamedTuple):
    source: str
    statement: object
    target: str


class Cfg:
    """Control-flow multigraph: named nodes, formula-labeled edges."""

    def __init__(self, nodes: Sequence[str], start: str,
                 edges: Iterable, program_vars: Sequence[str]):
        self.nodes = list(nodes)
        if len(set(self.nodes)) != len(self.nodes):
            raise CfgError("duplicate node names")
        if start not in self.nodes:
            raise CfgError(f"start node {start!r} is not declared")
        self.start = start
        self.edges = [Edge(*e) for e in edges]
        for edge in self.edges:
            if edge.source not in self.nodes or edge.target not in self.nodes:
                raise CfgError(f"edge {edge.source!r} -> {edge.target!r} uses undeclared nodes")
        self.program_vars = list(program_vars)
        if len(set(self.program_vars)) != len(self.program_vars):
            raise CfgError("duplicate program variables")

    def successors(self, node: str) -> List[str]:
        return [e.target for e in self.edges if e.source == node]

    def reachable_from_start(self) -> Set[str]:
        seen = {self.start}
        work = [self.start]
        while work:
            for t in self.successors(work.pop()):
                if t not in seen:
                    seen.add(t)
                    work.append(t)
        return seen


def _back_edge_targets(g: Cfg, removed: Set[str]) -> Set[str]:
    """Targets of the back edges of a depth-first traversal of ``g`` without
    the ``removed`` nodes.

    Roots are the start node first, then the other nodes in declaration
    order, so the result is deterministic and meets every directed cycle
    (also in parts unreachable from start); it is empty iff there is none.
    """
    succ: Dict[str, List[str]] = {n: [] for n in g.nodes if n not in removed}
    for e in g.edges:
        if e.source in succ and e.target in succ:
            succ[e.source].append(e.target)
    targets: Set[str] = set()
    color = {n: 0 for n in succ}  # 0 white, 1 gray, 2 black
    for root in [g.start] + g.nodes:
        if root not in color or color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for t in it:
                if color[t] == 0:
                    color[t] = 1
                    stack.append((t, iter(succ[t])))
                    advanced = True
                    break
                if color[t] == 1:
                    targets.add(t)
            if not advanced:
                color[node] = 2
                stack.pop()
    return targets


def is_valid_cutset(g: Cfg, cut: Iterable[str]) -> bool:
    """True iff removing the cut nodes leaves no directed cycle."""
    return not _back_edge_targets(g, set(cut))


def feedback_vertex_set(g: Cfg) -> FrozenSet[str]:
    """Cut set from depth-first traversal: the targets of back edges."""
    return frozenset(_back_edge_targets(g, set()))


def _topo_order(nodes: Sequence[str], succ: Dict[str, List[str]]) -> List[str]:
    indeg = {n: 0 for n in nodes}
    for n in nodes:
        for t in succ.get(n, ()):
            if t in indeg:
                indeg[t] += 1
    order = []
    ready = [n for n in nodes if indeg[n] == 0]
    while ready:
        n = ready.pop(0)
        order.append(n)
        for t in succ.get(n, ()):
            if t in indeg:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
    return order


def compress(g: Cfg, cut: Iterable[str]) -> Cfg:
    """Fold every node outside ``{start} | cut`` into compound edge formulas.

    For each ordered pair of kept nodes with at least one connecting path
    through interior (folded) nodes, the result has one edge whose statement
    is the union of all those paths: sequential composition introduces fresh
    auxiliary state vectors at interior nodes, merges become disjunctions
    with fresh selectors.  Nodes unreachable from the start are dropped with
    a warning.
    """
    cut = set(cut)
    for n in cut:
        if n not in g.nodes:
            raise CfgError(f"cut node {n!r} is not in the graph")
    if not is_valid_cutset(g, cut):
        raise CfgError("cycle among non-cut nodes; cut set is invalid")

    reachable = g.reachable_from_start()
    dropped = [n for n in g.nodes if n not in reachable]
    if dropped:
        warnings.warn(f"dropping nodes unreachable from start: {', '.join(dropped)}",
                      stacklevel=2)

    anchors = [n for n in g.nodes if n in reachable and (n == g.start or n in cut)]
    anchor_set = set(anchors)
    interior = [n for n in g.nodes if n in reachable and n not in anchor_set]
    node_idx = {n: i for i, n in enumerate(g.nodes)}

    interior_succ: Dict[str, List[str]] = {n: [] for n in interior}
    for e in g.edges:
        if e.source in interior_succ and e.target in interior_succ:
            interior_succ[e.source].append(e.target)
    interior_order = _topo_order(interior, interior_succ)

    selector_ids = itertools.count()
    instance_ids = itertools.count()

    def state_names(node: str) -> Dict[str, str]:
        return {x: f"$p{node_idx[node]}_{x}" for x in g.program_vars}

    def instantiate(stmt, source_map: Dict[str, str], target_map: Dict[str, str]):
        mapping = dict(source_map)
        unprimed = set(g.program_vars)
        for v in formula_vars(stmt):
            if v in unprimed:
                continue
            if is_primed(v) and v[:-1] in unprimed:
                mapping[v] = target_map[v[:-1]]
            elif v not in mapping:
                mapping[v] = f"$u{next(instance_ids)}_{v}"
        return map_atoms(stmt, lambda a: a.rename(mapping), selector_ids)

    identity = {x: x for x in g.program_vars}
    post = {x: primed(x) for x in g.program_vars}

    new_edges: List[Edge] = []
    for u in anchors:
        # One forward pass over the interior DAG reachable from u.  reach[w]
        # relates the state at u (unprimed) to the state at w; the formula
        # objects are shared, never copied, so the pass stays linear.
        reach: Dict[str, object] = {u: TRUE}
        contributions: Dict[str, List[object]] = {v: [] for v in anchors}
        for w in [u] + interior_order:
            base = reach.get(w)
            if base is None:
                continue
            src_map = identity if w == u else state_names(w)
            for e in g.edges:
                if e.source != w or e.target not in reachable:
                    continue
                if e.target in anchor_set:
                    piece = instantiate(e.statement, src_map, post)
                    contributions[e.target].append(
                        piece if base is TRUE else conjoin([base, piece]))
                elif w != e.target:  # interior target (self-loops cannot occur)
                    piece = instantiate(e.statement, src_map, state_names(e.target))
                    combined = piece if base is TRUE else conjoin([base, piece])
                    prev = reach.get(e.target)
                    reach[e.target] = combined if prev is None else \
                        Or(prev, combined, next(selector_ids))
        for v in anchors:
            parts = contributions[v]
            if not parts:
                continue
            stmt = parts[0]
            for extra in parts[1:]:
                stmt = Or(stmt, extra, next(selector_ids))
            new_edges.append(Edge(u, stmt, v))

    return Cfg(anchors, g.start, new_edges, g.program_vars)
