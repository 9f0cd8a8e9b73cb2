"""Write ``reference.json``: the exact bounds the benchmark checks against.

Run from the repository root::

    python3 perfbench/make_reference.py

Corpus bounds come from plain Kleene iteration (``kleene_oracle``) on the
folded graph, never from strategy iteration.  Where Kleene iteration does
not stop, the bounds are derived by hand below.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from invgen.cfg import compress, feedback_vertex_set  # noqa: E402
from invgen.cli import parse_program, program_to_cfg  # noqa: E402
from invgen.engine import kleene_oracle  # noqa: E402

from workloads import CORPUS_DIR, EXPO_REPORTED_STEPS, REFERENCE  # noqa: E402

HAND_DERIVED = {
    # x' = x/2 + 1 from x = 0 climbs towards 2 and never reaches it
    "half_step.prg": {"st": {"x": "inf", "-x": "inf"}, "h": {"x": "2", "-x": "0"}},
}


def expo_bounds() -> dict:
    # x1 counts up by one on every loop path, with no guard on x1
    return {"st": {"x1": "inf"}, "n1": {"x1": "inf"}}


def kleene_bounds(text: str) -> dict:
    prog = parse_program(text)
    g, template = program_to_cfg(prog)
    cut = frozenset(prog.cutset) if prog.cutset is not None else feedback_vertex_set(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = compress(g, cut)
    bounds = kleene_oracle(g, template, max_steps=5000)
    if bounds is None:
        raise RuntimeError("Kleene iteration did not converge")
    return {node: {label: str(bounds[(node, i)]) for i, label in enumerate(template.labels)}
            for node in g.nodes}


def main() -> None:
    corpus = {}
    for name in sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".prg")):
        if name in HAND_DERIVED:
            corpus[name] = HAND_DERIVED[name]
            continue
        with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as handle:
            corpus[name] = kleene_bounds(handle.read())
    doc = {"corpus": corpus, "expo": {str(n): expo_bounds() for n in EXPO_REPORTED_STEPS}}
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
