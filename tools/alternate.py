"""Compare two source trees in one process, pass by pass.

Run from the repository root::

    python3 tools/alternate.py OLD_TREE NEW_TREE --workload expo --rounds 40

Each tree is a checkout with a ``src/invgen`` package.  Both are imported
into this process, and every round runs one perfbench pass of each
(``perfbench/run.py``'s ``analyze`` over the workload's jobs), the order
alternating from round to round so that drift in machine speed and the
first, cold pass do not favour either tree.  The loopback solver of the
corpus workload imports the tree whose pass is running.  Printed per tree:
the median pass, the p50 of all its analyses, the p50 of their bounds
phase (``engine.run`` done), the failed analyses, and in how many rounds
its pass was the faster one.  Paired in one process, two trees can be
told apart by a few per cent, which separate benchmark runs on a busy
machine cannot do; run a tree against a copy of itself for a control.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load(tree: str, workload: str, seed: int):
    """Import ``tree``'s invgen and build the workload's jobs with it."""
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isdir(os.path.join(src, "invgen")):
        raise SystemExit(f"error: no invgen sources under {src}")
    sys.path.insert(0, src)
    try:
        inv = run.load_invgen()
    finally:
        sys.path.remove(src)
    loaded = os.path.dirname(os.path.dirname(inv.cli.__file__))
    if os.path.realpath(loaded) != os.path.realpath(src):
        raise SystemExit(f"error: imported invgen from {loaded}, not {src}")
    return src, run.Client(inv, WORKLOADS[workload](inv.cli, seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    loaded = [load(tree, args.workload, args.seed) for tree in args.trees]
    passes = [[], []]
    for r in range(args.rounds):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            src, client = loaded[k]
            # the loopback solver subprocess imports invgen too
            os.environ["PYTHONPATH"] = src
            passes[k].append(client.one_pass())

    for k, tree in enumerate(args.trees):
        client = loaded[k][1]
        wins = sum(1 for mine, other in zip(passes[k], passes[1 - k]) if mine < other)
        print(f"{tree}: pass p50 {statistics.median(passes[k]) * 1e3:.2f} ms, "
              f"analysis p50 {statistics.median(o.total_s for o in client.outcomes) * 1e3:.3f} ms, "
              f"bounds p50 {statistics.median(o.bounds_s for o in client.outcomes) * 1e3:.3f} ms, "
              f"failed {client.failed} of {len(client.outcomes)}, "
              f"faster in {wins} of {args.rounds} rounds")
    ratio = statistics.median(o.total_s for o in loaded[1][1].outcomes) / \
        statistics.median(o.total_s for o in loaded[0][1].outcomes)
    print(f"analysis p50 ratio (second / first): {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
