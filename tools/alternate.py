"""Compare two source trees in one process, pass by pass.

Run from the repository root::

    python3 tools/alternate.py OLD_TREE NEW_TREE --workload expo --rounds 40
    python3 tools/alternate.py OLD_TREE NEW_TREE --imports --rounds 60

Each tree is a checkout with a ``src/invgen`` package.  Both are imported
into this process, and every round runs one perfbench pass of each
(``perfbench/run.py``'s ``analyze`` over the workload's jobs), the order
alternating from round to round so that drift in machine speed and the
first, cold pass do not favour either tree.  The corpus workload's
loopback job runs the loopback solver of the tree whose pass is running,
and that solver imports the same tree.  Printed per tree:
the median pass, the p50 of all its analyses, the quartiles over rounds of
each pass's own analysis p50, the p50 of their bounds phase
(``engine.run`` done), the failed analyses, and in how many rounds its
pass was the faster one and its pass's analysis p50 the lower one.  A
pass that is mostly solver process start-up (the corpus loopback job)
wins about half the rounds whatever the analyses do; the per-round
analysis p50 tells the analyses apart.  Paired in one process, two trees
can be told apart by a few per cent, which separate benchmark runs on a
busy machine cannot do; run a tree against a copy of itself for a control.

With ``--imports`` each round instead imports the seven invgen layers of
each tree afresh, as ``perfbench/run.py``'s ``load_invgen`` does (every
``invgen`` module is dropped from ``sys.modules`` first, garbage is
collected, and the collector is paused while the import runs), and prints
each tree's median import time and quartiles.  Modules outside
``invgen`` stay loaded, so this times invgen's own modules; without
``PYTHONDONTWRITEBYTECODE`` the trees' cached bytecode is read.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def source(tree: str) -> str:
    """The ``src`` directory of ``tree``."""
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isdir(os.path.join(src, "invgen")):
        raise SystemExit(f"error: no invgen sources under {src}")
    return src


def import_tree(src: str):
    """Import the invgen layers under ``src`` afresh; returns them and the
    seconds the import took.  The garbage that earlier rounds left is
    collected first and the collector is paused during the import, so that
    neither tree pays for a collection the other's garbage set off."""
    sys.path.insert(0, src)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        inv = run.load_invgen()
        seconds = time.perf_counter() - started
    finally:
        gc.enable()
        sys.path.remove(src)
    loaded = os.path.dirname(os.path.dirname(inv.cli.__file__))
    if os.path.realpath(loaded) != os.path.realpath(src):
        raise SystemExit(f"error: imported invgen from {loaded}, not {src}")
    return inv, seconds


def load(tree: str, workload: str, seed: int):
    """Import ``tree``'s invgen and build the workload's jobs with it; a
    job through the loopback solver runs ``tree``'s own loopback, which
    speaks the SMT-LIB2 that ``tree`` writes."""
    src = source(tree)
    inv, _ = import_tree(src)
    loopback = (sys.executable, os.path.join(os.path.dirname(src), "tests", "solvers",
                                             "loopback_smt.py"))
    jobs = [replace(job, solver=loopback) if job.solver else job
            for job in WORKLOADS[workload](inv.cli, seed)]
    return src, run.Client(inv, jobs)


def wins(mine, other) -> int:
    """The rounds in which ``mine`` is below ``other``."""
    return sum(1 for a, b in zip(mine, other) if a < b)


def alternate_imports(trees, rounds: int) -> None:
    srcs = [source(tree) for tree in trees]
    times = [[], []]
    for r in range(rounds):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[k].append(import_tree(srcs[k])[1])
    for k, tree in enumerate(trees):
        q1, q2, q3 = statistics.quantiles(times[k], n=4)
        print(f"{tree}: import p50 {q2 * 1e3:.2f} ms, quartiles {q1 * 1e3:.2f}-"
              f"{q3 * 1e3:.2f} ms, faster in {wins(times[k], times[1 - k])} of {rounds} rounds")
    ratio = statistics.median(times[1]) / statistics.median(times[0])
    print(f"import p50 ratio (second / first): {ratio:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(WORKLOADS))
    what.add_argument("--imports", action="store_true",
                      help="time fresh imports of the invgen layers instead")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("at least 2 rounds are needed for quartiles")
    if args.imports:
        alternate_imports(args.trees, args.rounds)
        return 0

    loaded = [load(tree, args.workload, args.seed) for tree in args.trees]
    passes = [[], []]
    p50s = [[], []]  # per round, the p50 of the pass's own analyses
    for r in range(args.rounds):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            src, client = loaded[k]
            # the loopback solver subprocess imports invgen too
            os.environ["PYTHONPATH"] = src
            first = len(client.outcomes)
            passes[k].append(client.one_pass())
            p50s[k].append(statistics.median(o.total_s for o in client.outcomes[first:]))

    for k, tree in enumerate(args.trees):
        client = loaded[k][1]
        q1, _, q3 = statistics.quantiles(p50s[k], n=4)
        print(f"{tree}: pass p50 {statistics.median(passes[k]) * 1e3:.2f} ms, "
              f"analysis p50 {statistics.median(o.total_s for o in client.outcomes) * 1e3:.3f} ms, "
              f"round p50 quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f} ms, "
              f"bounds p50 {statistics.median(o.bounds_s for o in client.outcomes) * 1e3:.3f} ms, "
              f"failed {client.failed} of {len(client.outcomes)}, "
              f"faster in {wins(passes[k], passes[1 - k])} of {args.rounds} rounds by pass, "
              f"{wins(p50s[k], p50s[1 - k])} by analysis p50")
    ratio = statistics.median(o.total_s for o in loaded[1][1].outcomes) / \
        statistics.median(o.total_s for o in loaded[0][1].outcomes)
    print(f"analysis p50 ratio (second / first): {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
