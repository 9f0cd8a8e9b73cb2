"""Benchmark inputs and the independent reference bound of each one.

A workload is a list of jobs, analysed in turn; one pass over the list is
the benchmark's unit of repetition.  Every job carries the exact bounds
the analysis must print, obtained without strategy iteration:

* ``corpus`` and ``expo`` read them from ``reference.json``, written by
  ``make_reference.py`` from plain Kleene iteration and from values
  derived by hand where Kleene iteration never stops;
* ``diamonds`` computes them here, by Kleene iteration over intervals:
  every atom of that family mentions the one variable, so interval
  arithmetic along each path is exact.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS_DIR = os.path.join(ROOT, "tests", "corpus")
LOOPBACK = os.path.join(ROOT, "tests", "solvers", "loopback_smt.py")
REFERENCE = os.path.join(HERE, "reference.json")

# improvement steps of gen_expo(n) as published; a run may differ by 3
EXPO_REPORTED_STEPS = {1: 5, 2: 7, 3: 11}
STEP_TOLERANCE = 3


@dataclass(frozen=True)
class Job:
    name: str
    text: str
    reference: str                     # canonical JSON of {node: {label: bound}}
    solver: Optional[Tuple[str, ...]] = None  # None: the internal backend
    steps: Optional[int] = None        # published improvement steps


def canonical(bounds: Dict[str, Dict[str, str]]) -> str:
    return json.dumps(bounds, sort_keys=True, separators=(",", ":"))


def _load_reference() -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def corpus_jobs(cli, seed: int) -> List[Job]:
    """The twelve corpus programs named in ``reference.json`` with the
    internal backend, then ``strict_guard`` through the bundled SMT-LIB2
    loopback subprocess."""
    ref = _load_reference()["corpus"]
    jobs = [Job(n, _read(os.path.join(CORPUS_DIR, n)), canonical(ref[n])) for n in sorted(ref)]
    random.Random(seed).shuffle(jobs)
    loopback = (sys.executable, LOOPBACK)
    name = "strict_guard.prg"
    jobs.append(Job(f"{name}@loopback", _read(os.path.join(CORPUS_DIR, name)),
                    canonical(ref[name]), solver=loopback))
    return jobs


# n = 2 runs twice a pass, so that the median analysis time is the median of
# twice as many gen_expo(2) samples
EXPO_PASS = (1, 2, 2, 3)


def expo_jobs(cli, seed: int) -> List[Job]:
    ref = _load_reference()["expo"]
    jobs = [Job(f"gen_expo({n})", cli.gen_expo(n), canonical(ref[str(n)]),
                steps=EXPO_REPORTED_STEPS[n])
            for n in EXPO_PASS]
    random.Random(seed).shuffle(jobs)
    return jobs


# -- the diamonds family -------------------------------------------------------

@dataclass(frozen=True)
class Diamond:
    """``(x <= c & x' = x + up | c <= x & x' = x - down)``."""

    c: int
    up: int
    down: int


def _shapes() -> List[Tuple[int, Tuple[Diamond, ...]]]:
    """The nine programs of one pass before the seed moves them: three
    with k = 3 diamonds, five with k = 4 (the median analysis falls in
    the middle of these) and one with k = 5."""
    rng = random.Random(1209)
    shapes = []
    for k in (3, 3, 3, 4, 4, 4, 4, 4, 5):
        shapes.append((rng.randint(-3, 3),
                       tuple(Diamond(rng.randint(-9, 9), 1, 1) for _ in range(k))))
    return shapes


SHAPES = _shapes()


def _moved(init: int, diamonds: Sequence[Diamond], scale: int, shift: int):
    """The same program under x -> scale * x + shift (scale > 0): every
    constant and bound changes, the paths that are feasible do not, so
    the work of one pass stays the same from seed to seed."""
    return (scale * init + shift,
            tuple(Diamond(scale * d.c + shift, scale * d.up, scale * d.down)
                  for d in diamonds))


def _diamond_program(init: int, diamonds: Sequence[Diamond]) -> str:
    k = len(diamonds)
    mids = [f"m{i}" for i in range(1, k)]
    chain = ["h"] + mids + ["h"]
    lines = [
        f"# loop head h, body a chain of {k} two-way diamonds",
        "vars x ;",
        "template interval ;",
        "nodes st h " + " ".join(mids) + " ;",
        "start st ;",
        f"edge st -> h : x' = {init} ;",
    ]
    for i, dm in enumerate(diamonds):
        src, dst = chain[i], chain[i + 1]
        lines.append(f"edge {src} -> {dst} : x <= {dm.c} & x' = x + {dm.up} ;")
        lines.append(f"edge {src} -> {dst} : {dm.c} <= x & x' = x - {dm.down} ;")
    return "\n".join(lines) + "\n"


def _bound(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def diamond_reference(init: int, diamonds: Sequence[Diamond],
                      max_steps: int = 10_000) -> Dict[str, Dict[str, str]]:
    """Least interval invariant at ``h`` by Kleene iteration, following
    every one of the 2^k paths separately (as the folded edge does) and
    joining only at the loop head.  Each atom has one variable, so the
    image of an interval along a path is an interval, computed exactly."""
    start = (Fraction(init), Fraction(init))
    head = start
    for _ in range(max_steps):
        frontier: List[Tuple[Fraction, Fraction]] = [head]
        for dm in diamonds:
            nxt = []
            for lo, hi in frontier:
                if lo <= dm.c:      # x <= c, then x + up
                    nxt.append((lo + dm.up, min(hi, Fraction(dm.c)) + dm.up))
                if dm.c <= hi:      # c <= x, then x - down
                    nxt.append((max(lo, Fraction(dm.c)) - dm.down, hi - dm.down))
            frontier = nxt
        new = (min([start[0]] + [lo for lo, _ in frontier]),
               max([start[1]] + [hi for _, hi in frontier]))
        if new == head:
            break
        head = new
    else:
        raise RuntimeError("Kleene iteration over intervals did not converge")
    return {"st": {"x": "inf", "-x": "inf"},
            "h": {"x": _bound(head[1]), "-x": _bound(-head[0])}}


def diamond_jobs(cli, seed: int) -> List[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, (init, diamonds) in enumerate(SHAPES):
        init, diamonds = _moved(init, diamonds, rng.randint(1, 3), rng.randint(-20, 20))
        jobs.append(Job(f"diamonds[{i}] k={len(diamonds)}", _diamond_program(init, diamonds),
                        canonical(diamond_reference(init, diamonds))))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"corpus": corpus_jobs, "expo": expo_jobs, "diamonds": diamond_jobs}
