"""The certified analysis of every corpus program and of ``gen_expo(1..4)``,
pinned byte for byte.

For each program, with and without ``--local-opt``, ``golden_corpus.json``
holds the ``--json`` report of ``analyze --check`` without its wall time,
and the ``--trace`` records.  The ``gen_expo`` entries pin the strategies
and step counts of the exponential family.  A change that is meant to alter
bounds, strategies or counts rewrites the file, so its diff shows what
moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import tempfile

from invgen.cli import analyze, emit_report, gen_expo

from conftest import corpus_files

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_corpus.json")
EXPO_SIZES = (1, 2, 3, 4)


def outputs_of(name, path, outputs):
    for flags in ("", " --local-opt"):
        trace = io.StringIO()
        report = analyze(path, local_opt=bool(flags), check=True, trace=trace)
        doc = json.loads(emit_report(report, "json"))
        del doc["stats"]["wall_ms"]
        outputs[name + flags] = {
            "report": doc,
            "trace": [json.loads(line) for line in trace.getvalue().splitlines()],
        }


def corpus_outputs():
    outputs = {}
    for path in corpus_files():
        outputs_of(os.path.basename(path), path, outputs)
    return outputs


def expo_outputs():
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in EXPO_SIZES:
            path = os.path.join(tmp, f"expo{n}.prg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(gen_expo(n))
            outputs_of(f"gen_expo({n})", path, outputs)
    return outputs


def match_golden(got, expo):
    with open(GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)
    assert list(got) == [name for name in want if name.startswith("gen_expo(") == expo]
    for name in got:
        assert got[name] == want[name], name


def test_corpus_outputs_match_the_golden_file():
    match_golden(corpus_outputs(), expo=False)


def test_expo_outputs_match_the_golden_file():
    match_golden(expo_outputs(), expo=True)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({**corpus_outputs(), **expo_outputs()}, handle, indent=1)
        handle.write("\n")
