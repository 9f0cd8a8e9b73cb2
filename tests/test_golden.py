"""The certified analysis of every corpus program, pinned byte for byte.

For each program, with and without ``--local-opt``, ``golden_corpus.json``
holds the ``--json`` report of ``analyze --check`` without its wall time,
and the ``--trace`` records.  A change that is meant to alter bounds,
strategies or counts rewrites the file, so its diff shows what moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os

from invgen.cli import analyze, emit_report

from conftest import corpus_files

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_corpus.json")


def corpus_outputs():
    outputs = {}
    for path in corpus_files():
        for flags in ("", " --local-opt"):
            trace = io.StringIO()
            report = analyze(path, local_opt=bool(flags), check=True, trace=trace)
            doc = json.loads(emit_report(report, "json"))
            del doc["stats"]["wall_ms"]
            outputs[os.path.basename(path) + flags] = {
                "report": doc,
                "trace": [json.loads(line) for line in trace.getvalue().splitlines()],
            }
    return outputs


def test_corpus_outputs_match_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)
    got = corpus_outputs()
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(corpus_outputs(), handle, indent=1)
        handle.write("\n")
