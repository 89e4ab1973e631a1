"""Behaviour fingerprints: committed hashes of three full event traces.

The golden-trace test compares two runs of the *same* code, so it cannot
catch a change that is deterministic but different.  These tests pin the
Fig 3-1 grades trace and two chaos-corpus traces (``kv`` and the promise
graph's ``kv_graph``) against sha256 digests recorded on a known-good
tree: any change to event order, simulated time, wire traffic or span
identity moves a digest.

Process bookkeeping is deliberately left out of the fingerprint:
``process.*`` events and ``pid`` fields describe how the runtime maps work
onto simulated processes, not what the system does, so a change that only
runs handlers on fewer processes keeps the same fingerprint.

To re-record after an intended behaviour change, print the current digests
with ``PYTHONPATH=src python -m tests.obs.test_behaviour_fingerprint`` and
say in the change log why the fingerprint moved.
"""

import hashlib
import json
import os

from repro.chaos.engine import run_one
from repro.chaos.schedule import ChaosSchedule
from repro.chaos.seeds import load_seed

from .test_golden_trace import N_STUDENTS, run_traced_grades

CORPUS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "chaos", "seeds"
)
KV_SEED = os.path.join(CORPUS, "kv-seed3-default.json")
KV_GRAPH_SEED = os.path.join(CORPUS, "kv_graph-seed3-default.json")

#: sha256 of the filtered Fig 3-1 trace (N_STUDENTS students).
GRADES_FINGERPRINT = (
    "8e39d753c5935ba8f60fc8ac558792eb0d72d2f3a27e12d409200fda946aa4ba"
)
#: sha256 of the filtered trace of the kv-seed3-default corpus replay.
KV_FINGERPRINT = (
    "a0efe4b09e2601ed9261f0ae05ff3f86cbc9e1ab1427b34a72a769cfe84d293e"
)
#: sha256 of the filtered trace of the kv_graph-seed3-default corpus replay.
KV_GRAPH_FINGERPRINT = (
    "b9f8f93cd7cbeb6cb93d68d80e44b1b5ee6d1715f414a09435c69ec66e8f5ce1"
)


def fingerprint(records):
    """sha256 over ``{"t", "type", **fields}`` records, minus process
    bookkeeping (``process.*`` events and ``pid`` fields)."""
    digest = hashlib.sha256()
    for record in records:
        if record["type"].startswith("process."):
            continue
        kept = {key: value for key, value in record.items() if key != "pid"}
        digest.update(json.dumps(kept, default=repr).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def grades_fingerprint():
    return fingerprint(
        dict({"t": time, "type": etype}, **fields)
        for time, etype, fields in run_traced_grades(N_STUDENTS)
    )


def corpus_fingerprint(seed_path, trace_path):
    """Fingerprint of the trace of one chaos-corpus seed's replay."""
    record = load_seed(seed_path)
    run_one(
        record["workload"],
        int(record["seed"]),
        intensity=record["intensity"],
        schedule=ChaosSchedule.from_dict(record["schedule"]),
        trace_path=trace_path,
    )
    with open(trace_path) as handle:
        return fingerprint(json.loads(line) for line in handle)


def test_grades_trace_fingerprint():
    assert grades_fingerprint() == GRADES_FINGERPRINT


def test_kv_corpus_trace_fingerprint(tmp_path):
    trace_path = str(tmp_path / "kv.jsonl")
    assert corpus_fingerprint(KV_SEED, trace_path) == KV_FINGERPRINT


def test_kv_graph_corpus_trace_fingerprint(tmp_path):
    trace_path = str(tmp_path / "kv_graph.jsonl")
    assert corpus_fingerprint(KV_GRAPH_SEED, trace_path) == KV_GRAPH_FINGERPRINT


def test_fingerprint_ignores_only_process_bookkeeping():
    base = [{"t": 1.0, "type": "stream.call_executing", "seq": 1, "pid": 7}]
    assert fingerprint(base) == fingerprint(
        [{"t": 1.0, "type": "process.created", "pid": 3, "name": "x"},
         {"t": 1.0, "type": "stream.call_executing", "seq": 1, "pid": 9}]
    )
    assert fingerprint(base) != fingerprint(
        [{"t": 1.0, "type": "stream.call_executing", "seq": 2, "pid": 7}]
    )
    assert fingerprint(base) != fingerprint(
        [{"t": 1.5, "type": "stream.call_executing", "seq": 1, "pid": 7}]
    )


if __name__ == "__main__":
    # Prints the grades fingerprint and one per corpus seed; diffing this
    # output between two trees shows whether their filtered traces agree.
    import tempfile

    from repro.chaos.seeds import corpus_paths

    print("grades", grades_fingerprint())
    with tempfile.TemporaryDirectory() as scratch:
        trace_path = os.path.join(scratch, "trace.jsonl")
        for seed_path in corpus_paths(CORPUS):
            print(
                os.path.basename(seed_path),
                corpus_fingerprint(seed_path, trace_path),
            )
