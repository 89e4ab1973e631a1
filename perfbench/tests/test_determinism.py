"""Determinism self-test of the simulator workloads.

Two traced rounds of a workload at one seed, each in its own interpreter
with its own hash seed, must give identical per-layer call counts,
per-layer counters and simulated-time results; another seed must change
the generated inputs.  Workloads run at reduced sizes so the test takes
seconds.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: workload name -> constructor call at test size, formatted with the seed.
SMALL = {
    "stream_echo": "perfbench.stream_echo.StreamEcho({seed}, bursts=2)",
    "graph_kv": "perfbench.graph_kv.GraphKv({seed}, graphs=2, reference_graphs=4)",
    "load_kv": "perfbench.load_kv.LoadKv({seed}, ladder=(1600.0,), reference=1600.0, round_duration=0.5)",
}

_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {checkout!r}]
import perfbench.graph_kv, perfbench.load_kv, perfbench.stream_echo
from perfbench.runner import one_round
workload = {make}
one_round(workload, traced=False)  # fill lazy caches first
r = one_round(workload, traced=True)
print(json.dumps({{
    "calls": {{layer: entry["calls"] for layer, entry in r.layers.items()}},
    "taps": r.taps,
    "counters": r.counters,
    "sim": r.sim,
    "attempted": r.attempted,
    "failed": r.failed,
}}, sort_keys=True))
"""


def _traced_round(name: str, seed: int, hash_seed: str) -> dict:
    script = _SCRIPT.format(
        src=os.path.join(CHECKOUT, "src"),
        checkout=CHECKOUT,
        make=SMALL[name].format(seed=seed),
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_repeats_exactly(name):
    first = _traced_round(name, 7, "1")
    second = _traced_round(name, 7, "2")
    assert first["failed"] == 0 and first["attempted"] > 0
    assert first == second


@pytest.mark.parametrize("name", sorted(SMALL))
def test_other_seed_changes_the_run(name):
    assert _traced_round(name, 7, "1")["sim"] != _traced_round(name, 8, "1")["sim"]


def test_other_seed_changes_generated_inputs():
    sys.path[:0] = [os.path.join(CHECKOUT, "src"), CHECKOUT]
    from perfbench.graph_kv import GraphKv
    from perfbench.stream_echo import StreamEcho

    assert StreamEcho(7, bursts=1).args != StreamEcho(8, bursts=1).args
    assert StreamEcho(7, bursts=1).args == StreamEcho(7, bursts=1).args
    assert GraphKv(7, graphs=1).plans[0].keys != GraphKv(8, graphs=1).plans[0].keys
