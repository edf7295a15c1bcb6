"""The benchmark's output oracles on one block of each workload (seed 11).

``bench/workloads.py`` is loaded read-only from its file, with no bytecode
written next to it; the work files of its set-ups go under ``tmp_path``.  An
output that breaks a benchmark oracle therefore fails here too.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import indval as iv

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", ["Valuation", "KeysLadder", "FiniteFields", "CliSession"])
def test_one_block_passes_the_oracle(workloads, name, tmp_path):
    wl = getattr(workloads, name)()
    ctx = wl.setup(iv, str(tmp_path))
    specs = wl.generate(random.Random(11), 1)
    assert len(specs) == wl.block
    for spec in specs:
        op = wl.prepare(iv, ctx, spec)
        out = wl.run(iv, ctx, op)
        assert wl.check(iv, ctx, op, out) is None, (name, spec)
