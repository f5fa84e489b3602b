"""The monte-carlo workload of the benchmark, replayed against its frozen oracle.

``perfbench/test_perfbench.py`` is not part of this suite, so a sampler
change that alters an exact target field, or a draw sequence that drops
a 4-sigma verdict on the benchmark's own seeds, would otherwise show only
when the benchmark runs.  This test runs the first three passes of
``perfbench/run.py --seed 1`` through the worker's own ``run_op`` and
``judge``, reading ``perfbench/`` only.
"""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("pass_index", [0, 1, 2])
def test_monte_carlo_passes_match_the_oracle(monkeypatch, pass_index):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    expected = json.loads((PERFBENCH / "expected.json").read_text())["ops"]
    for op in worker.workloads.build("monte-carlo", 1, pass_index):
        status, out, err, _ = worker.run_op(op)
        ok, _, why = worker.judge(op, status, out, err, expected)
        assert ok, f"{op.key}: {why}"
