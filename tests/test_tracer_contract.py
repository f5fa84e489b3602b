"""The package surface that the benchmark's tracer, perfbench/tracer.py, wraps.

``perfbench/run.py --trace 1`` imports every layer module the tracer names
and wraps ``ProportionTable.ensure/count/prop`` with argument extractors of
the same signatures.  perfbench/test_perfbench.py runs traced passes but is
not part of this suite, so a rename here is caught by this test instead.
"""

import importlib
import inspect
from pathlib import Path

from symprop.proportions import ProportionTable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parameters(fn):
    """(name, kind, default) of each parameter after the first."""
    params = list(inspect.signature(fn).parameters.values())[1:]
    return [(p.name, p.kind, p.default) for p in params]


def test_tracer_layers_and_table_methods_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert len(tracer.LAYERS) == 8
    for layer in tracer.LAYERS:
        importlib.import_module(f"symprop.{layer}")
    extractors = {"ensure": tracer._row_of_ensure, "count": tracer._row_of_count,
                  "prop": tracer._row_of_count}
    assert set(tracer.TABLE_METHODS) == set(extractors)
    for method, extract in extractors.items():
        assert _parameters(getattr(ProportionTable, method)) == _parameters(extract)


# The tracer's sampler_run hook adds result.trials to sampler.draws.
CLI_SAMPLER_RUNS = {
    "estimate_order_divides": lambda fn: fn(6, 6, 10, seed=0),
    "estimate_case_event": lambda fn: fn(1, 5, "A", 10, seed=0),
    "search_cost_sim": lambda fn: fn(1, 2, n=5, seed=0),
}


def test_tracer_sampler_runs_report_int_trials(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    sampler = importlib.import_module("symprop.sampler")
    cli = importlib.import_module("symprop.cli")
    for name in CLI_SAMPLER_RUNS:
        assert name in tracer.SAMPLER_RUNS
        assert getattr(cli, name) is getattr(sampler, name)
    for name in tracer.SAMPLER_RUNS:
        if hasattr(sampler, name):
            result = CLI_SAMPLER_RUNS[name](getattr(sampler, name))
            assert type(result.trials) is int and result.trials >= 1, name
