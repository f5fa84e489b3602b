"""Self-test of the benchmark, at the tiny workload size.

    python3 -m pytest perfbench/test_perfbench.py -q

Takes about half a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def metric_units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload):
    plain = run.measure(workload, seed=1, seconds=0, trace=False, size="tiny")
    assert metric_units(plain) == run.END_TO_END
    assert plain["attempted"] == len(workloads.build(workload, 1, 0, "tiny"))
    assert plain["correct"]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.measure(workload, seed=1, seconds=0, trace=True, size="tiny")
    assert metric_units(traced) == run.PER_LAYER
    assert traced["metrics"]["cli.ops"]["value"] > 0


def test_wrong_digest_counts_as_failed_op(tmp_path):
    data = json.loads(run.EXPECTED.read_text())
    entry = data["ops"]["table2"]
    entry["sha256"] = "0" * 64
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(data))

    good = run.measure("exact-sweep", seed=1, seconds=0, trace=False, size="tiny")
    spoilt = run.measure("exact-sweep", seed=1, seconds=0, trace=False, size="tiny",
                         expected=bad)
    assert spoilt["attempted"] == good["attempted"]
    assert spoilt["failed"] == good["failed"] + 1
    assert not spoilt["correct"]
    assert spoilt["metrics"]["ops_ok"]["value"] < good["metrics"]["ops_ok"]["value"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "emit-rows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
