"""The benchmark's own tests, on the reduced world (``WorldConfig.small()``).

They check the contract, not the numbers: every metric of
``BENCHMARK.json`` is emitted with its unit by every workload in both
modes, and the correctness gates refuse a tampered reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import batch, common, run, service
from repro.core.annotator import EntityAnnotator
from repro.core.results import TableAnnotation
from repro.synth.world import WorldConfig

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_names_the_runnable_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    work = ROOT / ".perfbench_work"
    before = set(work.glob("*"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = run.declared_metrics("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    assert set(work.glob("*")) <= before, "work files left behind"


def _tamper(monkeypatch):
    """Make in-process annotate_table (the gates' reference) drop a cell."""
    original = EntityAnnotator.annotate_table

    def tampered(self, table, type_keys):
        annotation = original(self, table, type_keys)
        return TableAnnotation(table_name=annotation.table_name, cells=annotation.cells[1:])

    monkeypatch.setattr(EntityAnnotator, "annotate_table", tampered)


def test_gft_cold_gate_catches_a_tampered_reference(monkeypatch, tmp_path):
    _tamper(monkeypatch)
    with pytest.raises(common.GateFailure):
        batch.gft_cold(WorldConfig.small(seed=3), 0.1, None, common.WorkDir(tmp_path))


def test_service_gate_catches_a_tampered_reference(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)  # the daemon's socket path is relative
    _tamper(monkeypatch)
    work = common.WorkDir(ROOT / ".perfbench_work" / f"test-{tmp_path.name}")
    try:
        with pytest.raises(common.GateFailure):
            service.service_open(WorldConfig.small(seed=3), 0.5, None, work)
    finally:
        work.cleanup()


def test_failed_gate_prints_no_numbers(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    _tamper(monkeypatch)
    status = run.main(["--workload", "gft_cold", "--seed", "3", "--seconds", "0.1", "--small"])
    assert status == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}
