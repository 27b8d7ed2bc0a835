"""Smoke test of the pma benchmark at desk scale (E <= 8, about one op per
workload). Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pma  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0",
         "--smoke", *args], capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, kind):
    """Also covers the traced-versus-untraced check: a traced op whose
    counts or digests differ from the untraced op fails the run."""
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    combined = _bench("--workload", "all", "--trace", str(trace))
    assert list(combined) == NAMES
    for name, result in combined.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, name
        values = [v["value"] for v in result["metrics"].values()]
        assert all(isinstance(v, (int, float)) for v in values), name


def test_corrupted_decode_fails_ops(monkeypatch):
    original = pma.pma1.decode

    def corrupted(answers, params):
        return (original(answers, params) + 1) % (params.m + 1)

    monkeypatch.setattr(pma.pma1, "decode", corrupted)
    w = workloads.tiny(workloads.WORKLOADS["query-e4"])
    _, detail, tally = run.measure_end_to_end(w, 3, 0, smoke=True)
    assert tally.failed > 0
    assert detail["failed_ratio"][0] > 0
    assert run.result_line({}, tally)["correct"] is False


def test_traced_run_reproduces_untraced_digests():
    w = workloads.tiny(workloads.WORKLOADS["collusion-wide"])
    metrics, detail, tally = run.measure_layers(w, 3, 0)
    assert tally.attempted == 2 and tally.failed == 0
    assert detail["absent_layers"][0] == []
    assert metrics["field.solve_calls"][0] == w.e
    assert metrics["trace.overhead_ratio"][0] > 0


def test_vanished_function_reports_layer_absent(monkeypatch):
    monkeypatch.delattr(pma.spma2, "aggregate")  # as after a refactor
    w = workloads.tiny(workloads.WORKLOADS["collusion-wide"])
    _, detail, tally = run.measure_layers(w, 3, 0)
    assert tally.failed == 0
    assert detail["absent_layers"][0] == ["spma2.aggregate_s"]


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
