"""Tests of the benchmark itself: python3 -m pytest -q bench

The smoke tests run every workload at tiny size, traced and untraced, and
check that every metric named in BENCHMARK.json is emitted with its unit
and that every output check passed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from compare import verdict  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if trace:
        for name in ("engine.replay_violations", "hypgraph.disagreements", "mcsim.row_mismatches"):
            assert result["metrics"][name]["value"] == 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    proc = run_bench(tmp_path, "audit", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90.0, 100)
    assert stats.tail(list(range(25))) == (14, 60.0, 25)
    assert stats.tail(list(range(20))) == (9, 50.0, 20)
    assert stats.tail([3, 1, 2]) == (2, 200.0 / 3, 3)


def test_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
    ]
    assert tracer.self_times() == [4.0, 2.0, 3.0, 1.0]
    summary = tracer.summary()
    assert summary["op"]["self_s"] == 4.0 and summary["op"]["total_s"] == 10.0


def test_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [x * 0.8 for x in parent]
    assert verdict(parent, faster, "lower", 0.1) == ("improved", 10)
    assert verdict(parent, list(parent), "lower", 0.1)[0] == "no worse"
    assert verdict(parent, [x * 1.2 for x in parent], "lower", 0.1)[0] == "worse"
    noisy = [50.0, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    assert verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1)[0] == "unresolved"
    assert verdict(parent, [x * 1.25 for x in parent], "higher", 0.1) == ("improved", 10)
