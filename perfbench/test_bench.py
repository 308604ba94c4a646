"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_bench.py -q

Runs every workload through run.py, untraced and traced, at the tiny
scale, and checks the result line against BENCHMARK.json.  It takes about
40 s on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from tracing import Span, fold_durations, self_times, tail_percentile  # noqa: E402


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)["detail"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "git_commit"):
        assert key in detail["machine"]
    assert detail["seed"] == 3 and detail["radiomics_threads"] >= 1
    assert detail["output_sha256"]

    if not trace:
        assert all(v > 0 for v in values.values())
        stage = detail["stage_metrics"]
        assert stage["fail_ratio"] == 0.0 and stage["folds_per_s"] > 0
        assert ("volumes_per_s" in stage) == (workload == "pipeline-survive")
        return
    # the layer table of README.md: which layers run on which workload
    imaging = workload == "pipeline-survive"
    for name in ("gmm.em_fits", "cnn.macs", "volume.bytes_read", "plots.km_svg_ms",
                 "survival.km_ms", "pipeline.thread_speedup"):
        assert (values[name] > 0) == imaging, name
    assert values["forest.trees_grown"] > 0
    if imaging:
        assert values["volume.mask_loads_per_patient"] == 1
        assert values["pipeline.cache_hit_ratio"] == 0.75
        assert values["forest.kept_tree_ratio"] == 1.0
    else:
        assert 0 < values["forest.kept_tree_ratio"] < 0.5


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _span(sid, name, parent, start, end, **attrs):
    return Span(sid, name, parent, start, end, "r", attrs)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, "a", None, 0.0, 10.0),
        _span(2, "b", 1, 1.0, 4.0),
        _span(3, "c", 1, 3.0, 6.0),  # overlaps b, as worker threads do
        _span(4, "d", 3, 3.5, 5.0),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 3.0, 3: 1.5, 4: 1.5}


def test_fold_durations_end_at_each_held_out_prediction():
    spans = [
        _span(1, "forest.loocv", None, 0.0, 10.0, rows=3),
        _span(2, "forest.rf_train", 1, 0.0, 1.0, rows=1, trees=5),  # inner grid
        _span(3, "forest.rf_predict", 1, 1.0, 1.5),
        _span(4, "forest.rf_train", 1, 1.5, 3.0, rows=2, trees=5),  # final model
        _span(5, "forest.rf_predict", 1, 3.0, 4.0),
        _span(6, "forest.rf_train", 1, 4.0, 6.0, rows=2, trees=5),
        _span(7, "forest.rf_predict", 1, 6.0, 7.0),
    ]
    assert fold_durations(spans) == [4.0, 3.0]


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert tail_percentile(5) == 50
    assert tail_percentile(20) == 50
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
