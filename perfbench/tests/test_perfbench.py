"""Self-tests of the benchmark: the output gate, self-time arithmetic, traced output.

    python3 -m pytest -q perfbench/tests

Run from the root of a source checkout.  They start small CLI calls, so
they take a few seconds, plus two one-second benchmark runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import HELP_ARGV, HELP_SHA256  # noqa: E402

ENV = run.pinned_env()


def _corrupt(digest: str) -> str:
    return digest[:-1] + ("0" if digest[-1] != "0" else "1")


def test_gate_accepts_the_recorded_digest_and_rejects_a_corrupted_one():
    call = run.cli_call("setup", HELP_ARGV, ENV)
    assert run.gate(call, 0, HELP_SHA256).ok
    assert not run.gate(call, 0, _corrupt(HELP_SHA256)).ok
    assert not run.gate(call, 1, HELP_SHA256).ok


def test_failed_calls_are_not_timed_and_count_as_failed():
    good = run.Call("workload", 2.0, 2.0, 20.0, 0, b"", ok=True)
    bad = run.Call("workload", 0.1, 0.1, 20.0, 0, b"", ok=False)
    probe = run.Call("setup", 0.05, 0.05, 18.0, 0, b"", ok=True)
    workload = run.WORKLOADS["oracle-eq3-20"]
    metrics, notes = run.end_to_end(workload, [good, bad, probe])
    assert metrics["wall_s"] == 2.0
    assert notes["fail_ratio"] == 1 / 3


def _span(name, start, end, parent, tracer_s=0.0, info=None):
    return Span(name, start, end, parent, "test", tracer_s, info)


def test_self_time_of_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0, tracer_s=1.0),
        # overlaps b and runs past the root's end: clipped, not counted twice
        _span("c", 8.0, 11.0, 0),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 3.0, 3.0])


def test_layer_metrics_split_log_products_from_exponential_products():
    pp = {"pair_products": 5}
    spans = [
        _span("cli", 0.0, 10.0, None),
        _span("freealgebra.bch_series", 1.0, 9.0, 0, info={"table_entries": 7}),
        _span("freealgebra.series_multiply", 1.0, 2.0, 1, info=pp),
        _span("freealgebra.series_log1p", 2.0, 8.0, 1),
        _span("freealgebra.series_multiply", 2.0, 5.0, 3, info=pp),
        _span("freealgebra.series_multiply", 5.0, 7.5, 3, info=pp),
    ]
    metrics = layers.layer_metrics(spans)
    assert metrics["freealgebra.log_horner.calls"] == 2
    assert metrics["freealgebra.log_horner.self_s"] == pytest.approx(0.5 + 3.0 + 2.5)
    assert metrics["freealgebra.exp_product.self_s"] == pytest.approx(1.0 + 1.0)
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["freealgebra.series_multiply.pair_products"] == 15
    assert metrics["freealgebra.series_multiply.pair_products_per_s"] == pytest.approx(15 / 6.5)
    assert metrics["freealgebra.series.table_entries"] == 7
    total = sum(metrics[name] for name in set(layers.SELF_TIME_METRIC.values()))
    assert total == pytest.approx(10.0)


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--what", "minimal", "--max", "8", "--parallelism", "1"],
        ["verify", "--what", "minimal", "--max", "8", "--backend", "dp", "--parallelism", "2"],
        ["table", "--degree", "5", "--backend", "dp", "--format", "json", "--parallelism", "1"],
        ["verify", "--what", "eq3", "--max", "10", "--parallelism", "1"],
    ],
)
def test_traced_stdout_is_byte_identical_to_untraced(args, tmp_path):
    plain = run.cli_call("workload", args, ENV)
    traced, spans, _ = run.traced_cli("traced", ["--", *args], ENV, "test", tmp_path / "spans.json")
    assert plain.exit_code == traced.exit_code == 0
    assert traced.stdout == plain.stdout
    assert spans[0].name == layers.ROOT_SPAN
    assert all(s.run_id == "test" for s in spans)
    assert len(spans) > 1


def test_wrappers_reach_every_importing_module(tmp_path):
    # table --backend dp reaches bch_coeff_word through bch's own binding and
    # common_denominator through both cli's module attribute and bch's import
    args = ["table", "--degree", "5", "--backend", "dp", "--format", "json", "--parallelism", "1"]
    _, spans, _ = run.traced_cli("traced", ["--", *args], ENV, "test", tmp_path / "spans.json")
    metrics = layers.layer_metrics(spans)
    assert metrics["freealgebra.bch_coeff_word.calls"] == 32
    assert metrics["numtheory.common_denominator.calls"] == 32 + 1
    assert metrics["numtheory.factorization.calls"] == 32


def test_pool_scans_are_seen_from_the_parent_only(tmp_path):
    args = ["verify", "--what", "minimal", "--max", "6", "--backend", "dp", "--parallelism", "2"]
    _, spans, _ = run.traced_cli("traced", ["--", *args], ENV, "test", tmp_path / "spans.json")
    scans = layers.pool_scans(spans)
    assert sorted(s.info["n"] for s in scans) == [1, 2, 3, 4, 5, 6]
    assert layers.layer_metrics(spans)["freealgebra.bch_coeff_word.calls"] == 0
    call, reference = run.serial_scan(6, 2, ENV, tmp_path / "serial.json")
    assert call.ok and reference.name == "serial-scan"
    efficiency = layers.layer_metrics(spans, (6, reference.end - reference.start))
    assert efficiency["bch.scan.parallel_efficiency"] > 0


def _bench(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_short_run_reports_every_declared_metric(trace, section):
    root = BENCH_DIR.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())[section]
    done = _bench("--workload", "oracle-eq3-20", "--seed", "7", "--seconds", "1", "--trace", str(trace), cwd=root)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    root = BENCH_DIR.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "dp-table13", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
