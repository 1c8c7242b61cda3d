"""Tests of the benchmark itself: the tracer, the gate and the output contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
from setup_probe import check_sources  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Kill, Workload  # noqa: E402

check_sources()
import kmft  # noqa: E402
from kmft import checkpoint, simcluster  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# small enough to run in about a second, with one recovery and a mirror read
TINY = Workload(name="tiny", n=600, d=3, blobs=4, spread=2.0, k=6,
                method="samples", procs=3, spares=1, interval=2, iters=8,
                kills=(Kill(1, 5, "compute"),))


def _tiny_calls(seed: int = 1) -> bench.Calls:
    data, _ = kmft.make_blobs(TINY.n, TINY.d, TINY.blobs, TINY.spread, seed)
    return bench.Calls(kmft, TINY, data, seed)


def _bindings() -> dict:
    """Every attribute the tracer may patch, by identity."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "kmft" or name.startswith("kmft.")]
    owners += [simcluster.RankContext, simcluster.ClusterHandle,
               checkpoint.Checkpointer]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def _traced_ft(calls: bench.Calls):
    with Tracer() as tr:
        report = calls.ft()
    return tr, report


def test_every_wrapped_function_is_restored():
    before = _bindings()
    calls = _tiny_calls()
    tr, _ = _traced_ft(calls)
    assert tr.ops > 0
    assert _bindings() == before
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_two_det_traced_runs_give_identical_counts():
    calls = _tiny_calls()
    first, rep1 = _traced_ft(calls)
    second, rep2 = _traced_ft(calls)
    assert calls.check_ft(rep1) == [] and calls.check_ft(rep2) == []
    assert first.calls == second.calls
    assert first.counts == second.counts
    assert first.counts["checkpoint.fetch.mirror_reads"] == 1   # the replacement
    assert first.counts["runtime.detect_failures.positive"] > 0


def test_program_and_simulator_time_add_up_to_the_traced_wall():
    tr, _ = _traced_ft(_tiny_calls())
    assert tr.program_ns + tr.sim_ns == tr.wall_ns
    assert 0 < tr.program_ns < tr.wall_ns
    # one rank thread at a time: their program time fits inside the run
    assert 0 < tr.rank_between_ops_ns <= tr.world_sim_ns
    spanned = sum(tr.module_self_ns(m) for m in ("kmeans", "parallel", "checkpoint"))
    assert 0 < spanned <= tr.program_ns


def test_a_call_without_the_simulator_is_all_program_time():
    calls = _tiny_calls()
    with Tracer() as tr:
        calls.lockstep()
    assert tr.ops == 0 and tr.sim_ns == 0
    assert tr.program_ns == tr.wall_ns
    assert tr.calls["parallel.samples_compute"] == TINY.procs * TINY.iters


def test_traced_run_reports_overhead_and_every_per_layer_metric(tmp_path):
    calls = _tiny_calls()
    metrics, tally, lines = bench.traced(kmft, TINY, calls.data, 1, 0.0, tmp_path)
    assert (tally.attempted, tally.failed) == (2 * bench.MIN_TRACED, 0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert "trace.overhead_frac" in metrics
    assert metrics["runtime.program_s"] + metrics["simcluster.self_s"] == \
        pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert sum(bench.split(metrics).values()) == \
        pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["runtime.recoveries"] == 1
    assert any(line.startswith("split of traced wall") for line in lines)


def test_gate_rejects_a_wrong_result_and_a_changed_ledger():
    calls = _tiny_calls()
    report = calls.ft()
    assert calls.check_ft(report) == []
    assign = report.outcome.table.assign
    assign[0] = (assign[0] + 1) % TINY.k
    assert calls.check_ft(report) == ["assignments differ from the oracle"]
    assign[0] = (assign[0] - 1) % TINY.k
    report.outcome.ledger[0] = {}
    assert calls.check_ft(report) == ["tick ledger differs from the first repetition"]


def test_second_seed_keeps_every_workload_in_its_role():
    churn = WORKLOADS["churn-samples"]
    data, _ = kmft.make_blobs(churn.n, churn.d, churn.blobs, churn.spread, 2)
    calls = bench.Calls(kmft, churn, data, 2)
    report = calls.ft()
    assert calls.check_ft(report) == []
    assert report.outcome.recoveries == len(churn.kills) == 3

    bulk = WORKLOADS["bulk-centers"]
    data, _ = kmft.make_blobs(bulk.n, bulk.d, bulk.blobs, bulk.spread, 2)
    calls = bench.Calls(kmft, bulk, data, 2)
    assert calls.oracle_still_moving()
    lockstep = calls.lockstep()
    assert calls.check_lockstep(lockstep) == []
    assert sum(lockstep.transfers) > 0


def test_scaled_time_follows_the_reference_kernel():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(1.0, ref, ref) == 1.0
    # a host half as fast doubles both the call and the kernel
    assert hostspeed.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert hostspeed.scale(1.0, ref, 3 * ref) == pytest.approx(0.5)
    assert 0 < hostspeed.kernel_seconds() < 1.0


def test_every_call_is_timed_between_two_kernel_runs(monkeypatch):
    readings = iter([0.010, 0.020, 0.030])
    monkeypatch.setattr(bench, "kernel_seconds", lambda: next(readings))
    tally = bench.Tally()
    wall, scaled, value = tally.call("x", lambda: 7, lambda v: [])
    assert value == 7
    assert scaled == pytest.approx(wall * hostspeed.REFERENCE_S / 0.015)
    wall, scaled, _ = tally.call("y", lambda: 8, lambda v: ["wrong"])
    assert scaled == pytest.approx(wall * hostspeed.REFERENCE_S / 0.025)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_output_meets_the_contract():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "wide-centers",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * bench.DATASETS
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "host {" in done.stdout and "failed_frac" in done.stdout
    assert "ft_wall_s (raw)" in done.stdout


def test_a_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "wide-centers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
