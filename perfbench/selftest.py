"""Tests of the benchmark itself, at tiny episode sizes.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

Every workload (the ungated ``chargepump_async`` too) must emit every
metric BENCHMARK.json names, with its unit, in both modes; every output
check must pass on a real episode and reject a deliberately corrupted
copy of it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import checks  # noqa: E402
from perfbench.run import tail  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def untraced(request):
    proc = _bench(request.param, 0)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(HERE, "out", f"{request.param}-trace0", "ep0-trace0.json")) as fh:
        episode = json.load(fh)
    return request.param, json.loads(proc.stdout.splitlines()[-1]), episode


def _assert_result(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))


def test_every_end_to_end_metric_emitted(untraced):
    _, result, _ = untraced
    _assert_result(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_metric_emitted(workload):
    proc = _bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    _assert_result(json.loads(proc.stdout.splitlines()[-1]), SPEC["per_layer"])


def test_checks_pass_on_a_real_episode(untraced):
    _, _, episode = untraced
    assert checks.run_all(episode["studies"]) == []


def _corruptions(study: dict):
    """(check name, corrupted copy) pairs applicable to one study."""
    out = []
    dup = copy.deepcopy(study)
    dup["asked_ids"][-1] = dup["asked_ids"][0]
    out.append(("unique_ids", dup))
    short = copy.deepcopy(study)
    short["told"].pop()
    short["committed"] -= 1
    out.append(("budget", short))
    swapped = copy.deepcopy(study)
    search = [i for i, (_, pid) in enumerate(swapped["told"]) if pid is not None]
    a, b = search[0], search[1]
    swapped["told"][a], swapped["told"][b] = swapped["told"][b], swapped["told"][a]
    out.append(("ledger_order", swapped))
    hidden = copy.deepcopy(study)
    hidden["ask_calls"] += 1  # an ask that neither returned nor was counted failed
    out.append(("attempts_counted", hidden))
    if "resumed_history" in study:
        lost = copy.deepcopy(study)
        lost["resumed_history"][-1][2] = repr(float(lost["resumed_history"][-1][2]) + 1.0)
        out.append(("resumed_history", lost))
    if "fake_clock" in study:
        early = copy.deepcopy(study)
        rows = sorted((r for r in early["fake_clock"] if r[2] is not None),
                      key=lambda r: r[2])
        rows[0][2], rows[1][2] = rows[1][2], rows[0][2]  # commit out of clock order
        out.append(("fake_clock_order", early))
        late = copy.deepcopy(study)
        late["fake_clock"][-1][1] += 1.0
        out.append(("fake_clock_order", late))
    return out


def test_each_check_rejects_a_corrupted_trace(untraced):
    workload, _, episode = untraced
    rejected = set()
    for study in episode["studies"]:
        for name, corrupted in _corruptions(study):
            assert checks.CHECKS[name](corrupted), f"{name} accepted a corrupted trace"
            assert checks.run_all([corrupted])
            rejected.add(name)
    expected = {"unique_ids", "budget", "ledger_order", "attempts_counted"}
    expected |= {"opamp_service": {"resumed_history"},
                 "chargepump_async": {"fake_clock_order"}}.get(workload, set())
    assert rejected == expected


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 41))  # 40 samples
    assert tail(values) == (30, 75.0)
    assert tail([5.0, 1.0]) == (5.0, 100.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(SPEC["workloads"][0]["name"], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
