"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {
    "oracle_sweep": workloads.Plan("oracle_sweep", rounds=2, cases=40, vertices=4),
    "b2_sweep": workloads.Plan("b2_sweep", rounds=2, cases=10, vertices=4),
    "certify_corpus": workloads.Plan(
        "certify_corpus", rounds=2, graphs=("tri345", "grid4")
    ),
}


def _units(result_spec: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[result_spec]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_every_metric_with_its_unit(
    workload, trace, kind, monkeypatch, capsys
):
    monkeypatch.setattr(workloads, "plan_for", lambda w, s: TINY[w])
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(kind)
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, runner",
    [("oracle_sweep", workloads.run_oracle_sweep), ("b2_sweep", workloads.run_b2_sweep)],
)
def test_seed_changes_the_sample_but_not_the_metrics(workload, runner):
    mods, _ = run.set_up(workload)
    plan = TINY[workload]
    one, two = runner(mods, plan, 1), runner(mods, plan, 2)
    assert set(one.unit_times) != set(two.unit_times)
    assert set(runner(mods, plan, 1).unit_times) == set(one.unit_times)
    assert run.end_to_end(one, 1.0).keys() == run.end_to_end(two, 1.0).keys()


def test_corrupted_expected_output_counts_as_failed(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(workloads.EXPECTED_DIR, expected)
    target = expected / "tri345.json"
    target.write_text(target.read_text().replace('"girth": 6', '"girth": 7'))
    plan = TINY["certify_corpus"]
    info, result = run.run(
        "certify_corpus", 1, 1, 0, plan=plan, expected_dir=str(expected)
    )
    assert not result["correct"]
    assert result["failed"] == plan.rounds  # tri345 once per round
    assert result["attempted"] == plan.rounds * len(plan.graphs)
    assert f"failed_frac {plan.rounds / result['attempted']:.6f}" in "\n".join(info)


def test_traced_counts_repeat_exactly_and_bindings_are_restored():
    mods, paths = run.set_up("certify_corpus")
    batteries = mods["batteries"]
    original = batteries.girth
    plan = TINY["certify_corpus"]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run.measure(mods, plan, 5, paths)
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals()
        counts.append(
            (
                {name: t["calls"] for name, t in totals.items()},
                tracer.link_vertices,
                tracer.link_edges,
            )
        )
        # girth is bound in cycles, curvature, smallcancel, batteries and
        # the package root
        assert tracer.bindings["cycles.girth"] >= 5
    assert counts[0] == counts[1]
    calls = counts[0][0]
    certifies = plan.rounds * len(plan.graphs)
    assert calls["cli.main"] == calls["curvature.certify"] == certifies
    assert calls["cycles.girth"] == 2 * certifies
    assert batteries.girth is original


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "b2_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
