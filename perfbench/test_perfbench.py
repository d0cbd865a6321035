"""Tests of the benchmark itself (not part of the primeavg suite).

    python3 -m pytest perfbench -q

The smoke runs start real primeavg processes at reduced sizes and take about
a minute in all.
"""

import json
import time

import pytest

import run
import tracer
import workloads

FIXTURES, FIXTURE_HASH = workloads.load_fixtures(run.ROOT)


def span(sid, parent, layer, start, end, name=None, attrs=None):
    return [sid, parent, layer, name or f"{layer}.f", start, end, attrs]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("r", None, "cli", 0.0, 10.0),
        span("a", "r", "multiplier", 1.0, 4.0),
        span("a1", "a", "fft", 2.0, 3.0, attrs={"charged": "multiplier", "points": 8}),
        # two pool workers running side by side under one scan span
        span("w1", "r", "scans", 5.0, 9.0),
        span("w2", "r", "scans", 6.0, 8.0),
        # a child that outlives its parent is clipped to the parent's interval
        span("b", "a", "tables", 3.5, 4.5),
    ]
    own = tracer.self_times(spans)
    assert own["r"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own["a"] == pytest.approx(3.0 - 1.0 - 0.5)
    assert own["a1"] == pytest.approx(1.0)
    assert own["w1"] == pytest.approx(4.0)
    assert own["w2"] == pytest.approx(2.0)

    m = tracer.layer_metrics(spans, {1: {"pid": 1, "forked": False, "cpu_s": 1.0}})
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["multiplier.self_s"] == pytest.approx(1.5)
    assert m["scans.self_s"] == pytest.approx(6.0)
    assert m["fft.self_s"] == pytest.approx(1.0)
    assert m["multiplier.fft_calls"] == 1 and m["multiplier.fft_points"] == 8
    assert m["scans.worker_cpu_s"] == 0.0


def smoke(workload, trace, capsys):
    steps = workloads.WORKLOADS[workload](3, FIXTURES, FIXTURE_HASH, small=True)
    deadline = time.monotonic() + 170
    iterations = run.measure(steps, 0.0, trace, deadline)
    values = run.per_layer(iterations) if trace else run.end_to_end(iterations, deadline)
    declared = run.declared_metrics("per_layer" if trace else "end_to_end")
    capsys.readouterr()
    run.emit(iterations, values, declared, {"workload": workload})
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(workload, capsys):
    values = smoke(workload, False, capsys)
    assert all(v > 0 for v in values.values())


def test_smoke_traced_layers_land_where_predicted(capsys):
    verify = smoke("verify", True, capsys)
    spectral = smoke("spectral", True, capsys)
    scan = smoke("scan", True, capsys)
    assert verify["expsums.verify_tuples"] > 0 and verify["fixtures.self_s"] > 0
    assert spectral["expsums.verify_tuples"] == scan["expsums.verify_tuples"] == 0
    assert spectral["multiplier.grid_points"] > 0 and spectral["highlow.profile_builds"] > 0
    assert scan["multiplier.grid_points"] == scan["highlow.profile_builds"] == 0
    assert scan["scans.cells"] > 0 and scan["scans.worker_cpu_s"] > 0
    assert 0 < scan["scans.parallel_eff"] <= 1.5
    assert spectral["scans.cells"] == 0


def test_wrong_oracle_value_counts_as_failed(capsys):
    wrong = json.loads(json.dumps(FIXTURES))
    wrong["residual_sup_y1_N12"]["value"] *= 1.01
    steps = workloads.spectral(0, wrong, FIXTURE_HASH, small=True)[:1]
    it = run.run_iteration(steps, False, deadline=time.monotonic() + 170)
    assert it.checks == {"approx.exit": True, "approx.sup_residual": False, "approx.near_zero_error": True}
    run.emit([it], {}, [], {})
    assert '"failed": 1' in capsys.readouterr().out.splitlines()[-1]


def test_crash_fails_every_check_of_the_step():
    # maximal's default N list is below the desk-scale floor, so it exits 2.
    step = workloads.Step(["maximal"], workloads.maximal_oracle(FIXTURE_HASH))
    it = run.run_iteration([step], False, deadline=time.monotonic() + 170)
    assert len(it.checks) == 4 and not any(it.checks.values())
