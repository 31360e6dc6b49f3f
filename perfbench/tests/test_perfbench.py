"""The benchmark's own checks, on smoke sizes of every workload.

Run by explicit path (not part of the tier-1 ``tests/`` suite):
``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from perfbench import layers, workloads
from perfbench.run import END_TO_END, REPORTED, ROOT

SMOKE_WINDOW = workloads.ClosedLoop("smoke-window", values_per_barrier=500, n_barriers=4)
SMOKE_SYNC = workloads.ClosedLoop("smoke-sync", values_per_barrier=20, n_barriers=50)
SMOKE_SERVE = workloads.OpenLoop("smoke-serve", events=400, rate_eps=4_000.0)


@pytest.mark.parametrize("spec", [SMOKE_WINDOW, SMOKE_SYNC], ids=lambda s: s.name)
def test_closed_loop_smoke_completes(spec):
    res = workloads.measure_closed(spec, seed=3, seconds=0.1)
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and not res["errors"]
    assert set(res["values"]) == set(END_TO_END) | set(REPORTED)
    assert all(v > 0 for v in res["values"].values())


def test_serve_smoke_completes():
    res = workloads.measure_serve(SMOKE_SERVE, seed=3, seconds=0.1)
    assert res["attempted"] == SMOKE_SERVE.events
    assert res["failed"] == 0 and not res["errors"]
    assert set(res["values"]) == set(END_TO_END) | set(REPORTED)
    assert all(v > 0 for v in res["values"].values())


def test_serve_session_times_every_window():
    inputs = workloads.serve_inputs(SMOKE_SERVE, seed=4)
    session = workloads.serve_session(SMOKE_SERVE, inputs)
    assert not session.error and session.failed == 0
    assert len(session.latencies) == SMOKE_SERVE.events // SMOKE_SERVE.barrier_every
    assert len(session.late) == len(session.ack_wait) == SMOKE_SERVE.events // SMOKE_SERVE.batch
    assert sum(e.sealed_events for e in session.epochs) >= SMOKE_SERVE.events


def test_corrupted_expected_multiset_counts_as_failed_run():
    inputs = workloads.closed_loop_inputs(SMOKE_SYNC, seed=3)
    inputs.expected = inputs.expected + Counter(["('window_sum', -1.0, 0)"])
    res = workloads.repeat_closed(inputs, seconds=0.1)
    assert res["failed"] / res["attempted"] > 0


def test_corrupted_window_output_fails_its_events():
    inputs = workloads.serve_inputs(SMOKE_SERVE, seed=3)
    ts = next(iter(inputs.expected))
    inputs.expected[ts] = "('window_sum', %r, -1)" % ts
    res = workloads.repeat_serve(SMOKE_SERVE, inputs, seconds=0.1)
    assert res["failed"] == inputs.window_events[ts]
    assert res["failed"] / res["attempted"] > 0


@pytest.mark.parametrize("spec", [SMOKE_WINDOW, SMOKE_SYNC], ids=lambda s: s.name)
def test_closed_loop_replay_reproduces_spec(spec):
    inputs = workloads.closed_loop_inputs(spec, seed=5)
    metrics, outputs = layers.layer_metrics(
        inputs.program, inputs.plan, inputs.streams, inputs.events
    )
    assert Counter(map(repr, outputs)) == inputs.expected
    assert metrics["protocol.joins"] == spec.n_barriers
    assert metrics["protocol.msgs_per_join"] == 6


def test_serve_replay_reproduces_spec():
    inputs = workloads.serve_inputs(SMOKE_SERVE, seed=5)
    app = inputs.app
    _metrics, outputs = layers.layer_metrics(
        app.program, app.plan, workloads.replay_streams(inputs), len(inputs.events)
    )
    assert sorted(map(repr, outputs)) == sorted(inputs.expected.values())


def test_benchmark_json_names_every_workload_and_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.PER_LAYER
