"""Golden results of the simulated runtime.

The simulator is deterministic, so its figures are only trustworthy if
a refactor of the worker protocol leaves every simulated measurement
unchanged to the bit: output emit times and latencies, the makespan,
message and byte counts, host utilization, checkpoint keys, per-event
latencies, and the decisions a crash-recovery or autoscaling driver
takes from them.  The values below were recorded once and must not be
edited to make a change pass; a change that moves them changes the
paper artifacts too.

Long float lists are pinned by length, their first items and a SHA-256
of their ``repr``.
"""

import hashlib

from repro.apps import value_barrier as vb
from repro.plans import repartition_plan
from repro.runtime import (
    AutoScaler,
    CrashFault,
    FaultPlan,
    FluminaRuntime,
    ReconfigSchedule,
    RunOptions,
    every_root_join,
    run_on_backend,
)


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def vb_case():
    """Four value streams under a two-level tree: root w1 (barriers),
    internal w6/w7, leaves w2..w5."""
    prog = vb.make_program()
    wl = vb.make_workload(n_value_streams=4, values_per_barrier=25, n_barriers=4)
    return prog, vb.make_streams(wl), vb.make_plan(prog, wl)


def crash_plan():
    # A leaf crash mid-window and a root crash at a barrier.
    return FaultPlan(CrashFault("w3", after_events=40), CrashFault("w1", at_ts=8.5))


def summary(res):
    return {
        "outputs": (len(res.outputs), res.outputs[:2], digest(res.outputs)),
        "duration_ms": res.duration_ms,
        "joins": res.joins,
        "events_processed": res.events_processed,
        "events_in": res.events_in,
        "network": (
            res.network.local_messages,
            res.network.remote_messages,
            res.network.local_bytes,
            res.network.remote_bytes,
        ),
        "host_utilization": res.host_utilization,
        "checkpoints": [c.key[0] for c in res.checkpoints],
        "event_latencies": (
            len(res.event_latencies),
            res.event_latencies[:3],
            digest(res.event_latencies),
        ),
        "keyed_outputs": digest(res.keyed_outputs),
        "crashes": [(c.worker, c.fault_index, c.events_seen, c.ts) for c in res.crashes],
    }


WINDOWS = [
    ("window_sum", 3.5, 376),
    ("window_sum", 6.0, 412),
    ("window_sum", 8.5, 392),
    ("window_sum", 11.0, 400),
]


def test_value_barrier_tree():
    prog, streams, plan = vb_case()
    res = FluminaRuntime(
        prog,
        plan,
        checkpoint_predicate=every_root_join(),
        track_event_latency=True,
        record_keys=True,
    ).run(streams)
    assert res.output_values() == WINDOWS
    assert summary(res) == {
        "outputs": (
            4,
            [
                (("window_sum", 3.5, 376), 4.3374000000000015, 0.8374000000000015),
                (("window_sum", 6.0, 412), 6.8379, 0.8379000000000003),
            ],
            "1ec90ab61a49d589",
        ),
        "duration_ms": 12.413000000000002,
        "joins": 12,
        "events_processed": 408,
        "events_in": 404,
        "network": (540, 78, 34944, 5376),
        "host_utilization": {
            "node0": 0.05022154193184567,
            "node1": 0.034528317086924956,
            "node2": 0.04411504068315472,
            "node3": 0.03452831708692496,
        },
        "checkpoints": [3.5, 6.0, 8.5, 11.0],
        "event_latencies": (
            408,
            [1.0043333333333333, 0.9043333333333332, 0.8043333333333333],
            "ea94c2b0d828b19d",
        ),
        "keyed_outputs": "0c9e4507d8c89b2c",
        "crashes": [],
    }


def test_crash_attempt():
    """One attempt under the crash plan: the leaf crash stops it."""
    prog, streams, plan = vb_case()
    res = FluminaRuntime(
        prog,
        plan,
        checkpoint_predicate=every_root_join(),
        faults=crash_plan(),
        record_keys=True,
        track_event_latency=True,
    ).run(streams)
    assert summary(res) == {
        "outputs": (
            1,
            [(("window_sum", 3.5, 376), 4.3374000000000015, 0.8374000000000015)],
            "5486b3ae1018443f",
        ),
        "duration_ms": 12.006000000000002,
        "joins": 4,
        "events_processed": 192,
        "events_in": 404,
        "network": (503, 41, 32320, 2752),
        "host_utilization": {
            "node0": 0.041079460269865024,
            "node1": 0.03285857071464264,
            "node2": 0.03783108445777107,
            "node3": 0.032941862402132226,
        },
        "checkpoints": [3.5],
        "event_latencies": (
            192,
            [1.0043333333333333, 0.9043333333333332, 0.8043333333333333],
            "5241d2e205260579",
        ),
        "keyed_outputs": "80b0062d3d6d32dd",
        "crashes": [("w3", 0, 40, 4.933333333333334)],
    }


def test_crash_recovery_through_backend():
    prog, streams, plan = vb_case()
    run = run_on_backend(
        "sim",
        prog,
        plan,
        streams,
        options=RunOptions(
            fault_plan=crash_plan(), checkpoint_predicate=every_root_join()
        ),
    )
    rec = run.recovery
    assert run.outputs == WINDOWS
    assert (run.events_in, run.events_processed, run.joins) == (404, 578, 13)
    assert rec.attempts == 3
    assert [(c.worker, c.fault_index, c.events_seen, c.ts) for c in rec.crashes] == [
        ("w3", 0, 40, 4.933333333333334),
        ("w1", 1, 2, 8.5),
    ]
    assert [
        (s.attempt, s.crashed_workers, s.resumed_from_ts, s.replayed_events)
        for s in rec.recoveries
    ] == [(1, ("w3",), 3.5, 303), (2, ("w1",), 6.0, 202)]
    assert rec.checkpoints_taken == 4


def test_autoscaler_elastic_run():
    """The AutoScaler's scale-out and scale-in decisions read the
    backlog the leaves piggyback on their join responses."""
    prog, streams, plan = vb_case()
    narrow = repartition_plan(prog, plan, 2)
    sched = ReconfigSchedule(
        autoscaler=AutoScaler(high_watermark=5, low_watermark=1, max_leaves=4)
    )
    run = run_on_backend(
        "sim", prog, narrow, streams, options=RunOptions(reconfig_schedule=sched)
    )
    rc = run.reconfig
    assert run.outputs == WINDOWS
    assert (run.events_in, run.events_processed, run.joins) == (404, 408, 10)
    assert [
        (s.attempt, s.reason, s.key[0], s.from_leaves, s.to_leaves, s.queue_depth)
        for s in rc.reconfigurations
    ] == [(1, "scale-out", 3.5, 2, 4, 6), (2, "scale-in", 11.0, 4, 2, 0)]
    assert [
        (p.attempt, p.leaves, p.events_processed, p.joins) for p in rc.phases
    ] == [(1, 2, 102, 1), (2, 4, 306, 9), (3, 2, 0, 0)]
