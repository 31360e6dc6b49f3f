"""Microbenchmarks of the core machinery (wall-clock, pytest-benchmark):
simulation kernel, mailbox selective reordering, plan generation and
validation, the sequential spec executor, the wire codec, the
closed-loop producer, and the threaded-vs-process runtime comparison.

These are not paper artifacts; they track the hot paths of every
simulated experiment in this repository, plus the one genuinely
hardware-dependent claim: that the process runtime escapes the GIL.
"""

import random
import time

from conftest import quick

from repro import RunOptions
from repro.apps import keycounter as kc
from repro.apps import value_barrier as vb
from repro.bench import (
    BenchConfig,
    available_cores,
    backend_speedup,
    bench_record,
    compare_transports,
    publish,
    publish_json,
    render_table,
)
from repro.bench import experiments as ex
from repro.core import DependenceRelation, Event, ImplTag
from repro.plans import is_p_valid, random_valid_plan
from repro.runtime import Mailbox
from repro.runtime.messages import EventMsg, HeartbeatMsg
from repro.runtime.protocol import end_timestamp, producer_messages
from repro.runtime.wire import (
    batch_message_count,
    coalesce_event_runs,
    decode_batch,
    encode_batch,
    pack_frame,
    unpack_frame,
)
from repro.sim import Simulator


def test_sim_kernel_schedule_run(benchmark):
    def run():
        sim = Simulator()
        for i in range(2000):
            sim.schedule_at(float(i % 97), lambda: None)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == 2000


def test_mailbox_insert_release(benchmark):
    uni = ["v", "b"]
    dep = DependenceRelation(uni, {"b": ["b", "v"]})
    v0, v1, b = ImplTag("v", 0), ImplTag("v", 1), ImplTag("b", "s")

    def run():
        mb = Mailbox([v0, v1, b], dep)
        released = 0
        for t in range(1, 500):
            released += len(mb.insert(v0, Event("v", 0, float(t)).order_key, t))
            released += len(mb.insert(v1, Event("v", 1, t + 0.5).order_key, t))
            if t % 50 == 0:
                released += len(mb.insert(b, Event("b", "s", t + 0.25).order_key, t))
            if t % 10 == 0:
                released += len(mb.advance(b, Event("b", "s", t + 0.26).order_key))
        return released

    assert benchmark(run) > 0


def test_sequential_spec_throughput(benchmark):
    prog = kc.make_program(4)
    rng = random.Random(0)
    tags = sorted(prog.tags, key=repr)
    events = [
        Event(tags[rng.randrange(len(tags))], 0, float(t)) for t in range(5000)
    ]

    def run():
        return len(prog.spec(events))

    assert benchmark(run) >= 0


def test_random_plan_generation_and_validation(benchmark):
    prog = kc.make_program(4)
    itags = [ImplTag(t, s) for t in sorted(prog.tags, key=repr) for s in range(3)]

    def run():
        plan = random_valid_plan(prog, itags, random.Random(42))
        return is_p_valid(plan, prog)

    assert benchmark(run)


def test_wire_codec_roundtrip(benchmark):
    """Round-trip throughput of the codec layers on producer-shaped
    traffic (string tag/stream, float ts, int payload): the tuple
    codec the queue transport ships, the struct-packed frame codec the
    stream transports ship, and the columnar run path (``runs=True``)
    where consecutive same-route events stay packed arrays end to end
    instead of exploding into per-event objects.  Emits the gated
    BENCH_wire_codec.json record — the frame codec is the process
    runtime's hot path, so a regression here is a transport
    regression.  The run path must hold a >= 5x advantage over
    per-event decode: that multiple is the whole point of carrying
    columnar runs through the data plane."""
    msgs = [
        EventMsg(Event("value", "v%d" % (i // 500), float(i), payload=i * 3))
        for i in range(2000)
    ]
    assert unpack_frame(pack_frame(msgs)) == msgs
    assert (
        sum(len(r) for r in unpack_frame(pack_frame(msgs), runs=True)) == 2000
    )

    def run():
        return len(unpack_frame(pack_frame(msgs)))

    assert benchmark(run) == 2000

    def rate(fn, reps: int = 4, rounds: int = 5) -> float:
        # Best-of-rounds: the gateable number is the machine's capability,
        # not the scheduler's mood during one slice.
        best = 0.0
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            best = max(best, len(msgs) * reps / (time.perf_counter() - t0))
        return best

    frame_rate = rate(lambda: unpack_frame(pack_frame(msgs)))
    tuple_rate = rate(lambda: decode_batch(encode_batch(msgs)))
    # The run path ships the same 2000 events as four columnar runs:
    # pack once from coalesced runs, decode without materializing a
    # single Event object.
    runs = coalesce_event_runs(msgs, max_run=512)
    run_rate = rate(lambda: unpack_frame(pack_frame(runs), runs=True))
    run_speedup = run_rate / frame_rate if frame_rate > 0 else float("nan")
    publish_json(
        "wire_codec",
        bench_record(
            "wire_codec",
            config={"messages": len(msgs), "shape": "event str-tag/str-stream f-ts i-payload"},
            metrics={
                "frame_roundtrip_msgs_per_s": round(frame_rate),
                "tuple_roundtrip_msgs_per_s": round(tuple_rate),
                "run_roundtrip_msgs_per_s": round(run_rate),
                "run_vs_per_event": round(run_speedup, 2),
            },
            gate={
                "frame_roundtrip_msgs_per_s": "higher",
                "tuple_roundtrip_msgs_per_s": "higher",
                "run_roundtrip_msgs_per_s": "higher",
            },
        ),
    )
    assert run_speedup >= 5.0, (
        f"columnar run decode reached only {run_speedup:.1f}x the "
        "per-event frame path (floor: 5x); the batch fast path has "
        "regressed into object materialization"
    )


def _per_event_producer(stream, end_ts):
    """The producer the columnar one replaced: one EventMsg and one
    order key per event, heartbeats merged in by a sort."""
    items = [(e.order_key, EventMsg(e)) for e in stream.events]
    hb_times = []
    if stream.heartbeat_interval:
        t = stream.heartbeat_interval
        while t < end_ts:
            hb_times.append(t)
            t += stream.heartbeat_interval
    hb_times.append(end_ts)
    event_ts = {e.ts for e in stream.events}
    for t in hb_times:
        if t not in event_ts:
            key = Event(stream.itag.tag, stream.itag.stream, t).order_key
            items.append((key, HeartbeatMsg(stream.itag, key)))
    items.sort(key=lambda kv: kv[0])
    return [msg for _, msg in items]


def _drop_subsumed(msgs):
    """Remove every heartbeat a later event of the stream follows (its
    larger order key advances the owner's timer past the heartbeat)."""
    last = max((i for i, m in enumerate(msgs) if type(m) is EventMsg), default=-1)
    return [m for i, m in enumerate(msgs) if type(m) is not HeartbeatMsg or i > last]


def _reference_traffic(stream, end_ts):
    return coalesce_event_runs(_drop_subsumed(_per_event_producer(stream, end_ts)), max_run=512)


def test_producer_pump(benchmark):
    """Producer build for the closed-loop pump: the columnar
    :func:`producer_messages` (runs of the stream's events, then the
    heartbeats no event follows) against the per-event producer it
    replaced, with the subsumed heartbeats filtered out and
    :func:`coalesce_event_runs` applied, on one 100k-event vb-shaped
    stream (float ts at 10 per ms, int payloads, a heartbeat every
    1.0).  Both sides run in this process, best of 3 rounds, so the
    ratio holds on any core count and under --smoke.  The columnar
    producer must stay >= 4x faster (20.8x on a 2-core x86 host,
    Python 3.11.7) and emit the same traffic."""
    wl = vb.make_workload(n_value_streams=1, values_per_barrier=25_000, n_barriers=4)
    (stream,) = [s for s in vb.make_streams(wl) if s.itag.tag == vb.VALUE_TAG]
    end_ts = end_timestamp([stream])
    n = len(stream.events)

    msgs = benchmark(lambda: producer_messages(stream, end_ts))
    ref = _reference_traffic(stream, end_ts)
    assert [type(m) for m in msgs] == [type(m) for m in ref]
    assert batch_message_count(msgs) == batch_message_count(ref)

    def best_s(fn, rounds: int = 3) -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    new_s = best_s(lambda: producer_messages(stream, end_ts))
    ref_s = best_s(lambda: _reference_traffic(stream, end_ts))
    speedup = ref_s / new_s
    publish_json(
        "producer_pump",
        bench_record(
            "producer_pump",
            config={"events": n, "shape": "str tag/stream, f-ts, i-payload, hb 1.0"},
            metrics={
                "columnar_us_per_event": round(new_s / n * 1e6, 3),
                "per_event_us_per_event": round(ref_s / n * 1e6, 3),
                "speedup": round(speedup, 2),
            },
        ),
    )
    assert speedup >= 4.0, (
        f"columnar producer reached only {speedup:.1f}x the per-event "
        "producer + coalesce_event_runs (floor: 4x)"
    )


def test_threaded_vs_process_runtime(benchmark):
    """The GIL-escape measurement: same program, same plan, same
    streams on the threaded and the process runtime, wall clock.

    On a multi-core host the full-size run must reach >= 1.5x the
    threaded throughput on the value-barrier workload (the paper's
    parallel-speedup claim on a real substrate).  The ratio is only
    *reported* on a single core (no parallelism to win) and under
    --smoke/quick (the shrunk workload is a few ms of compute, where
    constant IPC overhead makes the ratio noise, not signal).
    """
    QUICK = quick()
    n_workers = 2 if QUICK else 4
    data = benchmark.pedantic(
        lambda: ex.runtime_backend_comparison(
            n_workers=n_workers,
            values_per_barrier=100 if QUICK else 400,
            n_barriers=2 if QUICK else 3,
            spin=150 if QUICK else 600,
            config=BenchConfig(repeats=1 if QUICK else 2),
        ),
        rounds=1,
        iterations=1,
    )
    apps = list(data)
    speedups = {app: backend_speedup(data[app].points) for app in apps}
    text = render_table(
        "Threaded vs process runtime: wall-clock throughput (events/s)",
        "app",
        apps,
        {
            "threaded ev/s": [data[a].events_per_s("threaded") for a in apps],
            "process ev/s": [data[a].events_per_s("process") for a in apps],
            "speedup": [speedups[a]["process"] for a in apps],
        },
        note=(
            f"cores={available_cores()}, "
            f"workers={n_workers}, pipe transport, adaptive batching; "
            "outputs multiset-verified"
        ),
    )
    publish("runtime_threaded_vs_process", text)
    publish_json(
        "runtime_threaded_vs_process",
        bench_record(
            "runtime_threaded_vs_process",
            config={
                "workers": n_workers,
                "quick": QUICK,
                "transport": "pipe",
                "batching": "adaptive",
            },
            metrics={
                app: {
                    "threaded_events_per_s": round(data[app].events_per_s("threaded")),
                    "process_events_per_s": round(data[app].events_per_s("process")),
                    "speedup": round(speedups[app]["process"], 3),
                }
                for app in apps
            },
        ),
    )

    cores = available_cores()
    if cores >= 2 and not QUICK:
        ratio = speedups["Event Win."]["process"]
        assert ratio >= 1.5, (
            f"process runtime only reached {ratio:.2f}x the threaded "
            f"throughput on {cores} cores (expected >= 1.5x)"
        )


def test_pipe_vs_queue_transport(benchmark):
    """The transport claim: the framed-pipe data plane with adaptive
    batching must beat the legacy ``multiprocessing.Queue`` transport
    on a communication-bound workload (trivial per-event compute, so
    wall clock is dominated by message passing).

    On a multi-core host the full-size run must reach >= 1.3x the
    queue transport's throughput.  The ratio is only *reported* on a
    single core and under --smoke/quick (at smoke sizes process
    startup dominates and the ratio is noise, not signal).  Outputs
    are multiset-verified across transports inside
    :func:`compare_transports`."""
    QUICK = quick()
    prog = vb.make_program()
    wl = vb.make_workload(
        n_value_streams=2 if QUICK else 4,
        values_per_barrier=300 if QUICK else 4000,
        n_barriers=2 if QUICK else 4,
    )
    streams = vb.make_streams(wl)
    plan = vb.make_plan(prog, wl)
    configs = {
        "queue fixed(64)": RunOptions(transport="queue", batch_size=64),
        "pipe fixed(64)": RunOptions(transport="pipe", batch_size=64),
        "pipe adaptive": RunOptions(transport="pipe"),
    }
    res = benchmark.pedantic(
        lambda: compare_transports(
            # Best-of-2 even under --smoke: the pipe-adaptive number is
            # CI's gated metric, so one unlucky scheduler slice must
            # not become the recorded capability.
            prog, plan, streams, configs=configs,
            config=BenchConfig(repeats=2 if QUICK else 3),
        ),
        rounds=1,
        iterations=1,
    )
    points = res.points
    labels = list(points)
    queue_eps = points["queue fixed(64)"].events_per_s
    pipe_eps = points["pipe adaptive"].events_per_s
    ratio = pipe_eps / queue_eps if queue_eps > 0 else float("nan")
    text = render_table(
        "Process-backend transports: wall-clock throughput (events/s)",
        "transport",
        labels,
        {
            "events/s": [points[lb].events_per_s for lb in labels],
            "vs queue": [
                points[lb].events_per_s / queue_eps if queue_eps > 0 else 0.0
                for lb in labels
            ],
        },
        note=(
            f"cores={available_cores()}, value-barrier, trivial updates "
            "(communication-bound); outputs multiset-verified"
        ),
    )
    publish("transport_pipe_vs_queue", text)
    publish_json(
        "transport_pipe_vs_queue",
        bench_record(
            "transport_pipe_vs_queue",
            config={
                "quick": QUICK,
                "events": points["pipe adaptive"].events,
                "configs": {
                    k: f"transport={v.transport} batch={v.batch_size}"
                    for k, v in configs.items()
                },
            },
            metrics={
                "queue_events_per_s": round(queue_eps),
                "pipe_adaptive_events_per_s": round(pipe_eps),
                "pipe_fixed_events_per_s": round(points["pipe fixed(64)"].events_per_s),
                "speedup_pipe_vs_queue": round(ratio, 3),
            },
            gate={"pipe_adaptive_events_per_s": "higher"},
        ),
    )

    cores = available_cores()
    if cores >= 2 and not QUICK:
        assert ratio >= 1.3, (
            f"pipe transport only reached {ratio:.2f}x the queue transport's "
            f"throughput on {cores} cores (expected >= 1.3x)"
        )


def test_consistency_check_speed(benchmark):
    from repro.core import check_consistency

    prog = kc.make_program(2)
    rng = random.Random(1)
    tags = sorted(prog.tags, key=repr)
    events = [Event(tags[rng.randrange(len(tags))], 0, float(t)) for t in range(20)]

    def run():
        return check_consistency(
            prog, events, state_eq=kc.state_eq, rng=random.Random(5)
        ).ok

    assert benchmark(run)
