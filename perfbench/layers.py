"""Per-layer measurement: the traced run behind ``--trace 1``.

Spans are taken here, around calls into each layer's public entry
points; nothing inside ``src/`` is instrumented.  A workload's own
traffic is replayed layer by layer in this process:

* pump — ``producer_messages`` + ``coalesce_event_runs`` per stream,
  posted through a ``BatchingSender`` (default adaptive policy, a real
  ``ControlPlane``) whose flushed batches are captured as frames;
* protocol — one ``WorkerCore`` per plan worker, driven by a
  synchronous in-process router (the pump's messages in pump order,
  each followed by every consequence it posts); the cores' mailbox
  calls and the program's update/update_batch/join/fork are wrapped
  so their spans can be taken out of ``handle``;
* mailbox — the first leaf's recorded ``insert`` / ``insert_run`` /
  ``advance`` sequence replayed on a fresh ``Mailbox``;
* wire — ``pack_frame`` / ``unpack_frame(runs=True)`` over the pump's
  and the router's frames;
* transport — those frames through a ``make_transport("pipe", ...)``
  edge into a forked receiver.

The metrics plane is read from a real run with ``RunOptions(metrics=True)``
(``BackendRun.metrics`` / the service's accumulated ``RunMetrics``),
next to an untraced run that gives ``cpu_us_per_event`` and the
throughput the overhead and COST ratios divide by.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import statistics
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.program import single_state_program
from repro.runtime.mailbox import Mailbox
from repro.runtime.messages import ForkStateMsg, HeartbeatMsg, JoinRequest, JoinResponse
from repro.runtime.protocol import (
    OutputSink,
    WorkerCore,
    end_timestamp,
    initial_leaf_states,
    producer_messages,
)
from repro.runtime.transport import (
    COORDINATOR,
    STOP,
    BatchingSender,
    BatchPolicy,
    ControlPlane,
    make_transport,
    resolve_policy,
)
from repro.runtime.wire import batch_message_count, coalesce_event_runs, pack_frame, unpack_frame

from .workloads import (
    WORKLOADS,
    ClosedInputs,
    ClosedLoop,
    Epoch,
    OpenLoop,
    ServeInputs,
    closed_loop_inputs,
    closed_loop_run,
    quantile,
    replay_streams,
    serve_inputs,
    serve_session,
    warm_up_closed,
    warm_up_serve,
)

_now = time.perf_counter

#: name -> (unit, better) for every per-layer metric, in report order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "pump.us_per_event": ("us", "lower"),
    "pump.msgs_per_event": ("ratio", "lower"),
    "pump.heartbeat_share": ("fraction", "lower"),
    "wire.pack_us_per_event": ("us", "lower"),
    "wire.unpack_us_per_event": ("us", "lower"),
    "wire.bytes_per_event": ("B", "lower"),
    "transport.us_per_frame": ("us", "lower"),
    "transport.mb_per_s": ("MB/s", "higher"),
    "transport.blocks": ("count", "lower"),
    "transport.cpu_us_per_event": ("us", "lower"),
    "mailbox.us_per_msg": ("us", "lower"),
    "mailbox.max_buffered": ("count", "lower"),
    "protocol.us_per_event": ("us", "lower"),
    "protocol.self_us_per_join": ("us", "lower"),
    "protocol.msgs_per_join": ("ratio", "lower"),
    "protocol.joins": ("count", "lower"),
    "operator.us_per_event": ("us", "lower"),
    "operator.batch_share": ("fraction", "higher"),
    "metrics.join_rtt_p50_s": ("s", "lower"),
    "metrics.join_rtt_p99_s": ("s", "lower"),
    "metrics.max_backlog": ("count", "lower"),
    "metrics.msgs_per_batch": ("ratio", "higher"),
    "metrics.leaf_skew": ("ratio", "lower"),
    "metrics.overhead": ("ratio", "lower"),
    "metrics.event_latency_p50_s": ("s", "lower"),
    "metrics.event_latency_p99_s": ("s", "lower"),
    "serve.epochs": ("count", "lower"),
    "serve.events_per_epoch": ("count", "higher"),
    "serve.epoch_p50_s": ("s", "lower"),
    "serve.ack_wait_s": ("s", "lower"),
    "serve.p99_latency_s": ("s", "lower"),
    "serve.generator_late_max_s": ("s", "lower"),
    "serve.generator_late_p99_s": ("s", "lower"),
    "spec.eps": ("1/s", "higher"),
    "spec.cost_ratio": ("ratio", "lower"),
    "unattributed_share": ("fraction", "lower"),
}

Frame = Tuple[str, List[Any]]


# ---------------------------------------------------------------------------
# Pump
# ---------------------------------------------------------------------------

def _pump(plan, streams, send: Callable[[str, List[Any]], None]) -> float:
    control = ControlPlane(mp.get_context("fork"))
    sender = BatchingSender(send, control, resolve_policy(None, None))
    end_ts = end_timestamp(streams)
    gc.collect()
    t0 = _now()
    for stream in streams:
        owner = plan.owner_of(stream.itag).id
        for msg in coalesce_event_runs(producer_messages(stream, end_ts)):
            sender.post(owner, msg)
    sender.flush()
    return _now() - t0


def replay_pump(plan, streams) -> Dict[str, Any]:
    """The closed-loop coordinator pump, minus the pipe writes.  The
    timed pass drops each flushed batch, as the real pump hands it to
    the pipe; a second pass keeps them as the frames later layers
    replay."""
    elapsed = _pump(plan, streams, lambda _dst, _batch: None)
    frames: List[Frame] = []
    _pump(plan, streams, lambda dst, batch: frames.append((dst, batch)))
    msgs = [m for _dst, batch in frames for m in batch]
    return {
        "s": elapsed,
        "frames": frames,
        "msgs": len(msgs),
        "heartbeats": sum(type(m) is HeartbeatMsg for m in msgs),
    }


# ---------------------------------------------------------------------------
# Protocol, mailbox and operator
# ---------------------------------------------------------------------------

class _Spans:
    """Accumulated span totals and counts of one replay."""

    def __init__(self) -> None:
        self.handle_s = 0.0
        self.mailbox_s = 0.0
        self.operator_s = 0.0
        self.batch_events = 0


def _timed_program(program, spans: _Spans):
    """The same single-state program with its operator functions
    wrapped in spans (value-barrier has one state type)."""
    it = program.initial_type
    st = program.state_type(it)
    fork = program.fork_for(it, it, it).fn
    join = program.join_for(it, it, it).fn

    def span(fn: Callable) -> Callable:
        def timed(*args):
            t0 = _now()
            out = fn(*args)
            spans.operator_s += _now() - t0
            return out

        return timed

    def update_batch(state, run):
        spans.batch_events += len(run)
        return timed_batch(state, run)

    timed_batch = span(st.update_batch) if st.update_batch else None

    return single_state_program(
        name=program.name,
        tags=program.tags,
        depends=program.depends,
        init=program.init,
        update=span(st.update),
        update_batch=update_batch if st.update_batch else None,
        fork=span(fork),
        join=span(join),
    )


def _wrap_mailbox(
    mailbox: Mailbox, spans: _Spans, ops: Optional[List[Tuple[str, tuple]]]
) -> None:
    """Time every mailbox mutation the core makes (and record it, when
    ``ops`` is given)."""
    for name in ("insert", "insert_run", "advance"):
        fn = getattr(mailbox, name)

        def timed(*args, _fn=fn, _name=name):
            t0 = _now()
            out = _fn(*args)
            spans.mailbox_s += _now() - t0
            if ops is not None:
                ops.append((_name, args))
            return out

        setattr(mailbox, name, timed)


class SyncRouter:
    """Every plan worker's ``WorkerCore`` in one process.  A posted
    message joins a FIFO and is handled after the current one; the
    messages one ``handle`` call posts to one destination form a frame
    (the batching sender flushes on the protocol's flush hint)."""

    def __init__(self, program, plan) -> None:
        self.spans = _Spans()
        self.frames: List[Frame] = []
        self.posted: Dict[type, int] = {}
        #: The first leaf and its recorded mailbox calls.
        self.leaf = plan.leaves()[0].id
        self.leaf_ops: List[Tuple[str, tuple]] = []
        self.sinks: Dict[str, OutputSink] = {}
        self._fifo: deque = deque()
        self._outbox: Dict[str, List[Any]] = {}
        timed = _timed_program(program, self.spans)
        leaf_states = initial_leaf_states(plan, program)
        self.cores: Dict[str, WorkerCore] = {}
        for node in plan.workers():
            sink = self.sinks[node.id] = OutputSink()
            core = WorkerCore(node, plan, timed, self._post, sink)
            if node.id in leaf_states:
                core.state = leaf_states[node.id]
                core.has_state = True
            ops = self.leaf_ops if node.id == self.leaf else None
            _wrap_mailbox(core.mailbox, self.spans, ops)
            self.cores[node.id] = core

    def _post(self, dst: str, msg: Any) -> None:
        self._fifo.append((dst, msg))
        self._outbox.setdefault(dst, []).append(msg)
        self.posted[type(msg)] = self.posted.get(type(msg), 0) + 1

    def deliver(self, dst: str, msg: Any) -> None:
        fifo = self._fifo
        fifo.append((dst, msg))
        spans = self.spans
        while fifo:
            d, m = fifo.popleft()
            t0 = _now()
            self.cores[d].handle(m)
            spans.handle_s += _now() - t0
            if self._outbox:
                self.frames.extend(self._outbox.items())
                self._outbox = {}

    def outputs(self) -> List[Any]:
        return [o for sink in self.sinks.values() for o in sink.outputs]

    def joins(self) -> int:
        return sum(sink.joins for sink in self.sinks.values())

    def unprocessed(self) -> int:
        return sum(core.unprocessed() for core in self.cores.values())


def replay_protocol(program, plan, pump_frames: List[Frame]) -> SyncRouter:
    router = SyncRouter(program, plan)
    gc.collect()
    for dst, batch in pump_frames:
        for msg in batch:
            router.deliver(dst, msg)
    return router


def replay_mailbox(depends, itags, ops: List[Tuple[str, tuple]]) -> Dict[str, float]:
    """Replay one worker's recorded mailbox calls on a fresh mailbox:
    a timed pass, then a pass that tracks the buffered high-water."""
    mb = Mailbox(itags, depends)
    calls = [(getattr(mb, name), args) for name, args in ops]
    gc.collect()
    t0 = _now()
    for fn, args in calls:
        fn(*args)
    elapsed = _now() - t0
    mb = Mailbox(itags, depends)
    high = 0
    for name, args in ops:
        getattr(mb, name)(*args)
        high = max(high, mb.buffered_count())
    return {"us_per_msg": elapsed / max(len(ops), 1) * 1e6, "max_buffered": float(high)}


# ---------------------------------------------------------------------------
# Wire and transport
# ---------------------------------------------------------------------------

def replay_wire(frames: List[Frame]) -> Dict[str, Any]:
    batches = [batch for _dst, batch in frames]
    gc.collect()
    t0 = _now()
    packed = [pack_frame(b) for b in batches]
    pack_s = _now() - t0
    t0 = _now()
    for data in packed:
        unpack_frame(data, runs=True)
    unpack_s = _now() - t0
    # +4: the length prefix each frame carries on a stream transport.
    return {"pack_s": pack_s, "unpack_s": unpack_s, "bytes": sum(len(d) + 4 for d in packed)}


def _loopback_receiver(transport, conn) -> None:
    transport.child_setup("rx")
    rx = transport.receiver("rx")
    c0 = time.process_time()
    frames = msgs = 0
    while True:
        batch = rx.recv()
        if batch is STOP:
            break
        frames += 1
        msgs += batch_message_count(batch)
    conn.send((frames, msgs, time.process_time() - c0))
    conn.close()


def replay_transport(frames: List[Frame]) -> Dict[str, float]:
    """Send every frame over one pipe edge to a forked receiver (which
    decodes, as a worker does) and wait for it to see the stop frame."""
    ctx = mp.get_context("fork")
    transport = make_transport("pipe", ctx, {"rx": [COORDINATOR]})
    control = ControlPlane(ctx)
    result_r, result_w = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_loopback_receiver, args=(transport, result_w), daemon=True)
    proc.start()
    try:
        transport.parent_setup()
        result_w.close()
        blocks = [0]

        def on_block() -> None:
            blocks[0] += 1

        # Never flush on size: each captured batch is flushed as one frame.
        sender = transport.sender(COORDINATOR, control, BatchPolicy.fixed(1 << 30), on_block)
        c0 = time.process_time()
        t0 = _now()
        for _dst, batch in frames:
            for msg in batch:
                sender.post("rx", msg)
            sender.flush()
        tx_cpu = time.process_time() - c0
        transport.stop_all()
        if not result_r.poll(60.0):
            raise TimeoutError("transport loopback receiver did not finish")
        n_frames, _msgs, rx_cpu = result_r.recv()
        wall = _now() - t0
    finally:
        proc.join(10.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(5.0)
        transport.close()
        result_r.close()
    return {
        "wall_s": wall,
        "frames": n_frames,
        "blocks": blocks[0],
        "tx_cpu_s": tx_cpu,
        "rx_cpu_s": rx_cpu,
    }


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

def layer_metrics(program, plan, streams, events_in: int) -> Tuple[Dict[str, float], List[Any]]:
    """Every replayed layer's metrics for one workload's streams; also
    returns the replay's outputs (they must equal the spec's)."""
    pump = replay_pump(plan, streams)
    router = replay_protocol(program, plan, pump["frames"])
    if router.unprocessed():
        raise RuntimeError(f"protocol replay left {router.unprocessed()} items unprocessed")
    mailbox = replay_mailbox(
        program.depends, router.cores[router.leaf].mailbox.itags, router.leaf_ops
    )
    frames = pump["frames"] + router.frames
    wire = replay_wire(frames)
    loop = replay_transport(frames)

    spans = router.spans
    joins = router.joins()
    n = events_in
    protocol_msgs = sum(
        router.posted.get(t, 0) for t in (JoinRequest, JoinResponse, ForkStateMsg)
    )
    transport_cpu = loop["tx_cpu_s"] + loop["rx_cpu_s"] - wire["pack_s"] - wire["unpack_s"]
    out = {
        "pump.us_per_event": pump["s"] / n * 1e6,
        "pump.msgs_per_event": pump["msgs"] / n,
        "pump.heartbeat_share": pump["heartbeats"] / pump["msgs"],
        "wire.pack_us_per_event": wire["pack_s"] / n * 1e6,
        "wire.unpack_us_per_event": wire["unpack_s"] / n * 1e6,
        "wire.bytes_per_event": wire["bytes"] / n,
        "transport.us_per_frame": loop["wall_s"] / loop["frames"] * 1e6,
        "transport.mb_per_s": wire["bytes"] / loop["wall_s"] / 1e6,
        "transport.blocks": float(loop["blocks"]),
        "transport.cpu_us_per_event": transport_cpu / n * 1e6,
        "mailbox.us_per_msg": mailbox["us_per_msg"],
        "mailbox.max_buffered": mailbox["max_buffered"],
        "protocol.us_per_event": spans.handle_s / n * 1e6,
        "protocol.self_us_per_join": (spans.handle_s - spans.mailbox_s - spans.operator_s)
        / max(joins, 1)
        * 1e6,
        "protocol.msgs_per_join": protocol_msgs / max(joins, 1),
        "protocol.joins": float(joins),
        "operator.us_per_event": spans.operator_s / n * 1e6,
        "operator.batch_share": spans.batch_events / n,
    }
    return out, router.outputs()


def attributed_us_per_event(layers: Dict[str, float]) -> float:
    """Per-event time the replay attributes to a layer.  ``handle``
    already contains the mailbox and operator spans, so they are not
    added again."""
    return (
        layers["pump.us_per_event"]
        + layers["wire.pack_us_per_event"]
        + layers["wire.unpack_us_per_event"]
        + layers["transport.cpu_us_per_event"]
        + layers["protocol.us_per_event"]
    )


def plane_metrics(run_metrics, leaves: List[str]) -> Dict[str, float]:
    """What the metrics plane itself reports (``RunMetrics``)."""
    merged = run_metrics.merged()
    rtt = merged.join_rtt
    lat = merged.event_latency
    per_leaf = [
        run_metrics.per_worker[w].events_processed for w in leaves if w in run_metrics.per_worker
    ]
    mean_leaf = statistics.fmean(per_leaf) if per_leaf else 0.0
    return {
        "metrics.join_rtt_p50_s": rtt.percentile(50) if rtt else 0.0,
        "metrics.join_rtt_p99_s": rtt.percentile(99) if rtt else 0.0,
        "metrics.max_backlog": float(merged.max_backlog),
        "metrics.msgs_per_batch": merged.messages_sent / max(merged.batches_sent, 1),
        "metrics.leaf_skew": max(per_leaf) / mean_leaf if mean_leaf else 0.0,
        "metrics.event_latency_p50_s": lat.percentile(50) if lat else 0.0,
        "metrics.event_latency_p99_s": lat.percentile(99) if lat else 0.0,
    }


def _serve_layer(epochs: List[Any], ack_wait: List[float], late: List[float],
                 latencies: List[float]) -> Dict[str, float]:
    return {
        "serve.epochs": float(len(epochs)),
        "serve.events_per_epoch": statistics.fmean(e.sealed_events for e in epochs),
        "serve.epoch_p50_s": statistics.median(e.wall_s for e in epochs),
        "serve.ack_wait_s": statistics.median(ack_wait),
        "serve.p99_latency_s": quantile(latencies, 99),
        "serve.generator_late_max_s": max(late),
        "serve.generator_late_p99_s": quantile(late, 99),
    }


def _replayed(program, plan, streams, events: int, expected: List[str], metrics: Dict) -> bool:
    """Add the replay's layer metrics; True when its outputs match the spec."""
    layers, outputs = layer_metrics(program, plan, streams, events)
    metrics.update(layers)
    return sorted(map(repr, outputs)) == sorted(expected)


def _add_cost_metrics(metrics: Dict[str, float], events: int, spec_s: float, eps: float,
                      cpu_us: float) -> None:
    """The COST baseline and the share of CPU no replayed layer covers."""
    spec_eps = events / spec_s
    metrics["spec.eps"] = spec_eps
    metrics["spec.cost_ratio"] = spec_eps / eps
    metrics["unattributed_share"] = 1.0 - attributed_us_per_event(metrics) / cpu_us


def trace_closed(spec: ClosedLoop, seed: int) -> Dict[str, Any]:
    inputs: ClosedInputs = closed_loop_inputs(spec, seed)
    warm_up_closed(inputs)
    plain = closed_loop_run(inputs)
    traced = closed_loop_run(inputs, metrics=True)
    metrics: Dict[str, float] = {}
    replay_ok = _replayed(
        inputs.program, inputs.plan, inputs.streams, inputs.events,
        list(inputs.expected.elements()), metrics,
    )
    errors = [r.error for r in (plain, traced) if r.error]
    if not errors:
        metrics.update(plane_metrics(traced.run.metrics, [n.id for n in inputs.plan.leaves()]))
        metrics["metrics.overhead"] = plain.throughput_eps / traced.throughput_eps
        # The closed loop seen by the serve layer's yardsticks: the run
        # is one epoch; its client's one request is answered by the
        # run's result; the next run is due the moment the previous one
        # returns, so the client is late by the gap before it starts.
        metrics.update(
            _serve_layer(
                [Epoch(plain.events, plain.wall_s)],
                [plain.call_s],
                [traced.started - plain.returned],
                [plain.call_s],
            )
        )
        _add_cost_metrics(
            metrics, inputs.events, inputs.spec_s, plain.throughput_eps,
            plain.cpu_s / plain.events * 1e6,
        )
    return {
        "metrics": metrics,
        "attempted": 3,
        "failed": sum(not r.ok for r in (plain, traced)) + (not replay_ok),
        "errors": errors + ([] if replay_ok else ["layer replay outputs differ from the spec"]),
    }


def trace_serve(spec: OpenLoop, seed: int) -> Dict[str, Any]:
    inputs: ServeInputs = serve_inputs(spec, seed)
    warm_up_serve(spec, seed)
    plain = serve_session(spec, inputs)
    traced = serve_session(spec, inputs, metrics=True)
    app = inputs.app
    metrics: Dict[str, float] = {}
    replay_ok = _replayed(
        app.program, app.plan, replay_streams(inputs), len(inputs.events),
        list(inputs.expected.values()), metrics,
    )
    errors = [s.error for s in (plain, traced) if s.error]
    if not errors:
        metrics.update(plane_metrics(traced.metrics, [n.id for n in app.plan.leaves()]))
        metrics["metrics.overhead"] = plain.throughput_eps / traced.throughput_eps
        metrics.update(_serve_layer(plain.epochs, plain.ack_wait, plain.late, plain.latencies))
        _add_cost_metrics(
            metrics, len(inputs.events), inputs.spec_s, plain.throughput_eps,
            plain.cpu_us_per_event,
        )
    return {
        "metrics": metrics,
        "attempted": plain.offered + traced.offered + 1,
        "failed": plain.failed + traced.failed + (not replay_ok),
        "errors": errors + ([] if replay_ok else ["layer replay outputs differ from the spec"]),
    }


def trace(name: str, seed: int) -> Dict[str, Any]:
    spec = WORKLOADS[name]
    if isinstance(spec, ClosedLoop):
        return trace_closed(spec, seed)
    return trace_serve(spec, seed)
