"""Workloads, seeded inputs, measured runs and output checks.

Every workload is the paper's value-barrier app (§4.1) on the process
backend with default :class:`~repro.runtime.RunOptions` (pipe
transport, adaptive batching).  The seed draws the value payloads
only; stream layout, window lengths and the send schedule are fixed
per workload, and the programs see nothing but the generated events.

Two drivers:

* :func:`closed_loop_run` — one ``run_on_backend`` call, timed by the
  caller, its outputs checked against ``run_sequential_reference``;
* :func:`serve_session` — a ``repro.serve`` service fed by one ingest
  thread on a fixed schedule and drained by one subscriber thread.
  Window latency is taken by the subscriber, from the barrier's
  *scheduled* send time, never from the metrics plane.
"""

from __future__ import annotations

import multiprocessing as mp
import random
import resource
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Sequence, Union

from repro.apps import value_barrier as vb
from repro.core.events import Event
from repro.data.generators import value_barrier_workload
from repro.runtime import InputStream, RunOptions, run_on_backend, run_sequential_reference
from repro.runtime.options import ServeOptions
from repro.serve import connect, spec_outputs, start_service, value_barrier_app

#: Per-run timeout handed to the runtime; a hung run fails instead of
#: outliving the benchmark's own exit deadline.
RUN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ClosedLoop:
    """Finite value-barrier streams run to completion, one run at a time."""

    name: str
    values_per_barrier: int
    n_barriers: int
    n_value_streams: int = 2


@dataclass(frozen=True)
class OpenLoop:
    """The service tier fed on a fixed schedule by one ingest client."""

    name: str
    events: int
    rate_eps: float
    batch: int = 20
    barrier_every: int = 10
    n_value_streams: int = 2


Workload = Union[ClosedLoop, OpenLoop]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        ClosedLoop("vb-window", values_per_barrier=50_000, n_barriers=4),
        OpenLoop("serve-openloop", events=10_000, rate_eps=2_000.0),
    )
}


def cpu_seconds() -> float:
    """CPU time of this process plus every reaped child (the forked
    workers of finished runs)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_child_rss_mb() -> float:
    """Highest RSS of any reaped child so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def quantile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (1..99) by linear interpolation between the
    sorted samples; never beyond the extremes."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

@dataclass
class ClosedInputs:
    program: Any
    plan: Any
    streams: List[Any]
    events: int
    #: Sequential-spec output multiset (repr-normalized, as
    #: ``BackendRun.output_multiset``).
    expected: Counter
    spec_s: float


def closed_loop_inputs(spec: ClosedLoop, seed: int) -> ClosedInputs:
    rng = random.Random(seed)
    wl = value_barrier_workload(
        value_tag=vb.VALUE_TAG,
        barrier_tag=vb.BARRIER_TAG,
        n_value_streams=spec.n_value_streams,
        values_per_barrier=spec.values_per_barrier,
        n_barriers=spec.n_barriers,
        value_rate_per_ms=10.0,
        # Streams are generated one after another, so sequential draws
        # give every stream its own payloads, reproducibly.
        value_payload_fn=lambda _i: rng.randint(1, 9),
    )
    program = vb.make_program()
    streams = vb.make_streams(wl)
    t0 = time.perf_counter()
    expected = Counter(map(repr, run_sequential_reference(program, streams)))
    spec_s = time.perf_counter() - t0
    return ClosedInputs(
        program, vb.make_plan(program, wl), streams, wl.total_events, expected, spec_s
    )


@dataclass
class ClosedRep:
    """One measured closed-loop run."""

    ok: bool
    call_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    events: int = 0
    error: str = ""
    run: Any = None
    #: perf_counter stamps of the ``run_on_backend`` call and return.
    started: float = 0.0
    returned: float = 0.0

    @property
    def throughput_eps(self) -> float:
        return self.events / self.wall_s

    @property
    def setup_s(self) -> float:
        return self.call_s - self.wall_s


def closed_loop_run(inputs: ClosedInputs, *, metrics: bool = False) -> ClosedRep:
    """Run once on the process backend; a raise, a timeout or an output
    multiset that differs from the sequential spec is a failed run."""
    opts = RunOptions(timeout_s=RUN_TIMEOUT_S, metrics=metrics)
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        run = run_on_backend("process", inputs.program, inputs.plan, inputs.streams, options=opts)
    except Exception as exc:  # a failed run is counted, never fatal
        return ClosedRep(ok=False, error=repr(exc))
    returned = time.perf_counter()
    cpu_s = cpu_seconds() - c0
    return ClosedRep(
        ok=run.output_multiset() == inputs.expected,
        call_s=returned - t0,
        wall_s=run.wall_s,
        cpu_s=cpu_s,
        events=run.events_in,
        run=run,
        started=t0,
        returned=returned,
    )


def warm_up_closed(inputs: ClosedInputs) -> None:
    """One unmeasured full-size run.  The first run in a process grows
    the coordinator's heap, page faults included, and reads 30-40%
    slower than the runs that reuse it."""
    closed_loop_run(inputs)


def repeat_closed(inputs: ClosedInputs, seconds: float) -> Dict[str, Any]:
    """Repeat runs of one input set while another run of the last one's
    length still fits in ``seconds`` (at least one); every run counts."""
    reps: List[ClosedRep] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(closed_loop_run(inputs))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    done = [r for r in reps if r.events]
    calls = [r.call_s for r in done]
    samples = {
        "throughput_eps": [r.throughput_eps for r in done],
        "cpu_us_per_event": [r.cpu_s / r.events * 1e6 for r in done],
        "p50_latency_s": calls,
        "p99_latency_s": calls,
        "setup_s": [r.setup_s for r in done],
        "peak_rss_mb": [peak_child_rss_mb()],
    }
    res = _summary(samples, len(reps), sum(not r.ok for r in reps), [r.error for r in reps])
    if calls:
        res["values"]["p99_latency_s"] = quantile(calls, 99)
    return res


def _summary(samples, attempted: int, failed: int, errors) -> Dict[str, Any]:
    """The median of each metric's samples; a metric with no sample
    (every run raised) reads 0."""
    values = {name: statistics.median(s) if s else 0.0 for name, s in samples.items()}
    return {
        "values": values,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for e in errors if e],
    }


def measure_closed(spec: ClosedLoop, seed: int, seconds: float) -> Dict[str, Any]:
    inputs = closed_loop_inputs(spec, seed)
    warm_up_closed(inputs)
    return repeat_closed(inputs, seconds)


# ---------------------------------------------------------------------------
# Open loop: the service tier
# ---------------------------------------------------------------------------

@dataclass
class ServeInputs:
    app: Any
    events: List[Event]
    #: barrier ts -> repr of its spec ``window_sum`` output.
    expected: Dict[float, str]
    #: barrier ts -> number of offered events in its window.
    window_events: Dict[float, int]
    spec_s: float


def serve_inputs(spec: OpenLoop, seed: int) -> ServeInputs:
    app = value_barrier_app(spec.n_value_streams, barrier_every=spec.barrier_every)
    rng = random.Random(seed)
    events = [
        Event(e.tag, e.stream, e.ts, rng.randint(1, 9)) if e.tag == vb.VALUE_TAG else e
        for e in app.make_events(spec.events)
    ]
    t0 = time.perf_counter()
    outs = spec_outputs(app.program, events)
    spec_s = time.perf_counter() - t0
    window_events: Dict[float, int] = {}
    n = 0
    for e in events:
        n += 1
        if e.tag == vb.BARRIER_TAG:
            window_events[e.ts] = n
            n = 0
    return ServeInputs(app, events, {o[1]: repr(o) for o in outs}, window_events, spec_s)


@dataclass
class ServeSession:
    """One service lifetime: set-up, paced ingest, finish, teardown."""

    setup_s: float = 0.0
    offered: int = 0
    rejected: int = 0
    failed: int = 0
    #: Subscriber-timed window latencies (s) from scheduled send time.
    latencies: List[float] = field(default_factory=list)
    #: Send start minus scheduled time, per batch (s).
    late: List[float] = field(default_factory=list)
    #: Time each ``send_events`` call blocked for its ack (s).
    ack_wait: List[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    epochs: List[Any] = field(default_factory=list)
    metrics: Any = None
    error: str = ""

    @property
    def throughput_eps(self) -> float:
        return (self.offered - self.rejected) / self.elapsed_s

    @property
    def cpu_us_per_event(self) -> float:
        return self.cpu_s / self.offered * 1e6


@dataclass(frozen=True)
class Epoch:
    """What the benchmark reads of one service epoch."""

    sealed_events: int
    wall_s: float


def _service_main(app, metrics: bool, conn) -> None:
    """The service process: start, report the listener, serve until
    told to stop, then ship the epochs and accumulated metrics."""
    opts = ServeOptions(backend="process", run=RunOptions(timeout_s=RUN_TIMEOUT_S, metrics=metrics))
    handle = start_service(app.program, app.plan, options=opts)
    try:
        conn.send((handle.port, handle.cookie))
        conn.recv()
    finally:
        handle.stop()
    rt = handle.runtime
    conn.send(([Epoch(e.sealed_events, e.wall_s) for e in rt.epochs], rt.metrics))
    conn.close()


class ServiceProcess:
    """``start_service`` in a forked process of its own, so the load
    generator's threads never compete with the service for one
    interpreter lock.  Not a daemon: its epoch workers are its own
    children, and once it is reaped their CPU time and RSS reach this
    process's ``RUSAGE_CHILDREN``."""

    def __init__(self, app, metrics: bool) -> None:
        ctx = mp.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_service_main, args=(app, metrics, child), name="perfbench-serve"
        )
        self._proc.start()
        child.close()
        self.epochs: List[Epoch] = []
        self.metrics: Any = None
        try:
            self.port, self.cookie = self._recv("start")
        except BaseException:
            self.close()
            raise

    def _recv(self, what: str):
        if not self._conn.poll(RUN_TIMEOUT_S):
            raise TimeoutError(f"service process did not {what} in time")
        return self._conn.recv()

    def stop(self) -> None:
        """Stop the service and collect its epochs and metrics."""
        try:
            self._conn.send("stop")
            self.epochs, self.metrics = self._recv("stop")
        finally:
            self.close()

    def close(self) -> None:
        self._proc.join(RUN_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(5.0)
        self._conn.close()


def serve_setup_only(inputs: ServeInputs) -> float:
    """Time from starting the service until both clients are connected,
    then tear down (clients first, so the server sees polite closes)."""
    t0 = time.perf_counter()
    svc = ServiceProcess(inputs.app, False)
    try:
        with connect(svc.port, svc.cookie, mode="subscribe"):
            with connect(svc.port, svc.cookie, mode="ingest"):
                setup_s = time.perf_counter() - t0
    finally:
        svc.stop()
    return setup_s


def serve_session(spec: OpenLoop, inputs: ServeInputs, *, metrics: bool = False) -> ServeSession:
    """Offer every event on the fixed schedule, finish the service, and
    check each window's committed output against the spec.

    An offered event fails if it was rejected or if its window's output
    is missing, duplicated or different from the spec."""
    out = ServeSession(offered=len(inputs.events))
    received: Dict[float, List[Any]] = {}
    sub_error: List[str] = []
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    svc = sub = ing = reader = None
    try:
        svc = ServiceProcess(inputs.app, metrics)
        sub = connect(svc.port, svc.cookie, mode="subscribe")
        ing = connect(svc.port, svc.cookie, mode="ingest")
        out.setup_s = time.perf_counter() - t0

        def drain() -> None:
            try:
                for _seq, value in sub.outputs():
                    received.setdefault(value[1], []).append((time.perf_counter(), value))
            except Exception as exc:  # surfaced as a failed session
                sub_error.append(repr(exc))

        reader = threading.Thread(target=drain, name="perfbench-subscriber")
        reader.start()
        due_of: Dict[float, float] = {}
        period = spec.batch / spec.rate_eps
        start = time.perf_counter() + period
        events = inputs.events
        for k, i in enumerate(range(0, len(events), spec.batch)):
            due = start + k * period
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            out.late.append(sent - due)
            batch = events[i : i + spec.batch]
            for e in batch:
                if e.tag == vb.BARRIER_TAG:
                    due_of[e.ts] = due
            ack = ing.send_events(batch, batch=spec.batch)
            out.ack_wait.append(time.perf_counter() - sent)
            out.rejected += ack.rejected
        ing.finish()
        reader.join(RUN_TIMEOUT_S)
        if reader.is_alive():
            raise TimeoutError("subscriber did not see the service finish")
        last = max((t for got in received.values() for t, _v in got), default=start)
        out.elapsed_s = last - start
        out.latencies = [got[0][0] - due_of[ts] for ts, got in received.items() if ts in due_of]
    except Exception as exc:  # a failed session is counted, never fatal
        out.error = repr(exc)
    finally:
        for client in (ing, sub):
            if client is not None:
                client.close()
        if reader is not None:
            reader.join(RUN_TIMEOUT_S)
        if svc is not None:
            try:
                svc.stop()
            except Exception as exc:  # counted like any other failure
                out.error = out.error or repr(exc)
    out.cpu_s = cpu_seconds() - c0
    if svc is not None:
        out.epochs = svc.epochs
        out.metrics = svc.metrics
    if sub_error and not out.error:
        out.error = sub_error[0]
    out.failed = out.rejected + sum(
        n
        for ts, n in inputs.window_events.items()
        if [repr(v) for _t, v in received.get(ts, [])] != [inputs.expected[ts]]
    )
    if out.error:
        out.failed = out.offered
    out.failed = min(out.failed, out.offered)
    return out


#: Set-up-only service starts per measurement, on top of one per
#: session, so ``setup_s`` is a median of several samples.
EXTRA_SETUPS = 12


#: Events in the unmeasured warm-up session.
WARMUP_EVENTS = 2_000


def warm_up_serve(spec: OpenLoop, seed: int) -> None:
    """One short unmeasured session: the first session in a process
    reads slower than the rest (first forks, heap growth)."""
    short = replace(spec, events=WARMUP_EVENTS)
    serve_session(short, serve_inputs(short, seed))


def repeat_serve(spec: OpenLoop, inputs: ServeInputs, seconds: float) -> Dict[str, Any]:
    """Set-up-only starts, then sessions while another of the last
    one's length still fits in ``seconds`` (at least one); every
    session counts.  Latency is each session's p50 / p99 over its
    windows (1,000 at full size, so ten beyond the p99), then the
    median across sessions: one session with a slow stretch moves the
    result less than it would in a pooled distribution."""
    setups = [serve_setup_only(inputs) for _ in range(EXTRA_SETUPS)]
    sessions: List[ServeSession] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        sessions.append(serve_session(spec, inputs))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    done = [s for s in sessions if not s.error]
    samples = {
        "throughput_eps": [s.throughput_eps for s in done],
        "cpu_us_per_event": [s.cpu_us_per_event for s in done],
        "p50_latency_s": [quantile(s.latencies, 50) for s in done],
        "p99_latency_s": [quantile(s.latencies, 99) for s in done],
        "setup_s": setups + [s.setup_s for s in sessions if s.setup_s],
        "peak_rss_mb": [peak_child_rss_mb()],
    }
    return _summary(
        samples,
        sum(s.offered for s in sessions),
        sum(s.failed for s in sessions),
        [s.error for s in sessions],
    )


def measure_serve(spec: OpenLoop, seed: int, seconds: float) -> Dict[str, Any]:
    inputs = serve_inputs(spec, seed)
    warm_up_serve(spec, seed)
    return repeat_serve(spec, inputs, seconds)


def measure(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    spec = WORKLOADS[name]
    if isinstance(spec, ClosedLoop):
        return measure_closed(spec, seed, seconds)
    return measure_serve(spec, seed, seconds)


def replay_streams(inputs: Union[ClosedInputs, ServeInputs]) -> List[Any]:
    """The input streams a layer replay feeds: a closed-loop workload's
    own streams, or the served events cut into one stream per
    implementation tag with the service's per-epoch heartbeat cadence
    (as ``ServiceRuntime`` builds each epoch, here as one epoch)."""
    if isinstance(inputs, ClosedInputs):
        return inputs.streams
    hb = ServeOptions().heartbeat_interval
    by_itag: Dict[Any, List[Event]] = {}
    for e in inputs.events:
        by_itag.setdefault(e.itag, []).append(e)
    return [
        InputStream(itag, tuple(evs), heartbeat_interval=hb)
        for itag, evs in sorted(by_itag.items(), key=lambda kv: repr(kv[0]))
    ]
