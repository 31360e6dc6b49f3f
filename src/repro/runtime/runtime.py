"""The end-to-end Flumina-style runtime on the cluster simulator.

:class:`FluminaRuntime` instantiates a P-valid synchronization plan as
one actor per worker, distributes the initial state down the tree with
the program's fork (consistent by C2), feeds the input streams (with
periodic heartbeats, §3.4), runs the simulation to completion, and
returns a :class:`RunResult` with outputs, latencies, throughput, and
network statistics.

Timestamps double as simulated arrival times: an event with timestamp
``ts`` departs its producer at ``ts`` milliseconds of simulated time,
so event latency is ``emit_time - ts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import RuntimeFault
from ..core.events import Event, Heartbeat, ImplTag
from ..core.program import DGSProgram
from ..plans.generation import assign_hosts_round_robin
from ..plans.plan import SyncPlan
from ..plans.validity import assert_p_valid
from ..sim.actors import ActorSystem
from ..sim.core import Simulator
from ..sim.network import NetworkStats, Topology
from ..sim.params import DEFAULT_PARAMS, SimParams
from .checkpoint import Checkpoint
from .faults import CrashRecord, FaultPlan
from .messages import EventMsg, HeartbeatMsg
from .metrics import LatencyHistogram, MetricsConfig, MetricsSnapshot, RunMetrics
from .protocol import (
    INIT_STATE,
    _check_stream,
    _heartbeat_times,
    end_timestamp,
    initial_leaf_states,
)
from .quiesce import QuiesceRecord
from .worker import SimSink, StateSizeFn, WorkerActor, default_state_size


@dataclass(frozen=True)
class InputStream:
    """One input stream: a single implementation tag's events.

    ``events`` must be strictly increasing in timestamp.  ``source_host``
    is where the producer runs (events from a producer co-located with
    the owning worker are local).  ``heartbeat_interval`` is the gap (in
    timestamp units == simulated ms) between heartbeats; ``None``
    disables periodic heartbeats (a closing heartbeat is still sent so
    finite runs drain).
    """

    itag: ImplTag
    events: Tuple[Event, ...]
    source_host: Optional[str] = None
    heartbeat_interval: Optional[float] = 10.0


@dataclass
class RunResult:
    """Everything measured in one simulated execution."""

    outputs: List[Tuple[Any, float, float]]  # (value, emit_time, latency)
    duration_ms: float
    first_input_ms: float
    last_input_ms: float
    events_in: int
    events_processed: int
    joins: int
    network: NetworkStats
    host_utilization: Dict[str, float]
    checkpoints: List[Checkpoint] = field(default_factory=list)
    event_latencies: List[float] = field(default_factory=list)
    #: (order_key, value) log (record_keys runs) + injected crashes.
    keyed_outputs: List[Tuple[tuple, Any]] = field(default_factory=list)
    crashes: List[CrashRecord] = field(default_factory=list)
    #: Set when the root quiesced for elastic reconfiguration.
    quiesce: Optional[QuiesceRecord] = None
    #: Metrics-plane snapshot (one "sim" pseudo-worker; latencies are
    #: simulated ms scaled to seconds) when metrics were enabled.
    metrics: Optional[RunMetrics] = None

    def event_latency_percentiles(
        self, qs: Sequence[float] = (10, 50, 90)
    ) -> List[float]:
        """Percentiles over *every processed event's* latency — the
        Appendix D.1 metric (requires track_event_latency=True)."""
        if not self.event_latencies:
            return [math.nan for _ in qs]
        return [float(p) for p in np.percentile(self.event_latencies, qs)]

    def output_values(self) -> List[Any]:
        return [v for v, _, _ in self.outputs]

    def latencies(self) -> List[float]:
        return [lat for _, _, lat in self.outputs]

    def latency_percentiles(self, qs: Sequence[float] = (10, 50, 90)) -> List[float]:
        lats = self.latencies()
        if not lats:
            return [math.nan for _ in qs]
        return [float(p) for p in np.percentile(lats, qs)]

    @property
    def input_span_ms(self) -> float:
        """Length of the input injection window (offered-load basis)."""
        return max(self.last_input_ms - self.first_input_ms, 1e-9)

    @property
    def throughput_events_per_ms(self) -> float:
        span = self.duration_ms - self.first_input_ms
        if span <= 0:
            return 0.0
        return self.events_in / span


class FluminaRuntime:
    """Instantiate a program + plan on a simulated cluster and run it."""

    def __init__(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        *,
        topology: Optional[Topology] = None,
        params: SimParams = DEFAULT_PARAMS,
        state_size: StateSizeFn = default_state_size,
        checkpoint_predicate: Optional[Callable[[Event, int], bool]] = None,
        track_event_latency: bool = False,
        faults: Optional[FaultPlan] = None,
        record_keys: bool = False,
        reconfig: Optional[Any] = None,
        metrics: Optional[MetricsConfig] = None,
        validate: bool = True,
    ) -> None:
        self.program = program
        if validate:
            assert_p_valid(plan, program)
        if topology is None:
            n_hosts = max(1, len(plan.leaves()))
            topology = Topology.cluster(n_hosts, params=params)
        self.topology = topology
        if any(n.host is None for n in plan.workers()):
            plan = assign_hosts_round_robin(plan, topology.host_names())
        for node in plan.workers():
            if node.host not in topology.hosts:
                raise RuntimeFault(
                    f"worker {node.id} placed on unknown host {node.host!r}"
                )
        self.plan = plan
        self.params = topology.params
        self.state_size = state_size
        self.checkpoint_predicate = checkpoint_predicate
        self.track_event_latency = track_event_latency
        self.faults = faults
        self.record_keys = record_keys
        #: RootReconfigView handed to the root worker (elastic runs).
        self.reconfig = reconfig
        #: MetricsConfig when the metrics plane is on (the simulated
        #: substrate reports a single "sim" pseudo-worker).
        self.metrics = metrics

    # -- setup ----------------------------------------------------------------
    @staticmethod
    def actor_name_of(worker_id: str) -> str:
        return f"worker:{worker_id}"

    def _build(
        self, initial_state: Any = INIT_STATE
    ) -> Tuple[ActorSystem, SimSink, Dict[str, WorkerActor]]:
        sim = Simulator()
        system = ActorSystem(sim, self.topology)
        sink = SimSink(
            record_keys=self.record_keys,
            track_event_latency=self.track_event_latency,
        )
        workers: Dict[str, WorkerActor] = {}
        for node in self.plan.workers():
            actor = WorkerActor(
                self.actor_name_of(node.id),
                node.host,  # type: ignore[arg-type]
                node=node,
                plan=self.plan,
                program=self.program,
                sink=sink,
                actor_name_of=self.actor_name_of,
                state_size=self.state_size,
                checkpoint_predicate=self.checkpoint_predicate,
                faults=(
                    self.faults.view_for(node.id) if self.faults is not None else None
                ),
                reconfig=(
                    self.reconfig if node.id == self.plan.root.id else None
                ),
            )
            system.add(actor)
            workers[node.id] = actor
        # Fork the root state (init(), or a restored checkpoint) down
        # the tree so every leaf holds its share (consistent by C2).
        leaf_states = initial_leaf_states(self.plan, self.program, initial_state)
        for leaf_id, state in leaf_states.items():
            workers[leaf_id].core.state = state
        return system, sink, workers

    # -- input feeding ------------------------------------------------------------
    def _feed(self, system: ActorSystem, streams: Sequence[InputStream]) -> Tuple[int, float, float]:
        """Inject every stream's events at their timestamps, then its
        heartbeats: the periodic ones plus a closing one so that every
        buffer drains at the end of the run.  A stream that breaks the
        :class:`InputStream` contract raises :class:`InputError`."""
        end_ts = end_timestamp(streams)
        events_in = 0
        first_ts = math.inf
        last_ts = 0.0
        for stream in streams:
            itag = stream.itag
            ts = tuple([e.ts for e in stream.events])
            _check_stream(itag, stream.events, ts)
            if ts:
                first_ts = min(first_ts, ts[0])
                last_ts = max(last_ts, ts[-1])
            owner = self.plan.owner_of(itag)
            dst = self.actor_name_of(owner.id)
            src_host = stream.source_host or owner.host
            for e in stream.events:
                system.inject(dst, EventMsg(e), at=e.ts, from_host=src_host)
            events_in += len(ts)
            event_ts = set(ts)
            for t in _heartbeat_times(stream.heartbeat_interval, end_ts):
                if t in event_ts:
                    continue
                hb = Heartbeat(itag.tag, itag.stream, t)
                system.inject(
                    dst,
                    HeartbeatMsg(itag, hb.order_key),
                    at=t,
                    from_host=src_host,
                )
        if not math.isfinite(first_ts):
            first_ts = 0.0
        return events_in, first_ts, last_ts

    # -- execution ------------------------------------------------------------------
    def run(
        self,
        streams: Sequence[InputStream],
        *,
        max_sim_events: int = 50_000_000,
        initial_state: Any = INIT_STATE,
    ) -> RunResult:
        system, sink, workers = self._build(initial_state)
        events_in, first_ts, last_ts = self._feed(system, streams)
        system.sim.run(max_events=max_sim_events)
        duration = max(system.sim.now, system.last_completion)
        if not sink.crashes and sink.quiesce is None:
            # A crashed or quiesced attempt legitimately strands
            # buffered items (the stopped worker's, and its blocked
            # ancestors'); the recovery/reconfiguration drivers replay
            # them, so only fail-free runs must prove they drained.
            for worker in workers.values():
                left = worker.core.unprocessed()
                if left:
                    raise RuntimeFault(
                        f"run ended with {left} unprocessed items at "
                        f"{worker.name}; check heartbeats / dependence relation"
                    )
        util = {
            name: host.utilization(duration) if duration > 0 else 0.0
            for name, host in self.topology.hosts.items()
        }
        run_metrics: Optional[RunMetrics] = None
        if self.metrics is not None:
            # One pseudo-worker for the whole simulated cluster:
            # counters from the sink, the end-to-end histogram
            # fed from per-output latencies (simulated ms -> seconds).
            buckets = self.metrics.latency_buckets
            snap = MetricsSnapshot(
                worker="sim",
                events_processed=sink.events_processed,
                joins_completed=sink.joins,
            )
            lats = [lat for _, _, lat in sink.outputs]
            if lats:
                h = LatencyHistogram(buckets)
                for lat in lats:
                    h.observe(max(lat, 0.0) / 1000.0)
                snap.event_latency = h
            run_metrics = RunMetrics(latency_buckets=buckets)
            run_metrics.absorb(snap)
        return RunResult(
            outputs=sink.outputs,
            duration_ms=duration,
            first_input_ms=first_ts,
            last_input_ms=last_ts,
            events_in=events_in,
            events_processed=sink.events_processed,
            joins=sink.joins,
            network=self.topology.stats,
            host_utilization=util,
            checkpoints=sink.checkpoints,
            event_latencies=sink.event_latencies,
            keyed_outputs=sink.keyed_outputs,
            crashes=sink.crashes,
            quiesce=sink.quiesce,
            metrics=run_metrics,
        )


def run_sequential_reference(
    program: DGSProgram, streams: Sequence[InputStream]
) -> List[Any]:
    """The sequential specification output for the same input streams
    (the correctness oracle of Definition 3.4)."""
    return program.spec_of_streams([list(s.events) for s in streams])
