"""Plan workers on the cluster simulator (paper §3.4).

Each plan node becomes one :class:`WorkerActor`: a simulated actor that
owns the substrate-independent :class:`~repro.runtime.protocol.WorkerCore`
(the selective-reordering mailbox plus the join/fork worker — co-located
on one host in Flumina too, so one actor carries both).  The actor adds
only what the simulator needs:

* the cost model — a per-message :meth:`~WorkerActor.service_time` and
  the state-transfer size of every forked or joined state it sends;
* the mapping from plan-worker ids to actor names;
* fail-stop on an injected crash or a reconfiguration quiesce;
* a :class:`SimSink` stamping every output (and, optionally, every
  processed event) with the simulated time it happened.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..core.events import Event
from ..core.program import DGSProgram
from ..plans.plan import PlanNode, SyncPlan
from ..sim.actors import Actor
from .faults import CrashRecord, WorkerCrash, WorkerFaultView
from .messages import ForkStateMsg, HeartbeatMsg, JoinResponse
from .protocol import OutputSink, WorkerCore
from .quiesce import QuiesceRecord, QuiesceSignal

StateSizeFn = Callable[[Any], float]


def default_state_size(state: Any) -> float:
    try:
        return float(len(state))
    except TypeError:
        return 1.0


class SimSink(OutputSink):
    """Cross-worker measurement sink for one simulated execution.

    ``outputs`` holds ``(value, emit_time_ms, latency_ms)`` triples,
    stamped with ``now`` — the completion time of the handler that
    produced them, set by the emitting actor before it runs.  With
    ``track_event_latency`` every processed event's latency
    (``now - event.ts``) is kept too (the heartbeat-sensitivity
    experiments of Appendix D.1 need it).  Crash and quiesce records of
    the workers that stopped are collected here as well.
    """

    __slots__ = ("now", "track_event_latency", "event_latencies", "crashes", "quiesce")

    def __init__(self, record_keys: bool = False, track_event_latency: bool = False) -> None:
        super().__init__(record_keys)
        self.now = 0.0
        self.track_event_latency = track_event_latency
        self.event_latencies: List[float] = []
        self.crashes: List[CrashRecord] = []
        #: Set when the root quiesced for an elastic reconfiguration
        #: (repro.runtime.reconfigure); carries the migration snapshot.
        self.quiesce: Optional[QuiesceRecord] = None

    def emit(self, outs: Any, key: Optional[Tuple] = None) -> None:
        if outs:
            now = self.now
            latency = now - key[0]  # type: ignore[index]
            self.outputs.extend((out, now, latency) for out in outs)
            if self.record_keys:
                self.keyed_outputs.extend((key, out) for out in outs)

    def count_event(self, event: Event) -> None:
        self.events_processed += 1
        if self.track_event_latency:
            self.event_latencies.append(self.now - event.ts)


class WorkerActor(Actor):
    """One synchronization-plan worker as a simulated actor."""

    #: Flumina's per-event CPU multiplier relative to the bare update:
    #: the mailbox's selective-reordering bookkeeping (buffer insert,
    #: timer updates, cascade checks) runs on every event.  Calibrated
    #: so Flumina's absolute throughput sits below the record engines,
    #: as in the paper (Figures 4 vs 8 share no axis for this reason).
    MAILBOX_OVERHEAD = 1.8

    def __init__(
        self,
        name: str,
        host: str,
        *,
        node: PlanNode,
        plan: SyncPlan,
        program: DGSProgram,
        sink: SimSink,
        actor_name_of: Callable[[str], str],
        state_size: StateSizeFn = default_state_size,
        checkpoint_predicate: Optional[Callable[[Event, int], bool]] = None,
        faults: Optional[WorkerFaultView] = None,
        reconfig: Optional[Any] = None,
    ) -> None:
        super().__init__(name, host)
        self.sink = sink
        self.actor_name_of = actor_name_of
        self.state_size = state_size
        #: Fail-stop flag: a crashed actor silently absorbs everything.
        self.crashed = False
        self.core = WorkerCore(
            node,
            plan,
            program,
            self.post,
            sink,
            checkpoint_predicate=checkpoint_predicate,
            faults=faults,
            reconfig=reconfig,
        )

    def service_time(self, msg: Any) -> float:
        p = self.system.params
        if isinstance(msg, HeartbeatMsg):
            return p.recv_overhead_ms * 0.5
        return p.cpu_per_event_ms * self.MAILBOX_OVERHEAD

    def post(self, dst: str, msg: Any) -> None:
        size = self.state_size(msg.state) if isinstance(msg, (JoinResponse, ForkStateMsg)) else 0.0
        self.send(self.actor_name_of(dst), msg, state_size=size)

    def handle(self, msg: Any, sender: Optional[str]) -> None:
        if self.crashed:
            return  # fail-stop: messages to a dead node are lost
        self.sink.now = self.now
        try:
            self.core.handle(msg)
        except WorkerCrash as crash:
            # Events processed before the crash already queued their
            # sends in the outbox; those still depart (they happened
            # before the failure).  The triggering event did not.
            self.crashed = True
            self.sink.crashes.append(crash.record)
        except QuiesceSignal as sig:
            # Planned stop for reconfiguration: the triggering event IS
            # fully processed (outputs recorded, snapshot captured);
            # only the fork back down was withheld.  The actor goes
            # silent like a fail-stop — the driver restarts the cluster
            # on the migrated plan.
            self.crashed = True
            self.sink.quiesce = sig.record
