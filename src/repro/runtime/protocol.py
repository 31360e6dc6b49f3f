"""Substrate-independent synchronization-plan protocol (paper §3.4).

The join/fork worker state machine — selective-reordering mailbox,
join-request fan-out, fork-state fan-in, heartbeat relay — is the same
whether workers are simulated actors, OS threads, or OS processes.
This module holds the protocol once so every concrete runtime is just
transport plumbing around :class:`WorkerCore`:

* :mod:`repro.runtime.worker` — one simulated actor per worker
  (:class:`~repro.runtime.worker.WorkerActor`), which adds the cluster
  simulator's cost model (service times, state-transfer sizes) and
  simulated-time output stamps;
* :mod:`repro.runtime.threaded` — one ``threading.Thread`` per worker,
  in-memory FIFO queues;
* :mod:`repro.runtime.process` and :mod:`repro.runtime.cluster` — one
  OS process per worker over a batched data plane (escaping the GIL
  for real parallelism).

A ``WorkerCore`` is driven by ``handle(msg)`` calls and talks to the
outside world through two injected callables:

* ``post(dst, msg)`` — send a protocol message to another worker;
* ``sink`` — an :class:`OutputSink` receiving outputs and counters.

Both must be safe to call from the substrate's execution context (the
threaded runtime passes a locking sink; each process-runtime worker
owns a private one).
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import islice
from operator import attrgetter, lt
from time import monotonic as _mono
from time import perf_counter as _perf
from time import sleep as _sleep
from time import time as _wall
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import InputError, RuntimeFault
from ..core.events import Event, ImplTag, _stable_key
from ..core.program import DGSProgram
from ..plans.plan import PlanNode, SyncPlan
from .checkpoint import Checkpoint, CheckpointPredicate
from .faults import WorkerFaultView
from .mailbox import Buffered, Mailbox
from .messages import (
    EventMsg,
    EventRun,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from .wire import _SHAPE_FN, coalesce_event_runs, uniform_run_shape

PostFn = Callable[[str, Any], None]

#: Sentinel for "start from the program's init()"; a real initial state
#: (a restored checkpoint) may legitimately be None-like, so restarts
#: cannot overload None.
INIT_STATE = object()


class RunStatsMixin:
    """Derived statistics shared by every substrate's result type
    (expects ``outputs``, ``events_in`` and ``wall_s`` attributes).

    Output multisets are the cross-backend equivalence currency
    (Theorem 2.4: determinism up to output reordering), so the
    normalization must be identical everywhere — keep it here only.
    """

    def output_multiset(self) -> Counter:
        return Counter(map(repr, self.outputs))

    @property
    def throughput_events_per_s(self) -> float:
        return self.events_in / self.wall_s if self.wall_s > 0 else 0.0


class OutputSink:
    """Collects one execution's outputs and protocol counters.

    The base class is a plain in-memory accumulator; substrates that
    share a sink across concurrent workers wrap it with their own
    synchronization.

    With ``record_keys=True`` every output is additionally logged as a
    ``(order_key, value)`` pair and root-join checkpoints are kept.
    The fault-recovery driver needs both: after a crash it commits
    exactly the outputs at or below the restored checkpoint's key and
    replays the rest (exactly-once output delivery, with the in-memory
    log standing in for a durable one).
    """

    __slots__ = (
        "outputs",
        "keyed_outputs",
        "checkpoints",
        "events_processed",
        "joins",
        "record_keys",
    )

    def __init__(self, record_keys: bool = False) -> None:
        self.outputs: List[Any] = []
        self.keyed_outputs: List[Tuple[tuple, Any]] = []
        self.checkpoints: List[Checkpoint] = []
        self.events_processed = 0
        self.joins = 0
        self.record_keys = record_keys

    def emit(self, outs: Sequence[Any], key: Optional[tuple] = None) -> None:
        if outs:
            self.outputs.extend(outs)
            if self.record_keys:
                self.keyed_outputs.extend((key, o) for o in outs)

    def checkpoint(self, ckpt: Checkpoint) -> None:
        self.checkpoints.append(ckpt)

    def count_event(self, event: Event) -> None:
        """One event applied by ``update`` (at a leaf, or at the join
        its synchronizing event triggered)."""
        self.events_processed += 1

    def count_events(self, n: int) -> None:
        """Batch counter for the vectorized run path."""
        self.events_processed += n

    def count_join(self) -> None:
        self.joins += 1


class WorkerCore:
    """One plan worker's protocol state machine, substrate-free.

    Events and join requests pass through the selective-reordering
    mailbox; a synchronizing event at an internal node triggers a join
    request to both children, the joined state is updated and forked
    back down; leaves answer join requests by surrendering their state
    and block until the fork returns it.  A message the protocol cannot
    have produced (a join response nobody asked for, a forked state for
    a worker that gave none up) raises :class:`RuntimeFault`.
    """

    def __init__(
        self,
        node: PlanNode,
        plan: SyncPlan,
        program: DGSProgram,
        post: PostFn,
        sink: OutputSink,
        *,
        checkpoint_predicate: Optional[CheckpointPredicate] = None,
        faults: Optional[WorkerFaultView] = None,
        reconfig: Optional[Any] = None,
        flush_hint: Optional[Callable[[], None]] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.node = node
        self.plan = plan
        self.program = program
        self.post = post
        self.sink = sink
        self.checkpoint_predicate = checkpoint_predicate
        self.faults = faults
        #: Called after posting join-critical messages (join requests,
        #: join responses, forked states).  Substrates with batched
        #: channels pass their flush here so synchronization traffic
        #: never waits out a batch window — joins block the whole
        #: subtree, so their latency is the protocol's critical path.
        #: Substrates with unbatched channels leave it None.
        self.flush_hint = flush_hint
        #: A RootReconfigView (repro.runtime.quiesce) when this worker
        #: is the root of an elastically-reconfigurable run; its
        #: maybe_quiesce hook may raise QuiesceSignal at a root join.
        self.reconfig = reconfig
        #: A WorkerMetrics (repro.runtime.metrics) when the metrics
        #: plane is on, else None.  Every hot-path hook below guards on
        #: it, so the disabled cost is one ``is None`` check.
        self.metrics = metrics
        self._join_t0 = 0.0

        ancestors = plan.ancestors_of(node.id)
        known = set(node.itags)
        for anc in ancestors:
            known |= plan.node(anc).itags
        self.mailbox = Mailbox(known, program.depends)
        self.is_leaf = node.is_leaf
        st = program.state_type(node.state_type)
        self.update = st.update
        self.update_batch = getattr(st, "update_batch", None)
        if not self.is_leaf:
            left, right = node.children
            self.join_fn = program.join_for(left.state_type, right.state_type, node.state_type)
            self.fork_fn = program.fork_for(node.state_type, left.state_type, right.state_type)
            tags_l = {t.tag for t in plan.subtree_itags(left.id)}
            tags_r = {t.tag for t in plan.subtree_itags(right.id)}
            self.pred_left = program.true_pred().restrict(tags_l)
            self.pred_right = program.true_pred().restrict(tags_r)
            self.children = (left.id, right.id)
        parent = plan.parent_of(node.id)
        self.parent_id = parent.id if parent else None

        self.state: Any = None
        self.has_state = self.is_leaf
        self._checkpoints_taken = 0
        self.pending: Deque[Buffered] = deque()
        #: Events in ``pending`` (a columnar run of ``n`` counts ``n``),
        #: kept incrementally for ``unprocessed()`` and the backlog
        #: high-water, which count events like the AutoScaler does.
        self._pending_events = 0
        self.blocked = False
        self._join_seq = 0
        self._current: Optional[Tuple[Tuple[str, int], Any, Dict[str, Any]]] = None
        self._absorb_restore: Optional[Tuple[str, int]] = None
        self._last_relayed: Dict[ImplTag, Any] = {}
        self._inflight_tags: Dict[ImplTag, int] = {}

    # -- entry point -----------------------------------------------------
    def handle(self, msg: Any) -> None:
        if type(msg) is EventRun:
            self._enqueue(self.mailbox.insert_run(msg))
        elif isinstance(msg, EventMsg):
            self._enqueue(self.mailbox.insert(msg.event.itag, msg.event.order_key, msg))
        elif isinstance(msg, HeartbeatMsg):
            if self.faults is not None and self.faults.should_drop_heartbeat(msg.key):
                return
            self._enqueue(self.mailbox.advance(msg.itag, msg.key))
        elif isinstance(msg, JoinRequest):
            self._enqueue(self.mailbox.insert(msg.itag, msg.key, msg))
        elif isinstance(msg, JoinResponse):
            self._on_join_response(msg)
        elif isinstance(msg, ForkStateMsg):
            self._on_fork_state(msg)
        else:  # pragma: no cover - defensive
            raise RuntimeFault(f"unexpected message {msg!r}")
        self._drain()
        self._relay_frontiers()

    def unprocessed(self) -> int:
        """Items still buffered or pending (event-level: a columnar run
        of ``n`` counts ``n``) — must be 0 after a drain."""
        return self.mailbox.buffered_count() + self._pending_events

    # -- protocol --------------------------------------------------------
    def _enqueue(self, released: List[Buffered]) -> None:
        total = 0
        for b in released:
            item = b.item
            n = len(item) if type(item) is EventRun else 1
            self._inflight_tags[b.itag] = self._inflight_tags.get(b.itag, 0) + n
            total += n
        self._pending_events += total
        self.pending.extend(released)

    def _drain(self) -> None:
        if self.metrics is not None:
            self.metrics.note_backlog(self._pending_events)
        while self.pending and not self.blocked:
            buffered = self.pending.popleft()
            item = buffered.item
            if type(item) is EventRun:
                if self.is_leaf and self.faults is None:
                    n = len(item)
                    self._inflight_tags[buffered.itag] -= n
                    self._pending_events -= n
                    self._process_run(item)
                else:
                    # Fallback boundary: fault hooks need the per-event
                    # crash seam, and internal nodes join per event.
                    # Expand in place; the per-event items below repay
                    # the run's inflight and pending counts one by one.
                    self.pending.extendleft(
                        Buffered(buffered.itag, e.order_key, EventMsg(e))
                        for e in reversed(item.events())
                    )
                continue
            self._inflight_tags[buffered.itag] -= 1
            self._pending_events -= 1
            if isinstance(item, EventMsg):
                self._process_event(item.event)
            else:
                self._process_join_request(item)

    def _process_event(self, event: Event) -> None:
        if self.faults is not None:
            # May raise WorkerCrash (fail-stop at the event boundary:
            # nothing of this event has been applied yet).
            self.faults.note_event(event.ts)
        self.sink.count_event(event)
        m = self.metrics
        if m is not None:
            m.events_processed += 1
        if self.is_leaf:
            self.state, outs = self.update(self.state, event)
            self.sink.emit(outs, key=event.order_key)
            if m is not None:
                m.observe_event_latency(_wall(), event.ts)
        else:
            self._start_join(("event", event))

    def _process_run(self, run: EventRun) -> None:
        """Vectorized leaf fast path: apply a whole released run in one
        dispatch.  Only reached when the node is a leaf and no fault
        view is armed (see ``_drain``); with an ``update_batch`` on the
        state type the operator sees the packed columns directly,
        otherwise we fold ``update`` over the run without going back
        through the mailbox machinery."""
        sink = self.sink
        n = len(run)
        sink.count_events(n)
        m = self.metrics
        if m is not None:
            m.events_processed += n
        ub = self.update_batch
        if ub is not None:
            self.state, indexed = ub(self.state, run)
            if indexed:
                if sink.record_keys:
                    keys = run.keys()
                    for i, out in indexed:
                        sink.emit((out,), key=keys[i])
                else:
                    sink.emit([out for _, out in indexed])
        else:
            update = self.update
            state = self.state
            if sink.record_keys:
                keys = run.keys()
                for i, e in enumerate(run.events()):
                    state, outs = update(state, e)
                    if outs:
                        sink.emit(outs, key=keys[i])
            else:
                for e in run.events():
                    state, outs = update(state, e)
                    if outs:
                        sink.emit(outs)
            self.state = state
        if m is not None:
            now = _wall()
            for t in run.ts:
                m.observe_event_latency(now, t)

    def _process_join_request(self, req: JoinRequest) -> None:
        if self.is_leaf:
            m = self.metrics
            piggy = m.maybe_wire_snapshot(_mono()) if m is not None else None
            self.post(
                req.reply_to,
                JoinResponse(
                    req.req_id, req.side, self.state, 1.0, self.unprocessed(), piggy
                ),
            )
            self.state = None
            self.has_state = False
            self.blocked = True
            if self.flush_hint is not None:
                self.flush_hint()
        else:
            self._start_join(("parent", req))

    def _start_join(self, ctx: Tuple[str, Any]) -> None:
        self._join_seq += 1
        req_id = (self.node.id, self._join_seq)
        itag = ctx[1].itag
        key = ctx[1].order_key if ctx[0] == "event" else ctx[1].key
        for side, child in zip(("left", "right"), self.children):
            self.post(child, JoinRequest(req_id, itag, key, self.node.id, side))
        self.blocked = True
        self._current = (req_id, ctx, {})
        if self.metrics is not None:
            self._join_t0 = _perf()
        if self.flush_hint is not None:
            self.flush_hint()

    def _on_join_response(self, msg: JoinResponse) -> None:
        if self._current is None or self._current[0] != msg.req_id:
            raise RuntimeFault(
                f"worker {self.node.id}: unexpected join response {msg.req_id}"
            )
        req_id, ctx, states = self._current
        states[msg.side] = msg
        if len(states) < 2:
            return
        joined = self.join_fn(states["left"].state, states["right"].state)
        subtree_backlog = states["left"].backlog + states["right"].backlog
        self.sink.count_join()
        self._current = None
        m = self.metrics
        if m is not None:
            m.joins_completed += 1
            m.join_rtt.observe(_perf() - self._join_t0)
            m.note_subtree(states["left"].metrics)
            m.note_subtree(states["right"].metrics)
        if ctx[0] == "event":
            event: Event = ctx[1]
            self.sink.count_event(event)
            joined, outs = self.update(joined, event)
            self.sink.emit(outs, key=event.order_key)
            if m is not None:
                m.observe_event_latency(_wall(), event.ts)
            if (
                self.parent_id is None
                and self.checkpoint_predicate is not None
                and self.checkpoint_predicate(event, self._checkpoints_taken)
            ):
                # Appendix D.2: the root's joined state *is* a
                # consistent snapshot as of the triggering event.
                self._checkpoints_taken += 1
                self.sink.checkpoint(
                    Checkpoint(event.order_key, event.ts, joined)
                )
            if self.parent_id is None and self.reconfig is not None:
                # Elastic reconfiguration hook: the joined state is a
                # consistent snapshot, and the summed backlogs are the
                # cluster-wide queue depth at this instant.  When the
                # metrics plane is on, also hand over its backlog
                # high-water since the last join — the AutoScaler's
                # watermarks read the windowed peak, not just the
                # instant the join happened to sample.  May raise
                # QuiesceSignal (the substrate stops the attempt and
                # the driver migrates; the fork below never happens).
                self.reconfig.maybe_quiesce(
                    event,
                    subtree_backlog + self.unprocessed(),
                    joined,
                    backlog_hw=m.take_backlog_window() if m is not None else 0,
                )
            self._fork_down(req_id, joined)
            self.blocked = False
        else:
            req: JoinRequest = ctx[1]
            fwd = None
            if m is not None:
                # Relay everything collected from below plus (rate
                # limited) our own snapshot; the root absorbs these
                # into its live per-worker view.
                own = m.maybe_wire_snapshot(_mono())
                acc = tuple(m.subtree.values()) + (own or ())
                if acc:
                    fwd = acc
                    m.subtree.clear()
            self.post(
                req.reply_to,
                JoinResponse(
                    req.req_id,
                    req.side,
                    joined,
                    1.0,
                    subtree_backlog + self.unprocessed(),
                    fwd,
                ),
            )
            self._absorb_restore = req_id
            if self.flush_hint is not None:
                self.flush_hint()

    def _on_fork_state(self, msg: ForkStateMsg) -> None:
        absorbed = not self.has_state if self.is_leaf else self._absorb_restore is not None
        if not absorbed:
            raise RuntimeFault(
                f"worker {self.node.id}: fork state {msg.req_id} without absorption"
            )
        if self.is_leaf:
            self.state = msg.state
            self.has_state = True
        else:
            sub = self._absorb_restore
            self._absorb_restore = None
            self._fork_down(sub, msg.state)
        self.blocked = False

    def _fork_down(self, req_id: Tuple[str, int], state: Any) -> None:
        s_l, s_r = self.fork_fn(state, self.pred_left, self.pred_right)
        for child, s in zip(self.children, (s_l, s_r)):
            self.post(child, ForkStateMsg(req_id, s, 1.0))
        if self.flush_hint is not None:
            self.flush_hint()

    def _relay_frontiers(self) -> None:
        if self.is_leaf:
            return
        for itag in self.mailbox.itags:
            if self._inflight_tags.get(itag, 0) > 0:
                continue
            frontier = self.mailbox.frontier(itag)
            if frontier is None or frontier[0] == float("-inf"):
                continue
            last = self._last_relayed.get(itag)
            if last is not None and last >= frontier:
                continue
            self._last_relayed[itag] = frontier
            for child in self.children:
                self.post(child, HeartbeatMsg(itag, frontier))


# ---------------------------------------------------------------------------
# Shared setup helpers
# ---------------------------------------------------------------------------

def initial_leaf_states(
    plan: SyncPlan, program: DGSProgram, root_state: Any = INIT_STATE
) -> Dict[str, Any]:
    """Fork the root state down the plan tree and return each leaf's
    share.  ``root_state`` defaults to ``init()``; crash recovery
    passes a restored checkpoint state instead (restarting the cluster
    from the snapshot).

    C2-consistency makes the forked distribution equivalent to the
    sequential state; running the forks in the coordinating parent
    means worker substrates only ever receive ready-made states.
    """
    states: Dict[str, Any] = {}

    def rec(node: PlanNode, state: Any) -> None:
        if node.is_leaf:
            states[node.id] = state
            return
        left, right = node.children
        fork = program.fork_for(node.state_type, left.state_type, right.state_type)
        pred_l = program.true_pred().restrict(
            {t.tag for t in plan.subtree_itags(left.id)}
        )
        pred_r = program.true_pred().restrict(
            {t.tag for t in plan.subtree_itags(right.id)}
        )
        s_l, s_r = fork(state, pred_l, pred_r)
        rec(left, s_l)
        rec(right, s_r)

    rec(plan.root, program.init() if root_state is INIT_STATE else root_state)
    return states


def end_timestamp(streams: Sequence[Any]) -> float:
    """Timestamp of the closing heartbeat: one past the last event."""
    last_ts = max((e.ts for s in streams for e in s.events), default=0.0)
    return last_ts + 1.0


def _heartbeat_times(interval: Optional[float], end_ts: float) -> Iterator[float]:
    """A producer's heartbeat schedule: every ``interval`` (by float
    accumulation, so the times match the simulator's clock) strictly
    before ``end_ts``, then the closing heartbeat at ``end_ts``."""
    if interval:
        t = interval
        while t < end_ts:
            yield t
            t += interval
    yield end_ts


#: Longest run the producer emits (``coalesce_event_runs``' default):
#: bounds frame size and mailbox release granularity.
_MAX_RUN = 512


def _check_stream(itag: ImplTag, events: Sequence[Event], ts: Sequence[Any]) -> None:
    """Enforce the :class:`InputStream` contract the producers
    (:func:`producer_messages`, :func:`paced_producer_schedule`) rely
    on: events strictly increasing in ts, each carrying the stream's
    own implementation tag.  The scans run at C speed; only a failing
    stream pays for locating the offender."""
    if not all(map(lt, ts, islice(ts, 1, None))):
        k = next(k for k in range(1, len(ts)) if not ts[k - 1] < ts[k])
        raise InputError(
            f"input stream {itag!r}: events must be strictly increasing "
            f"in ts, but ts={ts[k]!r} follows ts={ts[k - 1]!r}"
        )
    n = len(events)
    if (
        list(map(attrgetter("tag"), events)).count(itag.tag) != n
        or list(map(attrgetter("stream"), events)).count(itag.stream) != n
    ):
        e = next(e for e in events if e.itag != itag)
        raise InputError(
            f"input stream {itag!r}: the event at ts={e.ts!r} belongs "
            f"to {e.itag!r}"
        )


def producer_messages(stream: Any, end_ts: float) -> List[Any]:
    """One input stream's closed-loop wire traffic, in order-key order.

    The stream's events leave first, as columnar :class:`EventRun`\\ s
    of at most 512 events (a one-event remainder, or an event the codec
    cannot pack, stays a plain :class:`EventMsg`), followed by the
    heartbeats of its schedule that come after its last event (the
    closing one at ``end_ts`` among them).  Every other heartbeat is
    subsumed by the later event that follows it on the owner's FIFO
    channel (see :func:`pump_streams`): that event's larger order key
    advances the mailbox timer past the heartbeat's, and release is
    monotone in the timers.  The result equals
    :func:`~repro.runtime.wire.coalesce_event_runs` (default
    ``max_run``) over the per-event traffic with those heartbeats
    removed, built in one linear pass: no per-event message or order
    key, no sort.

    The open loop keeps every heartbeat (:func:`paced_producer_schedule`),
    and the simulated runtime injects the full schedule through the
    simulator's clock.  A stream that breaks the :class:`InputStream`
    contract — not strictly increasing in ts, or an event of another
    implementation tag — raises :class:`InputError`.
    """
    itag = stream.itag
    tag, sid = itag
    events = stream.events
    ts = tuple([e.ts for e in events])
    _check_stream(itag, events, ts)
    n = len(ts)
    out: List[Any] = []
    if n:
        payloads = tuple([e.payload for e in events])
        shape = uniform_run_shape(tag, sid, ts, payloads)
        if shape < 0:
            # Mixed or exotic shapes: the codec's per-event rules decide.
            out = coalesce_event_runs([EventMsg(e) for e in events], max_run=_MAX_RUN)
        else:
            if shape == _SHAPE_FN:
                payloads = None
            for k in range(0, n, _MAX_RUN):
                m = min(k + _MAX_RUN, n)
                if m - k == 1:
                    out.append(EventMsg(events[k]))
                else:
                    cols = payloads[k:m] if payloads is not None else None
                    out.append(EventRun(tag, sid, shape, ts[k:m], cols))
    suffix = (_stable_key(tag), _stable_key(sid))
    out.extend(
        HeartbeatMsg(itag, (hb,) + suffix)
        for hb in _heartbeat_times(stream.heartbeat_interval, end_ts)
        if not n or hb > ts[-1]
    )
    return out


def paced_producer_schedule(
    streams: Sequence[Any],
    owner_of: Callable[[Any], str],
    end_ts: float,
) -> List[Tuple[float, str, Any]]:
    """Merge every stream's events and full heartbeat schedule into one
    open-loop schedule of ``(ts, owner_id, msg)`` triples.

    Unlike the closed loop (:func:`producer_messages`), every event is
    its own :class:`EventMsg` and every heartbeat stays: the paced pump
    releases each message against the wall clock, so the next event may
    be far off and a heartbeat is the only progress its owner sees in
    between.  A heartbeat whose time equals an event's ts is redundant
    (the event itself advances the itag) and is skipped.  Within one
    stream every message has its own ts, so a stable sort on
    ``(ts, stream_index)`` keeps per-stream FIFO (a mailbox invariant)
    while a single paced pump thread replays the merged schedule
    (``RunOptions.pace`` timestamp-units per second).  A stream that
    breaks the :class:`InputStream` contract raises :class:`InputError`.
    """
    sched: List[Tuple[float, int, str, Any]] = []
    for idx, stream in enumerate(streams):
        itag = stream.itag
        events = stream.events
        ts = tuple([e.ts for e in events])
        _check_stream(itag, events, ts)
        owner = owner_of(stream)
        sched.extend((e.ts, idx, owner, EventMsg(e)) for e in events)
        on_event = set(ts)
        suffix = (_stable_key(itag.tag), _stable_key(itag.stream))
        sched.extend(
            (hb, idx, owner, HeartbeatMsg(itag, (hb,) + suffix))
            for hb in _heartbeat_times(stream.heartbeat_interval, end_ts)
            if hb not in on_event
        )
    sched.sort(key=lambda t: (t[0], t[1]))
    return [(ts, owner, msg) for ts, _i, owner, msg in sched]


def paced_schedule_anchor(sched: Sequence[Tuple[float, str, Any]]) -> float:
    """The pacing origin for a merged schedule: its first *event*
    timestamp.  A workload whose timestamps start at T >> 0 must not
    stall T/pace seconds before its first event — anchoring here gives
    everything earlier (the periodic heartbeats that pad out the dead
    interval) a negative due time, so the pump releases it immediately
    and starts pacing at the first event."""
    for ts, _owner, msg in sched:
        if isinstance(msg, EventMsg):
            return ts
    return sched[0][0] if sched else 0.0


def pump_streams(
    streams: Sequence[Any],
    owner_of: Callable[[Any], str],
    post: PostFn,
    *,
    pace: Optional[float] = None,
    flush: Optional[Callable[[], None]] = None,
) -> int:
    """The coordinator's producer pump, shared by the threaded, process
    and cluster runtimes: feed every stream's traffic to the worker
    that owns its itag and return the number of events sent.

    Closed loop (``pace=None``), each stream's :func:`producer_messages`
    go out back to back to its one owner: its events as runs of up to
    512, then the heartbeats no event of it follows.  Whatever a left-out
    heartbeat would have released is released when the next event is
    handled, because the owner's channel is FIFO; so a stream's traffic
    must never be split across channels or reordered.  Open loop, the merged
    :func:`paced_producer_schedule` (every event its own message, every
    heartbeat kept) is replayed against the wall clock at ``pace``
    timestamp-units per second, anchored at the first event
    (:func:`paced_schedule_anchor`); ``flush`` pushes out a batching
    sender's buffered messages before each sleep.  A stream that
    breaks the :class:`InputStream` contract raises :class:`InputError`
    before any of its own messages is posted.
    """
    end_ts = end_timestamp(streams)
    if pace is None:
        for stream in streams:
            owner = owner_of(stream)
            for msg in producer_messages(stream, end_ts):
                post(owner, msg)
    else:
        sched = paced_producer_schedule(streams, owner_of, end_ts)
        start = _mono()
        ts0 = paced_schedule_anchor(sched)
        for ts, owner, msg in sched:
            delay = start + (ts - ts0) / pace - _mono()
            if delay > 0:
                if flush is not None:
                    flush()
                _sleep(delay)
            post(owner, msg)
    return sum(len(s.events) for s in streams)
