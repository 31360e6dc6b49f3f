"""Crash recovery: restore the last root-join checkpoint, replay the
input suffix (paper Appendix D.2, made executable).

The driver is substrate-independent and lives *above* the runtimes: an
execution attempt runs on any backend with fault injection armed; if a
worker fail-stops, the driver

1. commits every logged output at or below the latest checkpoint's
   order key (those are exactly the sequential prefix's outputs, see
   below) and discards the rest,
2. restores the checkpoint state by forking it down a **fresh** set of
   workers (the same C2 fork used for ``init()``), and
3. replays the buffered input suffix — every event strictly after the
   checkpoint key — through the full protocol, until an attempt
   finishes without crashing.

Theorem 2.4's determinism-up-to-reordering is what makes this sound:
the recovered execution's outputs are, as a multiset, exactly the
fail-free execution's.  The argument needs the snapshot to be a
*timestamp-prefix* state, which holds when every tag handled at the
root depends on every tag in the universe (then each leaf answers the
root's join request only after processing all its events below the
join key, so the joined state — and the output log at or below that
key — is the sequential prefix).  :func:`assert_recovery_sound` checks
exactly this and rejects plans where restore-and-replay could double-
or under-apply independent events.

Crash faults fire once: the driver marks them fired so the replay does
not re-kill the restarted worker.  A crash with no checkpoint to
restore raises :class:`~repro.core.errors.NoCheckpointError` — a clean
error, never a hang (attempts are wall-clock bounded by the
substrates' own timeouts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.errors import NoCheckpointError, RecoveryUnsoundError, RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from .checkpoint import Checkpoint
from .faults import CrashRecord, FaultPlan
from .metrics import merge_attempt_metrics
from .protocol import INIT_STATE, RunStatsMixin
from .runtime import InputStream


@dataclass
class AttemptOutcome:
    """One execution attempt, normalized across substrates."""

    outputs: List[Any]
    keyed_outputs: List[Tuple[tuple, Any]]
    checkpoints: List[Checkpoint]
    crashes: List[CrashRecord]
    events_in: int = 0
    events_processed: int = 0
    joins: int = 0
    wall_s: float = 0.0
    #: QuiesceRecord when the attempt stopped at a reconfiguration
    #: point (see repro.runtime.reconfigure); None otherwise.
    quiesce: Any = None
    #: The attempt's RunMetrics when the metrics plane was on (crashed
    #: and quiesced attempts report too — fault-path latency/backlog is
    #: exactly what the plane exists to see); None otherwise.  Each
    #: attempt carries its own latency epoch (stamped at that attempt's
    #: producer release), so a replayed event's recorded latency is its
    #: true recovery delay: restart to re-commit.
    metrics: Any = None
    #: The substrate's native result (RunResult, ThreadedResult,
    #: ProcessResult, ...) for backend-specific measurements.
    raw: Any = None


#: (streams, initial_state) -> AttemptOutcome; the fault plan and the
#: checkpoint predicate are closed over by the backend adapter.
AttemptFn = Callable[[Sequence[InputStream], Any], AttemptOutcome]


@dataclass(frozen=True)
class RecoveryStep:
    """One restore-and-replay transition between attempts."""

    attempt: int
    crashed_workers: Tuple[str, ...]
    resumed_from_ts: float
    replayed_events: int


@dataclass
class RecoveredRun(RunStatsMixin):
    """A complete (possibly multi-attempt) fault-tolerant execution."""

    outputs: List[Any] = field(default_factory=list)
    events_in: int = 0
    events_processed: int = 0
    joins: int = 0
    wall_s: float = 0.0
    attempts: int = 1
    crashes: List[CrashRecord] = field(default_factory=list)
    recoveries: List[RecoveryStep] = field(default_factory=list)
    checkpoints_taken: int = 0
    #: One RunMetrics per attempt that reported metrics, in attempt
    #: order (empty when the metrics plane was off).
    attempt_metrics: List[Any] = field(default_factory=list)
    #: Whole-run merge of attempt_metrics with the recovery counters
    #: stamped (see metrics.merge_attempt_metrics); None when off.
    metrics: Any = None

    @property
    def recovered(self) -> bool:
        return bool(self.recoveries)

    @property
    def replayed_events(self) -> int:
        return sum(r.replayed_events for r in self.recoveries)


def suffix_streams(
    streams: Sequence[InputStream], key: tuple
) -> List[InputStream]:
    """The input log's suffix: every event strictly after ``key``.

    Streams whose events are all committed stay present with an empty
    event tuple — their closing heartbeat is still needed for the
    replay to drain."""
    return [
        InputStream(
            s.itag,
            tuple(e for e in s.events if e.order_key > key),
            s.source_host,
            s.heartbeat_interval,
        )
        for s in streams
    ]


def assert_recovery_sound(plan: SyncPlan, program: DGSProgram) -> None:
    """Reject plans whose root snapshots are not timestamp-prefix
    states (see module docstring).  Vacuously sound for roots with no
    tags — such plans never checkpoint, so a crash surfaces as
    :class:`NoCheckpointError` instead of silent corruption."""
    universe = program.depends.universe
    for itag in plan.root.itags:
        deps = program.depends.dependents_of(itag.tag)
        missing = universe - deps
        if missing:
            raise RecoveryUnsoundError(
                f"root tag {itag.tag!r} is independent of "
                f"{sorted(map(repr, missing))}; its root-join snapshots are "
                "not timestamp-prefix states, so checkpoint recovery would "
                "be unsound for this plan (choose a plan whose root tags "
                "depend on every tag)"
            )


@dataclass
class CrashRestart:
    """The exactly-once bookkeeping for one restore-and-replay step,
    shared between the recovery and reconfiguration drivers."""

    committed_delta: List[Any]
    pending: List[InputStream]
    initial: Any
    last_ckpt: Checkpoint
    step: RecoveryStep


def restart_from_crash(
    attempt: int,
    out: AttemptOutcome,
    pending: Sequence[InputStream],
    initial: Any,
    last_ckpt: Optional[Checkpoint],
    *,
    no_checkpoint_hint: str,
) -> CrashRestart:
    """Plan the restart after a crashed attempt: pick the attempt's
    newest snapshot, commit the sequential prefix of its output log
    (everything at or below the snapshot key — all later outputs are
    discarded and regenerated by the replay: exactly-once delivery),
    and compute the input suffix to replay.  A crash with no snapshot
    at all — neither in this attempt nor restored earlier — raises
    :class:`NoCheckpointError`; crashing again before any *new*
    snapshot retries the same suffix from the previous restore point.

    Aborting on crash detection cannot lose a needed snapshot: a
    worker's crash trigger only fires while processing an event, and
    (for sound plans) an event past root join k is released to a
    worker only after that join's fork reached it — by which time the
    root recorded checkpoint k in its synchronous log.
    """
    ckpt = max(out.checkpoints, key=lambda c: c.key, default=None)
    committed_delta: List[Any] = []
    if ckpt is not None:
        last_ckpt = ckpt
        committed_delta = [v for k, v in out.keyed_outputs if k <= ckpt.key]
        pending = suffix_streams(pending, ckpt.key)
        initial = ckpt.state
    elif last_ckpt is None:
        who = ", ".join(sorted({c.worker for c in out.crashes}))
        raise NoCheckpointError(f"worker(s) {who} {no_checkpoint_hint}")
    return CrashRestart(
        committed_delta=committed_delta,
        pending=list(pending),
        initial=initial,
        last_ckpt=last_ckpt,
        step=RecoveryStep(
            attempt=attempt,
            crashed_workers=tuple(sorted({c.worker for c in out.crashes})),
            resumed_from_ts=last_ckpt.ts,
            replayed_events=sum(len(s.events) for s in pending),
        ),
    )


def _stamp_run_metrics(run: Any) -> None:
    """Merge ``run.attempt_metrics`` into a whole-run
    :class:`~repro.runtime.metrics.RunMetrics` and stamp the
    recovery/elasticity counters onto it; shared by the recovery and
    reconfiguration drivers (the latter additionally carries
    ``reconfigurations``).  No-op when the metrics plane was off."""
    merged = merge_attempt_metrics(run.attempt_metrics)
    if merged is None:
        return
    merged.attempts = run.attempts
    merged.replayed_events = run.replayed_events
    merged.checkpoints_restored = len(run.recoveries)
    steps = getattr(run, "reconfigurations", None)
    if steps:
        merged.reconfigurations = len(steps)
        merged.migration_pause_s = sum(s.pause_s for s in steps)
    run.metrics = merged


def run_with_recovery(
    attempt_fn: AttemptFn,
    program: DGSProgram,
    plan: SyncPlan,
    streams: Sequence[InputStream],
    fault_plan: FaultPlan,
    *,
    max_attempts: Optional[int] = None,
) -> RecoveredRun:
    """Drive attempts until one completes, recovering between crashes."""
    if fault_plan.has_crash_faults():
        assert_recovery_sound(plan, program)
    # Each crash fault fires at most once, so the attempt count is
    # bounded by construction; the cap is a backstop against bugs.
    cap = max_attempts if max_attempts is not None else len(fault_plan.crash_indices()) + 2
    run = RecoveredRun()
    committed: List[Any] = []
    pending: Sequence[InputStream] = list(streams)
    initial: Any = INIT_STATE
    last_ckpt: Optional[Checkpoint] = None
    for attempt in range(1, cap + 1):
        out = attempt_fn(pending, initial)
        run.attempts = attempt
        run.checkpoints_taken += len(out.checkpoints)
        run.events_processed += out.events_processed
        run.joins += out.joins
        run.wall_s += out.wall_s
        if out.metrics is not None:
            run.attempt_metrics.append(out.metrics)
        if attempt == 1:
            run.events_in = out.events_in
        if not out.crashes:
            run.outputs = committed + list(out.outputs)
            _stamp_run_metrics(run)
            return run
        run.crashes.extend(out.crashes)
        for crash in out.crashes:
            fault_plan.mark_fired(crash.fault_index)
        restart = restart_from_crash(
            attempt, out, pending, initial, last_ckpt,
            no_checkpoint_hint=(
                "crashed but no checkpoint exists to recover from; "
                "configure checkpoint_predicate= (e.g. every_root_join()) "
                "to enable crash recovery"
            ),
        )
        committed.extend(restart.committed_delta)
        pending = restart.pending
        initial = restart.initial
        last_ckpt = restart.last_ckpt
        run.recoveries.append(restart.step)
    raise RuntimeFault(
        f"recovery did not converge after {cap} attempts "
        "(crash faults should each fire at most once)"
    )
