"""The Flumina-style DGS runtime (paper §3.4) plus checkpointing, a
sequential reference oracle, and the runtime-backend registry.

Every substrate runs the one synchronization-plan state machine,
:class:`~repro.runtime.protocol.WorkerCore`; three backends select
among them:

* ``sim`` — the simulated cluster (:class:`FluminaRuntime`), used for
  the paper's figures: models network cost, latency, utilization;
* ``threaded`` — one OS thread per worker (:class:`ThreadedRuntime`):
  real concurrency, GIL-bound throughput;
* ``process`` — one OS process per worker with batched channels
  (:class:`ProcessRuntime`): multi-core parallel speedup; with
  ``nodes=`` one agent process per node over TCP
  (:class:`ClusterLauncher`).

Benchmarks, examples, and tests select them uniformly through
:func:`get_backend` / :func:`run_on_backend`, which normalize each
substrate's native result into a :class:`BackendRun`.  Execution
options — checkpointing, fault injection, and elastic reconfiguration
(``reconfig_schedule=``, see :mod:`repro.runtime.reconfigure`) —
travel as one :class:`RunOptions` through every backend.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..core.errors import NoCheckpointError, RecoveryUnsoundError, RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from .options import RunOptions, ServeOptions
from .protocol import INIT_STATE, RunStatsMixin
from .checkpoint import (
    ByTimestampInterval,
    Checkpoint,
    EveryNthJoin,
    EveryRootJoin,
    by_timestamp_interval,
    every_nth_join,
    every_root_join,
    recover,
)
from .faults import (
    CrashFault,
    CrashRecord,
    DropHeartbeats,
    FaultPlan,
    WorkerCrash,
)
from .quiesce import QuiesceRecord, QuiesceSignal, RootReconfigView
from .recovery import (
    AttemptOutcome,
    RecoveredRun,
    RecoveryStep,
    assert_recovery_sound,
    run_with_recovery,
    suffix_streams,
)
from .reconfigure import (
    AutoScaler,
    PhaseRecord,
    ReconfigPoint,
    ReconfigSchedule,
    ReconfigStep,
    ReconfiguredRun,
    run_with_reconfig,
)
from .mailbox import Buffered, Mailbox
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    LatencyHistogram,
    MetricsConfig,
    MetricsExporter,
    MetricsSnapshot,
    RunMetrics,
    WorkerMetrics,
)
from .messages import (
    EventMsg,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from .cluster import (
    ClusterLauncher,
    NodeSpec,
    local_nodes,
    resolve_placement,
)
from .process import ProcessResult, ProcessRuntime
from .transport import (
    BatchPolicy,
    PipeTransport,
    QueueTransport,
    SocketTransport,
    TRANSPORTS,
)
from .runtime import (
    FluminaRuntime,
    InputStream,
    RunResult,
    run_sequential_reference,
)
from .threaded import ThreadedResult, ThreadedRuntime
from .worker import WorkerActor, default_state_size


# ---------------------------------------------------------------------------
# Runtime backends: uniform selection across sim / threaded / process
# ---------------------------------------------------------------------------

@dataclass
class BackendRun(RunStatsMixin):
    """One execution, normalized across substrates.

    ``outputs`` is the flat list of output values (no timing tuples);
    ``wall_s`` is real wall-clock time for the threaded and process
    backends but *host* wall-clock of the simulation for ``sim`` — only
    compare wall times within the same backend family.  ``raw`` keeps
    the substrate's native result for backend-specific metrics.
    """

    backend: str
    outputs: List[Any] = field(default_factory=list)
    events_in: int = 0
    events_processed: int = 0
    joins: int = 0
    wall_s: float = 0.0
    raw: Any = None
    #: The RecoveredRun / ReconfiguredRun when the execution ran with
    #: fault_plan= (attempt count, crash records, recovery steps);
    #: None for plain runs.
    recovery: Any = None
    #: The ReconfiguredRun when the execution ran with
    #: reconfig_schedule= (migrations, phases, plan history).
    reconfig: Any = None
    #: The RunMetrics when the execution ran with ``metrics=True``.
    #: Plain runs carry the single attempt's metrics; recovering and
    #: elastic runs carry the merge across attempts with the
    #: recovery/elasticity counters stamped (attempts, replayed
    #: events, checkpoints restored, migration pause) — per-attempt
    #: snapshots stay accessible on ``recovery.attempt_metrics`` and
    #: ``reconfig.phases[i].metrics``.  Each attempt has its own
    #: latency epoch, so a replayed event's latency is its true
    #: recovery delay (restart to re-commit), not time-since-original-
    #: release.
    metrics: Any = None


class RuntimeBackend:
    """A named execution substrate for synchronization plans.

    Every backend takes one :class:`RunOptions` as ``options=``; loose
    keyword arguments raise ``TypeError``.  Among its fields:

    * ``checkpoint_predicate`` arms Appendix-D.2 snapshots at root
      joins;
    * ``fault_plan`` injects crashes/drops and drives the
      restore-and-replay recovery loop
      (:mod:`repro.runtime.recovery`);
    * ``reconfig_schedule`` arms elastic re-planning at consistent
      snapshots (:mod:`repro.runtime.reconfigure`) — composable with
      the other two: crashes recover into the then-current plan shape.

    A substrate implements one hook, :meth:`_attempt` (the wall-clock
    ones just :meth:`_make_runtime`): a plain run is a single attempt,
    and the recovery and reconfiguration drivers sequence attempts.
    """

    name: str = "?"
    default_timeout_s: float = 60.0

    def run(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        streams: Sequence[InputStream],
        *,
        options: Any = None,
        **kwargs: Any,
    ) -> BackendRun:
        if kwargs:
            # The PR-6 deprecation grace is over: options= is the API.
            raise TypeError(
                f"backend.run()/run_on_backend() takes no loose keyword "
                f"arguments (got {sorted(kwargs)}); build a "
                f"RunOptions({', '.join(f'{k}=...' for k in sorted(kwargs))}) "
                "and pass options= (RunOptions.collect merges overrides "
                "onto a shared base)"
            )
        opts = options if options is not None else RunOptions()
        if opts.reconfig_schedule is not None:
            return self._run_elastic(program, plan, streams, opts)
        if opts.fault_plan is not None:
            return self._run_recovering(program, plan, streams, opts)
        out = self._attempt(program, plan, streams, INIT_STATE, opts, None)
        return BackendRun(
            backend=self.name,
            outputs=out.outputs,
            events_in=out.events_in,
            events_processed=out.events_processed,
            joins=out.joins,
            wall_s=out.wall_s,
            raw=out.raw,
            metrics=out.metrics,
        )

    def attempt(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        streams: Sequence[InputStream],
        *,
        options: Any = None,
        initial_state: Any = INIT_STATE,
        reconfig_view: Any = None,
    ) -> AttemptOutcome:
        """One bounded execution attempt on this substrate.

        This is the public form of the building block the recovery and
        reconfiguration drivers compose: run the given streams from
        ``initial_state`` (default: the program's ``init()``), honoring
        the fault plan / checkpoint predicate in ``options`` and an
        optional per-attempt :class:`RootReconfigView`, and return the
        raw :class:`AttemptOutcome` — checkpoints, keyed outputs,
        crash/quiesce records — without driving any restart loop.
        Callers that sequence attempts themselves (the service tier in
        :mod:`repro.serve` drives one attempt per ingest epoch) own the
        exactly-once bookkeeping; everyone else wants :meth:`run`.

        Output keys are always recorded (the whole point of an attempt
        is committing by order-key prefix), and stateful checkpoint
        predicates are deep-copied per attempt, matching the drivers'
        semantics.
        """
        opts = options if options is not None else RunOptions()
        return self._attempt(
            program, plan, streams, initial_state,
            self._attempt_options(opts), reconfig_view,
        )

    def _attempt_options(self, opts: RunOptions) -> RunOptions:
        # Stateful predicates (EveryNthJoin's counter, ...) restart per
        # attempt on every substrate: the process backend forks a
        # pristine copy anyway, so give threaded/sim the same semantics
        # by deep-copying here.  Attempts always record output keys —
        # the drivers commit by order-key prefix.
        fresh = copy.copy(opts)
        fresh.checkpoint_predicate = copy.deepcopy(opts.checkpoint_predicate)
        fresh.record_keys = True
        return fresh

    def _run_recovering(self, program, plan, streams, opts: RunOptions) -> BackendRun:
        def attempt(attempt_streams, initial_state):
            return self._attempt(
                program, plan, attempt_streams, initial_state,
                self._attempt_options(opts), None,
            )

        rec = run_with_recovery(attempt, program, plan, streams, opts.fault_plan)
        return BackendRun(
            backend=self.name,
            outputs=rec.outputs,
            events_in=rec.events_in,
            events_processed=rec.events_processed,
            joins=rec.joins,
            wall_s=rec.wall_s,
            raw=rec,
            recovery=rec,
            metrics=rec.metrics,
        )

    def _run_elastic(self, program, plan, streams, opts: RunOptions) -> BackendRun:
        def attempt(phase_plan, attempt_streams, initial_state, reconfig_view):
            return self._attempt(
                program, phase_plan, attempt_streams, initial_state,
                self._attempt_options(opts), reconfig_view,
            )

        rec = run_with_reconfig(
            attempt, program, plan, streams, opts.reconfig_schedule,
            fault_plan=opts.fault_plan,
        )
        return BackendRun(
            backend=self.name,
            outputs=rec.outputs,
            events_in=rec.events_in,
            events_processed=rec.events_processed,
            joins=rec.joins,
            wall_s=rec.wall_s,
            raw=rec,
            recovery=rec,
            reconfig=rec,
            metrics=rec.metrics,
        )

    # -- substrate hooks -------------------------------------------------
    def _make_runtime(self, program, plan, opts: RunOptions) -> Any:
        raise NotImplementedError

    def _attempt(
        self, program, plan, streams, initial_state, opts: RunOptions, reconfig_view
    ) -> AttemptOutcome:
        """Every execution's one substrate hook: a plain run, each
        recovering or elastic attempt and :meth:`attempt` all come
        through here.  The default drives a wall-clock runtime from
        :meth:`_make_runtime`."""
        res = self._make_runtime(program, plan, opts).run(
            streams,
            timeout_s=opts.with_timeout_default(self.default_timeout_s),
            initial_state=initial_state,
            checkpoint_predicate=opts.checkpoint_predicate,
            faults=opts.fault_plan,
            record_keys=opts.record_keys,
            reconfig=reconfig_view,
            metrics=opts.metrics_config(),
            pace=opts.pace,
        )
        return _outcome(res, res.outputs, res.wall_s)


def _outcome(res: Any, outputs: List[Any], wall_s: float) -> AttemptOutcome:
    """Normalize a substrate's native result into an AttemptOutcome
    that keeps it as ``raw``."""
    return AttemptOutcome(
        outputs=outputs,
        keyed_outputs=res.keyed_outputs,
        checkpoints=res.checkpoints,
        crashes=res.crashes,
        events_in=res.events_in,
        events_processed=res.events_processed,
        joins=res.joins,
        wall_s=wall_s,
        quiesce=res.quiesce,
        metrics=res.metrics,
        raw=res,
    )


class SimBackend(RuntimeBackend):
    """The simulated cluster: protocol + network/latency model."""

    name = "sim"

    def _attempt(self, program, plan, streams, initial_state, opts, reconfig_view):
        # Wall timeouts and pacing have no simulated analogue:
        # opts.timeout_s and opts.pace are simply not consulted here.
        t0 = time.perf_counter()
        res = FluminaRuntime(
            program,
            plan,
            checkpoint_predicate=opts.checkpoint_predicate,
            faults=opts.fault_plan,
            record_keys=opts.record_keys,
            reconfig=reconfig_view,
            metrics=opts.metrics_config(),
            **opts.extra,
        ).run(streams, initial_state=initial_state)
        return _outcome(res, res.output_values(), time.perf_counter() - t0)


class ThreadedBackend(RuntimeBackend):
    """One OS thread per plan worker (GIL-bound)."""

    name = "threaded"
    default_timeout_s = 60.0

    def _make_runtime(self, program, plan, opts):
        return ThreadedRuntime(program, plan, **opts.extra)


class ProcessBackend(RuntimeBackend):
    """One OS process per plan worker, batched channels (multi-core);
    with ``nodes=`` set, one agent process per named node over the TCP
    data plane (:class:`~repro.runtime.cluster.ClusterLauncher`)."""

    name = "process"
    default_timeout_s = 120.0

    def _make_runtime(self, program, plan, opts: RunOptions):
        if opts.nodes is None:
            if opts.placement is not None:
                raise RuntimeFault(
                    "placement= pins workers to cluster nodes; it needs "
                    "nodes= (a worker-placement with no nodes to place "
                    "on would be silently ignored)"
                )
            return ProcessRuntime(
                program, plan, **opts.transport_kwargs(), **opts.extra
            )
        if opts.transport not in (None, "tcp"):
            raise RuntimeFault(
                f"nodes= deploys over the TCP data plane; it cannot be "
                f"combined with transport={opts.transport!r}"
            )
        if opts.extra:
            # Loud, not silent: the single-host path would forward (or
            # TypeError on) these, and a kwarg that quietly changes
            # meaning between deployments is a debugging trap.
            raise RuntimeFault(
                f"cluster deployments accept no extra substrate kwargs: "
                f"{sorted(opts.extra)}"
            )
        return ClusterLauncher(
            program,
            plan,
            nodes=opts.nodes,
            placement=opts.placement,
            batch_size=opts.batch_size,
            flush_ms=opts.flush_ms,
            metrics_port=opts.metrics_port,
        )

    def _shared_exporter(self, opts: RunOptions):
        # Cluster attempts each construct a fresh ClusterLauncher, so a
        # per-run exporter would bind, serve one attempt, and vanish —
        # exactly when a scrape wants to watch a recovery.  Own one
        # exporter here for the whole recovering/elastic run and hand
        # the live instance down through metrics_port; the launcher
        # reuses it, opening a new attempt="N" label group per attempt,
        # and leaves stopping it to us.
        if opts.nodes is None or not opts.metrics or opts.metrics_port is None:
            return None
        return MetricsExporter(port=int(opts.metrics_port)).start()

    def _run_recovering(self, program, plan, streams, opts):
        exporter = self._shared_exporter(opts)
        if exporter is None:
            return super()._run_recovering(program, plan, streams, opts)
        opts = copy.copy(opts)
        opts.metrics_port = exporter
        try:
            return super()._run_recovering(program, plan, streams, opts)
        finally:
            exporter.stop()

    def _run_elastic(self, program, plan, streams, opts):
        exporter = self._shared_exporter(opts)
        if exporter is None:
            return super()._run_elastic(program, plan, streams, opts)
        opts = copy.copy(opts)
        opts.metrics_port = exporter
        try:
            return super()._run_elastic(program, plan, streams, opts)
        finally:
            exporter.stop()


BACKENDS: Dict[str, RuntimeBackend] = {
    b.name: b for b in (SimBackend(), ThreadedBackend(), ProcessBackend())
}


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(BACKENDS))


def get_backend(name: str) -> RuntimeBackend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise RuntimeFault(
            f"unknown runtime backend {name!r}; available: {available_backends()}"
        ) from None


def run_on_backend(
    name: str,
    program: DGSProgram,
    plan: SyncPlan,
    streams: Sequence[InputStream],
    **opts: Any,
) -> BackendRun:
    """Run a program + plan on the named backend (uniform entry point
    for benchmarks, examples, and tests).

    Run configuration travels as ``options=RunOptions(...)`` — the only
    accepted keyword.  Loose keyword arguments (deprecated in the PR-6
    release) now raise ``TypeError`` with a migration hint; use
    :meth:`RunOptions.collect` to merge per-call overrides onto a
    shared base ``RunOptions``.
    """
    return get_backend(name).run(program, plan, streams, **opts)


__all__ = [
    "BACKENDS",
    "AttemptOutcome",
    "AutoScaler",
    "BackendRun",
    "BatchPolicy",
    "Buffered",
    "ByTimestampInterval",
    "Checkpoint",
    "ClusterLauncher",
    "CrashFault",
    "CrashRecord",
    "DEFAULT_LATENCY_BUCKETS",
    "DropHeartbeats",
    "EventMsg",
    "EveryNthJoin",
    "EveryRootJoin",
    "FaultPlan",
    "FluminaRuntime",
    "ForkStateMsg",
    "HeartbeatMsg",
    "InputStream",
    "JoinRequest",
    "JoinResponse",
    "LatencyHistogram",
    "Mailbox",
    "MetricsConfig",
    "MetricsExporter",
    "MetricsSnapshot",
    "NoCheckpointError",
    "NodeSpec",
    "PhaseRecord",
    "PipeTransport",
    "ProcessBackend",
    "ProcessResult",
    "ProcessRuntime",
    "QueueTransport",
    "QuiesceRecord",
    "QuiesceSignal",
    "ReconfigPoint",
    "ReconfigSchedule",
    "ReconfigStep",
    "ReconfiguredRun",
    "RecoveredRun",
    "RecoveryStep",
    "RecoveryUnsoundError",
    "RootReconfigView",
    "RunMetrics",
    "RunOptions",
    "RunResult",
    "RuntimeBackend",
    "ServeOptions",
    "SimBackend",
    "SocketTransport",
    "TRANSPORTS",
    "ThreadedBackend",
    "ThreadedResult",
    "ThreadedRuntime",
    "WorkerActor",
    "WorkerCrash",
    "WorkerMetrics",
    "assert_recovery_sound",
    "available_backends",
    "by_timestamp_interval",
    "default_state_size",
    "every_nth_join",
    "every_root_join",
    "get_backend",
    "local_nodes",
    "recover",
    "resolve_placement",
    "run_on_backend",
    "run_sequential_reference",
    "run_with_reconfig",
    "run_with_recovery",
    "suffix_streams",
]
