"""The shared worker state machine and the one run path.

* A bare :class:`WorkerCore` rejects protocol messages it cannot have
  caused with :class:`RuntimeFault` (not an ``assert``, so the checks
  hold under ``python -O``).
* A plain ``run()`` is one ``attempt()``: on every substrate both give
  the same outputs, input count and joins, and a plain run still
  exposes the substrate's native result as ``raw``.
"""

from collections import deque

import pytest

from repro.apps import value_barrier as vb
from repro.core.errors import RuntimeFault
from repro.core.events import Heartbeat
from repro.core.semantics import output_multiset
from repro.runtime import (
    RunOptions,
    get_backend,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime.messages import (
    EventMsg,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from repro.runtime.protocol import OutputSink, WorkerCore, initial_leaf_states


def small_case(n_value_streams):
    wl = vb.make_workload(
        n_value_streams=n_value_streams, values_per_barrier=20, n_barriers=3
    )
    program = vb.make_program()
    return program, vb.make_plan(program, wl), vb.make_streams(wl)


def bare_cores():
    """Root and first leaf of the two-leaf value-barrier plan, with
    every posted message captured instead of delivered, plus the first
    barrier event."""
    wl = vb.make_workload(n_value_streams=2, values_per_barrier=20, n_barriers=3)
    program = vb.make_program()
    plan = vb.make_plan(program, wl)
    posted = []

    def post(dst, msg):
        posted.append((dst, msg))

    root = WorkerCore(plan.root, plan, program, post, OutputSink())
    leaf_node = plan.leaves()[0]
    leaf = WorkerCore(leaf_node, plan, program, post, OutputSink())
    leaf.state = initial_leaf_states(plan, program)[leaf_node.id]
    return root, leaf, posted, wl.barrier_stream[0]


class TestWorkerCoreInvariants:
    def test_stray_join_response(self):
        root, _, _, _ = bare_cores()
        with pytest.raises(RuntimeFault, match=r"worker w1: .*\('w9', 4\)"):
            root.handle(JoinResponse(("w9", 4), "left", {}, 1.0))

    def test_join_response_to_another_request(self):
        root, _, posted, barrier = bare_cores()
        root.handle(EventMsg(barrier))
        requests = [(dst, m.req_id) for dst, m in posted if type(m) is JoinRequest]
        assert requests == [
            ("w2", ("w1", 1)),
            ("w3", ("w1", 1)),
        ]
        with pytest.raises(RuntimeFault, match=r"worker w1: .*\('w1', 2\)"):
            root.handle(JoinResponse(("w1", 2), "left", {}, 1.0))

    def test_stray_fork_state_at_internal_node(self):
        root, _, _, _ = bare_cores()
        with pytest.raises(
            RuntimeFault, match=r"worker w1: fork state \('w0', 1\) without absorption"
        ):
            root.handle(ForkStateMsg(("w0", 1), {}, 1.0))

    def test_stray_fork_state_at_leaf_holding_its_state(self):
        _, leaf, _, _ = bare_cores()
        with pytest.raises(RuntimeFault, match="worker w2: .*without absorption"):
            leaf.handle(ForkStateMsg(("w1", 1), {}, 1.0))

    def test_leaf_round_trip(self):
        """The legitimate sequence: surrender the state to a join
        request, block, and take the forked state back."""
        _, leaf, posted, barrier = bare_cores()
        leaf.handle(JoinRequest(("w1", 1), barrier.itag, barrier.order_key, "w1", "left"))
        # The request waits in the mailbox until the leaf's own value
        # stream has progressed past it.
        assert posted == []
        (own,) = leaf.node.itags
        progress = Heartbeat(own.tag, own.stream, barrier.ts + 1.0)
        leaf.handle(HeartbeatMsg(own, progress.order_key))
        assert [type(m) for _, m in posted] == [JoinResponse]
        assert leaf.blocked and not leaf.has_state
        leaf.handle(ForkStateMsg(("w1", 1), posted[0][1].state, 1.0))
        assert leaf.has_state and not leaf.blocked

    def test_pending_is_a_deque(self):
        # A blocked leaf queues every released item; head pops must be
        # O(1).
        _, leaf, _, _ = bare_cores()
        assert isinstance(leaf.pending, deque)


SUBSTRATES = {
    "sim": RunOptions(),
    "threaded": RunOptions(timeout_s=30.0),
    "process": RunOptions(timeout_s=60.0),
}


@pytest.mark.parametrize("backend", sorted(SUBSTRATES))
def test_plain_run_is_one_attempt(backend):
    program, plan, streams = small_case(n_value_streams=3)
    opts = SUBSTRATES[backend]
    run = run_on_backend(backend, program, plan, streams, options=opts)
    out = get_backend(backend).attempt(program, plan, streams, options=opts)
    assert output_multiset(run.outputs) == output_multiset(out.outputs)
    assert output_multiset(run.outputs) == output_multiset(
        run_sequential_reference(program, streams)
    )
    assert (run.events_in, run.joins) == (out.events_in, out.joins)
    assert run.recovery is None and run.reconfig is None
    # A plain run records no keys unless asked; an attempt always does.
    assert run.raw.keyed_outputs == [] and out.keyed_outputs


def test_plain_process_run_exposes_native_result():
    program, plan, streams = small_case(n_value_streams=2)
    run = run_on_backend("process", program, plan, streams, options=SUBSTRATES["process"])
    assert run.raw.transport == "pipe"
