"""The producers' input contract on every substrate, and the pump.

* A stream that breaks the :class:`InputStream` contract (events out of
  ts order, or an event of another implementation tag) is rejected
  with :class:`InputError` on every substrate, the simulator included
  — never silently re-sorted — and the rejection releases the workers
  promptly.
* ``RunOptions(pace=...)`` is honoured on every run path, including the
  recovering one a ``fault_plan`` selects.
"""

import time

import pytest

from repro.apps import value_barrier as vb
from repro.core import Event
from repro.core.errors import InputError
from repro.core.semantics import output_multiset
from repro.runtime import (
    FaultPlan,
    InputStream,
    RunOptions,
    run_on_backend,
    run_sequential_reference,
)

SUBSTRATES = {
    "sim": ("sim", RunOptions()),
    "threaded": ("threaded", RunOptions(timeout_s=30.0)),
    "process": ("process", RunOptions(timeout_s=30.0)),
    "tcp-2-nodes": ("process", RunOptions(timeout_s=30.0, nodes=2)),
}


def small_case():
    wl = vb.make_workload(n_value_streams=2, values_per_barrier=20, n_barriers=2)
    program = vb.make_program()
    return program, vb.make_plan(program, wl), vb.make_streams(wl)


def with_events(stream, events):
    return InputStream(stream.itag, tuple(events), heartbeat_interval=stream.heartbeat_interval)


def swapped(stream):
    """The stream with its 4th and 5th events out of order."""
    events = list(stream.events)
    events[3], events[4] = events[4], events[3]
    return with_events(stream, events), events[4].ts


def foreign(stream):
    """The stream with one event carrying another stream id."""
    events = list(stream.events)
    e = events[3]
    events[3] = Event(e.tag, "elsewhere", e.ts, e.payload)
    return with_events(stream, events), e.ts


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@pytest.mark.parametrize("breakage", [swapped, foreign], ids=["unsorted", "foreign-itag"])
def test_bad_stream_is_rejected_loudly(substrate, breakage):
    program, plan, streams = small_case()
    k = max(range(len(streams)), key=lambda i: len(streams[i].events))
    streams[k], bad_ts = breakage(streams[k])
    backend, opts = SUBSTRATES[substrate]
    t0 = time.perf_counter()
    with pytest.raises(InputError) as err:
        run_on_backend(backend, program, plan, streams, options=opts)
    assert repr(streams[k].itag) in str(err.value)
    assert f"ts={bad_ts!r}" in str(err.value)
    # The workers were released, not left to time out one by one.
    assert time.perf_counter() - t0 < 4.0


@pytest.mark.parametrize("backend", ["threaded", "process"])
def test_pace_is_honoured_with_a_fault_plan(backend):
    """A never-firing fault plan selects the recovering run path; the
    paced pump must still spread the input over its paced duration."""
    program, plan, streams = small_case()
    event_ts = [e.ts for s in streams for e in s.events]
    span = max(event_ts) - min(event_ts)
    pace = span / 0.4  # timestamp units per second: ~0.4 s of input
    opts = RunOptions(pace=pace, fault_plan=FaultPlan(), timeout_s=30.0)
    t0 = time.perf_counter()
    run = run_on_backend(backend, program, plan, streams, options=opts)
    elapsed = time.perf_counter() - t0
    assert elapsed >= span / pace
    assert output_multiset(run.outputs) == output_multiset(
        run_sequential_reference(program, streams)
    )
