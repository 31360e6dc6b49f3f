"""The columnar batch plane: :class:`EventRun`, producer-side
coalescing (:func:`coalesce_event_runs` and the columnar
:func:`producer_messages`, golden-tested against a per-event
reference producer), the mailbox's run-aware
release rules (whole-run, prefix split, cross-tag straddle split), and
``update_batch`` equivalence against the per-event fold.

The invariant under test everywhere: carrying packed columns through
the data plane must be *observationally identical* to shipping one
:class:`EventMsg` per event — same release order, same outputs, same
final state — or the fast path is a semantics change, not an
optimization.
"""

import pytest

from repro.apps import keycounter as kc
from repro.apps import value_barrier as vb
from repro.core import DependenceRelation, Event, ImplTag
from repro.core.errors import InputError
from repro.runtime import Mailbox
from repro.runtime import InputStream
from repro.runtime.messages import EventMsg, EventRun, HeartbeatMsg
from repro.runtime.protocol import end_timestamp, paced_producer_schedule, producer_messages
from repro.runtime.wire import (
    batch_message_count,
    coalesce_event_runs,
    pack_frame,
    unpack_frame,
)


def vmsgs(n, tag="value", stream="v0", start=0, payload=lambda i: i):
    return [
        EventMsg(Event(tag, stream, float(start + i), payload=payload(i)))
        for i in range(n)
    ]


def one_run(msgs):
    """Coalesce and require the result to be a single run."""
    out = coalesce_event_runs(msgs)
    assert len(out) == 1 and type(out[0]) is EventRun
    return out[0]


def expand(batch):
    """Flatten runs back to per-event messages (the fallback boundary)."""
    out = []
    for m in batch:
        if type(m) is EventRun:
            out.extend(EventMsg(e) for e in m.events())
        else:
            out.append(m)
    return out


class TestEventRun:
    def test_keys_match_per_event_order_keys(self):
        msgs = vmsgs(5)
        run = one_run(msgs)
        assert run.keys() == [m.event.order_key for m in msgs]
        assert run.first_key == msgs[0].event.order_key
        assert run.last_key == msgs[-1].event.order_key
        assert run.itag == ImplTag("value", "v0")
        assert len(run) == 5

    def test_events_materialize_exactly(self):
        msgs = vmsgs(4)
        run = one_run(msgs)
        assert run.events() == [m.event for m in msgs]
        assert run.event(2) == msgs[2].event

    def test_split_preserves_route_columns_and_cached_keys(self):
        msgs = vmsgs(6)
        run = one_run(msgs)
        keys = run.keys()  # populate the cache before splitting
        a, b = run.split(2)
        assert (len(a), len(b)) == (2, 4)
        assert a.events() + b.events() == [m.event for m in msgs]
        assert a.keys() == keys[:2] and b.keys() == keys[2:]
        assert (a.itag, b.itag, a.shape) == (run.itag, run.itag, run.shape)

    def test_payloadless_run_has_no_payload_column(self):
        run = one_run(vmsgs(3, payload=lambda i: None))
        assert run.payloads is None
        assert [e.payload for e in run.events()] == [None, None, None]


class TestCoalesce:
    def test_homogeneous_stretch_becomes_one_run(self):
        msgs = vmsgs(8)
        assert expand(coalesce_event_runs(msgs)) == msgs

    def test_max_run_bounds_length(self):
        out = coalesce_event_runs(vmsgs(10), max_run=4)
        assert [len(r) for r in out] == [4, 4, 2]
        assert all(type(r) is EventRun for r in out)

    def test_route_change_breaks_the_run(self):
        msgs = vmsgs(3, stream="v0") + vmsgs(3, stream="v1", start=10)
        out = coalesce_event_runs(msgs)
        assert [type(m) for m in out] == [EventRun, EventRun]
        assert expand(out) == msgs

    def test_non_events_pass_through_in_order(self):
        hb = HeartbeatMsg(ImplTag("value", "v0"), (2.5,))
        msgs = vmsgs(3) + [hb] + vmsgs(3, start=10)
        out = coalesce_event_runs(msgs)
        assert [type(m) for m in out] == [EventRun, HeartbeatMsg, EventRun]
        assert expand(out) == msgs

    def test_exotic_shapes_stay_per_event(self):
        stringy = vmsgs(3, payload=lambda i: f"s{i}")
        assert coalesce_event_runs(stringy) == stringy
        huge = vmsgs(3, payload=lambda i: 2**70 + i)  # overflows i64 columns
        assert coalesce_event_runs(huge) == huge

    def test_single_event_is_not_wrapped(self):
        msgs = vmsgs(1)
        assert coalesce_event_runs(msgs) == msgs

    def test_wire_roundtrip_and_message_accounting(self):
        """A coalesced batch frames, counts, and decodes as its events."""
        msgs = vmsgs(7) + [HeartbeatMsg(ImplTag("value", "v0"), (99.0,))]
        batch = coalesce_event_runs(msgs)
        assert batch_message_count(batch) == 8
        assert expand(unpack_frame(pack_frame(batch), runs=True)) == msgs


class TestMailboxRuns:
    """Run-aware selective reordering: value events gated by a barrier
    tag (the paper's canonical dependence pattern)."""

    V = ImplTag("value", "v0")
    B = ImplTag("barrier", "s")
    DEP = DependenceRelation(
        ("value", "barrier"), {"barrier": ("barrier", "value")}
    )

    def mailbox(self):
        return Mailbox([self.V, self.B], self.DEP)

    @staticmethod
    def bkey(ts):
        return Event("barrier", "s", ts).order_key

    def test_heartbeat_releases_the_whole_run(self):
        mb = self.mailbox()
        run = one_run(vmsgs(5, start=1))
        assert mb.insert_run(run) == []  # barrier timer still at -inf
        assert mb.buffered_count(self.V) == 5
        (rel,) = mb.advance(self.B, self.bkey(50.0))
        assert rel.item is run and rel.key == run.first_key
        assert mb.buffered_count() == 0
        assert mb.timer(self.V) == run.last_key

    def test_whole_release_builds_no_per_event_keys(self):
        """Insert and whole release need only the run's boundary keys,
        which are built one at a time: the per-event key list stays
        unmaterialized."""
        mb = self.mailbox()
        msgs = vmsgs(512, start=1)
        run = one_run(msgs)
        mb.insert_run(run)
        (rel,) = mb.advance(self.B, self.bkey(1000.0))
        assert rel.item is run and run._keys is None
        assert run.first_key == msgs[0].event.order_key
        assert run.last_key == msgs[-1].event.order_key
        assert run._keys is None

    def test_split_halves_keep_exact_boundary_keys(self):
        mb = self.mailbox()
        msgs = vmsgs(10, start=1)
        mb.insert_run(one_run(msgs))
        (prefix,) = mb.advance(self.B, self.bkey(5.5))
        (rest,) = mb.advance(self.B, self.bkey(50.0))
        for b, part in ((prefix, msgs[:5]), (rest, msgs[5:])):
            assert b.key == b.item.first_key == part[0].event.order_key
            assert b.item.last_key == part[-1].event.order_key
            assert b.item.keys() == [m.event.order_key for m in part]

    def test_partial_release_splits_at_the_dependence_bound(self):
        mb = self.mailbox()
        run = one_run(vmsgs(10, start=1))  # ts 1..10
        mb.insert_run(run)
        released = mb.advance(self.B, self.bkey(5.5))
        (prefix,) = released
        assert [e.ts for e in prefix.item.events()] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert mb.buffered_count(self.V) == 5
        (rest,) = mb.advance(self.B, self.bkey(50.0))
        assert [e.ts for e in rest.item.events()] == [6.0, 7.0, 8.0, 9.0, 10.0]
        assert mb.buffered_count() == 0

    def test_run_equivalent_to_per_event_inserts(self):
        """Same arrivals, run vs per-event: identical release schedule
        event by event."""
        msgs = vmsgs(10, start=1)
        schedules = []
        for columnar in (True, False):
            mb = self.mailbox()
            timeline = []

            def note(released):
                for b in released:
                    if type(b.item) is EventRun:
                        timeline.extend(e.ts for e in b.item.events())
                    elif type(b.item) is EventMsg:
                        timeline.append(b.item.event.ts)
                    else:
                        timeline.append(b.item)

            if columnar:
                note(mb.insert_run(one_run(msgs)))
            else:
                for m in msgs:
                    note(mb.insert(self.V, m.event.order_key, m))
            note(mb.advance(self.B, self.bkey(4.5)))
            note(mb.insert(self.B, self.bkey(7.5), "BARRIER"))
            note(mb.advance(self.B, self.bkey(50.0)))
            schedules.append(timeline)
        assert schedules[0] == schedules[1]

    def test_non_monotone_run_is_rejected(self):
        mb = self.mailbox()
        mb.insert_run(one_run(vmsgs(3, start=5)))
        with pytest.raises(InputError, match="non-monotone"):
            mb.insert_run(one_run(vmsgs(3, start=1)))

    def test_straddle_split_restores_global_order(self):
        """Asymmetric dependence: a released run may span another tag's
        released item; the mailbox must split it so the batch reads in
        global key order, exactly as per-event release would."""
        A, C, B = ImplTag("a", 0), ImplTag("c", 0), ImplTag("b", 0)
        dep = DependenceRelation(("a", "b", "c"), {"b": ("a", "c")})
        mb = Mailbox([A, C, B], dep)
        a_run = one_run(
            [EventMsg(Event("a", 0, float(t), payload=t)) for t in range(1, 11)]
        )
        assert mb.insert_run(a_run) == []
        c_ev = Event("c", 0, 5.5, payload="c")
        assert mb.insert(C, c_ev.order_key, EventMsg(c_ev)) == []
        released = mb.advance(B, Event("b", 0, 50.0).order_key)
        flat = []
        for b in released:
            if type(b.item) is EventRun:
                flat.extend((e.ts, e.tag) for e in b.item.events())
            else:
                flat.append((b.item.event.ts, b.item.event.tag))
        assert flat == sorted(flat), "release order must be global key order"
        assert (5.5, "c") in flat
        assert [b.key for b in released] == sorted(b.key for b in released)


def fold_per_event(update, state, run):
    outs = []
    for e in run.events():
        state, emitted = update(state, e)
        outs.extend(emitted)
    return state, outs


class TestUpdateBatchEquivalence:
    def test_value_barrier_value_run(self):
        run = one_run(vmsgs(9, payload=lambda i: i * 3))
        s_batch, indexed = vb._update_batch(7, run)
        s_fold, outs = fold_per_event(vb._update, 7, run)
        assert s_batch == s_fold
        assert [o for _, o in indexed] == outs == []

    def test_value_barrier_barrier_run(self):
        run = one_run(
            [EventMsg(Event("barrier", "s", float(t))) for t in (1, 2, 3)]
        )
        s_batch, indexed = vb._update_batch(41, run)
        s_fold, outs = fold_per_event(vb._update, 41, run)
        assert s_batch == s_fold == 0
        assert [o for _, o in indexed] == outs
        assert [i for i, _ in indexed] == [0, 1, 2]

    def test_keycounter_increment_run(self):
        run = EventRun(("i", 0), 0, 0, (1.0, 2.0, 3.0), (2, 3, 4))
        s_batch, indexed = kc._update_batch({0: 1}, run)
        s_fold, outs = fold_per_event(kc._update, {0: 1}, run)
        assert kc.state_eq(s_batch, s_fold)
        assert [o for _, o in indexed] == outs == []

    def test_keycounter_payloadless_increment_run_counts_ones(self):
        run = EventRun(("i", 1), 0, 0, (1.0, 2.0, 3.0), None)
        s_batch, _ = kc._update_batch({}, run)
        s_fold, _ = fold_per_event(kc._update, {}, run)
        assert kc.state_eq(s_batch, s_fold)

    def test_keycounter_read_reset_run_keeps_per_event_semantics(self):
        """First read observes the count, later reads in the same run
        observe zero — the batch path may not collapse them."""
        run = EventRun(("r", 0), 0, 0, (1.0, 2.0), None)
        s_batch, indexed = kc._update_batch({0: 9}, run)
        s_fold, outs = fold_per_event(kc._update, {0: 9}, run)
        assert kc.state_eq(s_batch, s_fold)
        assert [o for _, o in indexed] == outs == [(0, 9), (0, 0)]


def reference_producer(stream, end_ts):
    """The per-event producer the columnar one replaced: one
    :class:`EventMsg` per event plus heartbeats, merged by a sort on
    order keys.  Kept here as the golden reference."""
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
        if t in event_ts:
            continue
        key = Event(stream.itag.tag, stream.itag.stream, t).order_key
        items.append((key, HeartbeatMsg(stream.itag, key)))
    items.sort(key=lambda kv: kv[0])
    return [msg for _, msg in items]


def drop_subsumed(msgs):
    """Remove every heartbeat that a later event of the stream follows:
    on the owner's FIFO channel that event's larger order key advances
    the mailbox timer past the heartbeat's, so the heartbeat promises
    nothing the event does not."""
    last = max((i for i, m in enumerate(msgs) if type(m) is EventMsg), default=-1)
    return [m for i, m in enumerate(msgs) if type(m) is not HeartbeatMsg or i > last]


def wire_view(msgs):
    """Type-exact, field-by-field view of a message list (EventRun has
    no __eq__, and 3 == 3.0 would hide a changed scalar type)."""
    out = []
    for m in msgs:
        if type(m) is EventRun:
            out.append(("run", repr((m.tag, m.stream, m.shape, m.ts, m.payloads))))
        else:
            out.append((type(m).__name__, repr(m)))
    return out


def stream_of(events, itag=ImplTag("value", "v0"), hb=1.0):
    return InputStream(itag, tuple(events), heartbeat_interval=hb)


def evs(n, tag="value", stream="v0", ts=lambda i: 0.1 * (i + 1), payload=lambda i: i):
    return [Event(tag, stream, ts(i), payload(i)) for i in range(n)]


PRODUCER_CASES = {
    "float-ts-int-payload": stream_of(evs(300)),
    "int-ts-int-payload": stream_of(evs(300, ts=lambda i: 3 * i + 1), hb=5),
    "none-payload": stream_of(evs(300, payload=lambda i: None)),
    "float-payload": stream_of(evs(300, payload=lambda i: i / 4)),
    "str-payload": stream_of(evs(50, payload=lambda i: f"s{i}")),
    "i64-overflow": stream_of(evs(50, payload=lambda i: 2**70 + i)),
    "some-overflow": stream_of(evs(80, payload=lambda i: 2**70 if i % 13 == 0 else i)),
    "mixed-shapes": stream_of(
        evs(120, payload=lambda i: (None, i, i / 2, "x", True)[i % 5 if i % 20 < 5 else 1])
    ),
    "tuple-stream-id": stream_of(evs(80, stream=("v", 0)), itag=ImplTag("value", ("v", 0))),
    "int-stream-id": stream_of(evs(80, stream=7), itag=ImplTag("value", 7)),
    "no-periodic-heartbeats": stream_of(evs(300), hb=None),
    "heartbeat-on-event-ts": stream_of(evs(40, ts=lambda i: 0.5 * (i + 1)), hb=1.0),
    "long-stretches": stream_of(evs(1300, ts=lambda i: i / 1000), hb=0.6),
    "stretch-remainder-of-one": stream_of(evs(1025), hb=None),
    "sparse-events": stream_of(evs(5, ts=lambda i: 7.25 * i + 2), hb=0.5),
    "empty": stream_of([]),
    "empty-no-heartbeats": stream_of([], hb=None),
}


class TestProducerMessages:
    """The columnar producer against the per-event reference with its
    subsumed heartbeats removed, plus :func:`coalesce_event_runs`:
    message-for-message identical."""

    @pytest.mark.parametrize("case", sorted(PRODUCER_CASES))
    @pytest.mark.parametrize("end_ts", ["after", "inside"])
    def test_matches_coalesced_reference(self, case, end_ts):
        stream = PRODUCER_CASES[case]
        if end_ts == "after":
            end = end_timestamp([stream])
        else:  # a caller-chosen end inside the stream's span
            end = stream.events[len(stream.events) // 2].ts if stream.events else 0.5
        got = producer_messages(stream, end)
        want = coalesce_event_runs(drop_subsumed(reference_producer(stream, end)), max_run=512)
        assert wire_view(got) == wire_view(want)

    def test_cases_exercise_every_branch(self):
        """The golden cases above really cover runs, plain events,
        capped runs, a one-event remainder, skipped heartbeats and
        periodic heartbeats kept past the last event."""
        long = producer_messages(PRODUCER_CASES["long-stretches"], 10.0)
        assert [len(m) for m in long if type(m) is EventRun] == [512, 512, 276]
        # Heartbeats never cut a stream: 300 events, one run.
        flat = producer_messages(PRODUCER_CASES["float-ts-int-payload"], 99.0)
        assert [type(m).__name__ for m in flat[:2]] == ["EventRun", "HeartbeatMsg"]
        assert len(flat[0]) == 300
        sparse = producer_messages(PRODUCER_CASES["sparse-events"], 33.0)
        assert type(sparse[0]) is EventRun and len(sparse[0]) == 5
        assert [m.key[0] for m in sparse[1:]] == [31.5, 32.0, 32.5, 33.0]
        tail = producer_messages(PRODUCER_CASES["stretch-remainder-of-one"], 200.0)
        assert [type(m).__name__ for m in tail] == [
            "EventRun", "EventRun", "EventMsg", "HeartbeatMsg"
        ]
        on_ts = PRODUCER_CASES["heartbeat-on-event-ts"]
        hbs = [m.key[0] for m in producer_messages(on_ts, 21.0) if type(m) is HeartbeatMsg]
        assert hbs == [21.0]  # every periodic heartbeat lands on an event
        assert all(
            type(m) is EventMsg
            for m in producer_messages(PRODUCER_CASES["str-payload"], 99.0)
            if type(m) is not HeartbeatMsg
        )

    @pytest.mark.parametrize("pace_case", ["vb", "exotic"])
    def test_paced_schedule_unchanged(self, pace_case):
        """The open-loop schedule stays per-event and identical, scalar
        types included (repr tells 3 from 3.0)."""
        if pace_case == "vb":
            streams = vb.make_streams(
                vb.make_workload(n_value_streams=2, values_per_barrier=30, n_barriers=3)
            )
        else:
            streams = [PRODUCER_CASES["mixed-shapes"], PRODUCER_CASES["int-stream-id"]]
        owner = lambda s: repr(s.itag)  # noqa: E731
        end = end_timestamp(streams)
        want = []
        for idx, stream in enumerate(streams):
            for seq, msg in enumerate(reference_producer(stream, end)):
                ts = msg.event.ts if type(msg) is EventMsg else msg.key[0]
                want.append((ts, idx, seq, owner(stream), msg))
        want.sort(key=lambda t: (t[0], t[1], t[2]))
        got = paced_producer_schedule(streams, owner, end)
        assert repr(got) == repr([(ts, own, msg) for ts, _i, _s, own, msg in want])
        assert all(type(msg) is not EventRun for _ts, _own, msg in got)

    def test_unsorted_stream_is_rejected(self):
        events = evs(10)
        events[4], events[5] = events[5], events[4]
        with pytest.raises(InputError, match=r"ImplTag\('value'@'v0'\).*ts=0\.5"):
            producer_messages(stream_of(events), 99.0)

    def test_duplicate_ts_is_rejected(self):
        events = evs(4) + [Event("value", "v0", 0.4, 9)]
        with pytest.raises(InputError, match="strictly increasing"):
            producer_messages(stream_of(events), 99.0)

    @pytest.mark.parametrize(
        "stray", [Event("other", "v0", 0.35, 1), Event("value", "v1", 0.35, 1)]
    )
    def test_foreign_itag_event_is_rejected(self, stray):
        events = sorted(evs(6) + [stray], key=lambda e: e.ts)
        with pytest.raises(InputError, match=r"ts=0\.35 belongs"):
            producer_messages(stream_of(events), 99.0)
