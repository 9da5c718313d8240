import pytest
from hypothesis import given, settings, strategies as st

from tiersim.engine import EventQueue, SchedulingError, cycles_for_latency, substream


def test_equal_times_dispatch_in_insertion_order():
    order = []
    q = EventQueue(order.append)
    q.schedule(10, "A")
    q.schedule(10, "B")
    q.schedule(5, "C")
    q.run_until()
    assert order == ["C", "A", "B"]


def test_schedule_at_the_current_time_is_fatal():
    # No hop is ever scheduled at the current time (every router, link and
    # TSV delay is at least a cycle), so the queue refuses one.
    q = EventQueue(lambda _: q.schedule(q.now, "same-time"))
    with pytest.raises(SchedulingError, match="at or before current time 0 ps"):
        q.schedule(0, "now")
    q.schedule(7, "first")
    with pytest.raises(SchedulingError, match="at or before current time 7 ps"):
        q.run_until()
    assert q.now == 7 and q.dispatched == 1
    assert q.run_until() == 0


def test_scheduling_in_the_past_is_fatal():
    q = EventQueue(lambda _: None)
    q.schedule(10, None)
    q.run_until()
    with pytest.raises(SchedulingError):
        q.schedule(9, None)


def test_run_until_empty_queue():
    q = EventQueue(lambda _: None)
    assert q.run_until(100) == 0
    assert q.now == 100


def test_run_until_composes():
    def build():
        log = []
        q = EventQueue(log.append)
        q.feed(iter([(0, 0), (20, 20)]))
        for t in (5, 15, 25, 35):
            q.schedule(t, t)
        return q, log

    q1, log1 = build()
    q1.run_until(20)
    assert log1 == [0, 5, 15, 20]
    q1.run_until(40)

    q2, log2 = build()
    q2.run_until(40)
    assert log1 == log2
    assert q1.now == q2.now == 40


def test_identical_runs_dispatch_identically():
    def run(seed):
        rng = substream(seed, "gen")
        log = []

        def emit(tag):
            log.append((q.now, tag))
            if len(log) < 50:
                q.schedule(q.now + rng.randrange(1, 10), rng.random())

        q = EventQueue(emit)
        q.feed(iter([(0, "start")]))
        q.run_until()
        return log

    assert run(123) == run(123)
    assert run(123) != run(124)


def test_conservation_scheduled_equals_dispatched_plus_pending():
    q = EventQueue(lambda _: None)
    for t in range(10):
        q.schedule(t * 10 + 5, None)
    dispatched = q.run_until(45)
    assert dispatched == q.dispatched == 5
    assert dispatched + q.run_until() == q.dispatched == 10


def test_cycles_for_latency_examples():
    assert cycles_for_latency(2.5, 1000) == 3
    assert cycles_for_latency(2.0, 1000) == 2
    assert cycles_for_latency(0.0, 1000) == 0


def test_cycles_for_latency_rejects_bad_clock():
    with pytest.raises(ValueError):
        cycles_for_latency(1.0, 0)


def test_substream_is_stable_and_independent():
    a1 = substream(1, "cache", 0).random()
    a2 = substream(1, "cache", 0).random()
    b = substream(1, "cache", 1).random()
    c = substream(2, "cache", 0).random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c
    # pinned so cross-platform or interpreter drift surfaces loudly
    assert substream(0, "x").randrange(1000) == substream(0, "x").randrange(1000)


class Uncomparable:
    """A handler or payload that fails the run if the queue ever compares it."""

    def __init__(self, value):
        self.value = value

    def __call__(self, payload):
        self.value(payload)

    def _refuse(self, other):
        raise AssertionError("the event queue compared a handler or payload")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
    __hash__ = object.__hash__


@settings(max_examples=300, deadline=None)
@given(fed=st.lists(st.integers(0, 6), max_size=8),
       initial=st.lists(st.integers(1, 5), max_size=20),
       children=st.lists(st.lists(st.integers(1, 3), max_size=3), max_size=40),
       t_mid=st.one_of(st.none(), st.integers(0, 8)))
def test_dispatch_is_a_stable_sort_by_time_property(fed, initial, children, t_mid):
    """Events dispatch in order of time, each time's injections first, in
    feed order, and then its scheduled events, in the order they were
    scheduled, whatever the ties and whatever handlers schedule after
    `now`; ties never compare a handler or payload. The feed's times
    (unsorted, with ties) go in a stable sort by time, as
    `System.load_messages` sorts its records. (A cluster's steps run in
    place under a (time, seq) order:
    `test_a_cluster_runs_in_place_as_a_queue_of_every_step_property` in
    test_system.py.)"""
    scheduled = []       # (time, 0 if fed else 1, index) of every event
    dispatched = []

    def push(time_ps):
        idx = len(scheduled)
        scheduled.append((time_ps, 1, idx))
        q.schedule(time_ps, Uncomparable(idx))

    def on_event(payload):
        idx = payload.value
        assert q.now == scheduled[idx][0]
        dispatched.append(scheduled[idx])
        for delay in children[idx] if idx < len(children) else []:
            push(q.now + delay)

    q = EventQueue(Uncomparable(on_event))
    scheduled.extend((t, 0, k) for k, t in enumerate(fed))
    q.feed((fed[k], Uncomparable(k))
           for k in sorted(range(len(fed)), key=fed.__getitem__))
    for t in initial:
        push(t)
    cut = 0
    if t_mid is not None:
        cut = q.run_until(t_mid)
        assert all(t <= t_mid for t, _, _ in dispatched)
        assert cut == q.dispatched == len(dispatched)
    rest = q.run_until()
    assert dispatched == sorted(scheduled)
    assert cut + rest == q.dispatched == len(scheduled)
    assert q.run_until() == 0


def test_a_feed_that_starts_in_the_past_is_refused_up_front():
    order = []
    q = EventQueue(order.append)
    q.schedule(10, "A")
    q.run_until()
    with pytest.raises(SchedulingError, match="injection at 9 ps"):
        q.feed(iter([(9, "C"), (11, "D"), (12, "B")]))
    assert q.run_until() == 0
    q.feed(iter([(10, "F"), (11, "E"), (11, "G")]))
    q.schedule(11, "H")
    assert q.run_until() == 4
    assert order == ["A", "F", "E", "G", "H"]


def test_a_feed_refuses_a_time_before_the_one_ahead_of_it():
    # Each pair of a feed is read when the one before it is injected, so a
    # time out of order is refused when the queue reaches it, and stays
    # refused.
    order = []
    q = EventQueue(order.append)
    q.feed(iter([(2, "A"), (5, "B"), (4, "C")]))
    q.run_until(3)
    assert order == ["A"]
    for _ in range(2):
        with pytest.raises(SchedulingError, match="injection at 4 ps comes "
                           "after one at 5 ps"):
            q.run_until()
    assert order == ["A", "B"] and q.dispatched == 2


@pytest.mark.parametrize("times, expected", [
    # Times that never decrease, with ties: the feed is read in index order,
    # and the injections at 3 go before the events scheduled there.
    ([0, 0, 3, 3, 3, 7], [0, 1, 2, 3, 4, "before", "after", 5]),
    # One element out of order: the feed goes in a stable sort by time.
    ([0, 2, 5, 1, 6, 6], [0, 3, 1, "before", "after", 2, 4, 5])])
def test_a_feed_injects_before_the_events_scheduled_at_its_times(times, expected):
    order = []
    q = EventQueue(order.append)
    q.schedule(3, "before")
    q.feed((times[i], i) for i in sorted(range(len(times)), key=times.__getitem__))
    q.schedule(3, "after")
    assert q.run_until() == len(times) + 2
    assert order == expected


@pytest.mark.parametrize("t_mid", [0, 3, 4, 7])
def test_dispatched_plus_pending_is_conserved_across_a_cut_run(t_mid):
    # Shared times, a feed whose later pairs are still unread at the cut,
    # and handlers that schedule one and three cycles on.
    scheduled = ran = 0

    def spawn(depth):
        nonlocal scheduled, ran
        ran += 1
        if depth < 2:
            q.schedule(q.now + 1, depth + 1)
            q.schedule(q.now + 3, depth + 1)
            scheduled += 2

    q = EventQueue(spawn)
    q.feed(iter([(0, 0), (0, 0), (4, 0), (4, 1)]))
    q.schedule(4, 0)
    scheduled += 5
    cut = q.run_until(t_mid)
    assert 0 < cut == q.dispatched == ran < scheduled
    assert cut + q.run_until() == q.dispatched == ran == scheduled
    assert q.run_until() == 0


def failing_at(bad):
    """A handler that logs each payload and raises on `bad`."""
    order = []

    def handler(payload):
        order.append(payload)
        if payload == bad:
            raise ValueError("handler failed")

    return handler, order


def test_a_handler_that_raises_leaves_the_events_after_it_pending():
    handler, order = failing_at("fail")
    q = EventQueue(handler)
    q.schedule(5, "fail")
    q.schedule(5, "b")
    q.schedule(6, "c")
    with pytest.raises(ValueError):
        q.run_until()
    assert q.run_until() == 2
    assert order == ["fail", "b", "c"]


def test_a_handler_that_raises_at_its_times_last_event_leaves_nothing_pending():
    # The raising event was the last at its time: the emptied time runs
    # nothing, and the clock stays.
    handler, order = failing_at("fail")
    q = EventQueue(handler)
    q.schedule(5, "a")
    q.schedule(5, "fail")
    with pytest.raises(ValueError):
        q.run_until()
    assert order == ["a", "fail"] and q.now == 5
    assert q.run_until() == 0 and q.now == 5
    q.schedule(6, "b")
    assert q.run_until() == 1
    assert order == ["a", "fail", "b"] and q.now == 6


@pytest.mark.parametrize("fed", [False, True])
def test_dispatched_counts_every_event_that_left_when_a_handler_raises(fed):
    # Events at 1, 5, 5 (raising) and 6, fed or scheduled: the raise leaves
    # three dispatched, the raising one among them, and the next run the
    # fourth.
    handler, order = failing_at("fail")
    q = EventQueue(handler)
    events = [(1, "a"), (5, "b"), (5, "fail"), (6, "c")]
    if fed:
        q.feed(iter(events))
    else:
        for event in events:
            q.schedule(*event)
    with pytest.raises(ValueError):
        q.run_until()
    assert q.dispatched == len(order) == 3
    assert q.run_until() == 1
    assert q.dispatched == len(order) == 4
