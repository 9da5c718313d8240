import pytest
from hypothesis import given, settings, strategies as st

from tiersim.engine import EventQueue, SchedulingError, cycles_for_latency, substream


def test_equal_times_dispatch_in_insertion_order():
    q = EventQueue()
    order = []
    q.schedule(10, order.append, "A")
    q.schedule(10, order.append, "B")
    q.schedule(5, order.append, "C")
    q.run_until()
    assert order == ["C", "A", "B"]


def test_schedule_at_current_time_runs_before_advance():
    q = EventQueue()
    order = []

    def first(_):
        q.schedule(q.now, order.append, "same-time")

    q.schedule(7, first)
    q.schedule(8, order.append, "later")
    q.run_until()
    assert order == ["same-time", "later"]
    assert q.now == 8


def test_scheduling_in_the_past_is_fatal():
    q = EventQueue()
    q.schedule(10, lambda _: None)
    q.run_until()
    with pytest.raises(SchedulingError):
        q.schedule(9, lambda _: None)


def test_run_until_empty_queue():
    q = EventQueue()
    assert q.run_until(100) == 0
    assert q.now == 100


def test_run_until_composes():
    def build():
        q = EventQueue()
        log = []
        for t in (5, 15, 25, 35):
            q.schedule(t, log.append, t)
        return q, log

    q1, log1 = build()
    q1.run_until(20)
    assert log1 == [5, 15]
    q1.run_until(40)

    q2, log2 = build()
    q2.run_until(40)
    assert log1 == log2
    assert q1.now == q2.now == 40


def test_identical_runs_dispatch_identically():
    def run(seed):
        q = EventQueue()
        rng = substream(seed, "gen")
        log = []

        def emit(tag):
            log.append((q.now, tag))
            if len(log) < 50:
                q.schedule(q.now + rng.randrange(1, 10), emit, rng.random())

        q.schedule(0, emit, "start")
        q.run_until()
        return log

    assert run(123) == run(123)
    assert run(123) != run(124)


def test_conservation_scheduled_equals_dispatched_plus_pending():
    q = EventQueue()
    for t in range(10):
        q.schedule(t * 10, lambda _: None)
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


# An operation schedules one event at a time (an int) or a batch through
# `schedule_all` (a list of times, unsorted and with ties, which goes in a
# stable sort by time, as `System.load_messages` sorts its records).
OPERATIONS = st.one_of(st.integers(0, 4), st.lists(st.integers(0, 4), max_size=5))
CHILD_OPERATIONS = st.one_of(st.integers(0, 3), st.lists(st.integers(0, 3), max_size=4))


@settings(max_examples=300, deadline=None)
@given(initial=st.lists(OPERATIONS, max_size=20),
       children=st.lists(st.lists(CHILD_OPERATIONS, max_size=3), max_size=40),
       t_mid=st.one_of(st.none(), st.integers(0, 8)))
def test_dispatch_is_a_stable_sort_by_time_property(initial, children, t_mid):
    """Events dispatch in (time, insertion index) order, whatever the ties,
    whether they were scheduled one by one or in `schedule_all` batches,
    and whatever handlers schedule at `now` or later; a batch counts as its
    events scheduled one by one in list order, and ties never compare a
    handler or payload. (A cluster's steps run in place under the same
    order: `test_a_cluster_runs_in_place_as_a_queue_of_every_step_property`
    in test_system.py.)"""
    q = EventQueue()
    scheduled = []       # (time, insertion index) of every scheduled event
    dispatched = []

    def push(op, base):
        if isinstance(op, int):
            idx = len(scheduled)
            scheduled.append((base + op, idx))
            q.schedule(base + op, handler, Uncomparable(idx))
            return
        times = [base + delay for delay in op]
        first = len(scheduled)
        scheduled.extend((t, first + k) for k, t in enumerate(times))
        q.schedule_all(in_time_order(times, first), len(times), handler)

    def on_event(payload):
        idx = payload.value
        assert q.now == scheduled[idx][0]
        dispatched.append(scheduled[idx])
        for op in children[idx] if idx < len(children) else []:
            push(op, q.now)

    handler = Uncomparable(on_event)
    for op in initial:
        push(op, 0)
    cut = 0
    if t_mid is not None:
        cut = q.run_until(t_mid)
        assert all(t <= t_mid for t, _ in dispatched)
        assert cut == q.dispatched == len(dispatched)
    rest = q.run_until()
    assert dispatched == sorted(scheduled)
    assert cut + rest == q.dispatched == len(scheduled)
    assert q.run_until() == 0


def in_time_order(times, first=0):
    """`(time, payload)` pairs for a batch whose event k is at times[k], in
    a stable sort by time; event k's payload is Uncomparable(first + k)."""
    return ((times[k], Uncomparable(first + k))
            for k in sorted(range(len(times)), key=times.__getitem__))


def test_schedule_all_rejects_a_past_time_up_front():
    q = EventQueue()
    order = []
    q.schedule(10, order.append, "A")
    q.run_until()
    with pytest.raises(SchedulingError):
        q.schedule_all(iter([(9, "C"), (11, "D"), (12, "B")]), 3, order.append)
    assert q.run_until() == 0
    q.schedule_all(iter([(10, "F"), (11, "E"), (11, "G")]), 3, order.append)
    q.schedule(10, order.append, "H")
    assert q.run_until() == 4
    assert order == ["A", "F", "H", "E", "G"]


def test_schedule_all_refuses_a_time_before_the_one_ahead_of_it():
    # Each event of a batch is read when the one before it is dispatched,
    # so a time out of order is refused then, before that dispatch's
    # handler runs.
    q = EventQueue()
    order = []
    q.schedule_all(iter([(2, "A"), (5, "B"), (4, "C")]), 3, order.append)
    q.run_until(3)
    assert order == ["A"]
    with pytest.raises(SchedulingError):
        q.run_until()
    assert order == ["A"]


@pytest.mark.parametrize("times, expected", [
    # Times that never decrease, with ties: the batch is walked in index order.
    ([0, 0, 3, 3, 3, 7], [0, 1, "before", 2, 3, 4, "after", 5]),
    # One element out of order: the batch goes in a stable sort by time.
    ([0, 2, 5, 1, 6, 6], [0, 3, 1, "before", "after", 2, 4, 5])])
def test_schedule_all_dispatches_as_single_schedules(times, expected):
    def dispatch_order(batched):
        q = EventQueue()
        order = []
        q.schedule(3, order.append, "before")
        if batched:
            q.schedule_all(((times[i], i) for i in
                            sorted(range(len(times)), key=times.__getitem__)),
                           len(times), order.append)
        else:
            for i, t in enumerate(times):
                q.schedule(t, order.append, i)
        q.schedule(3, order.append, "after")
        assert q.run_until() == len(times) + 2
        return order

    assert dispatch_order(batched=True) == dispatch_order(batched=False) == expected


@pytest.mark.parametrize("t_mid", [0, 3, 4, 7])
def test_dispatched_plus_pending_is_conserved_across_a_cut_run(t_mid):
    # Shared times, a batch whose later events are still unread at the
    # cut, and handlers that schedule at `now` and later.
    q = EventQueue()
    scheduled = ran = 0

    def spawn(depth):
        nonlocal scheduled, ran
        ran += 1
        if depth < 2:
            q.schedule(q.now, spawn, depth + 1)
            q.schedule(q.now + 3, spawn, depth + 1)
            scheduled += 2

    for t in (0, 0, 4):
        q.schedule(t, spawn, 0)
    q.schedule_all(iter([(0, 0), (4, 0), (4, 1)]), 3, spawn)
    scheduled += 6
    cut = q.run_until(t_mid)
    assert 0 < cut == q.dispatched == ran < scheduled
    assert cut + q.run_until() == q.dispatched == ran == scheduled
    assert q.run_until() == 0


def test_a_handler_that_raises_leaves_the_events_after_it_pending():
    q = EventQueue()
    order = []

    def fail(_):
        raise ValueError("handler failed")

    q.schedule(5, fail)
    q.schedule(5, order.append, "b")
    q.schedule(6, order.append, "c")
    with pytest.raises(ValueError):
        q.run_until()
    assert q.run_until() == 2
    assert order == ["b", "c"]


def test_a_handler_that_raises_at_its_times_last_event_leaves_nothing_pending():
    # The raising event was the last at its time: the emptied time runs
    # nothing, the clock stays, and the time takes new events.
    q = EventQueue()
    order = []

    def fail(_):
        raise ValueError("handler failed")

    q.schedule(5, order.append, "a")
    q.schedule(5, fail)
    with pytest.raises(ValueError):
        q.run_until()
    assert order == ["a"] and q.now == 5
    assert q.run_until() == 0 and q.now == 5
    q.schedule(5, order.append, "b")
    assert q.run_until() == 1
    assert order == ["a", "b"] and q.now == 5
