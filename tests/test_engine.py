import pytest
from hypothesis import example, given, settings, strategies as st

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
    assert dispatched + q.pending() == 10


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
# `schedule_all` (a list of times, unsorted and with ties).
OPERATIONS = st.one_of(st.integers(0, 4), st.lists(st.integers(0, 4), max_size=5))
CHILD_OPERATIONS = st.one_of(st.integers(0, 3), st.lists(st.integers(0, 3), max_size=4))


@settings(max_examples=300, deadline=None)
@given(initial=st.lists(OPERATIONS, max_size=20),
       children=st.lists(st.lists(CHILD_OPERATIONS, max_size=3), max_size=40),
       t_mid=st.one_of(st.none(), st.integers(0, 8)),
       in_place=st.booleans())
# An event run in place must stay within a run that ends mid-way.
@example(initial=[0], children=[[1]], t_mid=0, in_place=True)
def test_dispatch_is_a_stable_sort_by_time_property(initial, children, t_mid,
                                                    in_place):
    """Events dispatch in (time, insertion index) order, whatever the ties,
    whether they were scheduled one by one or in `schedule_all` batches,
    and whatever handlers schedule at `now` or later; a batch counts as its
    events scheduled one by one in list order, and ties never compare a
    handler or payload. With `in_place`, a handler runs its last single
    event itself whenever `runs_next` allows, as the system's access
    handler does, and the order of effects is still the same."""
    q = EventQueue()
    scheduled = []       # (time, insertion index) of every scheduled event
    dispatched = []
    ran_in_place = 0

    def push(op, base):
        if isinstance(op, int):
            idx = len(scheduled)
            scheduled.append((base + op, idx))
            q.schedule(base + op, handler, Uncomparable(idx))
            return
        times = [base + delay for delay in op]
        first = len(scheduled)
        scheduled.extend((t, first + k) for k, t in enumerate(times))
        q.schedule_all(times, handler,
                       [Uncomparable(first + k) for k in range(len(times))])

    def on_event(payload):
        nonlocal ran_in_place
        idx = payload.value
        while True:
            assert q.now == scheduled[idx][0]
            dispatched.append(scheduled[idx])
            ops = children[idx] if idx < len(children) else []
            for op in ops[:-1]:
                push(op, q.now)
            if not ops:
                return
            last = ops[-1]
            if not (in_place and isinstance(last, int)
                    and q.runs_next(q.now + last)):
                push(last, q.now)
                return
            # The event takes the next insertion index and runs here.
            idx = len(scheduled)
            scheduled.append((q.now + last, idx))
            q.now += last
            ran_in_place += 1

    handler = Uncomparable(on_event)
    for op in initial:
        push(op, 0)
    if t_mid is not None:
        q.run_until(t_mid)
        assert all(t <= t_mid for t, _ in dispatched)
        assert q.dispatched + ran_in_place + q.pending() == len(scheduled)
    q.run_until()
    assert dispatched == sorted(scheduled)
    assert q.dispatched + ran_in_place == len(scheduled) and q.pending() == 0


def test_runs_next_is_strictly_before_the_head_and_within_the_run():
    q = EventQueue()
    seen = []

    def probe(_):
        seen.append([t for t in range(q.now, 13) if q.runs_next(t)])

    for t in (4, 6, 10):
        q.schedule(t, probe)
    assert not q.runs_next(0)    # no run has started
    q.run_until(8)               # the heads are 6, then 10; the run ends at 8
    q.run_until()                # the heap is empty and the run has no end
    assert seen == [[4, 5], [6, 7, 8], [10, 11, 12]]


def test_schedule_all_rejects_a_past_time_up_front():
    q = EventQueue()
    order = []
    q.schedule(10, order.append, "A")
    q.run_until()
    with pytest.raises(SchedulingError):
        q.schedule_all([12, 9, 11], order.append, ["B", "C", "D"])
    assert q.pending() == 0
    q.schedule_all([11, 10, 11], order.append, ["E", "F", "G"])
    q.schedule(10, order.append, "H")
    assert q.pending() == 4
    q.run_until()
    assert order == ["A", "F", "H", "E", "G"]


@pytest.mark.parametrize("times, expected", [
    # Times that never decrease, with ties: the batch is walked in index order.
    ([0, 0, 3, 3, 3, 7], [0, 1, "before", 2, 3, 4, "after", 5]),
    # One element out of order: the batch is walked in a stable sort by time.
    ([0, 2, 5, 1, 6, 6], [0, 3, 1, "before", "after", 2, 4, 5])])
def test_schedule_all_dispatches_as_single_schedules(times, expected):
    def dispatch_order(batched):
        q = EventQueue()
        order = []
        q.schedule(3, order.append, "before")
        if batched:
            q.schedule_all(times, order.append, list(range(len(times))))
        else:
            for i, t in enumerate(times):
                q.schedule(t, order.append, i)
        q.schedule(3, order.append, "after")
        assert q.pending() == len(times) + 2
        q.run_until()
        return order

    assert dispatch_order(batched=True) == dispatch_order(batched=False) == expected
