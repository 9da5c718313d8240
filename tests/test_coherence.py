import dataclasses
import itertools
import random

import pytest

from tiersim import coherence
from tiersim.coherence import (CORE_READ, CORE_WRITE, INVALIDATE, MEMO_SIZE,
                               SUPPLY_OWNER, CoherenceFault, StepResult,
                               check_invariants, coherence_step)


def test_cold_read_gets_exclusive_from_memory():
    res = coherence_step(["I", "I", "I", "I"], CORE_READ, 0)
    assert res.states == ("E", "I", "I", "I")
    assert res.actions == ()  # no cache supplies, so memory does


def test_read_from_modified_owner_demotes_to_owned():
    res = coherence_step(["M", "I"], CORE_READ, 1)
    assert res.states == ("O", "S")
    assert (SUPPLY_OWNER, 0) in res.actions


def test_write_invalidates_sharers():
    res = coherence_step(["S", "S"], CORE_WRITE, 0)
    assert res.states == ("M", "I")
    invalidations = [a for a in res.actions if a[0] == INVALIDATE]
    assert invalidations == [(INVALIDATE, 1)]


def test_silent_upgrades_and_hits():
    assert coherence_step(["E", "I"], CORE_WRITE, 0).states == ("M", "I")
    assert coherence_step(["E", "I"], CORE_WRITE, 0).actions == ()
    assert coherence_step(["M", "I"], CORE_WRITE, 0).actions == ()
    for state in "MOES":
        res = coherence_step([state, "I"], CORE_READ, 0)
        assert res.states[0] == state
        assert res.actions == ()


def test_read_with_exclusive_owner_shares():
    res = coherence_step(["E", "I"], CORE_READ, 1)
    assert res.states == ("S", "S")
    assert (SUPPLY_OWNER, 0) in res.actions


def test_owned_keeps_supplying():
    res = coherence_step(["O", "S", "I"], CORE_READ, 2)
    assert res.states == ("O", "S", "S")
    assert (SUPPLY_OWNER, 0) in res.actions


def test_write_miss_with_dirty_owner_transfers_ownership():
    res = coherence_step(["M", "I"], CORE_WRITE, 1)
    assert res.states == ("I", "M")
    # ownership moved cache to cache: the old owner supplies and drops its
    # copy, and nothing is written back
    assert res.actions == ((SUPPLY_OWNER, 0), (INVALIDATE, 0))


def test_upgrade_from_owned():
    res = coherence_step(["O", "S", "S"], CORE_WRITE, 0)
    assert res.states == ("M", "I", "I")


def test_invariant_checker():
    check_invariants(["M", "I", "I"])
    check_invariants(["O", "S", "S"])
    check_invariants(["E", "I"])
    with pytest.raises(CoherenceFault):
        check_invariants(["M", "M"])
    with pytest.raises(CoherenceFault):
        check_invariants(["M", "S"])
    with pytest.raises(CoherenceFault):
        check_invariants(["E", "S"])
    with pytest.raises(CoherenceFault):
        check_invariants(["O", "O"])
    with pytest.raises(CoherenceFault):
        check_invariants(["O", "E"])


def test_bad_input_state_aborts():
    with pytest.raises(CoherenceFault):
        coherence_step(["M", "M"], CORE_READ, 0)


def test_unknown_event_rejected():
    with pytest.raises(ValueError):
        coherence_step(["I"], "flush", 0)


def test_randomized_against_sequential_memory_oracle():
    """Drive coherence_step with random events and plumb one word of data
    through the protocol's supply/writeback actions: every read must observe
    the value of the globally last write (flat sequential-memory oracle)."""
    rng = random.Random(2024)
    for trial in range(300):
        n = rng.randrange(2, 5)
        states = ["I"] * n
        values: list[int | None] = [None] * n
        memory = 0          # backing store under the protocol
        current = 0         # the oracle: last value written anywhere
        for stepno in range(80):
            cache = rng.randrange(n)
            event = rng.choice([CORE_READ, CORE_READ, CORE_WRITE, "evict"])
            if event == "evict":
                # The protocol leaves eviction to the cache: an M or O line
                # writes back, then goes to I.
                if states[cache] in "MO":
                    memory = values[cache]
                states[cache] = "I"
                values[cache] = None
                continue
            res = coherence_step(states, event, cache)
            supplier = next((a[1] for a in res.actions if a[0] == SUPPLY_OWNER), None)
            if event == CORE_READ:
                if states[cache] == "I":
                    values[cache] = (values[supplier] if supplier is not None
                                     else memory)
                assert values[cache] == current, (trial, stepno, states)
            else:
                current += 1
                values[cache] = current
            states = list(res.states)
            for i, s in enumerate(states):
                if s == "I":
                    values[i] = None
        # protocol never "loses" the latest value: someone dirty holds it,
        # or it has been written back
        holders = [values[i] for i, s in enumerate(states) if s in "MOES"]
        assert (current in holders) or memory == current or current == 0


# -- reference transition function ------------------------------------------
# A plain-loop copy of the protocol, kept as the oracle for the optimized
# `coherence_step`: both must agree on every state vector, event and
# requester, and refuse the same vectors.

def _ref_check_invariants(states):
    n_m = states.count("M")
    n_e = states.count("E")
    n_o = states.count("O")
    if n_m + n_e > 1:
        raise CoherenceFault(f"multiple owners: {states}")
    if n_m + n_e == 1 and any(s not in ("M", "E", "I") for s in states):
        raise CoherenceFault(f"M/E must be exclusive: {states}")
    if n_o > 1:
        raise CoherenceFault(f"multiple O holders: {states}")
    if n_o == 1 and any(s in ("M", "E") for s in states):
        raise CoherenceFault(f"O may coexist only with S/I: {states}")


def _ref_owner(states):
    for prio in ("M", "O", "E"):
        for idx, s in enumerate(states):
            if s == prio:
                return idx
    return None


def _ref_apply_busrd(states, requester, actions):
    owner = _ref_owner([s if i != requester else "I"
                        for i, s in enumerate(states)])
    if owner is not None:
        actions.append((SUPPLY_OWNER, owner))
        if states[owner] == "M":
            states[owner] = "O"
        elif states[owner] == "E":
            states[owner] = "S"


def _ref_apply_busrdx(states, requester, actions):
    owner = _ref_owner([s if i != requester else "I"
                        for i, s in enumerate(states)])
    if owner is not None:
        actions.append((SUPPLY_OWNER, owner))
    for idx, s in enumerate(states):
        if idx != requester and s != "I":
            actions.append((INVALIDATE, idx))
            states[idx] = "I"


def _ref_coherence_step(states, event, cache):
    _ref_check_invariants(states)
    st = list(states)
    actions = []
    mine = st[cache]
    if event == CORE_READ:
        if mine == "I":
            _ref_apply_busrd(st, cache, actions)
            any_other = any(s != "I" for i, s in enumerate(st) if i != cache)
            st[cache] = "S" if any_other else "E"
    elif event == CORE_WRITE:
        if mine == "M":
            pass
        elif mine == "E":
            st[cache] = "M"
        else:
            if mine == "I":
                _ref_apply_busrdx(st, cache, actions)
            else:
                for idx, s in enumerate(st):
                    if idx != cache and s != "I":
                        actions.append((INVALIDATE, idx))
                        st[idx] = "I"
            st[cache] = "M"
    _ref_check_invariants(st)
    return StepResult(states=tuple(st), actions=tuple(actions))


def _all_vectors(max_n=4):
    for n in range(1, max_n + 1):
        yield from itertools.product("MOESI", repeat=n)


def test_step_equals_reference_on_every_vector():
    legal = 0
    for vector in _all_vectors():
        try:
            _ref_check_invariants(vector)
        except CoherenceFault:
            with pytest.raises(CoherenceFault):
                check_invariants(vector)
            with pytest.raises(CoherenceFault):
                check_invariants(list(vector))
            for event in (CORE_READ, CORE_WRITE):
                with pytest.raises(CoherenceFault):
                    coherence_step(list(vector), event, 0)
            continue
        check_invariants(vector)
        legal += 1
        for event in (CORE_READ, CORE_WRITE):
            for cache in range(len(vector)):
                want = _ref_coherence_step(list(vector), event, cache)
                got = coherence_step(list(vector), event, cache)
                assert got == want, (vector, event, cache)
                assert coherence_step(vector, event, cache) == want
    # Legal vectors of n caches: all S/I, or one M or E with the rest I, or
    # one O with the rest S/I. All of them were compared, for n = 1..4.
    assert legal == sum(2 ** n + 2 * n + n * 2 ** (n - 1) for n in range(1, 5))


# -- the memo around the transition -------------------------------------------

def test_bad_vector_raises_on_every_call():
    # An exception is never stored, so a repeated bad input is checked again.
    for _ in range(2):
        with pytest.raises(CoherenceFault):
            coherence_step(["M", "M"], CORE_READ, 0)


def test_list_and_tuple_of_the_same_states_give_the_same_result():
    as_list = coherence_step(["S", "O", "I"], CORE_WRITE, 0)
    as_tuple = coherence_step(("S", "O", "I"), CORE_WRITE, 0)
    assert as_list is as_tuple
    assert as_list == StepResult(states=("M", "I", "I"),
                                 actions=((INVALIDATE, 1),))


def test_memo_stays_within_its_bound():
    vectors = itertools.product("SI", repeat=9)  # 512 legal vectors
    for vector in itertools.islice(vectors, MEMO_SIZE + 100):
        coherence_step(vector, CORE_READ, 0)
        assert coherence._transition.cache_info().currsize <= MEMO_SIZE
    assert coherence._transition.cache_info().currsize == MEMO_SIZE


def test_a_shared_result_cannot_be_changed():
    res = coherence_step(["I", "I"], CORE_READ, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.states = ("M", "I")
    assert not hasattr(res, "__dict__")
    assert coherence_step(["I", "I"], CORE_READ, 0).states == ("E", "I")
