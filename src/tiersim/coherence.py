"""MOESI snooping protocol: the per-block global transition function and the
invariants every bus transaction must preserve.

The transition function is pure: it maps the per-cache state vector of one
block plus a core event (a load or a store by one cache's core) to the
successor vector and the actions the other caches take. The timed simulator
drives it with those two events at bus-serialization points; tests drive it
directly against a sequential-memory reference.

Because it is pure, `coherence_step` memoizes it: the transition is looked
up by (state tuple, event, cache) in a least-recently-used table of
`MEMO_SIZE` entries. The simulator passes only the states of a block's
holders, the requester's included (a stack without a copy cannot change
the step), so inputs are short and few: the benchmark's `shared-reuse`
makes about 200 at seed 1, where full vectors make 2,769. Both invariant
checks run when an input is not in the table, so once for each distinct
input while it stays there; the function is pure, so a repeated input
would pass them again. A bad input raises on every call, because an
exception is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cache import E, I, M, O, S

CORE_READ = "core_read"
CORE_WRITE = "core_write"

SUPPLY_OWNER = "supply_owner"      # (action, owner index)
INVALIDATE = "invalidate"          # (action, cache index)


class CoherenceFault(RuntimeError):
    """Input state vector violates the protocol invariants."""


# Entries in the memo of the transition function.
MEMO_SIZE = 256


@dataclass(frozen=True, slots=True)
class StepResult:
    states: tuple[str, ...]
    actions: tuple[tuple, ...]
    remotes: tuple[int, ...]  # the other caches whose state changes


def check_invariants(states: tuple[str, ...] | list[str]) -> None:
    """Raise CoherenceFault unless the global MOESI invariants hold."""
    n_m = states.count(M)
    n_e = states.count(E)
    n_o = states.count(O)
    if n_m + n_e > 1:
        raise CoherenceFault(f"multiple owners: {states}")
    if n_m + n_e == 1 and states.count(I) != len(states) - 1:
        raise CoherenceFault(f"M/E must be exclusive: {states}")
    if n_o > 1:
        raise CoherenceFault(f"multiple O holders: {states}")


def _others(states: list[str], requester: int) -> list[str]:
    """A copy of the vector with the requester's own entry masked to I."""
    others = states.copy()
    others[requester] = I
    return others


def _owner(others: list[str]) -> int | None:
    """Cache responsible for supplying data, if any holds it dirty or
    exclusive: the first M, else the first O, else the first E."""
    for prio in (M, O, E):
        if prio in others:
            return others.index(prio)
    return None


def _invalidate(states: list[str], others: list[str],
                actions: list[tuple]) -> None:
    """Every cache holding a copy in `others` invalidates it."""
    for idx, s in enumerate(others):
        if s != I:
            actions.append((INVALIDATE, idx))
            states[idx] = I


def _apply_busrd(states: list[str], requester: int,
                 actions: list[tuple]) -> None:
    """Remote caches observe a BusRd from `requester`; with no owner to
    supply, memory does."""
    owner = _owner(_others(states, requester))
    if owner is not None:
        actions.append((SUPPLY_OWNER, owner))
        if states[owner] == M:
            states[owner] = O
        elif states[owner] == E:
            states[owner] = S
        # O stays O and keeps supplying.


def _apply_busrdx(states: list[str], requester: int,
                  actions: list[tuple]) -> None:
    """Remote caches observe a BusRdX: everyone else invalidates; a dirty or
    exclusive holder supplies the block (ownership moves with the data)."""
    others = _others(states, requester)
    owner = _owner(others)
    if owner is not None:
        actions.append((SUPPLY_OWNER, owner))
    _invalidate(states, others, actions)


def coherence_step(states: tuple[str, ...] | list[str], event: str,
                   cache: int) -> StepResult:
    """Apply one core event of `cache` to one block and return (new
    states, remote actions).

    Events: core_read and core_write, a load and a store by `cache`'s core.
    A read miss is a BusRd and a write from I, S or O a BusRdX, which the
    other caches snoop; hits and the E -> M upgrade are silent. Actions
    name the remote caches involved: (supply_owner, i) when cache i
    supplies the data, (invalidate, i) when it drops its copy; `remotes`
    lists, in index order, the caches other than `cache` whose state those
    actions change. A list and a tuple of the same states give the same
    (shared, frozen) result.
    """
    return _transition(tuple(states), event, cache)


@lru_cache(maxsize=MEMO_SIZE)
def _transition(states: tuple[str, ...], event: str, cache: int) -> StepResult:
    """The transition behind `coherence_step`, memoized by its inputs."""
    check_invariants(states)
    st = list(states)
    actions: list[tuple] = []
    mine = st[cache]

    if event == CORE_READ:
        if mine == I:
            _apply_busrd(st, cache, actions)
            # The requester is still I here, so any non-I entry is another's.
            st[cache] = S if st.count(I) < len(st) else E
        # M/O/E/S read hits are silent.
    elif event == CORE_WRITE:
        if mine == I:
            _apply_busrdx(st, cache, actions)
        elif mine in (S, O):  # upgrade, data already local
            _invalidate(st, _others(st, cache), actions)
        st[cache] = M  # from E or M silently, with no bus traffic
    else:
        raise ValueError(f"unknown coherence event {event!r}")

    check_invariants(st)
    return StepResult(tuple(st), tuple(actions), tuple(
        i for i, old in enumerate(states) if i != cache and old != st[i]))
