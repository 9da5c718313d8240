"""MOESI snooping protocol: the per-block global transition function and the
invariants every bus transaction must preserve.

The transition function is pure: it maps the per-cache state vector of one
block plus an event to the successor vector and the bus actions the event
implies. The timed simulator drives it at bus-serialization points; tests
drive it directly against a sequential-memory reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import DIRTY_STATES, E, I, M, O, S

CORE_READ = "core_read"
CORE_WRITE = "core_write"
SNOOP_BUSRD = "snoop_busrd"
SNOOP_BUSRDX = "snoop_busrdx"
EVICT = "evict"

BUS_RD = "bus_rd"
BUS_RDX = "bus_rdx"
SUPPLY_OWNER = "supply_owner"      # (action, owner index)
SUPPLY_MEMORY = "supply_memory"
INVALIDATE = "invalidate"          # (action, cache index)
WRITEBACK = "writeback"            # (action, cache index)


class CoherenceFault(RuntimeError):
    """Input state vector violates the protocol invariants."""


@dataclass(frozen=True)
class StepResult:
    states: tuple[str, ...]
    actions: tuple[tuple, ...]


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
    if n_o == 1 and n_m + n_e:
        raise CoherenceFault(f"O may coexist only with S/I: {states}")


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
    if others.count(I) == len(others):
        return
    for idx, s in enumerate(others):
        if s != I:
            actions.append((INVALIDATE, idx))
            states[idx] = I


def _apply_busrd(states: list[str], requester: int,
                 actions: list[tuple]) -> None:
    """Remote caches observe a BusRd from `requester`."""
    owner = _owner(_others(states, requester))
    if owner is not None:
        actions.append((SUPPLY_OWNER, owner))
        if states[owner] == M:
            states[owner] = O
        elif states[owner] == E:
            states[owner] = S
        # O stays O and keeps supplying.
    else:
        actions.append((SUPPLY_MEMORY,))


def _apply_busrdx(states: list[str], requester: int,
                  actions: list[tuple]) -> None:
    """Remote caches observe a BusRdX: everyone else invalidates; a dirty or
    exclusive holder supplies the block (ownership moves with the data)."""
    others = _others(states, requester)
    owner = _owner(others)
    if owner is not None:
        actions.append((SUPPLY_OWNER, owner))
    else:
        actions.append((SUPPLY_MEMORY,))
    _invalidate(states, others, actions)


def coherence_step(states: tuple[str, ...] | list[str], event: str,
                   cache: int) -> StepResult:
    """Apply one event for one block and return (new states, bus actions).

    Events: core_read/core_write/evict are local operations of `cache`;
    snoop_busrd/snoop_busrdx are remote transactions initiated by `cache`
    as observed by the other caches.
    """
    check_invariants(states)
    st = list(states)
    actions: list[tuple] = []
    mine = st[cache]

    if event == CORE_READ:
        if mine == I:
            actions.append((BUS_RD,))
            _apply_busrd(st, cache, actions)
            # The requester is still I here, so any non-I entry is another's.
            st[cache] = S if st.count(I) < len(st) else E
        # M/O/E/S read hits are silent.
    elif event == CORE_WRITE:
        if mine == M:
            pass
        elif mine == E:
            st[cache] = M  # silent upgrade, no bus traffic
        else:
            actions.append((BUS_RDX,))
            if mine == I:
                _apply_busrdx(st, cache, actions)
            else:  # S or O: upgrade, data already local
                _invalidate(st, _others(st, cache), actions)
            st[cache] = M
    elif event == SNOOP_BUSRD:
        _apply_busrd(st, cache, actions)
    elif event == SNOOP_BUSRDX:
        _apply_busrdx(st, cache, actions)
    elif event == EVICT:
        if mine in DIRTY_STATES:
            actions.append((WRITEBACK, cache))
        st[cache] = I
    else:
        raise ValueError(f"unknown coherence event {event!r}")

    check_invariants(st)
    return StepResult(states=tuple(st), actions=tuple(actions))
