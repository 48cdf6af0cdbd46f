"""Member lifecycle: the one membership state machine.

Each admitted member is in exactly one state; the discovery sweep and the
control plane (heartbeats, LEAVE_INTENT, LEAVE) drive it::

    JOINING --heard--> HEALTHY <----------- heard again -----------+
       |                  |                                        |
       +------------------+---- silence > 3 x hb ----> DEGRADED ---+
                                                       (masking)
                                                           |
                                              silence > purge_after
                                                           v
    (live) --LEAVE_INTENT--> DRAINING --flushed/deadline--> GONE
    (live) --LEAVE -----------------------------------------^

``(live)`` is JOINING, HEALTHY or DEGRADED.

* ``JOINING``   — admitted, but no heartbeat seen yet.
* ``HEALTHY``   — heartbeating within its contract.
* ``DEGRADED``  — missed roughly three heartbeat intervals.  This is the
  paper's masking state: the member is still part of the SMC (its record,
  proxy and queued events survive) and recovers the moment it is heard
  again — "a nurse leaves the room for a short period of time before
  returning".  Jitter tolerant: a single late heartbeat does not degrade.
* ``DRAINING``  — announced its departure (LEAVE_INTENT); the cell is
  flushing its queued deliveries before tearing the channel down.  The
  silence timers are suspended: only the backlog and the drain deadline
  decide when it goes.
* ``GONE``      — purged (a Purge Member event destroys the proxy and its
  queue).  Terminal; only purging is irreversible.

The transition table is enforced: an illegal transition is a bug in the
discovery service, not a recoverable protocol event, so ``advance``
raises :class:`~repro.errors.DiscoveryError`.
"""

from __future__ import annotations

import enum

from repro.errors import DiscoveryError


class LifecycleState(enum.Enum):
    JOINING = "joining"
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DRAINING = "draining"
    GONE = "gone"


#: Allowed transitions.  DRAINING only ends in GONE (a draining member
#: heard again stays draining — it told us it is leaving); GONE is terminal.
_ALLOWED: dict[LifecycleState, frozenset[LifecycleState]] = {
    LifecycleState.JOINING: frozenset({
        LifecycleState.HEALTHY, LifecycleState.DEGRADED,
        LifecycleState.DRAINING, LifecycleState.GONE}),
    LifecycleState.HEALTHY: frozenset({
        LifecycleState.DEGRADED, LifecycleState.DRAINING,
        LifecycleState.GONE}),
    LifecycleState.DEGRADED: frozenset({
        LifecycleState.HEALTHY, LifecycleState.DRAINING,
        LifecycleState.GONE}),
    LifecycleState.DRAINING: frozenset({LifecycleState.GONE}),
    LifecycleState.GONE: frozenset(),
}


def can_advance(current: LifecycleState, target: LifecycleState) -> bool:
    return target in _ALLOWED[current]


def advance(current: LifecycleState, target: LifecycleState) -> LifecycleState:
    """Validate and return the new state; raise on an illegal transition."""
    if target not in _ALLOWED[current]:
        raise DiscoveryError(
            f"illegal lifecycle transition {current.value} -> {target.value}")
    return target


def degraded_threshold(heartbeat_period_s: float) -> float:
    """Silence beyond which a member is DEGRADED: three heartbeat intervals.

    Two misses in a row may be jitter or a single lost datagram, three is
    a pattern (the kiboserve exemplar's miss threshold, and the bound the
    chaos soak asserts against).
    """
    return 3.0 * heartbeat_period_s
