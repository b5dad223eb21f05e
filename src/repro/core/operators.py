"""Coordinator-side interval operators: partitioning and selection (§4.2).

These are pure policy functions; :class:`~repro.core.interval_set.IntervalSet`
wires them to the bookkeeping.

*Partitioning* splits ``[A, B)`` into ``[A, C)`` for the holder and
``[C, B)`` for the requester.  The split point ``C`` is proportional to
the computing power of each side: a fast requester takes a bigger tail.
Intervals with no live holder belong to "a virtual process which has a
null power", so ``C == A`` and the requester gets everything.

*Selection* does not pick the longest interval but the one that yields
the longest requester share ``[C, B)`` — the paper is explicit about
this distinction.  :meth:`~repro.core.interval_set.IntervalSet.assign`
runs it over :func:`requester_share_length`.
"""

from __future__ import annotations

from repro.core.interval import Interval

__all__ = ["partition_point", "requester_share_length"]


def partition_point(
    interval: Interval, holder_power: float, requester_power: float
) -> int:
    """Split point ``C`` of ``[A, B)`` proportional to processor powers.

    The holder keeps ``holder_power / (holder_power + requester_power)``
    of the length (it is already exploring from ``A``).  A null-power
    holder (unassigned interval) yields ``C == A``.  Powers must be
    non-negative; a zero-power requester paired with a zero-power holder
    also hands everything to the requester (the request proves it is
    alive).  The arithmetic is exact: each power is the ratio of two
    integers, so ``A <= C <= B`` however long the interval.
    """
    if holder_power < 0 or requester_power < 0:
        raise ValueError("processor powers must be non-negative")
    if holder_power == 0:
        return interval.begin
    held_num, held_den = float(holder_power).as_integer_ratio()
    req_num, req_den = float(requester_power).as_integer_ratio()
    held, requester = held_num * req_den, req_num * held_den
    return interval.begin + interval.length * held // (held + requester)


def requester_share_length(
    interval: Interval, holder_power: float, requester_power: float
) -> int:
    """Length of ``[C, B)`` that a split would give the requester."""
    return interval.end - partition_point(interval, holder_power, requester_power)
