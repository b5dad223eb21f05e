"""Decorrelated-jitter backoff (the AWS "decorrelated jitter" scheme).

Plain capped-doubling backoff synchronizes clients: every worker that
lost the coordinator at the same moment retries at the same moments,
so a crash/recover is followed by periodic thundering herds exactly
when the coordinator is weakest.  Decorrelated jitter breaks the lock
step — each next delay is drawn uniformly from ``[base, prev * 3]``
(capped), so retry times spread out while still backing off roughly
exponentially in expectation.

Used by the worker's RPC channel (``bbprocess._RpcChannel``, the worker
loop's only way to the coordinator) and by the TCP client's reconnect
loop.
"""

from __future__ import annotations

import random

__all__ = ["decorrelated_jitter"]


def decorrelated_jitter(
    rng: random.Random, base: float, previous: float, cap: float
) -> float:
    """Next backoff delay after ``previous``; in ``[base, cap]``.

    ``base`` is the smallest useful wait (the first attempt's delay),
    ``cap`` bounds the growth.  Drawing from ``[base, previous * 3]``
    rather than doubling keeps concurrent clients decorrelated even
    when they start in sync.
    """
    if base <= 0.0:
        raise ValueError("base must be positive")
    if cap < base:
        raise ValueError("cap must be >= base")
    upper = max(base, previous * 3.0)
    return min(cap, rng.uniform(base, upper))
