"""Lower bounds for partial permutation flow-shop schedules.

Two classic bounds drive the B&B (both are admissible — never exceed
the best completion reachable below a node; the test suite checks this
exhaustively against brute force on small instances):

* **one-machine bound** (LB1): for each machine ``j``, the unscheduled
  jobs need ``sum_i p[i, j]`` time on ``j`` after its current
  availability ``front[j]``, and the last of them still needs at least
  ``min_i tail[i, j]`` to reach the end of the line.
* **two-machine bound** (LB2, Lageweg–Lenstra–Rinnooy Kan): relax the
  shop to machine pairs ``(j, k)`` with the machines in between turned
  into per-job *lags*; each relaxed problem is an F2 with lags, solved
  exactly by Johnson's rule on ``(a + lag, lag + b)`` (Mitten), giving
  a makespan lower bound per pair.

The pair-wise Johnson orders depend only on the instance, so they are
precomputed once in :class:`BoundData`.  Per node the scalar bound is a
linear scan of the unscheduled jobs in the precomputed order (selected
by a membership-mask pass over the full order — O(n) per pair, no
re-sorting).  The engine's hot path, however, uses the *batched* child
kernels (``*_children``): they bound every child of a decomposed node
in one NumPy evaluation, the structure the GPU flow-shop B&B line
(Chakroun & Melab; Gmys) derives its throughput from.  LB2's batch
kernel replays the shared Johnson order once per pair with prefix /
suffix maxima of the F2 critical-path terms, making each child's
"replay minus its own job" an O(1) lookup.

At B&B depths the kernels are dispatch-bound, not arithmetic-bound
(docs/performance.md, PR 18), so they spend as few NumPy calls as the
array sizes allow: LB1's head recurrence over machines runs as one
closed-form scan while its temporary is small (:func:`_head_avail`),
and ``combined`` is *staged* — LB2, whose cost is per (parent, pair),
runs only for parents LB1 left a child below the caller's
``prune_at``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ProblemError
from repro.problems.flowshop.instance import FlowShopInstance
from repro.problems.flowshop.johnson import johnson_order
from repro.problems.flowshop.makespan import tails_matrix

__all__ = [
    "BoundData",
    "BoundDataCache",
    "bound_data_for",
    "clear_bound_data_cache",
    "machine_pairs",
    "one_machine_bound",
    "two_machine_bound",
]

# Safe +/- "infinity" sentinels for int64 min/max scans: far above any
# schedule length, far enough from the int64 limits that adding or
# subtracting a processing time cannot overflow.
_INT_MAX = np.int64(2**62)
_INT_MIN = np.int64(-(2**62))


def machine_pairs(machines: int, strategy: str = "adjacent+ends") -> List[Tuple[int, int]]:
    """Machine pairs the two-machine bound relaxes to.

    * ``"adjacent"`` — consecutive pairs ``(j, j+1)``;
    * ``"adjacent+ends"`` — consecutive pairs plus ``(0, M-1)``
      (a good cost/strength default);
    * ``"all"`` — every ``(j, k)``, ``j < k`` (strongest, O(M^2) pairs).
    """
    if machines < 2:
        return []
    adjacent = [(j, j + 1) for j in range(machines - 1)]
    if strategy == "adjacent":
        return adjacent
    if strategy == "adjacent+ends":
        ends = (0, machines - 1)
        return adjacent + ([ends] if ends not in adjacent else [])
    if strategy == "all":
        return [(j, k) for j in range(machines) for k in range(j + 1, machines)]
    raise ProblemError(
        f"unknown machine-pair strategy {strategy!r}; "
        f"use 'adjacent', 'adjacent+ends' or 'all'"
    )


class _PairData(NamedTuple):
    """Precomputed F2-with-lags relaxation for one machine pair."""

    j: int
    k: int
    a: np.ndarray  # p[:, j]
    b: np.ndarray  # p[:, k]
    lag: np.ndarray  # sum of p[:, j+1..k-1]
    order: np.ndarray  # Johnson/Mitten priority order of ALL jobs


def _min_over_rows_excluding_self(values: np.ndarray) -> np.ndarray:
    """``out[c, j] = min over rows i != c of values[i, j]``.

    The leave-one-out minimum every child kernel needs (child ``c``
    removes job ``c`` from the remaining set): computed for all rows at
    once from the column minimum and the runner-up at the argmin row.
    """
    r, m = values.shape
    if r == 1:
        return np.full((1, m), _INT_MAX, dtype=np.int64)
    cols = np.arange(m)
    am = values.argmin(axis=0)
    min1 = values[am, cols]
    masked = values.copy()
    masked[am, cols] = _INT_MAX
    min2 = masked.min(axis=0)
    out = np.empty((r, m), dtype=np.int64)
    out[:] = min1
    out[am, cols] = min2
    return out


def _min_over_rows_excluding_self_pool(values: np.ndarray) -> np.ndarray:
    """Pooled form of :func:`_min_over_rows_excluding_self`.

    ``values`` is ``(N, r, M)``; ``out[n, c, j]`` is the minimum over
    rows ``i != c`` of ``values[n, i, j]`` — the same best/runner-up
    swap, batched over the pool axis.  ``argmin`` picks the first
    minimum along the reduced axis in both forms, so the pooled result
    matches the per-family kernel slice for slice.
    """
    n_pool, r, m = values.shape
    if r == 1:
        return np.full((n_pool, 1, m), _INT_MAX, dtype=np.int64)
    pool_idx = np.arange(n_pool)[:, None]
    col_idx = np.arange(m)[None, :]
    am = values.argmin(axis=1)  # (N, M)
    min1 = values[pool_idx, am, col_idx]
    masked = values.copy()
    masked[pool_idx, am, col_idx] = _INT_MAX
    min2 = masked.min(axis=1)
    out = np.empty((n_pool, r, m), dtype=np.int64)
    out[:] = min1[:, None, :]
    out[pool_idx, am, col_idx] = min2
    return out


# LB1's head term has two exact forms (:func:`_head_avail`): a machine
# loop of 3(M-1)-1 NumPy calls on (N, r, r) arrays, and a closed-form
# scan of ``_SCAN_CALLS`` calls on one (N, r, r, M-1) temporary.  The
# scan saves dispatches and pays for them per element of that
# temporary; the PR 18 probe sweep (docs/performance.md) puts one saved
# call within a factor of two of this many elements from ten machines
# up, and a wrong pick near the break-even costs ~30 %, not 2x.
_SCAN_CALLS = 8
_SCAN_ELEMENTS_PER_SAVED_CALL = 512


def _head_by_scan(n_pool: int, r: int, m: int) -> bool:
    """Whether :func:`_head_avail` takes its scan for this shape: while
    the temporary it is about to build costs less than the calls it
    saves (never at M <= 4, where the loop is already the shorter)."""
    saved_calls = 3 * (m - 1) - 1 - _SCAN_CALLS
    return n_pool * r * r * (m - 1) <= saved_calls * _SCAN_ELEMENTS_PER_SAVED_CALL


def _head_avail(fronts: np.ndarray, p_rem: np.ndarray) -> np.ndarray:
    """LB1 machine availabilities of every child, head term included.

    ``fronts`` / ``p_rem`` are ``(..., r, M)``: child ``c``'s completion
    front and remaining job ``i``'s processing times (any leading pool
    axes).  ``avail[..., c, j]`` is the earliest machine ``j`` can start
    on child ``c``'s unscheduled set: its own front, or — the
    Ignall-Schrage head — the earliest any *other* remaining job ``i``
    can clear machine ``j-1`` when appended to that front,
    ``E[c, i, j-1]`` with ``E[c, i, j] = max(E[c, i, j-1], front[c, j])
    + p[i, j]``.  Child ``c`` must ignore its own job, so the diagonal
    ``i == c`` is parked at +"inf" before the minimum over ``i``.
    """
    r, m = p_rem.shape[-2:]
    avail = np.empty(p_rem.shape, dtype=np.int64)
    avail[..., 0] = fronts[..., 0]
    if m == 1:
        return avail
    ar = np.arange(r)
    if _head_by_scan(p_rem.size // (r * m), r, m):
        # The recurrence in closed form (the unrolling of
        # makespan.py): E[c, i, j] = S[i, j] + max over k <= j of
        # (front[c, k] - S[i, k-1]), S the cumulative times of job i —
        # all machines in one accumulate over a (..., c, i, M-1) array.
        # The sentinel goes in after the adds, so it cannot overflow.
        head_times = p_rem[..., :-1]
        total = head_times.cumsum(axis=-1)
        e = total - head_times
        e = fronts[..., :, np.newaxis, :-1] - e[..., np.newaxis, :, :]
        np.maximum.accumulate(e, axis=-1, out=e)
        e += total[..., np.newaxis, :, :]
        e[..., ar, ar, :] = _INT_MAX
        rest = avail[..., 1:]
        np.minimum.reduce(e, axis=-2, out=rest)
        np.maximum(rest, fronts[..., 1:], out=rest)
        return avail
    # Machine by machine: completion[..., c, i] carries E[c, i, j-1];
    # the sentinel survives the max/add recurrence, so every row
    # minimum stays a plain min.
    completion = fronts[..., 0:1] + p_rem[..., np.newaxis, :, 0]
    completion[..., ar, ar] = _INT_MAX
    minimum_reduce = np.minimum.reduce
    maximum = np.maximum
    for j in range(1, m):
        col = avail[..., j]
        minimum_reduce(completion, axis=-1, out=col)
        maximum(col, fronts[..., j], out=col)
        if j < m - 1:
            maximum(completion, fronts[..., j : j + 1], out=completion)
            completion += p_rem[..., np.newaxis, :, j]
    return avail


class BoundData:
    """Instance-wide precomputation shared by every node's bound.

    Parameters
    ----------
    instance:
        The flow-shop instance.
    pair_strategy:
        Which machine pairs LB2 uses (see :func:`machine_pairs`).
    """

    def __init__(
        self, instance: FlowShopInstance, pair_strategy: str = "adjacent+ends"
    ):
        self.instance = instance
        self.pair_strategy = pair_strategy
        p = instance.processing_times
        self.p = p
        self.tails = tails_matrix(instance)
        self.pairs = machine_pairs(instance.machines, pair_strategy)
        # Per pair (j, k): a = p[:, j], b = p[:, k],
        # lag = sum of p[:, j+1..k-1]; plus the Mitten/Johnson priority
        # order of ALL jobs (a subset keeps its induced suborder).
        cumulative = np.cumsum(p, axis=1)
        self._pair_data: List[_PairData] = []
        for j, k in self.pairs:
            a = p[:, j]
            b = p[:, k]
            if k > j + 1:
                lag = cumulative[:, k - 1] - cumulative[:, j]
            else:
                lag = np.zeros(instance.jobs, dtype=p.dtype)
            order = np.array(johnson_order(a + lag, lag + b), dtype=np.intp)
            self._pair_data.append(_PairData(j, k, a, b, lag, order))
        # Pair-stacked copies for the batched LB2 kernel: a single node
        # evaluation sweeps every pair at once instead of looping
        # Python-side.  a/b/lag are fused into one (3, P, n) block (a/b
        # its first two planes) so the kernel pays one fancy-index per
        # gather, not three.
        npairs = len(self._pair_data)
        if npairs:
            self._j_idx = np.array([pd.j for pd in self._pair_data])
            self._k_idx = np.array([pd.k for pd in self._pair_data])
            self._jk_idx = np.concatenate([self._j_idx, self._k_idx])
            self._abl_all = np.array(
                [[getattr(pd, name) for pd in self._pair_data] for name in ("a", "b", "lag")],
                dtype=np.int64,
            )
            self._ab_all = self._abl_all[:2]
            self._order_all = np.stack([pd.order for pd in self._pair_data])
            self._pair_rows = np.arange(npairs)[:, None]
            self._flat_rows = np.arange(npairs)
            self._pos_buffer = np.empty((npairs, instance.jobs), dtype=np.intp)
        self._mask_buffer = np.zeros(instance.jobs, dtype=bool)
        # Per-child-count scratch reused across kernel calls (the
        # engine is single-threaded and the kernels return fresh
        # output arrays, so reuse is safe): arange(r) plus the
        # sentinel-padded prefix/suffix-max buffers of the LB2 kernel.
        self._r_cache: dict = {}

    def _r_scratch(self, r: int):
        cached = self._r_cache.get(r)
        if cached is None:
            npairs = len(self._pair_data)
            pmax = np.empty((npairs, r + 1), dtype=np.int64)
            pmax[:, 0] = _INT_MIN
            smax = np.empty((npairs, r + 1), dtype=np.int64)
            smax[:, r] = _INT_MIN
            cached = (np.arange(r), pmax, smax)
            self._r_cache[r] = cached
        return cached

    # ------------------------------------------------------------------
    # scalar (per-node) bounds
    # ------------------------------------------------------------------
    def one_machine(self, front: np.ndarray, remaining: np.ndarray) -> int:
        """LB1 over all machines for the unscheduled jobs ``remaining``.

        Machine ``j`` cannot start serving the unscheduled set before
        ``avail_j = max(front[j], min_i arrival_i(j))`` where
        ``arrival_i(j)`` is the earliest time job ``i`` could reach
        machine ``j`` through the current fronts (the Ignall–Schrage
        head term); then it needs the whole load and the cheapest tail.
        """
        if remaining.size == 0:
            return int(front[-1])
        p_rem = self.p[remaining]
        loads = p_rem.sum(axis=0)
        min_tails = self.tails[remaining].min(axis=0)
        # earliest completion of each remaining job on each machine if
        # it were scheduled next: E[:, 0] = front[0] + p, then
        # E[:, j] = max(front[j], E[:, j-1]) + p.
        m = front.shape[0]
        avail = np.empty(m, dtype=np.int64)
        avail[0] = front[0]
        if m > 1:
            completion = front[0] + p_rem[:, 0]
            for j in range(1, m):
                avail[j] = max(int(front[j]), int(completion.min()))
                if j < m - 1:
                    completion = np.maximum(completion, front[j]) + p_rem[:, j]
        return int(np.max(avail + loads + min_tails))

    def two_machine(self, front: np.ndarray, remaining: np.ndarray) -> int:
        """LB2: best pair-wise Johnson-with-lags relaxation.

        All pairs are swept in one NumPy evaluation: the F2-with-lags
        replay from offsets ``(front[j], front[k])`` unrolls exactly to

            C2 = max(front[k] + sum(b),
                     front[j] + max_t (A_t + lag_t + Bsuf_t))

        (prefix sums ``A_t`` of ``a``, suffix sums ``Bsuf_t`` of ``b``
        over the induced Johnson suborder) — the same identity the
        batched child kernel builds on, so the per-pair Python replay
        loop is gone while every value stays bit-identical int64.
        """
        if remaining.size == 0:
            return int(front[-1])
        if not self._pair_data:
            return 0
        rows = self._pair_rows
        mask = self._mask_buffer
        mask[:] = False
        mask[remaining] = True
        selected = mask[self._order_all]
        cols = np.nonzero(selected)[1].reshape(-1, remaining.size)
        seq = self._order_all[rows, cols]  # (P, r) induced suborders
        a_seq, b_seq, lag_seq = self._abl_all[:, rows, seq]
        suffix_b = np.cumsum(b_seq[:, ::-1], axis=1)[:, ::-1]
        v = np.cumsum(a_seq, axis=1)
        v += lag_seq
        v += suffix_b
        crit = v.max(axis=1)
        crit += front[self._j_idx]
        base = front[self._k_idx] + suffix_b[:, 0]
        np.maximum(crit, base, out=crit)
        crit += self.tails[remaining][:, self._k_idx].min(axis=0)
        return int(crit.max())

    def combined(self, front: np.ndarray, remaining: np.ndarray) -> int:
        """max(LB1, LB2) — the default B&B bound."""
        lb1 = self.one_machine(front, remaining)
        if remaining.size <= 1 or not self._pair_data:
            return lb1
        return max(lb1, self.two_machine(front, remaining))

    # ------------------------------------------------------------------
    # batched child kernels
    #
    # ``fronts`` is the (r, M) stack of completion fronts of the r
    # children of a node whose unscheduled set is ``remaining`` (child c
    # schedules job remaining[c] next, so its own remaining set is
    # ``remaining`` minus position c).  Each kernel returns the (r,)
    # int64 vector of child bounds, entry for entry equal to the scalar
    # bound of the corresponding child state.
    # ------------------------------------------------------------------
    def one_machine_children(
        self, fronts: np.ndarray, remaining: np.ndarray
    ) -> np.ndarray:
        """Batched LB1: one evaluation for all children of a node."""
        r = remaining.size
        if r == 1:
            # The single child has nothing left: its bound is its Cmax.
            return fronts[:, -1].astype(np.int64)
        return self._lb1_children(
            fronts, self.p[remaining], self.tails[remaining]
        )

    def _lb1_children(
        self, fronts: np.ndarray, p_rem: np.ndarray, tails_rem: np.ndarray
    ) -> np.ndarray:
        avail = _head_avail(fronts, p_rem)
        avail += p_rem.sum(axis=0) - p_rem
        avail += _min_over_rows_excluding_self(tails_rem)
        return avail.max(axis=1)

    def two_machine_children(
        self, fronts: np.ndarray, remaining: np.ndarray
    ) -> np.ndarray:
        """Batched LB2 via prefix/suffix maxima of the F2 critical path.

        For a fixed processing order (Johnson's), the F2-with-lags
        makespan from offsets ``(c1_0, c2_0)`` unrolls to::

            C2 = max(c2_0 + sum(b),  max_t c1_0 + A_t + lag_t + Bsuf_t)

        with ``A_t`` the prefix sum of ``a`` and ``Bsuf_t`` the suffix
        sum of ``b``.  Child ``c`` replays the parent's order minus its
        own job at position ``q``; dropping one job shifts the critical
        term by ``-b_q`` left of ``q`` and ``-a_q`` right of it, so with
        prefix/suffix maxima of ``V_t = A_t + lag_t + Bsuf_t`` each
        child's makespan is an O(1) combination — no per-child replay.
        """
        r = remaining.size
        if r == 1:
            return fronts[:, -1].astype(np.int64)
        if not self._pair_data:
            return np.zeros(r, dtype=np.int64)
        mask = self._mask_buffer
        mask[:] = False
        mask[remaining] = True
        return self._lb2_children(fronts, remaining, mask, self.tails[remaining])

    def _lb2_children(
        self,
        fronts: np.ndarray,
        remaining: np.ndarray,
        mask: np.ndarray,
        tails_rem: np.ndarray,
    ) -> np.ndarray:
        r = remaining.size
        npairs = len(self._pair_data)
        rows = self._pair_rows  # (P, 1)
        arange_r, pmax, smax = self._r_scratch(r)
        # Induced Johnson suborder of every pair at once: each row of
        # the precomputed (P, n) order matrix keeps exactly r selected
        # entries, so one nonzero pass yields their positions row-wise.
        selected = mask[self._order_all]
        cols = np.nonzero(selected)[1].reshape(-1, r)
        seq = self._order_all[rows, cols]  # (P, r) job ids, Johnson order
        a_seq, b_seq, lag_seq = self._abl_all[:, rows, seq]
        prefix_a = np.cumsum(a_seq, axis=1)
        suffix_b = np.cumsum(b_seq[:, ::-1], axis=1)[:, ::-1]
        v = prefix_a
        v += lag_seq
        v += suffix_b
        # Running maxima with a -inf sentinel pad on each end, so each
        # child's left/right lookup below is a plain gather with no
        # boundary case: pmax[:, t+1] = max(v[:, :t+1]) and
        # smax[:, t] = max(v[:, t:]).
        np.maximum.accumulate(v, axis=1, out=pmax[:, 1:])
        np.maximum.accumulate(v[:, ::-1], axis=1, out=smax[:, r - 1 :: -1])
        pos = self._pos_buffer
        pos[rows, seq] = arange_r
        q = pos[:, remaining]  # (P, r): position of child c's own job
        a_q, b_q = self._ab_all[:, :, remaining]
        left = pmax[rows, q]
        left -= b_q
        right = smax[rows, q + 1]
        right -= a_q
        np.maximum(left, right, out=left)
        fr = fronts[:, self._jk_idx].T  # (2P, r): front[j] rows, front[k] rows
        left += fr[:npairs]
        c2 = suffix_b[:, 0:1] - b_q
        c2 += fr[npairs:]
        np.maximum(c2, left, out=c2)
        # Leave-one-out minimum of the remaining tails on machine k,
        # per pair: best and runner-up per row, swapped in where the
        # child removes the argmin job.
        tails_k = tails_rem[:, self._k_idx].T  # (P, r), a fresh copy
        flat_rows = self._flat_rows
        am = tails_k.argmin(axis=1)
        min1 = tails_k[flat_rows, am]
        tails_k[flat_rows, am] = _INT_MAX
        min2 = tails_k.min(axis=1)
        min_tail = min1.repeat(r).reshape(npairs, r)
        min_tail[flat_rows, am] = min2
        c2 += min_tail
        return c2.max(axis=0)

    def combined_children(
        self,
        fronts: np.ndarray,
        remaining: np.ndarray,
        p_rem: Optional[np.ndarray] = None,
        prune_at: float = math.inf,
    ) -> np.ndarray:
        """Batched max(LB1, LB2) with the same short-circuit as scalar
        :meth:`combined` (children with <= 1 unscheduled job skip LB2).

        Staged: when LB1 alone already puts every child at or above
        ``prune_at`` the family is dead whatever LB2 says, so LB2 is
        skipped and the row reports LB1 (admissible, ``>= prune_at``).
        A family with any child below ``prune_at`` gets the exact
        ``max(LB1, LB2)`` for every child.

        The gathers both kernels need (``p[remaining]``,
        ``tails[remaining]``, the membership mask) are computed once
        and shared; a caller that already holds ``p[remaining]`` (the
        branching kernel does) can pass it through ``p_rem``.
        """
        r = remaining.size
        if r == 1:
            return fronts[:, -1].astype(np.int64)
        if p_rem is None:
            p_rem = self.p[remaining]
        tails_rem = self.tails[remaining]
        lb1 = self._lb1_children(fronts, p_rem, tails_rem)
        if r - 1 <= 1 or not self._pair_data or not (lb1 < prune_at).any():
            return lb1
        mask = self._mask_buffer
        mask[:] = False
        mask[remaining] = True
        lb2 = self._lb2_children(fronts, remaining, mask, tails_rem)
        return np.maximum(lb1, lb2, out=lb1)

    # ------------------------------------------------------------------
    # pooled child kernels (PR 7)
    #
    # The pooled forms generalise the ``*_children`` kernels with a
    # leading pool axis: ``fronts`` is the (N, r, M) stack of child
    # fronts of N same-depth parents (so every parent has exactly r
    # children) and ``remaining`` the (N, r) matrix of their
    # unscheduled jobs.  Row [n] of the (N, r) result is entry for
    # entry what ``*_children`` returns for parent n — all int64
    # arithmetic, so pooling is bit-identical, only amortised: one
    # NumPy call bounds N*r children instead of r.
    # ------------------------------------------------------------------
    def one_machine_children_pool(
        self,
        fronts: np.ndarray,
        remaining: np.ndarray,
        p_rem: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pooled LB1: bounds for the children of N pooled parents."""
        n_pool, r, _m = fronts.shape
        if r == 1:
            return fronts[:, :, -1].astype(np.int64)
        if p_rem is None:
            p_rem = self.p[remaining]
        return self._lb1_children_pool(fronts, p_rem, self.tails[remaining])

    def _lb1_children_pool(
        self, fronts: np.ndarray, p_rem: np.ndarray, tails_rem: np.ndarray
    ) -> np.ndarray:
        avail = _head_avail(fronts, p_rem)
        avail += p_rem.sum(axis=1, keepdims=True) - p_rem
        avail += _min_over_rows_excluding_self_pool(tails_rem)
        return avail.max(axis=2)

    def two_machine_children_pool(
        self, fronts: np.ndarray, remaining: np.ndarray
    ) -> np.ndarray:
        """Pooled LB2: prefix/suffix Johnson replay over the pool."""
        n_pool, r, _m = fronts.shape
        if r == 1:
            return fronts[:, :, -1].astype(np.int64)
        if not self._pair_data:
            return np.zeros((n_pool, r), dtype=np.int64)
        return self._lb2_children_pool(
            fronts, remaining, self.tails[remaining]
        )

    def _lb2_children_pool(
        self,
        fronts: np.ndarray,
        remaining: np.ndarray,
        tails_rem: np.ndarray,
    ) -> np.ndarray:
        n_pool, r, _m = fronts.shape
        npairs = len(self._pair_data)
        rows = self._pair_rows  # (P, 1)
        jobs = self.instance.jobs
        mask = np.zeros((n_pool, jobs), dtype=bool)
        mask[np.arange(n_pool)[:, None], remaining] = True
        # Induced Johnson suborders: one nonzero pass over the
        # (N, P, n) selection keeps exactly r positions per (n, p) row,
        # in C order, so the reshape groups them correctly.
        selected = mask[:, self._order_all]
        cols = np.nonzero(selected)[2].reshape(n_pool, npairs, r)
        seq = self._order_all[rows, cols]  # (N, P, r) job ids
        a_seq, b_seq, lag_seq = self._abl_all[:, rows, seq]
        prefix_a = np.cumsum(a_seq, axis=2)
        suffix_b = np.cumsum(b_seq[:, :, ::-1], axis=2)[:, :, ::-1]
        v = prefix_a
        v += lag_seq
        v += suffix_b
        pmax = np.empty((n_pool, npairs, r + 1), dtype=np.int64)
        pmax[:, :, 0] = _INT_MIN
        np.maximum.accumulate(v, axis=2, out=pmax[:, :, 1:])
        smax = np.empty((n_pool, npairs, r + 1), dtype=np.int64)
        smax[:, :, r] = _INT_MIN
        np.maximum.accumulate(v[:, :, ::-1], axis=2, out=smax[:, :, r - 1 :: -1])
        # All scatter/gather below is direct broadcast fancy indexing
        # (the 2-D kernel's idiom) — ``take_along_axis`` machinery costs
        # real Python time per call at pool-sized arrays.
        pool3 = np.arange(n_pool)[:, None, None]
        pair3 = np.arange(npairs)[None, :, None]
        pos = np.empty((n_pool, npairs, jobs), dtype=np.intp)
        pos[pool3, pair3, seq] = np.arange(r)
        q = pos[pool3, pair3, remaining[:, None, :]]  # (N, P, r)
        a_q, b_q = self._ab_all[:, rows, remaining[:, None, :]]
        left = pmax[pool3, pair3, q]
        left -= b_q
        right = smax[pool3, pair3, q + 1]
        right -= a_q
        np.maximum(left, right, out=left)
        fr = np.swapaxes(fronts[:, :, self._jk_idx], 1, 2)  # (N, 2P, r)
        left += fr[:, :npairs]
        c2 = suffix_b[:, :, 0:1] - b_q
        c2 += fr[:, npairs:]
        np.maximum(c2, left, out=c2)
        # Leave-one-out tail minimum on machine k per (pool, pair).
        pool2 = pool3[:, :, 0]
        pair2 = pair3[:, :, 0]
        tails_k = np.swapaxes(tails_rem[:, :, self._k_idx], 1, 2).copy()
        am = tails_k.argmin(axis=2)  # (N, P)
        min1 = tails_k[pool2, pair2, am]
        tails_k[pool2, pair2, am] = _INT_MAX
        min2 = tails_k.min(axis=2)
        min_tail = np.empty((n_pool, npairs, r), dtype=np.int64)
        min_tail[:] = min1[:, :, None]
        min_tail[pool2, pair2, am] = min2
        c2 += min_tail
        return c2.max(axis=1)

    def combined_children_pool(
        self,
        fronts: np.ndarray,
        remaining: np.ndarray,
        p_rem: Optional[np.ndarray] = None,
        prune_at: float = math.inf,
    ) -> np.ndarray:
        """Pooled max(LB1, LB2), same short-circuits as the per-family
        :meth:`combined_children` (the pool is depth-homogeneous, so
        the r-dependent short-circuit applies to every parent alike).

        Staged the same way: LB2's cost is per (parent, pair), so the
        pool is compacted to the parents LB1 left a child below
        ``prune_at`` and only those rows run LB2."""
        n_pool, r, _m = fronts.shape
        if r == 1:
            return fronts[:, :, -1].astype(np.int64)
        if p_rem is None:
            p_rem = self.p[remaining]
        tails_rem = self.tails[remaining]
        lb1 = self._lb1_children_pool(fronts, p_rem, tails_rem)
        if r - 1 <= 1 or not self._pair_data:
            return lb1
        # Only parents with a child below prune_at still owe LB2.
        live = (lb1 < prune_at).any(axis=1)
        if live.all():
            lb2 = self._lb2_children_pool(fronts, remaining, tails_rem)
            return np.maximum(lb1, lb2, out=lb1)
        rows = np.flatnonzero(live)
        if rows.size:
            lb2 = self._lb2_children_pool(
                fronts[rows], remaining[rows], tails_rem[rows]
            )
            lb1[rows] = np.maximum(lb1[rows], lb2, out=lb2)
        return lb1


class BoundDataCache:
    """Explicit bounded LRU of :class:`BoundData` per (instance, strategy).

    Replaces the module-level ``functools.lru_cache`` that used to back
    :func:`bound_data_for`: a long-lived grid worker solves many
    intervals over many instances, and every cached entry pins the
    tails matrix plus the per-pair Johnson precomputation (O(pairs x
    jobs) arrays — substantial under ``pair_strategy="all"``).  An
    explicit cache keeps the bound small, inspectable and clearable
    (:meth:`clear` / :func:`clear_bound_data_cache`), so worker
    processes can drop bound-prep arrays between solves instead of
    leaking them for the process lifetime.

    ``FlowShopInstance`` hashes by matrix content — exactly the key the
    precomputation depends on — so equal instances share one entry.
    """

    def __init__(self, maxsize: int = 8):
        if maxsize < 1:
            raise ProblemError("BoundDataCache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[FlowShopInstance, str], BoundData]" = (
            OrderedDict()
        )

    def get(
        self, instance: FlowShopInstance, pair_strategy: str = "adjacent+ends"
    ) -> BoundData:
        """The cached :class:`BoundData`, building and evicting LRU-style."""
        key = (instance, pair_strategy)
        data = self._entries.get(key)
        if data is not None:
            self._entries.move_to_end(key)
            return data
        data = BoundData(instance, pair_strategy)
        self._entries[key] = data
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return data

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_SHARED_BOUND_DATA = BoundDataCache()


def bound_data_for(
    instance: FlowShopInstance, pair_strategy: str = "adjacent+ends"
) -> BoundData:
    """A shared :class:`BoundData` per (instance, strategy).

    The precomputation (tails matrix + one Johnson sort per machine
    pair) is pure in the instance, so repeated callers — notably the
    :func:`one_machine_bound` / :func:`two_machine_bound` convenience
    wrappers — reuse one cached copy instead of rebuilding it per call.
    Backed by a small explicit :class:`BoundDataCache` (not an
    unbounded-per-process ``lru_cache``); call
    :func:`clear_bound_data_cache` to release the arrays, e.g. between
    solves in a long-lived grid worker.
    """
    return _SHARED_BOUND_DATA.get(instance, pair_strategy)


def clear_bound_data_cache() -> None:
    """Drop every cached :class:`BoundData` (frees bound-prep arrays)."""
    _SHARED_BOUND_DATA.clear()


def one_machine_bound(
    instance: FlowShopInstance,
    front: Sequence[int],
    remaining: Iterable[int],
    data: Optional[BoundData] = None,
) -> int:
    """Standalone LB1 (convenience wrapper around :class:`BoundData`).

    Pass a prebuilt ``data`` to skip the cache lookup entirely; LB1
    does not use machine pairs, so any strategy's ``BoundData`` works.
    """
    if data is None:
        data = bound_data_for(instance, "adjacent")
    return data.one_machine(
        np.asarray(front, dtype=np.int64), np.asarray(list(remaining), dtype=np.intp)
    )


def two_machine_bound(
    instance: FlowShopInstance,
    front: Sequence[int],
    remaining: Iterable[int],
    pair_strategy: str = "all",
    data: Optional[BoundData] = None,
) -> int:
    """Standalone LB2 (convenience wrapper around :class:`BoundData`).

    A prebuilt ``data`` overrides ``pair_strategy``.
    """
    if data is None:
        data = bound_data_for(instance, pair_strategy)
    return data.two_machine(
        np.asarray(front, dtype=np.int64), np.asarray(list(remaining), dtype=np.intp)
    )
