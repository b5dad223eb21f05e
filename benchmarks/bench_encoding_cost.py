"""Ablation — the paper's central communication claim.

"A special coding of the work units ... allows to optimize the
involved communications": a work unit travels as *two integers*
instead of an explicit collection of frontier nodes.  This bench
measures both encodings on real DFS frontiers of the Ta056 tree and
reports the wire-size ratio, plus the serialisation time of each.
"""

import pickle

from repro.analysis.report import active_list_wire_size, interval_wire_size
from repro.core import Interval, TreeShape, fold, unfold


def frontier_at(shape, fraction_num, fraction_den):
    begin = shape.total_leaves * fraction_num // fraction_den
    return unfold(shape, Interval(begin, shape.total_leaves))


def test_encoding_interval_vs_active_list(benchmark):
    shape = TreeShape.permutation(50)  # Ta056's tree
    rows = []
    for num, den in ((1, 7), (13, 29), (997, 2003)):
        active = frontier_at(shape, num, den)
        interval = fold(active)
        iv_bytes = interval_wire_size(interval)
        al_bytes = active_list_wire_size(len(active), shape.leaf_depth)
        pickled_iv = len(pickle.dumps(interval.as_tuple()))
        pickled_al = len(pickle.dumps(active.rank_paths()))
        rows.append((len(active), iv_bytes, al_bytes, pickled_iv, pickled_al))

    print("\nEncoding cost, real Ta056 DFS frontiers "
          "(model bytes / pickled bytes):")
    print(f"{'nodes':>6} {'interval':>12} {'active list':>12} {'ratio':>7}")
    for nodes, iv, al, piv, pal in rows:
        print(f"{nodes:>6} {iv:>5}B/{piv:>4}B {al:>6}B/{pal:>5}B "
              f"{al / iv:>6.1f}x")
        assert iv < al, "interval coding must be smaller"
        assert pal > piv, "and so must the pickled form"

    # Checkpoint-time claim: folding is O(1); serialising the explicit
    # list is O(frontier).  Time the interval round trip.
    big = Interval(shape.total_leaves // 3, shape.total_leaves)

    def interval_checkpoint():
        active = unfold(shape, big)
        return pickle.dumps(fold(active).as_tuple())

    payload = benchmark(interval_checkpoint)
    assert len(payload) < 200
    benchmark.extra_info["interval_bytes"] = len(payload)
