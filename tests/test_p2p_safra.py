"""Unit tests of the Safra termination machinery inside P2P peers.

These drive small hand-built peer rings directly (no workload beyond a
trivial synthetic one) to pin the EWD 998 accounting rules: counters
track every basic message, receipt blackens, tokens are excluded, and
a probe only concludes on a white zero-sum round with peer 0 passive.
"""

import pytest

from repro.core import Interval
from repro.grid.p2p import P2PConfig, P2PSimulation
from repro.grid.p2p.peer import Gossip, SafraToken, StealReply, StealRequest
from repro.grid.simulator import SyntheticWorkload, small_platform


def tiny_config(peers=3, leaves=10**6, **overrides):
    workload = SyntheticWorkload(
        leaves,
        seed=1,
        mean_leaf_rate=leaves / 60.0,
        irregularity=0.5,
        segments=16,
        nodes_per_second=100.0,
        optimum=10.0,
        initial_gap=1.0,
        improvement_count=3,
    )
    defaults = dict(
        platform=small_platform(workers=peers, clusters=1),
        workload=workload,
        horizon=30 * 86400.0,
        seed=2,
        update_period=5.0,
        steal_backoff=1.0,
    )
    defaults.update(overrides)
    return P2PConfig(**defaults)


class TestMessageAccounting:
    def test_counters_zero_after_termination(self):
        sim = P2PSimulation(tiny_config())
        report = sim.run()
        assert report.finished
        # all basic messages delivered: global count sums to zero
        assert sum(p.safra_count for p in sim.peers) == 0

    def test_receipt_blackens(self):
        sim = P2PSimulation(tiny_config(peers=2))
        peer = sim.peers[1]
        assert not peer.safra_black
        peer._receive(0, StealRequest(0, 1.0), "on_steal_request")
        assert peer.safra_black
        assert peer.safra_count < 0 or peer.safra_count == 0
        # (the reply it sent adds +1 back: net 0 is legal)

    def test_token_receipt_does_not_blacken(self):
        sim = P2PSimulation(tiny_config(peers=2))
        peer = sim.peers[1]
        peer._receive(0, SafraToken(count=0, black=False), "on_token")
        assert not peer.safra_black

    def test_wire_sizes_positive(self):
        peer = P2PSimulation(tiny_config(peers=2)).peers[0]
        assert peer.wire_size(StealRequest(0, 1.0)) > 0
        assert peer.wire_size(StealReply(Interval(0, 5), 1.0)) > 0
        assert peer.wire_size(StealReply(None, 1.0)) > 0
        assert peer.wire_size(Gossip(1.0, (1, 2), 3)) > 0
        assert peer.wire_size(SafraToken()) > 0

    def test_empty_reply_smaller_than_grant(self):
        peer = P2PSimulation(tiny_config(peers=2)).peers[0]
        grant = StealReply(Interval(0, 10), 1.0)
        empty = StealReply(None, 1.0)
        assert peer.wire_size(empty) < peer.wire_size(grant)


class TestTerminationSafety:
    def test_never_concludes_with_unexplored_work(self):
        # Run to completion; at the moment of termination every peer's
        # unit must be finished (no unit dropped with work left).
        sim = P2PSimulation(tiny_config(peers=4))
        report = sim.run()
        assert report.finished
        for peer in sim.peers:
            assert peer.unit is None or peer.unit.is_finished()
        assert sim.metrics.leaves_consumed >= sim.config.workload.total_leaves()

    def test_conclusion_requires_peer0_passive(self):
        sim = P2PSimulation(tiny_config(peers=2))
        peer0 = sim.peers[0]
        peer0.exploring = True  # simulate mid-slice activity
        peer0.holds_token = True
        peer0._pending_token = SafraToken(count=0, black=False)
        peer0._release_token_if_held()
        assert not sim._terminated  # held, not concluded

    def test_black_token_never_concludes(self):
        sim = P2PSimulation(tiny_config(peers=2))
        peer0 = sim.peers[0]
        peer0.unit = None
        peer0.exploring = False
        peer0.holds_token = True
        peer0._pending_token = SafraToken(count=0, black=True)
        peer0._release_token_if_held()
        assert not sim._terminated

    def test_nonzero_count_never_concludes(self):
        sim = P2PSimulation(tiny_config(peers=2))
        peer0 = sim.peers[0]
        peer0.unit = None
        peer0.exploring = False
        peer0.holds_token = True
        peer0._pending_token = SafraToken(count=1, black=False)
        peer0._release_token_if_held()
        assert not sim._terminated

    def test_white_zero_round_concludes(self):
        sim = P2PSimulation(tiny_config(peers=2))
        peer0 = sim.peers[0]
        peer0.unit = None
        peer0.exploring = False
        peer0.safra_black = False
        peer0.safra_count = 0
        peer0.holds_token = True
        peer0._pending_token = SafraToken(count=0, black=False)
        peer0._release_token_if_held()
        assert sim._terminated


class TestBackoff:
    def test_backoff_grows_then_resets(self):
        sim = P2PSimulation(tiny_config(peers=2, steal_backoff=1.0))
        peer = sim.peers[1]
        start = peer._backoff
        peer.on_steal_reply(0, StealReply(None, 100.0))
        grown = peer._backoff
        assert grown > start
        peer.on_steal_reply(0, StealReply(Interval(0, 100), 100.0))
        assert peer._backoff == start  # reset on success
