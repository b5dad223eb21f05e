"""P2P simulation orchestrator.

Builds ``N`` peers on a platform, seeds peer 0 with the whole root
interval, and runs until Safra's token ring detects global
termination.  Hosts are always-on (the P2P prototype, like the paper's
future-work sketch, targets scalability rather than volatility; the
farmer-worker simulator owns the fault-tolerance story).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.interval import Interval
from repro.exceptions import SimulationError
from repro.grid.simulator.events import SimClock
from repro.grid.simulator.metrics import MetricsCollector
from repro.grid.simulator.network import frame_sizes
from repro.grid.simulator.platform import PlatformSpec, small_platform
from repro.grid.simulator.rng import RngRegistry
from repro.grid.simulator.workload import Workload
from repro.grid.p2p.peer import Peer

__all__ = ["P2PConfig", "P2PReport", "P2PSimulation"]


@dataclass
class P2PConfig:
    """Parameters of a peer-to-peer run."""

    platform: PlatformSpec
    workload: Workload
    horizon: float
    seed: int = 0
    update_period: float = 30.0
    steal_backoff: float = 5.0
    gossip_fanout: int = 2
    max_events: Optional[int] = None


@dataclass
class P2PReport:
    """Outcome of a P2P run."""

    finished: bool
    best_cost: float
    best_solution: Any
    wall_clock: float
    peers: int
    steals_attempted: int
    steals_succeeded: int
    messages: int
    message_bytes: int
    total_busy: float
    peer_exploitation: float
    max_peer_message_share: float  # hot-spot measure vs the farmer
    nodes_explored: int
    redundant_rate: float


class P2PSimulation:
    """Build and run one peer-to-peer resolution."""

    def __init__(self, config: P2PConfig):
        if config.horizon <= 0:
            raise SimulationError("horizon must be positive")
        self.config = config
        self.clock = SimClock()
        self.rng = RngRegistry(config.seed)
        self.metrics = MetricsCollector(config.workload.total_leaves())
        self._terminated = False
        self._victim_rng = self.rng.stream("p2p", "victims")
        self._message_load: List[int] = []

        hosts = config.platform.all_hosts()
        root = Interval(0, config.workload.total_leaves())
        frame_bytes = frame_sizes(root, hosts[0].host_id)
        self.peers: List[Peer] = []
        for index, host in enumerate(hosts):
            peer = Peer(
                index,
                host,
                self.clock,
                config.platform.network,
                config.workload,
                self.metrics,
                frame_bytes,
                num_peers=len(hosts),
                update_period=config.update_period,
                steal_backoff=config.steal_backoff,
                gossip_fanout=config.gossip_fanout,
                pick_victim=self._pick_victim,
                on_termination=self._on_termination,
            )
            self.peers.append(peer)
        for peer in self.peers:
            peer.peers = self.peers
        self._message_load = [0] * len(self.peers)
        self._wrap_message_accounting()
        self.peers[0].give_initial_work(root)

    def _wrap_message_accounting(self) -> None:
        """Count messages *received* per peer to find hot spots."""
        for peer in self.peers:
            for name in ("on_steal_request", "on_steal_reply", "on_gossip",
                         "on_token"):
                original = getattr(peer, name)

                def wrapped(sender, msg, _orig=original, _idx=peer.index):
                    self._message_load[_idx] += 1
                    return _orig(sender, msg)

                setattr(peer, name, wrapped)

    def _pick_victim(self, thief: int) -> Optional[int]:
        if len(self.peers) == 1:
            return None
        victim = int(self._victim_rng.integers(0, len(self.peers) - 1))
        if victim >= thief:
            victim += 1
        return victim

    def _on_termination(self) -> None:
        self._terminated = True
        for peer in self.peers:
            peer.shutdown()

    def run(self) -> P2PReport:
        for peer in self.peers:
            peer.start()
        self.clock.run(
            until=self.config.horizon,
            stop_when=lambda: self._terminated,
            max_events=self.config.max_events,
        )
        wall = self.clock.now
        best = min(self.peers, key=lambda p: p.best_cost)
        total_busy = sum(p.busy for p in self.peers)
        available = wall * len(self.peers)
        total_messages = max(1, sum(self._message_load))
        overlap = max(
            0, self.metrics.leaves_consumed - self.metrics.total_leaves
        )
        return P2PReport(
            finished=self._terminated,
            best_cost=best.best_cost,
            best_solution=best.best_solution,
            wall_clock=wall,
            peers=len(self.peers),
            steals_attempted=sum(p.steals_attempted for p in self.peers),
            steals_succeeded=sum(p.steals_succeeded for p in self.peers),
            messages=self.metrics.messages,
            message_bytes=self.metrics.message_bytes,
            total_busy=total_busy,
            peer_exploitation=total_busy / available if available else 0.0,
            max_peer_message_share=max(self._message_load) / total_messages,
            nodes_explored=self.metrics.nodes_explored,
            redundant_rate=(
                # repro-check: ignore[RC01] -- reporting ratio for Table 2, not interval state
                overlap / self.metrics.leaves_consumed
                if self.metrics.leaves_consumed
                else 0.0
            ),
        )
