"""The peer state machine of the P2P paradigm.

Each peer owns at most one interval work unit (the same
:class:`~repro.grid.simulator.workload.WorkUnit` objects the
farmer–worker simulator explores) and plays three roles at once:

* **explorer** — advances its unit in slices, like a worker;
* **victim** — answers steal requests by splitting its remaining
  interval (the §4.2 partitioning operator, applied peer-side);
* **Safra participant** — maintains the black/white colour and message
  counter of the counting-token termination detector.

Solution sharing is epidemic: an improvement is pushed to
``gossip_fanout`` random peers, each of which re-forwards while the
value keeps improving its local best; steal replies also piggyback the
sender's best, so costs diffuse even without improvements.

Peers speak no wire vocabulary of their own; each message is charged
the measured frame of the farmer–worker message that carries the same
payload (``StealRequest`` a ``Request``, a ``StealReply`` with work a
``GrantWork`` and without a ``Terminate``, ``Gossip`` a ``Push``, the
token an ``Ack``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.interval import Interval
from repro.exceptions import SimulationError
from repro.grid.net.framing import encode_frame
from repro.grid.runtime.protocol import Ack, GrantWork, Push, Request, Terminate
from repro.grid.simulator.events import SimClock
from repro.grid.simulator.metrics import MetricsCollector
from repro.grid.simulator.network import NetworkModel
from repro.grid.simulator.platform import HostSpec
from repro.grid.simulator.workload import Workload, WorkUnit

__all__ = [
    "StealRequest",
    "StealReply",
    "Gossip",
    "SafraToken",
    "Peer",
]


@dataclass
class StealRequest:
    thief: int
    thief_power: float


@dataclass
class StealReply:
    interval: Optional[Interval]  # None: victim had nothing to give
    best_cost: float


@dataclass
class Gossip:
    cost: float
    solution: Any
    hops_left: int


@dataclass
class SafraToken:
    """The counting token of Safra's termination-detection algorithm."""

    count: int = 0
    black: bool = False


class Peer:
    """One P2P node: explorer + steal victim + Safra participant."""

    def __init__(
        self,
        index: int,
        host: HostSpec,
        clock: SimClock,
        network: NetworkModel,
        workload: Workload,
        metrics: MetricsCollector,
        frame_bytes: Dict[type, int],
        *,
        num_peers: int,
        update_period: float,
        steal_backoff: float,
        gossip_fanout: int,
        pick_victim,  # callable(thief_index) -> victim index
        on_termination,  # callable() fired by peer 0 when Safra says done
    ):
        if num_peers < 1:
            raise SimulationError("need at least one peer")
        self.index = index
        self.host = host
        self.clock = clock
        self.network = network
        self.workload = workload
        self.metrics = metrics
        self._frame_bytes = frame_bytes
        self.num_peers = num_peers
        self.update_period = update_period
        self.steal_backoff = steal_backoff
        self.gossip_fanout = gossip_fanout
        self.pick_victim = pick_victim
        self.on_termination = on_termination
        self.peers: List["Peer"] = []  # filled by the orchestrator

        self.unit: Optional[WorkUnit] = None
        self.best_cost, self.best_solution = workload.warm_start() or (float("inf"), None)
        self.exploring = False
        self.terminated = False

        # Safra state (EWD 998): the counter tracks basic messages
        # sent minus received — *every* basic message counts (steal
        # requests, replies, gossip), because any of them can make a
        # passive peer active; counting only work transfers admits a
        # false-termination race where a probe completes while a work
        # grant is in flight.  A peer blackens on receipt.
        self.safra_count = 0
        self.safra_black = False
        self.holds_token = index == 0
        self._pending_token: Optional[SafraToken] = None
        # Steal retries back off exponentially so the chatter of idle
        # peers dies out and a quiescent window exists for the probe.
        self._backoff = steal_backoff

        # stats
        self.steals_attempted = 0
        self.steals_succeeded = 0
        self.busy = 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def give_initial_work(self, interval: Interval) -> None:
        self.unit = self.workload.create_unit(interval, self.best_cost)

    def start(self) -> None:
        self.metrics.worker_joined(self.clock.now)
        if self.unit is not None:
            self._explore_slice()
        else:
            self._try_steal()
        if self.holds_token:
            # bootstrap the termination probe
            self.clock.schedule(self.update_period, self._maybe_launch_token)

    # ------------------------------------------------------------------
    # message transport (in-process: direct delivery with network delay)
    # ------------------------------------------------------------------
    def wire_size(self, message: Any) -> int:
        """The measured frame that would carry ``message``'s payload."""
        if isinstance(message, Gossip):
            push = Push(self.host.host_id, message.cost, message.solution)
            return len(encode_frame(push))
        if isinstance(message, StealReply):
            return self._frame_bytes[GrantWork if message.interval else Terminate]
        return self._frame_bytes[
            Request if isinstance(message, StealRequest) else Ack
        ]

    def _send(self, target: int, message: Any, handler_name: str) -> None:
        size = self.wire_size(message)
        self.metrics.message_sent(size)
        if not isinstance(message, SafraToken):
            self.safra_count += 1  # Safra: one more basic message out
        delay = self.network.delay(
            self.host.cluster, self.peers[target].host.cluster, size
        )
        self.clock.schedule(
            delay, self.peers[target]._receive, self.index, message, handler_name
        )

    def _receive(self, sender: int, message: Any, handler_name: str) -> None:
        if not isinstance(message, SafraToken):
            # Safra: receipt of a basic message blackens the receiver.
            self.safra_count -= 1
            self.safra_black = True
        getattr(self, handler_name)(sender, message)

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def _explore_slice(self) -> None:
        if self.terminated or self.unit is None:
            return
        self.exploring = True
        report = self.unit.advance(self.update_period, self.host.relative_power)
        self.busy += report.elapsed
        self.metrics.add_busy(f"peer-{self.index}", report.elapsed)
        self.metrics.add_exploration(report.nodes, report.consumed)
        self.clock.schedule(report.elapsed, self._after_slice, report)

    def _after_slice(self, report) -> None:
        if self.terminated:
            return
        for cost, solution in report.improvements:
            if cost < self.best_cost:
                self._adopt(cost, solution, gossip=True)
        if self.unit is not None and not self.unit.is_finished():
            self._explore_slice()
            return
        self.unit = None
        self.exploring = False
        self._release_token_if_held()
        self._try_steal()

    # ------------------------------------------------------------------
    # stealing
    # ------------------------------------------------------------------
    def _try_steal(self) -> None:
        if self.terminated or self.unit is not None:
            return
        victim = self.pick_victim(self.index)
        if victim is None:
            return
        self.steals_attempted += 1
        self._send(
            victim,
            StealRequest(self.index, self.host.relative_power),
            "on_steal_request",
        )

    def on_steal_request(self, sender: int, msg: StealRequest) -> None:
        if self.terminated:
            return
        interval = None
        if self.unit is not None and not self.unit.is_finished():
            remaining = self.unit.remaining_interval()
            if remaining.length > 1:
                mid = remaining.begin + remaining.length // 2
                self.unit.apply_interval(Interval(remaining.begin, mid))
                interval = Interval(mid, remaining.end)
        self._send(msg.thief, StealReply(interval, self.best_cost), "on_steal_reply")

    def on_steal_reply(self, sender: int, msg: StealReply) -> None:
        if self.terminated:
            return
        if msg.best_cost < self.best_cost:
            self._adopt(msg.best_cost, None, gossip=False)
        if msg.interval is not None:
            self.steals_succeeded += 1
            self._backoff = self.steal_backoff  # reset on success
            self.unit = self.workload.create_unit(msg.interval, self.best_cost)
            self._explore_slice()
        else:
            self._release_token_if_held()
            self.clock.schedule(self._backoff, self._try_steal)
            self._backoff = min(self._backoff * 2, 256 * self.steal_backoff)

    # ------------------------------------------------------------------
    # solution gossip
    # ------------------------------------------------------------------
    def _adopt(self, cost: float, solution: Any, gossip: bool) -> None:
        if cost >= self.best_cost:
            return
        self.best_cost = cost
        if solution is not None:
            self.best_solution = solution
            self.metrics.solution_improved(self.clock.now, cost)
        if self.unit is not None:
            self.unit.set_upper_bound(cost)
        if gossip and solution is not None:
            self._gossip(Gossip(cost, solution, hops_left=4))

    def _gossip(self, msg: Gossip) -> None:
        if msg.hops_left <= 0 or self.num_peers == 1:
            return
        for _ in range(min(self.gossip_fanout, self.num_peers - 1)):
            target = self.pick_victim(self.index)
            if target is not None:
                self._send(target, msg, "on_gossip")

    def on_gossip(self, sender: int, msg: Gossip) -> None:
        if self.terminated or msg.cost >= self.best_cost:
            return
        self.best_cost = msg.cost
        self.best_solution = msg.solution
        if self.unit is not None:
            self.unit.set_upper_bound(msg.cost)
        self._gossip(Gossip(msg.cost, msg.solution, msg.hops_left - 1))

    # ------------------------------------------------------------------
    # Safra's termination detection
    # ------------------------------------------------------------------
    def _maybe_launch_token(self) -> None:
        """Peer 0 launches a probe whenever it is passive."""
        if self.terminated:
            return
        if self.index == 0 and self.holds_token and not self.exploring:
            # Safra: the initiator launches a CLEAN white token; its own
            # counter and colour are folded in only at the conclusion
            # check (folding them here too would double-count and make
            # the zero test unsatisfiable).
            token = SafraToken(count=0, black=False)
            self.safra_black = False
            self.holds_token = False
            self._send(
                (self.index + 1) % self.num_peers, token, "on_token"
            )
        if self.index == 0:
            self.clock.schedule(self.update_period, self._maybe_launch_token)

    def on_token(self, sender: int, token: SafraToken) -> None:
        if self.terminated:
            return
        self.holds_token = True
        self._pending_token = token
        self._release_token_if_held()

    def _release_token_if_held(self) -> None:
        """Forward (or conclude) the token once this peer is passive."""
        if not self.holds_token or self._pending_token is None:
            return
        if self.exploring and self.unit is not None:
            return  # hold the token until passive
        token = self._pending_token
        if self.index == 0:
            # Probe completed a full round.
            if (
                not token.black
                and not self.safra_black
                and token.count + self.safra_count == 0
                and self.unit is None
            ):
                self._conclude_termination()
                return
            # Inconclusive: relaunch promptly.  Steal chatter blackens
            # peers continuously, so a probe only succeeds if the ring
            # pass fits inside a quiet window — waiting a full
            # update_period between probes would practically never
            # catch one (probes are cheap: tokens are not counted).
            self._pending_token = None
            self.clock.schedule(
                min(1.0, self.update_period), self._maybe_launch_token
            )
            return
        token = SafraToken(
            count=token.count + self.safra_count,
            black=token.black or self.safra_black,
        )
        self.safra_black = False
        self.holds_token = False
        self._pending_token = None
        self._send((self.index + 1) % self.num_peers, token, "on_token")

    def _conclude_termination(self) -> None:
        self.on_termination()

    def shutdown(self) -> None:
        self.terminated = True
        self.metrics.worker_left(self.clock.now)
