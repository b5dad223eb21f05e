"""Network model: message latencies across the multi-cluster grid.

The paper's platform (§5.2) wires machines inside a cluster with
Gigabit Ethernet (100 Mb for IUT-A), the three campus clusters
together with a Gigabit link, and everything else over the 2.5 Gb/s
RENATER national backbone.  The simulator reduces this to a
per-message delay ``base_latency(src, dst) + size / bandwidth(src,
dst)`` — enough to make WAN chatter visibly more expensive than LAN
chatter, which is what the interval coding optimises.

``size`` is never guessed: :func:`frame_sizes` measures the frames the
TCP transport would put on the wire (:mod:`repro.grid.net.framing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.interval import Interval
from repro.grid.net.framing import encode_frame
from repro.grid.runtime.protocol import (
    Ack,
    GrantWork,
    Reconciled,
    Request,
    Terminate,
    Update,
)

__all__ = ["LinkSpec", "NetworkModel", "frame_sizes"]

GIGABIT = 125_000_000.0  # bytes/second
MEGABIT_100 = 12_500_000.0
RENATER = 312_500_000.0  # 2.5 Gb/s


@dataclass
class LinkSpec:
    """One directed-pair link description."""

    latency: float  # seconds, one way
    bandwidth: float  # bytes per second

    def delay(self, size_bytes: int) -> float:
        """One-way delivery delay for a message of ``size_bytes``."""
        return self.latency + size_bytes / self.bandwidth


@dataclass
class NetworkModel:
    """Latency/bandwidth lookup between cluster names.

    ``intra`` is used when src == dst, ``campus`` between clusters that
    both appear in ``campus_clusters`` (the Lille campus Gigabit link),
    ``wan`` otherwise (RENATER).  Explicit overrides win.
    """

    intra: LinkSpec = field(default_factory=lambda: LinkSpec(100e-6, GIGABIT))
    campus: LinkSpec = field(default_factory=lambda: LinkSpec(500e-6, GIGABIT))
    wan: LinkSpec = field(default_factory=lambda: LinkSpec(10e-3, RENATER))
    campus_clusters: Tuple[str, ...] = ()
    overrides: Dict[Tuple[str, str], LinkSpec] = field(default_factory=dict)

    def link(self, src: str, dst: str) -> LinkSpec:
        if (src, dst) in self.overrides:
            return self.overrides[(src, dst)]
        if (dst, src) in self.overrides:
            return self.overrides[(dst, src)]
        if src == dst:
            return self.intra
        if src in self.campus_clusters and dst in self.campus_clusters:
            return self.campus
        return self.wan

    def delay(self, src: str, dst: str, size_bytes: int) -> float:
        """One-way delivery delay for a message of ``size_bytes``."""
        return self.link(src, dst).delay(size_bytes)


def frame_sizes(root: Interval, worker: str) -> Dict[type, int]:
    """Bytes on the wire of each fixed-shape message of a run over ``root``.

    One real frame per type, its leaf numbers as long as ``root.end``
    (JSON digits: a frame's length follows the numbers it carries, and
    most of a run's are root-sized) and ``worker`` as the sender.  A
    simulation builds this once and looks sizes up by ``type(message)``;
    a ``Push`` carries a solution of any length and is not in the table
    — encode those as they come.
    """
    pair = (root.end, root.end)
    cost = 0.0
    samples = (
        Request(worker),
        Update(worker, pair, nodes=0, consumed=0),
        GrantWork(pair, cost),
        Reconciled(pair, cost),
        Ack(cost),
        Terminate(cost),
    )
    return {type(message): len(encode_frame(message)) for message in samples}
