"""Platform descriptions: hosts, clusters, and the paper's Table 1 pool.

The paper's grid (§5.2, Table 1) counts 1889 processors over nine
administrative domains: three Université de Lille campus clusters of
heterogeneous mono-processor desktops (cycle stealing on educational
machines) and six Grid'5000 clusters of dedicated bi-processor nodes.
:func:`paper_platform` rebuilds that pool row by row;
:func:`small_platform` is the scaled-down variant tests and quick
benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.grid.simulator.network import NetworkModel

__all__ = ["HostSpec", "ClusterSpec", "PlatformSpec", "paper_platform", "small_platform", "PAPER_POOL_ROWS"]


@dataclass(frozen=True)
class HostSpec:
    """One processor of the pool."""

    host_id: str
    cluster: str
    speed_ghz: float
    dedicated: bool  # Grid'5000 nodes are reserved; campus ones stolen

    @property
    def relative_power(self) -> float:
        """Processing power relative to a 1 GHz reference processor."""
        return self.speed_ghz


@dataclass
class ClusterSpec:
    name: str
    domain: str
    hosts: List[HostSpec] = field(default_factory=list)

    @property
    def processors(self) -> int:
        return len(self.hosts)


@dataclass
class PlatformSpec:
    """A full grid: clusters plus the network tying them together."""

    clusters: List[ClusterSpec]
    network: NetworkModel = field(default_factory=NetworkModel)
    farmer_cluster: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.clusters:
            raise SimulationError("a platform needs at least one cluster")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate cluster names: {names}")
        if self.farmer_cluster is None:
            self.farmer_cluster = self.clusters[0].name
        elif self.farmer_cluster not in names:
            raise SimulationError(
                f"farmer cluster {self.farmer_cluster!r} not in {names}"
            )

    @property
    def total_processors(self) -> int:
        return sum(c.processors for c in self.clusters)

    def all_hosts(self) -> List[HostSpec]:
        return [h for c in self.clusters for h in c.hosts]


# ----------------------------------------------------------------------
# The paper's pool (Table 1), row by row:
# (cpu description, GHz, cluster, domain, count, processors-per-machine)
# ----------------------------------------------------------------------
PAPER_POOL_ROWS: List[Tuple[str, float, str, str, int, int]] = [
    ("P4 1.70", 1.70, "IEEA-FIL", "Lille1", 24, 1),
    ("P4 2.40", 2.40, "IEEA-FIL", "Lille1", 48, 1),
    ("P4 2.80", 2.80, "IEEA-FIL", "Lille1", 59, 1),
    ("P4 3.00", 3.00, "IEEA-FIL", "Lille1", 27, 1),
    ("AMD 1.30", 1.30, "Polytech'Lille", "Lille1", 14, 1),
    ("Celeron 2.40", 2.40, "Polytech'Lille", "Lille1", 35, 1),
    ("Celeron 0.80", 0.80, "Polytech'Lille", "Lille1", 14, 1),
    ("Celeron 2.00", 2.00, "Polytech'Lille", "Lille1", 13, 1),
    ("Celeron 2.20", 2.20, "Polytech'Lille", "Lille1", 28, 1),
    ("P3 1.20", 1.20, "Polytech'Lille", "Lille1", 12, 1),
    ("P4 3.20", 3.20, "Polytech'Lille", "Lille1", 12, 1),
    ("P4 1.60", 1.60, "IUT-A", "Lille1", 22, 1),
    ("P4 2.00", 2.00, "IUT-A", "Lille1", 18, 1),
    ("P4 2.80", 2.80, "IUT-A", "Lille1", 45, 1),
    ("P4 2.66", 2.66, "IUT-A", "Lille1", 57, 1),
    ("P4 3.00", 3.00, "IUT-A", "Lille1", 41, 1),
    ("AMD 2.2", 2.20, "Bordeaux", "Grid5000", 47, 2),
    ("AMD 2.2", 2.20, "Lille", "Grid5000", 54, 2),
    ("Xeon 2.4", 2.40, "Rennes", "Grid5000", 64, 2),
    ("AMD 2.2", 2.20, "Rennes", "Grid5000", 64, 2),
    ("AMD 2.0", 2.00, "Rennes", "Grid5000", 100, 2),
    ("AMD 2.0", 2.00, "Sophia", "Grid5000", 107, 2),
    ("AMD 2.2", 2.20, "Toulouse", "Grid5000", 58, 2),
    ("AMD 2", 2.00, "Orsay", "Grid5000", 216, 2),
]

CAMPUS_CLUSTERS = ("IEEA-FIL", "Polytech'Lille", "IUT-A")


def paper_platform() -> PlatformSpec:
    """The Table 1 grid: 1889 processors in 9 clusters, 2 domains.

    Grid'5000 machines are bi-processor, so each machine contributes
    two host entries; campus machines are dedicated=False (cycle
    stealing on educational desktops).
    """
    clusters: Dict[str, ClusterSpec] = {}
    counters: Dict[str, int] = {}
    for cpu, ghz, cluster_name, domain, count, procs in PAPER_POOL_ROWS:
        cluster = clusters.setdefault(
            cluster_name, ClusterSpec(cluster_name, domain)
        )
        dedicated = domain == "Grid5000"
        for _ in range(count * procs):
            idx = counters.get(cluster_name, 0)
            counters[cluster_name] = idx + 1
            cluster.hosts.append(
                HostSpec(
                    host_id=f"{cluster_name}/{idx:04d}",
                    cluster=cluster_name,
                    speed_ghz=ghz,
                    dedicated=dedicated,
                )
            )
    network = NetworkModel(campus_clusters=CAMPUS_CLUSTERS)
    # The farmer ran at LIFL (Lille campus side).
    return PlatformSpec(
        clusters=list(clusters.values()),
        network=network,
        farmer_cluster="IEEA-FIL",
    )


def small_platform(
    workers: int = 8,
    clusters: int = 2,
    speed_ghz: float = 2.0,
    dedicated: bool = True,
) -> PlatformSpec:
    """A tiny uniform platform for tests and fast benchmarks."""
    if workers < 1 or clusters < 1:
        raise SimulationError("need >= 1 worker and cluster")
    specs = []
    for c in range(clusters):
        name = f"cluster{c}"
        count = workers // clusters + (1 if c < workers % clusters else 0)
        specs.append(
            ClusterSpec(
                name,
                "test",
                [
                    HostSpec(f"{name}/{i:04d}", name, speed_ghz, dedicated)
                    for i in range(count)
                ],
            )
        )
    return PlatformSpec(clusters=specs)
