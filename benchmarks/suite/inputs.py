"""Benchmark inputs: harness-owned instance generator + the work catalogue.

The program only ever sees generated processing-time matrices and
leaf-number slices.  Matrices come from Python's own Mersenne Twister
(not from ``repro``'s generators), so a later change to the program's
instance helpers cannot move the inputs.

B&B effort is chaotic in the input (a 12x5 flow shop takes 0.01 s or
60 s), so seeded inputs alone would make every timing a lottery across
seeds.  The catalogue (``catalog.json``, written once by
``make_catalog.py``) fixes that: every entry is a work unit whose
*reference* node count — measured when the catalogue was authored —
falls in a narrow band, together with its proved optimum.  A run's seed
picks which entries it sees and in which order; the committed optimum is
the oracle every result is checked against.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

CATALOG_PATH = Path(__file__).with_name("catalog.json")


def matrix(jobs: int, machines: int, seed: int) -> List[List[int]]:
    """``jobs x machines`` processing times, U[1, 99] (Taillard's law)."""
    rng = random.Random(seed)
    return [[rng.randint(1, 99) for _ in range(machines)] for _ in range(jobs)]


def makespan(times: List[List[int]], permutation: Tuple[int, ...]) -> int:
    """Permutation flow-shop makespan — the harness's own evaluator."""
    front = [0] * len(times[0])
    for job in permutation:
        row = times[job]
        front[0] += row[0]
        for m in range(1, len(row)):
            front[m] = max(front[m], front[m - 1]) + row[m]
    return front[-1]


@dataclass(frozen=True)
class Unit:
    """One catalogue work unit: an instance and (optionally) a leaf slice."""

    jobs: int
    machines: int
    seed: int
    cost: int  # proved optimum over the slice, cross-checked at authoring
    ref_nodes: int  # nodes the authoring-time engine explored
    begin: Optional[int] = None  # None: the whole tree
    length: Optional[int] = None

    @property
    def name(self) -> str:
        return f"u{self.jobs}x{self.machines}-s{self.seed}"

    def times(self) -> List[List[int]]:
        return matrix(self.jobs, self.machines, self.seed)

    def slice(self) -> Optional[Tuple[int, int]]:
        if self.begin is None or self.length is None:
            return None
        return (self.begin, self.begin + self.length)


def load_catalog(path: Path = CATALOG_PATH) -> Dict[str, List[Unit]]:
    doc = json.loads(path.read_text())
    return {
        family: [Unit(**entry) for entry in entries]
        for family, entries in doc["families"].items()
    }


def draw(units: List[Unit], rng: random.Random) -> List[Unit]:
    """A seeded order over one family; callers cycle if they outrun it."""
    order = list(units)
    rng.shuffle(order)
    return order


def digest(items: List[Any]) -> str:
    """Short stable digest of generated inputs, for provenance."""
    blob = json.dumps(items, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
