"""Permutation flow-shop substrate (the paper's evaluation problem).

Public surface::

    from repro.problems.flowshop import (
        FlowShopInstance, FlowShopProblem, random_instance,
        taillard_instance, makespan, neh, johnson_order,
        one_machine_bound, two_machine_bound,
    )
"""

from repro.problems.flowshop.bounds import (
    BoundData,
    machine_pairs,
    one_machine_bound,
    two_machine_bound,
)
from repro.problems.flowshop.instance import FlowShopInstance, random_instance
from repro.problems.flowshop.io import (
    InstanceMetadata,
    read_instance,
    write_instance,
)
from repro.problems.flowshop.iterated_greedy import IGResult, iterated_greedy
from repro.problems.flowshop.johnson import (
    johnson_makespan,
    johnson_order,
    two_machine_makespan,
)
from repro.problems.flowshop.makespan import (
    advance_fronts_batch,
    advance_fronts_pool,
    completion_front,
    makespan,
    partial_makespan,
    tails_matrix,
)
from repro.problems.flowshop.neh import insertion_best_position, neh
from repro.problems.flowshop.pool import FlowShopNumpyPool
from repro.problems.flowshop.problem import FlowShopProblem, FlowShopState
from repro.problems.flowshop.reference import (
    KNOWN_OPTIMA,
    known_optimum,
    optimality_gap,
)
from repro.problems.flowshop.taillard import (
    TIME_SEEDS,
    TaillardRNG,
    instance_classes,
    taillard_instance,
    taillard_matrix,
)

__all__ = [
    "BoundData",
    "FlowShopInstance",
    "FlowShopNumpyPool",
    "advance_fronts_batch",
    "advance_fronts_pool",
    "FlowShopProblem",
    "FlowShopState",
    "IGResult",
    "InstanceMetadata",
    "KNOWN_OPTIMA",
    "TIME_SEEDS",
    "TaillardRNG",
    "completion_front",
    "insertion_best_position",
    "instance_classes",
    "iterated_greedy",
    "johnson_makespan",
    "johnson_order",
    "known_optimum",
    "machine_pairs",
    "makespan",
    "neh",
    "one_machine_bound",
    "optimality_gap",
    "partial_makespan",
    "random_instance",
    "read_instance",
    "taillard_instance",
    "taillard_matrix",
    "tails_matrix",
    "two_machine_bound",
    "two_machine_makespan",
    "write_instance",
]
