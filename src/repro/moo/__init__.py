"""Multi-objective optimization (pymoo substitute): NSGA-II on integer
genomes, non-dominated sorting, and pseudo-weight MCDM selection."""

from .mcdm import PREFERENCES, pseudo_weights, select_by_preference
from .nsga2 import NSGA2, NSGA2Result
from .operators import (
    exponential_crossover,
    polynomial_mutation,
    tournament_selection,
)
from .problem import Problem
from .sorting import (
    crowding_by_rank,
    crowding_distance,
    dominates_matrix,
    front_ranks,
    pareto_front_mask,
)
from .termination import Termination

__all__ = [
    "Problem",
    "crowding_by_rank",
    "crowding_distance",
    "dominates_matrix",
    "front_ranks",
    "pareto_front_mask",
    "exponential_crossover",
    "polynomial_mutation",
    "tournament_selection",
    "Termination",
    "NSGA2",
    "NSGA2Result",
    "PREFERENCES",
    "pseudo_weights",
    "select_by_preference",
]
