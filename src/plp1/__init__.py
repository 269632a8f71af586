"""Exact first Pontryagin numbers of triangulated oriented 4-manifolds."""

from .complexes import (OrientedComplex, boundary_simplex, load_facet_file, orient,
                        oriented_link)
from .moves import Move, MoveSequence, admissible_moves, apply_move
from .pontryagin import Manifold4Input, pontryagin_number, verify_4manifold
from .reduction import ReductionConfig, reduce_sphere, verify_sequence
from .solver import SolverBudget, evaluate_c0

__version__ = "0.1.0"

__all__ = [
    "OrientedComplex", "boundary_simplex", "load_facet_file", "orient",
    "oriented_link",
    "Move", "MoveSequence", "admissible_moves", "apply_move",
    "Manifold4Input", "pontryagin_number", "verify_4manifold",
    "ReductionConfig", "reduce_sphere", "verify_sequence",
    "SolverBudget", "evaluate_c0",
]
