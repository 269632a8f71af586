"""Bistellar reduction of 2- and 3-spheres to the simplex boundary.

Greedy descent on the lexicographic objective (vertex count, facet count)
with Metropolis-accepted uphill moves when stuck, restarted from derived
seeds.  A run keeps one ``FaceIndex`` of its sphere and applies each
move to it.  A step scans only the downhill move kinds, vertex removals first
and then, on a 3-sphere, the edge moves that drop a facet, and picks at
random among the first kind it finds.  Only a step with no downhill move
scans every admissible move, for a random pick tested by Metropolis.
A run certifies only when the final complex has n+2 vertices and
n+2 facets, which makes it the boundary of the (n+1)-simplex; failure to
certify within budget is an explicit error, never a wrong answer.
"""
from __future__ import annotations

import math
import random

from .complexes import ComplexError, OrientedComplex
from .moves import FaceIndex, Move, MoveSequence


class BudgetExhausted(ComplexError):
    pass


# Annealing schedule and objective weights.
TEMP_INIT = 1.5
COOLING = 0.995
REHEAT_AFTER = 60
WEIGHT_VERTICES = 8
WEIGHT_FACETS = 1


class ReductionConfig:
    """The seed and budget of ``reduce_sphere``: ``restarts`` runs of at
    most ``max_steps`` moves each."""

    def __init__(self, seed: int = 0, max_steps: int = 3000, restarts: int = 8):
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if restarts < 1:
            raise ValueError("restarts must be positive")
        self.seed = seed
        self.max_steps = max_steps
        self.restarts = restarts


def _is_target(L) -> bool:
    """L (a complex or its FaceIndex) is the boundary of the (n+1)-simplex:
    n+2 vertices span exactly n+2 distinct n-simplices, so n+2 facets on
    them are all of them."""
    n = L.dim
    return len(L.vertices) == n + 2 and len(L.facets) == n + 2


def _objective(L) -> int:
    return WEIGHT_VERTICES * len(L.vertices) + WEIGHT_FACETS * len(L.facets)


def _change(k: int, n: int) -> int:
    """Objective change of a move on an n-sphere whose delta1 has k
    vertices: it replaces n+2-k facets by k, removes a vertex when k = 1
    and adds one when k = n+1.  The change strictly increases with k."""
    dv = (k == n + 1) - (k == 1)
    return WEIGHT_VERTICES * dv + WEIGHT_FACETS * (2 * k - n - 2)


def _one_run(L: OrientedComplex, cfg: ReductionConfig, seed: int):
    rng = random.Random(seed)
    state = FaceIndex(L)
    moves = []
    temp = TEMP_INIT
    stagnant = 0
    best = _objective(L)
    fresh = max(L.vertices) + 1
    n = L.dim
    # the downhill move kinds, steepest first
    downhill = [k for k in range(1, n + 2) if _change(k, n) < 0]
    for _ in range(cfg.max_steps):
        if _is_target(state):
            return moves
        for k in downhill:
            cands = state.moves((k,))
            if cands:
                pick = rng.choice(cands)
                break
        else:
            cands = state.moves()
            pick = cands[rng.randrange(len(cands))]
            d = _change(len(pick.delta1), n)
            if d > 0 and rng.random() >= math.exp(-d / max(temp, 1e-9)):
                pick = None  # a rejected uphill pick: the state stays
        if pick is not None:
            if len(pick.delta2) == 1:
                pick = Move(pick.delta1, (fresh,))
                fresh += 1
            state.apply(pick)
            moves.append(pick)
        temp *= COOLING
        obj = _objective(state)
        if obj < best:
            best = obj
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= REHEAT_AFTER:
                temp = TEMP_INIT
                stagnant = 0
    return moves if _is_target(state) else None


def reduce_sphere(L: OrientedComplex, cfg: ReductionConfig | None = None) -> MoveSequence:
    """Certified move sequence from L to a simplex boundary; deterministic
    given the seed; raises BudgetExhausted when no restart certifies."""
    cfg = cfg or ReductionConfig()
    if L.dim not in (2, 3):
        raise ComplexError(f"reduction supports dimensions 2 and 3, not {L.dim}")
    for r in range(cfg.restarts):
        moves = _one_run(L, cfg, cfg.seed * 1_000_003 + r)
        if moves is not None:
            return MoveSequence(L, moves)
    raise BudgetExhausted(
        f"no certified reduction within {cfg.restarts} restarts of "
        f"{cfg.max_steps} steps (non-sphere input or insufficient budget)")


def verify_sequence(L: OrientedComplex, seq: MoveSequence) -> OrientedComplex:
    """Replay with admissibility checks; the failing step index is reported."""
    if seq.initial != L:
        raise ComplexError("sequence initial complex differs from the input")
    state = L
    for _, _, state in seq.replay():
        pass
    return state
