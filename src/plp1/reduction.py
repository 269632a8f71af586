"""Bistellar reduction of 2- and 3-spheres to the simplex boundary.

Greedy descent on the lexicographic objective (vertex count, facet count)
with Metropolis-accepted uphill moves when stuck, restarted from derived
seeds.  A run certifies only when the final complex has n+2 vertices and
n+2 facets, which makes it the boundary of the (n+1)-simplex; failure to
certify within budget is an explicit error, never a wrong answer.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .complexes import ComplexError, OrientedComplex
from .moves import Move, MoveSequence, admissible_moves, apply_move


class BudgetExhausted(ComplexError):
    pass


# Annealing schedule and objective weights.
TEMP_INIT = 1.5
COOLING = 0.995
REHEAT_AFTER = 60
WEIGHT_VERTICES = 8
WEIGHT_FACETS = 1


@dataclass
class ReductionConfig:
    seed: int = 0
    max_steps: int = 3000
    restarts: int = 8

    def __post_init__(self):
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


def _is_target(L: OrientedComplex) -> bool:
    """The boundary of the (n+1)-simplex: n+2 vertices span exactly n+2
    distinct n-simplices, so n+2 facets on them are all of them."""
    n = L.dim
    return len(L.vertices) == n + 2 and len(L.facets) == n + 2


def _objective(L: OrientedComplex) -> int:
    return WEIGHT_VERTICES * len(L.vertices) + WEIGHT_FACETS * len(L.facets)


def _one_run(L: OrientedComplex, cfg: ReductionConfig, seed: int):
    rng = random.Random(seed)
    state = L
    moves = []
    temp = TEMP_INIT
    stagnant = 0
    best = _objective(L)
    fresh = max(L.vertices) + 1
    for _ in range(cfg.max_steps):
        if _is_target(state):
            return moves
        cands = admissible_moves(state)
        scored = []
        for m in cands:
            dv = 1 if len(m.delta2) == 1 else (-1 if len(m.delta1) == 1 else 0)
            df = len(m.delta1) - len(m.delta2)
            scored.append((WEIGHT_VERTICES * dv + WEIGHT_FACETS * df, m))
        downhill = [(d, m) for d, m in scored if d < 0]
        if downhill:
            dmin = min(d for d, _ in downhill)
            pick = rng.choice([m for d, m in downhill if d == dmin])
        else:
            d, pick = scored[rng.randrange(len(scored))]
            if d > 0 and rng.random() >= math.exp(-d / max(temp, 1e-9)):
                temp *= COOLING
                stagnant += 1
                if stagnant >= REHEAT_AFTER:
                    temp = TEMP_INIT
                    stagnant = 0
                continue
        if len(pick.delta2) == 1:
            pick = Move(pick.delta1, (fresh,))
            fresh += 1
        state = apply_move(state, pick)
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
    if _is_target(state):
        return moves
    return None


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
