"""Bistellar moves on oriented spheres.

The move associated with a simplex d1 whose link is the boundary of a
missing simplex d2 replaces star(d1) = d1 * boundary(d2) with
boundary(d1) * d2.  A move associated with a facet is a stellar
subdivision (d2 is one fresh vertex); a move associated with a vertex is
the inverse subdivision.  Orientations propagate so that unchanged facets
keep their signs.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional

from . import canonical
from .complexes import (ComplexError, NonOrientable, OrientedComplex,
                        Simplex, SimplicialComplex, extend_orientation,
                        oriented_link, subsimplex_parity)


class MoveNotAdmissible(ComplexError):
    pass


class InducedDiffNotABistellarMove(ComplexError):
    pass


@dataclass(frozen=True)
class Move:
    """delta1 is the simplex the move is associated with; delta2 the derived
    cofactor (for a top-dimensional delta1 it is the single fresh vertex)."""
    delta1: Simplex
    delta2: Simplex

    def inverse(self) -> "Move":
        return Move(self.delta2, self.delta1)

    def to_json(self) -> dict:
        d: dict = {"delta1": list(self.delta1)}
        if len(self.delta2) == 1:
            d["new_vertex"] = self.delta2[0]
        return d


def _cofactor(d1: Simplex, star: Iterable[Simplex], n: int, present) -> Simplex:
    """The cofactor d2 of d1 in an n-sphere, given the facets ``star`` that
    contain d1: the link of d1 must be the boundary of the simplex d2 and
    ``present(d2)`` must be false.  Raises MoveNotAdmissible otherwise."""
    lk = [tuple(v for v in f if v not in d1) for f in star]
    if not lk:
        raise MoveNotAdmissible(f"{d1} not in complex")
    d2 = tuple(sorted({v for f in lk for v in f}))
    # the boundary of the simplex d2 has one facet per vertex, n+2-k of them
    if (len(lk) != n + 2 - len(d1)
            or set(lk) != set(itertools.combinations(d2, len(d2) - 1))):
        raise MoveNotAdmissible(f"link of {d1} is not a simplex boundary")
    if present(d2):
        raise MoveNotAdmissible(f"cofactor {d2} already a simplex")
    return d2


def make_move(L: OrientedComplex, delta1: Iterable[int],
              new_vertex: Optional[int] = None) -> Move:
    """Build the move associated with delta1, deriving delta2; raises
    MoveNotAdmissible when the link is not a missing-simplex boundary."""
    d1 = tuple(sorted(delta1))
    n = L.dim
    if len(d1) == n + 1:
        if d1 not in L.facets:
            raise MoveNotAdmissible(f"{d1} is not a facet")
        nv = new_vertex if new_vertex is not None else max(L.vertices) + 1
        if nv in L.vertices:
            raise MoveNotAdmissible(f"vertex {nv} already present")
        return Move(d1, (nv,))
    s1 = set(d1)
    star = [f for f in L.facets if s1 <= set(f)]
    return Move(d1, _cofactor(d1, star, n, L.complex.has_simplex))


def is_admissible(L: OrientedComplex, m: Move) -> bool:
    try:
        ref = make_move(L, m.delta1,
                        new_vertex=m.delta2[0] if len(m.delta2) == 1 else None)
    except MoveNotAdmissible:
        return False
    return ref == m


def admissible_moves(L: OrientedComplex) -> list:
    """All admissible moves, facet subdivisions included (with the fresh
    vertex max+1), in a deterministic order: faces in order of first
    appearance over the sorted facets, smaller faces of a facet first."""
    n = L.dim
    nv = max(L.vertices) + 1
    # every face, facets included, -> the facets containing it
    stars: dict = {}
    for f in sorted(L.facets):
        for k in range(1, n + 2):
            for d1 in itertools.combinations(f, k):
                stars.setdefault(d1, []).append(f)
    out = []
    for d1, star in stars.items():
        if len(d1) == n + 1:
            out.append(Move(d1, (nv,)))
            continue
        try:
            out.append(Move(d1, _cofactor(d1, star, n, stars.__contains__)))
        except MoveNotAdmissible:
            pass
    return out


def apply_move(L: OrientedComplex, m: Move) -> OrientedComplex:
    """(L minus d1*boundary(d2)) union (boundary(d1)*d2), orientation
    propagated so surviving facets keep their signs.

    Each new facet G = (d1 - a) + d2 shares the ridge (d1 - a) + (d2 - b)
    with the removed facet F = d1 + (d2 - b) for every b in d2, and takes
    over F's neighbour across it, so sign(G) = sign(F) * (-1)**(i + j) with
    a at index i of F and b at index j of G.  The choices of b must agree.
    """
    if not is_admissible(L, m):
        raise MoveNotAdmissible(f"{m} not admissible")
    d1, d2 = m.delta1, m.delta2
    s1 = set(d1)
    signs = {f: s for f, s in L.signs.items() if not s1.issubset(f)}
    if not signs:
        raise MoveNotAdmissible("move would replace the whole sphere")
    star = s1 | set(d2)
    for a in d1:
        g = tuple(sorted(star - {a}))
        want = None
        for b in d2:
            f = tuple(sorted(star - {b}))
            s = L.signs[f] * (-1) ** (f.index(a) + g.index(b))
            if want is None:
                want = s
            elif s != want:
                raise NonOrientable(f"parity conflict in the star of {d1}")
        signs[g] = want
    return OrientedComplex(SimplicialComplex(signs), signs)


def is_essential(L: OrientedComplex, m: Move) -> bool:
    """A move from L to itself is inessential when an automorphism of L
    carries its simplex onto the inverse move's; 1-sphere moves always
    change the vertex count and so are always essential."""
    if L.dim == 1:
        return True
    L2 = apply_move(L, m)
    if canonical.code_bytes(L) != canonical.code_bytes(L2):
        return True
    return (canonical.canonical_orbit(L, m.delta1)
            != canonical.canonical_orbit(L2, m.delta2))


@dataclass(frozen=True)
class InducedMoveRecord:
    vertex: int
    induced: Move
    essential: bool
    link_before: OrientedComplex
    link_after: OrientedComplex


def induced_vertex_moves(K: OrientedComplex, m: Move) -> list:
    """Per-vertex induced moves of a bistellar move, validated by replay.

    Every vertex of the closed support present both before and after is
    diffed; the created / destroyed vertex is excluded by definition.
    """
    K2 = apply_move(K, m)
    d1, d2 = set(m.delta1), set(m.delta2)
    excluded = set()
    if len(m.delta2) == 1:
        excluded.add(m.delta2[0])
    if len(m.delta1) == 1:
        excluded.add(m.delta1[0])
    records = []
    for v in sorted((d1 | d2) - excluded):
        if v in d1:
            ind = Move(tuple(sorted(d1 - {v})), m.delta2)
        else:
            ind = Move(m.delta1, tuple(sorted(d2 - {v})))
        before = oriented_link(K, v)
        after = oriented_link(K2, v)
        if before == after:
            continue
        if not ind.delta1:
            raise InducedDiffNotABistellarMove(f"empty simplex at vertex {v}")
        if apply_move(before, ind) != after:
            raise InducedDiffNotABistellarMove(
                f"link diff at vertex {v} is not the expected move")
        records.append(InducedMoveRecord(v, ind, is_essential(before, ind),
                                         before, after))
    return records


def build_L_beta(L1: OrientedComplex, m: Move) -> OrientedComplex:
    """The sphere C L1 union C L2 union (d1 * d2) of a move, oriented so the
    induced orientation of the link of the second cone vertex is L2."""
    L2 = apply_move(L1, m)
    top = max(max(L1.vertices), max(L2.vertices))
    u1, u2 = top + 1, top + 2
    facets = {tuple(sorted(f + (u1,))) for f in L1.facets}
    facets |= {tuple(sorted(f + (u2,))) for f in L2.facets}
    facets.add(tuple(sorted(m.delta1 + m.delta2)))
    g0 = min(L2.facets)
    seed = tuple(sorted(g0 + (u2,)))
    seed_sign = L2.signs[g0] * subsimplex_parity(seed, (u2,))
    signs = extend_orientation(facets, {seed: seed_sign})
    out = OrientedComplex(SimplicialComplex(facets), signs)
    if oriented_link(out, u2) != L2:
        raise ComplexError("cone orientation failed to match L2")
    return out


class MoveSequence:
    """An initial complex with an ordered list of admissible moves."""

    def __init__(self, initial: OrientedComplex, moves: Iterable[Move]):
        self.initial = initial
        self.moves = list(moves)

    def __len__(self):
        return len(self.moves)

    def replay(self):
        """Yields (state_before, move, state_after); apply_move checks
        admissibility and the failing step is named."""
        state = self.initial
        for j, m in enumerate(self.moves):
            try:
                nxt = apply_move(state, m)
            except MoveNotAdmissible as exc:
                raise MoveNotAdmissible(f"step {j}: {exc}") from exc
            yield state, m, nxt
            state = nxt

    def final(self) -> OrientedComplex:
        state = self.initial
        for _, _, state in self.replay():
            pass
        return state

    def reversed(self) -> "MoveSequence":
        """The inverse sequence, from the final complex back to the initial."""
        rev = [m.inverse() for m in reversed(self.moves)]
        return MoveSequence(self.final(), rev)

    def to_json(self) -> str:
        return json.dumps([m.to_json() for m in self.moves])

    @staticmethod
    def moves_from_json(text: str) -> list:
        out = []
        for item in json.loads(text):
            d1 = tuple(sorted(item["delta1"]))
            if "new_vertex" in item:
                out.append((d1, item["new_vertex"]))
            else:
                out.append((d1, None))
        return out

    @staticmethod
    def from_json(initial: OrientedComplex, text: str) -> "MoveSequence":
        state = initial
        moves = []
        for d1, nv in MoveSequence.moves_from_json(text):
            m = make_move(state, d1, new_vertex=nv)
            moves.append(m)
            state = apply_move(state, m)
        return MoveSequence(initial, moves)
