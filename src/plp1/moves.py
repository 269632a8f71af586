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
from typing import Iterable, NamedTuple, Optional

from .complexes import (ComplexError, NonOrientable, OrientedComplex,
                        Simplex, orient, oriented_link, oriented_links)


class MoveNotAdmissible(ComplexError):
    pass


class InducedDiffNotABistellarMove(ComplexError):
    pass


class Move(NamedTuple):
    """delta1 is the simplex the move is associated with; delta2 the derived
    cofactor (for a top-dimensional delta1 it is the single fresh vertex).
    Equal moves hash alike, so a move can key the step table."""
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
    if not star:
        raise MoveNotAdmissible(f"{d1} not in complex")
    # the boundary of the simplex d2 has one facet per vertex, n+2-k of them
    if len(star) != n + 2 - len(d1):
        raise MoveNotAdmissible(f"link of {d1} is not a simplex boundary")
    lk = [tuple(v for v in f if v not in d1) for f in star]
    d2 = tuple(sorted({v for f in lk for v in f}))
    if set(lk) != set(itertools.combinations(d2, len(d2) - 1)):
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
    return Move(d1, _cofactor(d1, star, n, L.has_simplex))


def admissible_moves(L: OrientedComplex, sizes: Optional[Iterable[int]] = None) -> list:
    """The admissible moves whose delta1 has one of the given ``sizes`` (by
    default all, facet subdivisions included with the fresh vertex max+1),
    in a deterministic order: faces in order of first appearance over the
    sorted facets, smaller faces of a facet first.  The moves of some sizes
    are the full list filtered to those sizes, in the same order; only the
    faces of those sizes and of their cofactor sizes n+2-k are indexed."""
    n = L.dim
    sizes = set(range(1, n + 2) if sizes is None else sizes)
    # the presence check of a k-face's cofactor reads the faces of size n+2-k
    indexed = sorted(sizes | {n + 2 - k for k in sizes if k <= n})
    # every indexed face -> the facets containing it
    stars: dict = {}
    for f in sorted(L.facets):
        for k in indexed:
            for d1 in itertools.combinations(f, k):
                stars.setdefault(d1, []).append(f)
    nv = max(L.vertices) + 1 if n + 1 in sizes else None
    out = []
    for d1, star in stars.items():
        k = len(d1)
        if k not in sizes:
            continue
        if k == n + 1:
            out.append(Move(d1, (nv,)))
        # the size test of _cofactor, made here so most faces raise nothing
        elif len(star) == n + 2 - k:
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

    The move must be the one ``make_move`` builds for its delta1 (sorted,
    with this delta2); the same facet pass that drops the star of delta1
    checks that, so admissibility costs no extra scan.
    """
    d1, d2 = m.delta1, m.delta2
    s1, s2 = set(d1), set(d2)
    signs, star = {}, []
    present = False
    for f, s in L.signs.items():
        if s1.issubset(f):
            star.append(f)
        else:
            signs[f] = s
        present = present or s2.issubset(f)
    if len(d1) == L.dim + 1:
        admissible = d1 in L.signs and len(d2) == 1 and not present
    else:
        # ``present`` is about m.delta2: a derived cofactor that differs from
        # it fails the comparison, and the message names the move
        admissible = (d1 == tuple(sorted(d1))
                      and _cofactor(d1, star, L.dim,
                                    lambda c: present and c == d2) == d2)
    if not admissible:
        raise MoveNotAdmissible(f"{m} not admissible")
    if not signs:
        raise MoveNotAdmissible("move would replace the whole sphere")
    closed = s1 | s2
    for a in d1:
        g = tuple(sorted(closed - {a}))
        want = None
        for b in d2:
            f = tuple(sorted(closed - {b}))
            s = L.signs[f] * (-1) ** (f.index(a) + g.index(b))
            if want is None:
                want = s
            elif s != want:
                raise NonOrientable(f"parity conflict in the star of {d1}")
        signs[g] = want
    return OrientedComplex(signs)


class InducedMoveRecord(NamedTuple):
    vertex: int
    induced: Move
    link_before: OrientedComplex
    link_after: OrientedComplex


def induced_vertex_moves(K: OrientedComplex, m: Move,
                         K2: Optional[OrientedComplex] = None) -> list:
    """Per-vertex induced moves of a bistellar move, validated by replay.

    Every vertex of the closed support present both before and after is
    diffed; the created / destroyed vertex is excluded by definition.
    ``K2``, when given, is ``apply_move(K, m)``.
    """
    if K2 is None:
        K2 = apply_move(K, m)
    d1, d2 = set(m.delta1), set(m.delta2)
    excluded = set()
    if len(m.delta2) == 1:
        excluded.add(m.delta2[0])
    if len(m.delta1) == 1:
        excluded.add(m.delta1[0])
    support = sorted((d1 | d2) - excluded)
    links_before = oriented_links(K, support)
    links_after = oriented_links(K2, support)
    records = []
    for v in support:
        if v in d1:
            ind = Move(tuple(sorted(d1 - {v})), m.delta2)
        else:
            ind = Move(m.delta1, tuple(sorted(d2 - {v})))
        before = links_before[v]
        after = links_after[v]
        if before == after:
            continue
        if not ind.delta1:
            raise InducedDiffNotABistellarMove(f"empty simplex at vertex {v}")
        if apply_move(before, ind) != after:
            raise InducedDiffNotABistellarMove(
                f"link diff at vertex {v} is not the expected move")
        records.append(InducedMoveRecord(v, ind, before, after))
    return records


def build_L_beta(L1: OrientedComplex, m: Move) -> OrientedComplex:
    """The sphere C L1 union C L2 union (d1 * d2) of a move, oriented so the
    induced orientation of the link of the second cone vertex is L2."""
    L2 = apply_move(L1, m)
    top = max(max(L1.vertices), max(L2.vertices))
    u1, u2 = top + 1, top + 2
    out = orient([f + (u1,) for f in L1.facets]
                 + [f + (u2,) for f in L2.facets] + [m.delta1 + m.delta2])
    return out if oriented_link(out, u2) == L2 else out.reverse()


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

    def to_json(self) -> str:
        return json.dumps([m.to_json() for m in self.moves])

    @staticmethod
    def from_json(initial: OrientedComplex, text: str) -> "MoveSequence":
        state = initial
        moves = []
        for item in json.loads(text):
            m = make_move(state, tuple(sorted(item["delta1"])),
                          new_vertex=item.get("new_vertex"))
            moves.append(m)
            state = apply_move(state, m)
        return MoveSequence(initial, moves)
