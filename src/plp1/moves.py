"""Bistellar moves on oriented spheres.

The move associated with a simplex d1 whose link is the boundary of a
missing simplex d2 replaces star(d1) = d1 * boundary(d2) with
boundary(d1) * d2.  A move associated with a facet is a stellar
subdivision (d2 is one fresh vertex); a move associated with a vertex is
the inverse subdivision.  Orientations propagate so that unchanged facets
keep their signs.  ``FaceIndex`` keeps the faces of a sphere, with their
stars, up to date move by move; ``admissible_moves`` is its one-shot form.
``_admit`` alone decides admissibility, for every move built or applied.
"""
from __future__ import annotations

import itertools
import json
from typing import Iterable, NamedTuple, Optional

from .complexes import (ComplexError, NonOrientable, OrientedComplex,
                        Simplex, link_signs)


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


def _cofactor(d1: Simplex, star: Iterable[Simplex], n: int) -> Simplex:
    """The cofactor d2 of d1 in an n-sphere, given the facets ``star`` that
    contain d1: the link of d1 must be the boundary of the simplex d2.
    Raises MoveNotAdmissible otherwise; whether d2 is present is the
    caller's test."""
    if not star:
        raise MoveNotAdmissible(f"{d1} not in complex")
    # the boundary of the simplex d2 has one facet per vertex, n+2-k of them
    if len(star) != n + 2 - len(d1):
        raise MoveNotAdmissible(f"link of {d1} is not a simplex boundary")
    lk = [tuple(v for v in f if v not in d1) for f in star]
    d2 = tuple(sorted({v for f in lk for v in f}))
    if set(lk) != set(itertools.combinations(d2, len(d2) - 1)):
        raise MoveNotAdmissible(f"link of {d1} is not a simplex boundary")
    return d2


def make_move(L: OrientedComplex, delta1: Iterable[int],
              new_vertex: Optional[int] = None) -> Move:
    """Build the move associated with delta1, deriving delta2 (for a facet,
    the fresh vertex ``new_vertex``, default max+1); ``_admit`` admits it."""
    d1 = tuple(sorted(delta1))
    n = L.dim
    s1 = set(d1)
    star = [f for f in L.facets if s1 <= set(f)]
    if len(d1) == n + 1:
        d2 = (new_vertex if new_vertex is not None else max(L.vertices) + 1,)
    else:
        d2 = _cofactor(d1, star, n)
    m = Move(d1, d2)
    _admit(m, star, n, L.has_simplex(d2), len(L.facets))
    return m


def _admit(m: Move, star, n: int, present: bool, facets: int) -> None:
    """Raise MoveNotAdmissible unless ``m`` is admissible in an n-sphere of
    ``facets`` facets (``star`` holds those on delta1, ``present`` says if
    delta2 is a simplex): a facet takes one absent vertex, any other sorted
    delta1 the absent cofactor its star derives, and a facet must remain."""
    d1, d2 = m
    if len(d1) == n + 1:
        admissible = d1 in star and len(d2) == 1 and not present
    else:
        # a derived cofactor that differs from d2 fails the comparison, and
        # the message names the move
        admissible = d1 == tuple(sorted(d1)) and _cofactor(d1, star, n) == d2
        if admissible and present:
            raise MoveNotAdmissible(f"cofactor {d2} already a simplex")
    if not admissible:
        raise MoveNotAdmissible(f"{m} not admissible")
    if len(star) == facets:
        raise MoveNotAdmissible("move would replace the whole sphere")


def _star_signs(d1: Simplex, d2: Simplex, signs) -> dict:
    """The signed facets boundary(d1) * d2 that replace star(d1) =
    d1 * boundary(d2), whose signs ``signs`` holds, so that surviving facets
    keep their signs.

    Each new facet G = (d1 - a) + d2 shares the ridge (d1 - a) + (d2 - b)
    with the removed facet F = d1 + (d2 - b) for every b in d2, and takes
    over F's neighbour across it, so sign(G) = sign(F) * (-1)**(i + j) with
    a at index i of F and b at index j of G.  The choices of b must agree.
    """
    closed = set(d1) | set(d2)
    out = {}
    for a in d1:
        g = tuple(sorted(closed - {a}))
        want = None
        for b in d2:
            f = tuple(sorted(closed - {b}))
            s = signs[f] * (-1) ** (f.index(a) + g.index(b))
            if want is None:
                want = s
            elif s != want:
                raise NonOrientable(f"parity conflict in the star of {d1}")
        out[g] = want
    return out


class FaceIndex:
    """Every face of an n-complex with the facets that contain it, which
    ``apply`` updates in the star of the move alone, with every check of
    ``apply_move``.  ``moves`` is specified on closed complexes (every ridge
    in two facets): there the link of a face of k vertices is a closed
    (n-k)-pseudomanifold, and the only one with n+2-k facets is the boundary
    of a simplex.  Answers ``dim``, ``vertices`` and ``facets``."""

    def __init__(self, L: OrientedComplex):
        self.dim = L.dim
        self.signs: dict = {}
        self._stars = {k: {} for k in range(1, L.dim + 2)}  # by face size
        self._enter(L.signs)

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(v for (v,) in self._stars[1]))

    @property
    def facets(self):
        return self.signs.keys()

    def _enter(self, signs) -> None:
        for f, sign in signs.items():
            self.signs[f] = sign
            for k in range(1, len(f) + 1):
                by_face = self._stars[k]
                for g in itertools.combinations(f, k):
                    cofaces = by_face.get(g)
                    if cofaces is None:
                        by_face[g] = {f}
                    else:
                        cofaces.add(f)

    def moves(self, sizes: Optional[Iterable[int]] = None) -> list:
        """The admissible moves whose delta1 has one of the given ``sizes``
        (by default all), in a deterministic order: faces in order of the
        first sorted facet that contains them, then by size, then by face.
        A face of k vertices has a move when its star has n+2-k facets and
        the other vertices of its star, the cofactor, span no face; a facet's
        cofactor is empty, and its subdivision takes the fresh vertex max+1."""
        n = self.dim
        sizes = set(range(1, n + 2) if sizes is None else sizes)
        if not sizes <= set(range(1, n + 2)):
            raise ValueError(f"face sizes {sorted(sizes)} outside 1..{n + 1}")
        keyed = []
        for k in sizes:
            want = n + 2 - k
            faces = self._stars[want]  # the faces of the cofactor's size
            for d1, star in self._stars[k].items():
                if len(star) == want:
                    d2 = tuple(sorted(set().union(*star).difference(d1)))
                    if d2 not in faces:
                        keyed.append((min(star), k, d1, d2))
        keyed.sort()
        nv = (max(self._stars[1])[0] + 1,)
        return [Move(d1, d2 or nv) for _, _, d1, d2 in keyed]

    def apply(self, m: Move) -> None:
        """Apply the move in place, with the checks of ``apply_move``."""
        stars = self._stars
        star = stars.get(len(m.delta1), {}).get(m.delta1, ())
        present = tuple(sorted(m.delta2)) in stars.get(len(m.delta2), {})
        _admit(m, star, self.dim, present, len(self.signs))
        new = _star_signs(m.delta1, m.delta2, self.signs)
        for f in list(star):
            del self.signs[f]
            for k in range(1, len(f) + 1):
                by_face = stars[k]
                for g in itertools.combinations(f, k):
                    cofaces = by_face[g]
                    cofaces.discard(f)
                    if not cofaces:
                        del by_face[g]
        self._enter(new)


def admissible_moves(L: OrientedComplex, sizes: Optional[Iterable[int]] = None) -> list:
    """The admissible moves of the closed complex L whose delta1 has one of
    the given ``sizes`` (see ``FaceIndex.moves``, which reads each off its
    face's star size); raises ValueError for a size outside 1..dim+1."""
    return FaceIndex(L).moves(sizes)


def apply_move(L: OrientedComplex, m: Move) -> OrientedComplex:
    """(L minus d1*boundary(d2)) union (boundary(d1)*d2), orientation
    propagated so surviving facets keep their signs (``_star_signs``).

    ``_admit`` decides admissibility from the star of delta1 that the same
    facet pass drops, so admissibility costs no extra scan.
    """
    s1, s2 = set(m.delta1), set(m.delta2)
    signs, star = {}, []
    present = False
    for f, s in L.signs.items():
        if s1.issubset(f):
            star.append(f)
        else:
            signs[f] = s
        present = present or s2.issubset(f)
    _admit(m, star, L.dim, present, len(L.signs))
    signs.update(_star_signs(m.delta1, m.delta2, L.signs))
    return OrientedComplex(signs)


class InducedMoveRecord(NamedTuple):
    vertex: int
    induced: Move
    link_before: OrientedComplex
    link_after: OrientedComplex


def induced_vertex_moves(links: dict, m: Move, K2: OrientedComplex) -> list:
    """Per-vertex induced moves of a move K -> K2, validated by replay.

    ``links`` maps every vertex of K to its link in K, and is carried in
    place to the links of K2.  Each vertex of the closed support present
    both before and after gets the link ``apply_move`` makes of its link by
    the induced move; ``apply_move`` admits that move only where it drops
    the links at the vertex of the facets m drops and adds those of the
    facets m adds, so what is left to check is that the latter are signed
    as the link rule (``link_signs``) signs them from K2.  The created
    vertex gets the link of the added facets and the destroyed one loses
    its link; both are excluded from the records by definition.
    """
    d1, d2 = set(m.delta1), set(m.delta2)
    closed = d1 | d2
    created = m.delta2[0] if len(m.delta2) == 1 else None
    destroyed = m.delta1[0] if len(m.delta1) == 1 else None
    added = link_signs({g: K2.signs[g] for g in
                        (tuple(sorted(closed - {a})) for a in m.delta1)},
                       closed - {destroyed})
    records = []
    for v in sorted(closed - {created, destroyed}):
        if v in d1:
            ind = Move(tuple(sorted(d1 - {v})), m.delta2)
        else:
            ind = Move(m.delta1, tuple(sorted(d2 - {v})))
        before = links[v]
        after = links[v] = apply_move(before, ind)
        if any(after.signs[g] != s for g, s in added[v].items()):
            raise InducedDiffNotABistellarMove(
                f"link diff at vertex {v} is not the expected move")
        records.append(InducedMoveRecord(v, ind, before, after))
    if created is not None:
        links[created] = OrientedComplex(added[created])
    if destroyed is not None:
        del links[destroyed]
    return records


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
