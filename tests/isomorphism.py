"""Test-only isomorphism helpers: a generic backtracking isomorphism search
for oriented complexes of any dimension, the automorphisms it finds, and
the code-minimising labelings of a 2-sphere spelled out from its class
record."""
from __future__ import annotations

from typing import Optional

from plp1.complexes import OrientedComplex, sort_parity


def labelings(data, mirror: bool = False) -> list:
    """Every code-minimising labeling of the sphere of ``data``, one per
    automorphism of its class: with ``mirror``, those of its reverse."""
    lab, cls = data.label, data.cls
    if mirror:
        lab = {v: cls.to_mirror[c] for v, c in lab.items()}
        cls = cls.mirror
    return [{v: p[c] for v, c in lab.items()} for p in cls.auts]


class Isomorphism:
    """A certified vertex bijection between oriented complexes."""

    __slots__ = ("vertex_map", "orientation_preserving")

    def __init__(self, vertex_map: dict, orientation_preserving: bool):
        self.vertex_map = dict(vertex_map)
        self.orientation_preserving = orientation_preserving

    def __call__(self, v):
        return self.vertex_map[v]

    def __repr__(self):
        kind = "iso" if self.orientation_preserving else "anti-iso"
        return f"Isomorphism({kind}, {self.vertex_map})"


def _vertex_invariant(L: OrientedComplex) -> dict:
    """Cheap refinement invariant: facet degree plus neighbour degree multiset."""
    deg = {v: 0 for v in L.vertices}
    nbrs = {v: set() for v in L.vertices}
    for f in L.facets:
        for v in f:
            deg[v] += 1
            nbrs[v].update(u for u in f if u != v)
    base = {v: (deg[v], len(nbrs[v])) for v in L.vertices}
    return {v: (base[v], tuple(sorted(base[u] for u in nbrs[v])))
            for v in L.vertices}


def _orientation_factor(A: OrientedComplex, B: OrientedComplex, vmap: dict):
    """+1 / -1 if vmap maps A onto B preserving / reversing orientation."""
    factor = None
    for f, s in A.signs.items():
        img = tuple(vmap[v] for v in f)
        g = tuple(sorted(img))
        sb = B.signs.get(g)
        if sb is None:
            return None
        here = sb * sort_parity(img) * s
        if factor is None:
            factor = here
        elif factor != here:
            return None
    return factor


def iso_generic(A: OrientedComplex, B: OrientedComplex,
                orientation: Optional[bool] = None) -> Optional[Isomorphism]:
    """Backtracking isomorphism search with invariant refinement.

    ``orientation``: True for orientation-preserving only, False for
    reversing only, None for either.  Returns a certified map or None.
    """
    return next(_isomorphisms(A, B, orientation), None)


def automorphisms(L: OrientedComplex) -> list:
    """Every automorphism of L, the identity included, each certified
    orientation-preserving or reversing; found by the backtracking search,
    without canonical codes."""
    return list(_isomorphisms(L, L, None))


def _isomorphisms(A: OrientedComplex, B: OrientedComplex, orientation):
    """Yield every certified isomorphism from A onto B."""
    if A.dim != B.dim or len(A.facets) != len(B.facets):
        return
    va, vb = A.vertices, B.vertices
    if len(va) != len(vb):
        return
    inv_a, inv_b = _vertex_invariant(A), _vertex_invariant(B)
    if sorted(inv_a.values()) != sorted(inv_b.values()):
        return
    cands = {v: [w for w in vb if inv_b[w] == inv_a[v]] for v in va}
    order = sorted(va, key=lambda v: len(cands[v]))
    adj_a = {v: set() for v in va}
    adj_b = {w: set() for w in vb}
    for f in A.facets:
        for v in f:
            adj_a[v].update(u for u in f if u != v)
    for f in B.facets:
        for w in f:
            adj_b[w].update(u for u in f if u != w)
    vmap: dict = {}
    used: set = set()

    def rec(k: int):
        if k == len(order):
            mapped = {tuple(sorted(vmap[x] for x in f)) for f in A.facets}
            if mapped != B.facets:
                return
            factor = _orientation_factor(A, B, vmap)
            if factor is None:
                return
            if orientation is not None and (factor > 0) != orientation:
                return
            yield Isomorphism(dict(vmap), factor > 0)
            return
        v = order[k]
        for w in cands[v]:
            if w in used:
                continue
            if any(u in vmap and vmap[u] not in adj_b[w] for u in adj_a[v]):
                continue
            if any(u not in adj_a[v] and wu in adj_b[w]
                   for u, wu in vmap.items()):
                continue
            vmap[v] = w
            used.add(w)
            yield from rec(k + 1)
            del vmap[v]
            used.discard(w)

    yield from rec(0)
