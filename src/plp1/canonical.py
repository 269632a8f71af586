"""Canonical codes and isomorphism tests for oriented spheres.

Oriented 2-spheres get a fast canonical code via rotation-system traversal:
the orientation turns the triangulation into a combinatorial map, a rooted
breadth-first code is computed from every directed edge, and the
lexicographic minimum is the canonical code.  Two oriented 2-spheres are
isomorphic iff their codes agree, and anti-isomorphic iff the code of one
equals the mirror code (reversed rotations) of the other.  Higher spheres
only ever need a generic backtracking isomorphism search.
"""
from __future__ import annotations

from typing import Optional

from .complexes import (ComplexError, OrientedComplex, Simplex,
                        SimplicialComplex, sort_parity)


class NotA2Sphere(ComplexError):
    pass


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


def rotation_system(L: OrientedComplex) -> dict:
    """rot[v][a] = b whenever (v, a, b) is a positively oriented facet.

    Raises NotA2Sphere unless every vertex link closes into a single cycle.
    """
    if L.dim != 2:
        raise NotA2Sphere(f"dimension {L.dim}")
    rot: dict = {v: {} for v in L.vertices}
    for f, sign in L.signs.items():
        x, y, z = f
        triples = ((x, y, z), (y, z, x), (z, x, y)) if sign > 0 else \
                  ((x, z, y), (z, y, x), (y, x, z))
        for v, a, b in triples:
            if a in rot[v]:
                raise NotA2Sphere(f"edge ({v},{a}) lies in too many facets")
            rot[v][a] = b
    for v, r in rot.items():
        seen = 1
        start = next(iter(r))
        a = r[start]
        while a != start:
            if a not in r:
                raise NotA2Sphere(f"open link at vertex {v}")
            a = r[a]
            seen += 1
        if seen != len(r):
            raise NotA2Sphere(f"link of {v} is not a single cycle")
    return rot


def _mirror_rotation(rot: dict) -> dict:
    return {v: {b: a for a, b in r.items()} for v, r in rot.items()}


def _code_from_root(rot: dict, u, w, best=None):
    """Breadth-first code of the map rooted at the directed edge (u, w), as
    one block per vertex in visiting order: its degree, then its
    neighbours' labels in rotation order.

    With ``best`` given, the traversal aborts (returning (None, None)) as
    soon as a block exceeds the block of ``best`` at its position.  A block
    opens with its length, so comparing block by block is the lexicographic
    order of the flat codes; a connected map has one block per vertex from
    every root.
    """
    label = {u: 0}
    order = [u]
    ref = {u: w}
    blocks = []
    comparing = best is not None
    for v in order:
        r = rot[v]
        start = ref[v]
        vals = [len(r)]
        a = start
        while True:
            if a not in label:
                label[a] = len(order)
                order.append(a)
                ref[a] = v
            vals.append(label[a])
            a = r[a]
            if a == start:
                break
        block = tuple(vals)
        if comparing:
            b = best[len(blocks)]
            if block > b:
                return None, None
            comparing = block == b
        blocks.append(block)
    return blocks, label


def _min_code(rot: dict):
    """Lexicographic minimum over rooted codes, as bytes, with every
    labeling that achieves it.  A code rooted at (u, w)
    opens with the block (deg u, 1, ..., deg u) and then a block opening
    with deg w, so only roots of least deg u and, among those, of least
    deg w can achieve it.  Raises NotA2Sphere when the first traversal
    misses a vertex."""
    deg = {v: len(r) for v, r in rot.items()}
    min_deg = min(deg.values())
    roots = [(u, w) for u in sorted(rot) if deg[u] == min_deg
             for w in sorted(rot[u])]
    second = min(deg[w] for _, w in roots)
    best = None
    labelings = []
    for u, w in roots:
        if deg[w] != second:
            continue
        blocks, label = _code_from_root(rot, u, w, best)
        if blocks is None:
            continue
        if best is None:
            if len(label) != len(rot):
                raise NotA2Sphere("not connected")
            best, labelings = blocks, [label]
        elif blocks < best:
            best, labelings = blocks, [label]
        elif blocks == best:
            labelings.append(label)
    return bytes(x for block in best for x in block), labelings


def _relabel(lab: dict, s: Simplex) -> tuple:
    """A simplex in the labels of one code-minimising labeling, sorted."""
    return tuple(sorted(lab[v] for v in s))


class SphereData:
    """Canonical data of one oriented 2-sphere: its code and mirror code as
    bytes, the labelings achieving each, and its rotation system.  The one
    interface to a sphere's combinatorial type; ``sphere_data`` caches it."""

    __slots__ = ("code", "labelings", "mirror_code", "mirror_labelings", "rot")

    def __init__(self, L: OrientedComplex):
        # rotation_system has checked that every vertex link is one cycle,
        # so each edge lies in two facets and V - E + F is exact with
        # E = (sum of degrees) / 2; _min_code checks connectivity.
        self.rot = rotation_system(L)
        self.code, self.labelings = _min_code(self.rot)
        edges = sum(len(r) for r in self.rot.values()) // 2
        if len(self.rot) - edges + len(L.facets) != 2:
            raise NotA2Sphere("Euler characteristic != 2")
        self.mirror_code, self.mirror_labelings = _min_code(_mirror_rotation(self.rot))

    def orbit(self, s: Simplex, mirror: bool = False) -> tuple:
        """Aut-orbit of a simplex, written in canonical labels.

        The minimum over all code-minimising labelings of the relabeled
        sorted tuple; equal across any orientation-preserving isomorphism.
        With ``mirror``, the orbit on the orientation-reversed sphere.
        """
        labs = self.mirror_labelings if mirror else self.labelings
        return min(_relabel(lab, s) for lab in labs)

    def anchor_orbit(self, simplices, unordered: bool = False) -> tuple:
        """Aut-orbit of a tuple of simplices, written in canonical labels.

        One joint minimum over all code-minimising labelings of the whole
        tuple, each simplex relabeled as in ``orbit``; with ``unordered``
        the relabeled simplices are sorted first.  Two tuples get equal
        orbits iff an orientation-preserving automorphism maps one onto the
        other (onto a reordering of it, when unordered).  A tuple of
        per-simplex orbits would not do: every facet of the octahedron has
        the same orbit, but not every pair of facets.
        """
        def image(lab):
            parts = [_relabel(lab, s) for s in simplices]
            return tuple(sorted(parts) if unordered else parts)
        return min(map(image, self.labelings))


_SPHERE_CACHE: dict = {}


def sphere_data(L: OrientedComplex) -> SphereData:
    data = _SPHERE_CACHE.get(L)
    if data is None:
        data = _SPHERE_CACHE[L] = SphereData(L)
    return data


def complex_from_code(code: bytes) -> OrientedComplex:
    """Rebuild an oriented 2-sphere (on labels 0..V-1) from its code."""
    seq = list(code)
    rot_list: dict = {}
    order = [0]
    next_label = 1
    pos = 0
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        deg = seq[pos]
        pos += 1
        nbrs = []
        for _ in range(deg):
            a = seq[pos]
            pos += 1
            if a == next_label:
                order.append(a)
                next_label += 1
            nbrs.append(a)
        rot_list[v] = nbrs
    if pos != len(seq):
        raise ComplexError("trailing data in canonical code")
    signs: dict = {}
    for v, nbrs in rot_list.items():
        for k, a in enumerate(nbrs):
            b = nbrs[(k + 1) % len(nbrs)]
            f = tuple(sorted((v, a, b)))
            sign = sort_parity((v, a, b))
            if signs.setdefault(f, sign) != sign:
                raise ComplexError("inconsistent rotations in code")
    L = OrientedComplex(SimplicialComplex(signs), signs)
    if sphere_data(L).code != bytes(code):
        raise ComplexError("code round-trip failed")
    return L


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
    if A.dim != B.dim or len(A.facets) != len(B.facets):
        return None
    va, vb = A.vertices, B.vertices
    if len(va) != len(vb):
        return None
    inv_a, inv_b = _vertex_invariant(A), _vertex_invariant(B)
    if sorted(inv_a.values()) != sorted(inv_b.values()):
        return None
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

    return _iso_search(order, cands, adj_a, adj_b, A, B, orientation)


def _iso_search(order, cands, adj_a, adj_b, A, B, orientation):
    vmap: dict = {}
    used: set = set()
    facets_b = B.facets
    result: list = []

    def rec(k: int) -> bool:
        if k == len(order):
            mapped = {tuple(sorted(vmap[x] for x in f)) for f in A.facets}
            if mapped != facets_b:
                return False
            factor = _orientation_factor(A, B, vmap)
            if factor is None:
                return False
            if orientation is not None and (factor > 0) != orientation:
                return False
            result.append(Isomorphism(dict(vmap), factor > 0))
            return True
        v = order[k]
        for w in cands[v]:
            if w in used:
                continue
            good = True
            for u in adj_a[v]:
                if u in vmap and vmap[u] not in adj_b[w]:
                    good = False
                    break
            if good:
                for u, wu in vmap.items():
                    if u not in adj_a[v] and wu in adj_b[w]:
                        good = False
                        break
            if not good:
                continue
            vmap[v] = w
            used.add(w)
            if rec(k + 1):
                return True
            del vmap[v]
            used.discard(w)
        return False

    rec(0)
    return result[0] if result else None

