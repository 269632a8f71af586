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

    def apply_simplex(self, s: Simplex) -> Simplex:
        return tuple(sorted(self.vertex_map[v] for v in s))

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
    """Breadth-first code of the map rooted at the directed edge (u, w).

    With ``best`` given, the traversal aborts (returning (None, None)) as
    soon as the code-in-progress exceeds it lexicographically; all root
    codes of one map have equal length, so positions compare directly.
    """
    label = {u: 0}
    order = [u]
    ref = {u: w}
    code = []
    comparing = best is not None
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
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
        for x in vals:
            if comparing:
                b = best[len(code)]
                if x > b:
                    return None, None
                if x < b:
                    comparing = False
            code.append(x)
    return tuple(code), label


def _min_code(rot: dict):
    """Lexicographic minimum over rooted codes; only minimum-degree roots
    can achieve it since a code begins with the root's degree."""
    min_deg = min(len(r) for r in rot.values())
    best = None
    labelings = []
    for u in sorted(rot):
        if len(rot[u]) != min_deg:
            continue
        for w in sorted(rot[u]):
            code, label = _code_from_root(rot, u, w, best)
            if code is None:
                continue
            if best is None or code < best:
                best = code
                labelings = [label]
            elif code == best:
                labelings.append(label)
    return best, labelings


class SphereData:
    """Cached canonical data of one oriented 2-sphere."""

    __slots__ = ("code", "labelings", "mirror_code", "mirror_labelings", "rot")

    def __init__(self, L: OrientedComplex):
        self.rot = rotation_system(L)
        if not SimplicialComplex(L.facets).is_connected():
            raise NotA2Sphere("not connected")
        if L.complex.euler_characteristic() != 2:
            raise NotA2Sphere("Euler characteristic != 2")
        self.code, self.labelings = _min_code(self.rot)
        self.mirror_code, self.mirror_labelings = _min_code(_mirror_rotation(self.rot))

    def mirrored(self) -> "SphereData":
        """The data of the reversed sphere, without a new search: its
        rotation system is the mirror rotation, so ``_min_code`` would
        return this sphere's mirror code and labelings, and vice versa."""
        out = SphereData.__new__(SphereData)
        out.rot = _mirror_rotation(self.rot)
        out.code, out.labelings = self.mirror_code, self.mirror_labelings
        out.mirror_code, out.mirror_labelings = self.code, self.labelings
        return out


_SPHERE_CACHE: dict = {}


def sphere_data(L: OrientedComplex) -> SphereData:
    data = _SPHERE_CACHE.get(L)
    if data is None:
        rev = _SPHERE_CACHE.get(L.reverse())
        data = SphereData(L) if rev is None else rev.mirrored()
        _SPHERE_CACHE[L] = data
    return data


def code_bytes(L: OrientedComplex) -> bytes:
    return bytes(sphere_data(L).code)


def mirror_code_bytes(L: OrientedComplex) -> bytes:
    return bytes(sphere_data(L).mirror_code)


def canonical_orbit(L: OrientedComplex, s: Simplex) -> tuple:
    """Aut(L)-orbit of a simplex, written in canonical labels.

    The minimum over all code-minimising labelings of the relabeled sorted
    tuple; equal across any orientation-preserving isomorphism.
    """
    data = sphere_data(L)
    return min(tuple(sorted(lab[v] for v in s)) for lab in data.labelings)


def mirror_orbit(L: OrientedComplex, s: Simplex) -> tuple:
    """Orbit descriptor of a simplex on the orientation-reversed sphere."""
    data = sphere_data(L)
    return min(tuple(sorted(lab[v] for v in s)) for lab in data.mirror_labelings)


def automorphisms_2sphere(L: OrientedComplex):
    """All orientation-preserving automorphisms, plus orientation-reversing
    self-maps when the sphere is symmetric."""
    data = sphere_data(L)
    base = data.labelings[0]
    inv_by_label = [{lab[v]: v for v in lab} for lab in data.labelings]
    autos = [Isomorphism({v: inv[base[v]] for v in base}, True)
             for inv in inv_by_label]
    reversing = []
    if data.code == data.mirror_code:
        for lab in data.mirror_labelings:
            inv = {lab[v]: v for v in lab}
            reversing.append(Isomorphism({v: inv[base[v]] for v in base}, False))
    return autos, reversing


def is_symmetric_2sphere(L: OrientedComplex) -> bool:
    data = sphere_data(L)
    return data.code == data.mirror_code


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
    if code_bytes(L) != bytes(code):
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


def anti_automorphism_exists(L: OrientedComplex) -> bool:
    """Whether L admits an orientation-reversing self-isomorphism."""
    if L.dim == 2:
        return is_symmetric_2sphere(L)
    return iso_generic(L, L.reverse(), orientation=True) is not None
