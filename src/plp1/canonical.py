"""Canonical codes of oriented 2-spheres.

Oriented 2-spheres get a fast canonical code via rotation-system traversal:
the orientation turns the triangulation into a combinatorial map, a rooted
breadth-first code is computed from every directed edge, and the
lexicographic minimum is the canonical code.  Two oriented 2-spheres are
isomorphic iff their codes agree, and anti-isomorphic iff the code of one
equals the mirror code (reversed rotations) of the other.

The roots achieving the minimum are exactly the orientation-preserving
automorphisms (Aut+), so all canonical data but one labeling depends on the
code alone.  It is kept in one record per code, the sphere's class: Aut+ as
permutations of the canonical labels, the mirror class with one map onto its
labels, the orbits met so far and the move table: what a bistellar move
makes of a sphere depends only on the class and the Aut+-orbit of the
move's simplex, so the sphere a move makes is canonised once per class and
orbit, and later ones are labelled from the record (``SphereData.after``).
A sphere of a known class is canonised by its first code-minimising root,
also when it is labelled from a record.  A sphere that is its own mirror (code
equal to mirror code) also has orientation-reversing automorphisms (Aut-):
each one is an element of Aut+ composed with the map onto the mirror
class's labels.  ``SphereData.automorphisms`` gives both sets, Aut±, as
vertex maps of the sphere.

Codes are bytes, so a sphere has at most 256 vertices; a larger one raises
SphereTooLarge.
"""
from __future__ import annotations

from itertools import chain

from .complexes import ComplexError, OrientedComplex, Simplex, sort_parity


class NotA2Sphere(ComplexError):
    pass


class SphereTooLarge(ComplexError):
    """A 2-sphere with more vertices than a canonical code can hold."""


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


class _SphereClass:
    """The canonical data of one code: Aut+ as permutations ``p`` of the
    canonical labels (``p[c]`` is the image of label c), the mirror class,
    ``to_mirror[c]``, the mirror class's label of c on the reversed sphere,
    the orbits of canonical simplices met so far, and the move table:
    ``moves[orbit]`` is (position, to_moved, moved class) for the first
    move met whose simplex lies in the orbit, ``position`` that simplex in
    canonical labels and ``to_moved[c]`` the moved sphere's label of c
    (None for a removed vertex), followed by that of a created vertex."""

    __slots__ = ("code", "auts", "mirror", "to_mirror", "orbits", "moves")

    def __init__(self, code: bytes, auts: list):
        self.code = code
        self.auts = auts
        self.mirror = self.to_mirror = None
        self.orbits: dict = {}
        self.moves: dict = {}

    def orbit(self, c: tuple) -> tuple:
        """The least image of the sorted label tuple c under Aut+."""
        o = self.orbits.get(c)
        if o is None:
            o = self.orbits[c] = min(tuple(sorted([p[x] for x in c]))
                                     for p in self.auts)
        return o


# Class records by code.  A record holds only what its code determines;
# which sphere first met the code fixes no more than which of the
# code-minimising labelings of the reversed sphere ``to_mirror`` reads, and
# every orbit is a minimum over all of them.
_CLASSES: dict = {}


def _min_code(rot: dict):
    """Lexicographic minimum over rooted codes, as bytes, with every
    labeling that achieves it, or with the first one when the code is a
    known class's.  A code rooted at (u, w) opens with the block
    (deg u, 1, ..., deg u) and then a block opening with deg w, so only
    roots of least deg u and, among those, of least deg w can achieve it.
    A rooted code fixes the map up to orientation-preserving isomorphism,
    so a complete traversal giving a known class's code has found the
    minimum.  Raises NotA2Sphere when the first traversal misses a
    vertex."""
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
        if blocks == best:
            labelings.append(label)
            continue
        if best is None and len(label) != len(rot):
            raise NotA2Sphere("not connected")
        try:
            code = bytes(chain.from_iterable(blocks))
        except ValueError:
            raise SphereTooLarge(f"{len(rot)} vertices; a canonical code "
                                 "holds at most 256") from None
        if code in _CLASSES:
            return code, [label]
        best, labelings = blocks, [label]
    return code, labelings


def _new_class(code: bytes, labelings: list) -> _SphereClass:
    """Record a class from all code-minimising labelings of one sphere."""
    inv = {c: v for v, c in labelings[0].items()}
    verts = [inv[c] for c in range(len(inv))]
    cls = _CLASSES[code] = _SphereClass(
        code, [tuple([lab[v] for v in verts]) for lab in labelings])
    return cls


def _canonise(rot: dict):
    """(one code-minimising labeling, class record) of a connected map;
    a new class is recorded together with its mirror class."""
    code, labelings = _min_code(rot)
    lab = labelings[0]
    cls = _CLASSES.get(code)
    if cls is None:
        cls = _new_class(code, labelings)
        mcode, mlabelings = _min_code(_mirror_rotation(rot))
        mcls = _CLASSES.get(mcode) or _new_class(mcode, mlabelings)
        mlab = mlabelings[0]
        to_mirror = [0] * len(lab)
        for v, c in lab.items():
            to_mirror[c] = mlab[v]
        cls.mirror, cls.to_mirror = mcls, tuple(to_mirror)
        if mcls is not cls:
            back = [0] * len(lab)
            for c, m in enumerate(to_mirror):
                back[m] = c
            mcls.mirror, mcls.to_mirror = cls, tuple(back)
    return lab, cls


def _relabel(lab, s: Simplex) -> tuple:
    """A simplex in the labels of a labeling, sorted."""
    return tuple(sorted([lab[v] for v in s]))


class SphereData:
    """Canonical data of one oriented 2-sphere: its rotation system
    (``rot``), one code-minimising labeling (``label``, vertex to canonical
    label) and its class record (``cls``), whose code and mirror code it
    copies.  The one interface to a sphere's combinatorial type;
    ``sphere_data`` caches it."""

    __slots__ = ("code", "mirror_code", "label", "cls", "_sphere", "_rot")

    def __init__(self, L: OrientedComplex):
        # rotation_system has checked that every vertex link is one cycle,
        # so each edge lies in two facets and V - E + F is exact with
        # E = (sum of degrees) / 2; _min_code checks connectivity.
        self._sphere, self._rot = L, rotation_system(L)
        edges = sum(len(r) for r in self._rot.values()) // 2
        if len(self._rot) - edges + len(L.facets) != 2:
            raise NotA2Sphere("Euler characteristic != 2")
        self.label, self.cls = _canonise(self._rot)
        self.code, self.mirror_code = self.cls.code, self.cls.mirror.code

    @property
    def rot(self) -> dict:
        """rot[v][a] = b whenever (v, a, b) is a positively oriented facet;
        built, and checked, when first read."""
        if self._rot is None:
            self._rot = rotation_system(self._sphere)
        return self._rot

    def after(self, m, L2: OrientedComplex) -> "SphereData":
        """The cached data of L2, the sphere ``apply_move`` makes of this
        one by the move m.  A sphere not cached yet is canonised, and the
        move recorded, when the class's move table lacks m's orbit.
        Otherwise the automorphism that carries m onto the recorded move
        and the recorded labels give a code-minimising labeling of L2,
        checked to be a bijection onto the moved class's labels with its
        facet count (NotA2Sphere otherwise), and the first root among its
        automorphic images is taken, as a cold canonisation takes it."""
        data = _SPHERE_CACHE.get(L2)
        if data is not None:
            return data
        cls, lab = self.cls, self.label
        c = _relabel(lab, m.delta1)
        key = cls.orbit(c)
        entry = cls.moves.get(key)
        if entry is None:
            data = _SPHERE_CACHE[L2] = SphereData(L2)
            to_moved = [data.label.get(v) for v in sorted(lab, key=lab.get)]
            if len(m.delta2) == 1:
                to_moved.append(data.label[m.delta2[0]])
            cls.moves[key] = (c, tuple(to_moved), data.cls)
            return data
        position, to_moved, moved = entry
        # an automorphism that carries m onto the recorded move
        sigma = next(p for p in cls.auts
                     if tuple(sorted([p[x] for x in c])) == position)
        lab2 = {v: to_moved[sigma[x]] for v, x in lab.items()}
        if len(m.delta1) == 1:
            del lab2[m.delta1[0]]
        elif len(m.delta2) == 1:
            lab2[m.delta2[0]] = to_moved[-1]
        n = len(moved.auts[0])
        if (len(lab2) != n or len(L2.facets) != 2 * n - 4
                or lab2.keys() != {v for f in L2.facets for v in f}):
            raise NotA2Sphere(f"{L2} is not the sphere the move {m} makes")
        if len(moved.auts) > 1:
            # the first root in sorted order among the class's labelings
            verts = sorted(lab2, key=lab2.get)
            q = min(moved.auts,
                    key=lambda q: (verts[q.index(0)], verts[q.index(1)]))
            lab2 = {v: q[y] for v, y in lab2.items()}
        data = _SPHERE_CACHE[L2] = SphereData.__new__(SphereData)
        data._sphere, data._rot, data.label, data.cls = L2, None, lab2, moved
        data.code, data.mirror_code = moved.code, moved.mirror.code
        return data

    def orbit(self, s: Simplex, mirror: bool = False) -> tuple:
        """Aut-orbit of a simplex, written in canonical labels.

        The minimum over all code-minimising labelings of the relabeled
        sorted tuple; equal across any orientation-preserving isomorphism.
        With ``mirror``, the orbit on the orientation-reversed sphere.
        """
        c = _relabel(self.label, s)
        cls = self.cls
        if mirror:
            c = _relabel(cls.to_mirror, c)
            cls = cls.mirror
        return cls.orbit(c)

    def automorphisms(self) -> tuple:
        """(Aut+, Aut-): the orientation-preserving and the
        orientation-reversing automorphisms of the sphere, as lists of
        vertex maps (dicts), the identity among the first.  Aut- is empty
        unless the sphere is its own mirror; then its maps are those of
        Aut+ composed with ``to_mirror``, which maps the sphere's labels
        onto those of its reverse."""
        lab, cls = self.label, self.cls
        verts = [None] * len(lab)
        for v, c in lab.items():
            verts[c] = v
        plus = [{v: verts[p[c]] for v, c in lab.items()} for p in cls.auts]
        if cls.mirror is not cls:
            return plus, []
        t = cls.to_mirror
        return plus, [{v: verts[p[t[c]]] for v, c in lab.items()}
                      for p in cls.auts]


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
        if pos >= len(seq) or pos + seq[pos] >= len(seq):
            raise ComplexError("truncated canonical code")
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
    L = OrientedComplex(signs)
    if sphere_data(L).code != bytes(code):
        raise ComplexError("code round-trip failed")
    return L
