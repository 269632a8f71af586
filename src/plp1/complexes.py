"""Facet-based simplicial complexes with orientations.

A complex is stored as its set of facets (maximal simplices); faces are
derived on demand.  A simplex is a strictly increasing tuple of integer
vertex labels.  Orientations are stored as a sign per facet: the sign is
the parity of the facet's sorted vertex order relative to the chosen
global orientation, so reversing an orientation is a constant-time
operation and induced orientations reduce to parity bookkeeping.

``OrientedComplex`` is the one complex type: it is its sign map, and its
facets are the keys of the map.  Unoriented facet rows are only input to
``orient``, which checks them as the constructor does (non-empty, pure)
and rejects repeated facets.  ``extend_orientation`` alone decides closed,
connected and oriented; ``link_signs`` alone holds the link rule, which
``oriented_links`` reads whole links with and ``moves.induced_vertex_moves``
checks the links it carries across a move against.
"""
from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Mapping

Vertex = int
Simplex = tuple


class ComplexError(Exception):
    pass


class NotPure(ComplexError):
    pass


class DuplicateFacet(ComplexError):
    pass


class RidgeDegreeViolation(ComplexError):
    pass


class NonOrientable(ComplexError):
    pass


class SimplexNotInComplex(ComplexError):
    pass


class FacetFormatError(ComplexError):
    pass


def simplex(vertices: Iterable[int]) -> Simplex:
    """Sorted vertex tuple; rejects repeated labels."""
    s = tuple(sorted(vertices))
    for a, b in zip(s, s[1:]):
        if a == b:
            raise ComplexError(f"repeated vertex in simplex {vertices!r}")
    return s


def sort_parity(seq) -> int:
    """Sign of the permutation sorting ``seq`` (no repeats)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _pure_dim(facets) -> int:
    """Dimension of a facet collection; the one check that it is non-empty
    and pure."""
    dims = {len(f) - 1 for f in facets}
    if not dims:
        raise ComplexError("empty facet list")
    if len(dims) != 1:
        raise NotPure(f"facet dimensions {sorted(dims)}")
    return dims.pop()


def _facet_rows(rows: Iterable[Iterable[int]]) -> list:
    """The facets of vertex-label rows, in row order; rejects repeated
    labels, repeated facets and a collection that is empty or not pure."""
    facets = [simplex(r) for r in rows]
    seen = set()
    for f in facets:
        if f in seen:
            raise DuplicateFacet(f"facet {f} repeated")
        seen.add(f)
    _pure_dim(facets)
    return facets


class OrientedComplex:
    """Pure complex given by its facet-sign map; the facets are the keys of
    the map.  Immutable and hashable; pickles as its sign map."""

    __slots__ = ("signs", "facets", "dim", "_hash")

    def __init__(self, signs: Mapping[Simplex, int]):
        signs = dict(signs)
        object.__setattr__(self, "dim", _pure_dim(signs))
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "facets", signs.keys())
        object.__setattr__(self, "_hash", hash(frozenset(signs.items())))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.signs,)

    def __eq__(self, other):
        # the keys of the sign map are the facets, so equal signs mean an
        # equal complex
        return isinstance(other, OrientedComplex) and self.signs == other.signs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, facets={len(self.facets)})"

    @property
    def vertices(self) -> tuple:
        return tuple(sorted({v for f in self.facets for v in f}))

    def faces(self, d: int) -> frozenset:
        """All d-faces, derived from the facets."""
        out = set()
        for f in self.facets:
            out.update(itertools.combinations(f, d + 1))
        return frozenset(out)

    def has_simplex(self, s: Simplex) -> bool:
        return any(set(s) <= set(f) for f in self.facets)

    def reverse(self) -> "OrientedComplex":
        """The same triangulation with the opposite orientation."""
        return OrientedComplex({f: -s for f, s in self.signs.items()})


def _ridge_map(facets):
    """Ridge -> [(facet, index of the vertex the facet adds)]; the ridges of
    each facet come from the one without its last vertex on, the order in
    which ``extend_orientation`` names an open ridge."""
    out: dict = {}
    for f in facets:
        for i in reversed(range(len(f))):
            r = f[:i] + f[i + 1:]
            out.setdefault(r, []).append((f, i))
    return out


def extend_orientation(facets, seed_signs: Mapping[Simplex, int]) -> dict:
    """Propagate the sign of the first seed across ridges; exact parity
    rule: adjacent facets F, G with F\\R at index i, G\\R at index j satisfy
    sign(G) = -sign(F) * (-1)**(i+j).  Every other seed must carry the sign
    the propagation reaches it with.  Raises at the first ridge, in facet
    order, not in two facets, at the ridge where a sign conflicts, and
    unless the first seed reaches every facet; the seeds keep their order
    at the head of the result."""
    ridge_map = _ridge_map(facets)
    for r, cofaces in ridge_map.items():
        if len(cofaces) != 2:
            raise RidgeDegreeViolation(f"ridge {r} lies in {len(cofaces)} facets")
    first = next(iter(seed_signs))
    signs = {first: seed_signs[first]}
    queue = deque(signs)
    while queue:
        f = queue.popleft()
        sf = signs[f]
        for i in range(len(f)):
            r = f[:i] + f[i + 1:]
            for g, j in ridge_map[r]:
                if g == f:
                    continue
                want = -sf * (-1) ** (i + j)
                old = signs.get(g)
                if old is None:
                    old = signs[g] = seed_signs.get(g, want)
                    queue.append(g)
                if old != want:
                    raise NonOrientable(f"parity conflict at ridge {r}")
    if len(signs) != len(facets):
        raise ComplexError("complex is not connected")
    return {**seed_signs, **signs}


def require_closed(L: OrientedComplex) -> None:
    """Raise unless L is closed and connected and its signs are an
    orientation."""
    extend_orientation(L.facets, L.signs)


def _orient(facets) -> OrientedComplex:
    return OrientedComplex(extend_orientation(facets, {min(facets): 1}))


def orient(rows: Iterable[Iterable[int]]) -> OrientedComplex:
    """The closed complex of the facet rows, oriented by ridge-adjacency
    traversal seeded with +1 on the lexicographically least facet."""
    return _orient(_facet_rows(rows))


def oriented_link(L: OrientedComplex, v: int) -> OrientedComplex:
    """Link of a vertex with the induced orientation."""
    return oriented_links(L, (v,))[v]


def link_signs(signs: Mapping[Simplex, int], vertices: Iterable[int]) -> dict:
    """The link rule: a sorted facet f with v at index i induces its other
    vertices, in order, with sign * (-1)**i in the link of v.  Returns the
    sign map the facets ``signs`` induce in the link of each of the
    ``vertices``."""
    links: dict = {v: {} for v in vertices}
    for f, sign in signs.items():
        for i, v in enumerate(f):
            lk = links.get(v)
            if lk is not None:
                lk[f[:i] + f[i + 1:]] = -sign if i % 2 else sign
    return links


def oriented_links(L: OrientedComplex, vertices: Iterable[int]) -> dict:
    """Links of several vertices with the induced orientation, read in one
    pass over the facets."""
    links = link_signs(L.signs, vertices)
    for v, facets in links.items():
        if not facets or () in facets:
            raise SimplexNotInComplex(f"{(v,)} has no proper link")
    return {v: OrientedComplex(signs) for v, signs in links.items()}


def boundary_simplex(n: int) -> OrientedComplex:
    """The boundary of the n-simplex on vertices 0..n, canonically oriented."""
    verts = tuple(range(n + 1))
    signs = {}
    for i in range(n + 1):
        f = verts[:i] + verts[i + 1:]
        signs[f] = (-1) ** i
    return OrientedComplex(signs)


def suspension(L: OrientedComplex) -> OrientedComplex:
    """Join with a fresh 0-sphere {a, b}, oriented so the link of a is L; a
    and b exceed every vertex of L, so each facet is one of L plus a or b."""
    m = max(L.vertices)
    a, b = m + 1, m + 2
    S = orient(f + (c,) for f in L.facets for c in (a, b))
    return S if oriented_link(S, a) == L else S.reverse()


def parse_facet_text(text: str) -> OrientedComplex:
    """Facet-list format: one facet per line, whitespace-separated integer
    labels; '#' starts a comment; optional 'dim=<n>' header; a leading
    'orient=explicit' header (the only 'orient=' value) makes in-row order
    define facet signs.  Rows without it are oriented by ``orient``."""
    explicit = False
    want_dim = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("orient="):
            if rows:
                raise FacetFormatError(f"line {lineno}: {line!r} follows facet "
                                       "rows; 'orient=' is a leading header")
            if line[7:].strip() != "explicit":
                raise FacetFormatError(f"line {lineno}: unknown orientation "
                                       f"{line!r}; the only one is 'explicit'")
            explicit = True
            continue
        try:
            if line.startswith("dim="):
                want_dim = int(line[4:])
            else:
                rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise FacetFormatError(f"line {lineno}: not integers: {line!r}") from None
    facets = _facet_rows(rows)
    dim = len(facets[0]) - 1
    if want_dim is not None and dim != want_dim:
        raise ComplexError(f"declared dim={want_dim} but facets have dim {dim}")
    if not explicit:
        return _orient(facets)
    signs = dict(zip(facets, map(sort_parity, rows)))
    return OrientedComplex(extend_orientation(facets, signs))


def load_facet_file(path) -> OrientedComplex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FacetFormatError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_facet_text(text)
