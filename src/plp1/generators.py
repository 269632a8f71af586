"""Generator cycles on 2-spheres and their exact values.

Six families of short closed move loops (two commuting subdivisions, a
subdivision commuting with an edge flip, two commuting flips, a
subdivide-flip-remove triangle, and two pentagon loops) generate the cycle
space of the graph of 2-spheres.  Each loop, classified by the local
configuration of its anchors, carries a closed-form rational value; the
solver prices arbitrary cycles by exact decomposition over these.

Each family is one function, ``build_alpha1`` … ``build_alpha6``: it
reads the sphere's rotation system (``SphereData.rot``) once, checks and
classifies its anchor there, raising AnchorConfigurationInvalid on a
configuration the table does not price, and writes the loop down as a
fixed list of moves from its anchor sphere, its flips too (``_flip``).
The one replay in ``gamma2.loop_to_chain`` applies them, each step once
per call of ``enumerate_at``, and ``moves._admit`` admits each there.
A loop's chain is label-free, so ``enumerate_at`` builds one anchor per
orbit of Aut±, the sphere's orientation-preserving and
orientation-reversing automorphisms together (``SphereData.automorphisms``),
and returns each chain with its mirror, the two columns the solver prices.

Chirality conventions (which arc of a vertex star is counted as p, which
endpoint of a shared edge is x) are fixed here once and guarded by the
relation tests in the suite: the value table is rigid under the null
relations among overlapping loops, so any inconsistent choice breaks them.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

from . import canonical
from .complexes import ComplexError, OrientedComplex, Simplex
from .gamma2 import Chain1, loop_to_chain, mirror_chain
from .moves import Move, MoveNotAdmissible, admissible_moves


class AnchorConfigurationInvalid(ComplexError):
    pass


class GeneratorSpec(NamedTuple):
    kind: str
    params: tuple

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}


# Families whose value formula is not antisymmetric in the parameters are
# chiral: the same combinatorial anchors on mirror-image configurations
# carry opposite values.  Classification therefore records an orientation
# bit (the rotation order of the configuration's triangles), and these
# polarities decide which bit value gets the table value.  They are pinned
# by the null-relation suite: the table is rigid under the exact linear
# relations among overlapping generator loops, so only one polarity
# assignment (up to the global mirror) survives it.
CHIRALITY = {
    "S1_0": 1, "S1_1": 1, "S1_2": -1,
    "S2_0": 1, "S2_1": 1, "S2_2": -1,
    "S3_0": 1, "S3_1": 1, "S3_2": -1,
    "S4": 1, "S5": 1, "S6": 1,
}


class GeneratorChain(NamedTuple):
    """A solver column: a loop's chain and value, or both mirrored."""
    spec: GeneratorSpec
    mirrored: bool
    chain: Chain1
    value: Fraction

    def mirror(self) -> "GeneratorChain":
        return GeneratorChain(self.spec, not self.mirrored,
                              mirror_chain(self.chain), -self.value)


def _f3(n: int) -> Fraction:
    return Fraction(n, (n + 2) * (n + 3) * (n + 4))


def _f2(n: int) -> Fraction:
    return Fraction(1, (n + 2) * (n + 3))


def c0_of(spec: GeneratorSpec) -> Fraction:
    """Exact value of the pricing class on one generator family."""
    k, p = spec.kind, spec.params
    if k in ("S1_0", "S2_0", "S3_0"):
        return Fraction(0)
    if k in ("S1_1", "S2_1", "S3_1"):
        return Fraction(p[1] - p[0],
                        (p[0] + p[1] + 2) * (p[0] + p[1] + 3) * (p[0] + p[1] + 4))
    if k in ("S1_2", "S3_2"):
        return _f3(p[1]) - _f3(p[0])
    if k == "S2_2":
        return _f3(p[1]) + _f3(p[0])
    if k == "S4":
        return _f2(p[0]) - _f2(p[1]) + _f2(p[2]) - Fraction(1, 12)
    if k == "S5":
        return _f2(p[0]) - _f2(p[1]) - _f2(p[2]) + _f2(p[3])
    if k == "S6":
        return sum(map(_f2, p), Fraction(0)) - Fraction(1, 12)
    raise ValueError(f"unknown kind {k}")


# ---------------------------------------------------------------- anchors
#
# Anchor geometry is read off the rotation system ``rot`` of the sphere:
# rot[v][a] = b whenever (v, a, b) is a positively oriented facet, and the
# degree of v is len(rot[v]).


def _link_edge_at(rot: dict, f: Simplex, x):
    """Directed link edge (a, b) of the facet f at its vertex x."""
    a, b = (v for v in f if v != x)
    return (a, b) if rot[x][a] == b else (b, a)


def _head_of_edge(rot: dict, f: Simplex, e: Simplex):
    """Endpoint of e that the positive boundary cycle of f points at: the
    head of f's link edge at its third vertex."""
    third = [v for v in f if v not in e]
    if len(third) != 1:
        raise AnchorConfigurationInvalid(f"{e} is not an edge of {f}")
    return _link_edge_at(rot, f, third[0])[1]


def _edge_triangles(rot: dict, e: Simplex):
    """The two facets on the edge e, sorted, or None if e is no edge."""
    if len(e) != 2 or e[1] not in rot.get(e[0], ()):
        return None
    a, b = e
    return sorted(tuple(sorted((a, b, c))) for c in (rot[a][b], rot[b][a]))


def _arc_count(rot: dict, x, first: Simplex, second: Simplex) -> int:
    """Number of triangles at x strictly between ``first`` and ``second``,
    walking the star of x in the positive rotation direction."""
    r = rot[x]
    a, _ = _link_edge_at(rot, first, x)
    target, _ = _link_edge_at(rot, second, x)
    count = 0
    cur = r[a]
    while cur != target:
        count += 1
        cur = r[cur]
        if count > len(r):
            raise AnchorConfigurationInvalid("rotation walk did not close")
    return count


def _consecutive(rot: dict, w, T, S) -> bool:
    """Whether triangle S follows triangle T in the positive rotation at w."""
    return _link_edge_at(rot, T, w)[1] == _link_edge_at(rot, S, w)[0]


def _triple_bit(rot: dict, w, T1, T2, T3) -> int:
    """+1 / -1 as the three triangles at w read forward / backward in the
    positive rotation; they must be consecutive."""
    if _consecutive(rot, w, T1, T2) and _consecutive(rot, w, T2, T3):
        return 1
    if _consecutive(rot, w, T3, T2) and _consecutive(rot, w, T2, T1):
        return -1
    raise AnchorConfigurationInvalid("triangles are not consecutive")


def _fan_bit(rot: dict, x, path) -> int:
    """+1 / -1 as the link path at x runs with / against the rotation."""
    r = rot[x]
    if all(r.get(a) == b for a, b in zip(path, path[1:])):
        return 1
    rev = path[::-1]
    if all(r.get(a) == b for a, b in zip(rev, rev[1:])):
        return -1
    raise AnchorConfigurationInvalid("link path does not follow the rotation")


def _move(d1, d2) -> Move:
    return Move(tuple(sorted(d1)), tuple(sorted(d2)))


def _flip(rot: dict, e) -> Move:
    """The flip of the edge e = (a, b) onto the tips of its two triangles.
    It decides nothing: the replay admits it or not."""
    a, b = e
    return _move(e, (rot[a][b], rot[b][a]))


def _finish(L: OrientedComplex, moves, spec: GeneratorSpec, bit: int,
            steps: Optional[dict]) -> GeneratorChain:
    """The column of a loop written down as its moves from L.

    The replay in ``loop_to_chain`` (through the step table ``steps``) is
    the one place where the moves are applied and admitted: ``_admit``
    compares each cofactor with the one the replayed state derives, so a
    wrong or present cofactor raises MoveNotAdmissible there, and a loop
    that does not close raises LoopNotClosed."""
    return GeneratorChain(spec, False, loop_to_chain(L, moves, steps),
                          c0_of(spec) * bit * CHIRALITY[spec.kind])


# ---------------------------------------------------------------- alpha 1

def build_alpha1(L: OrientedComplex, t1, t2, steps=None) -> GeneratorChain:
    """Subdivide t1, subdivide t2, remove the first new vertex, remove the
    second: the commutator of the two subdivisions, a closed loop for any
    two distinct triangles."""
    t1, t2 = tuple(sorted(t1)), tuple(sorted(t2))
    if t1 not in L.facets or t2 not in L.facets or t1 == t2:
        raise AnchorConfigurationInvalid("need two distinct facets")
    rot = canonical.sphere_data(L).rot
    common = set(t1) & set(t2)
    if not common:
        spec = GeneratorSpec("S1_0", ())
    elif len(common) == 1:
        (x,) = common
        p = _arc_count(rot, x, t1, t2)
        spec = GeneratorSpec("S1_1", (p, len(rot[x]) - p - 2))
    else:
        x = _head_of_edge(rot, t1, tuple(sorted(common)))
        (y,) = common - {x}
        spec = GeneratorSpec("S1_2", (len(rot[x]) - 2, len(rot[y]) - 2))
    v1 = max(L.vertices) + 1
    m1, m2 = Move(t1, (v1,)), Move(t2, (v1 + 1,))
    return _finish(L, [m1, m2, m1.inverse(), m2.inverse()], spec, 1, steps)


# ---------------------------------------------------------------- alpha 2

def build_alpha2(L: OrientedComplex, t, e, steps=None) -> GeneratorChain:
    """Subdivide t, flip e, remove the new vertex, flip back: the commutator
    of the subdivision and the flip, both built on L."""
    t, e = tuple(sorted(t)), tuple(sorted(e))
    if t not in L.facets:
        raise AnchorConfigurationInvalid(f"{t} is not a facet")
    if set(e) <= set(t):
        raise AnchorConfigurationInvalid("edge lies in the subdivided triangle")
    rot = canonical.sphere_data(L).rot
    tris = _edge_triangles(rot, e)
    if tris is None:
        raise AnchorConfigurationInvalid(f"{e} is not an edge")
    # d1 is the triangle on e that meets t more
    (d1, i1), (d2, i2) = sorted(
        ((d, set(t) & set(d)) for d in tris), key=lambda p: -len(p[1]))
    bit = 1
    if not i1:
        spec = GeneratorSpec("S2_0", ())
    elif len(i1) == 1 and not i2:
        (x,) = i1
        p = _arc_count(rot, x, t, d1)
        spec = GeneratorSpec("S2_1", (p, len(rot[x]) - p - 2))
    elif len(i1) == 2 and len(i1 & set(e)) == 1 and i2 == i1 & set(e):
        # t and d1 share the edge {x, y}, and y is the one vertex of e in t
        (y,), (x,) = i2, i1 - i2
        bit = _triple_bit(rot, y, t, d1, d2)
        spec = GeneratorSpec("S2_2", (len(rot[x]) - 2, len(rot[y]) - 3))
    else:
        raise AnchorConfigurationInvalid("configuration is not a priced pattern")
    m1, m2 = Move(t, (max(L.vertices) + 1,)), _flip(rot, e)
    return _finish(L, [m1, m2, m1.inverse(), m2.inverse()], spec, bit, steps)


# ---------------------------------------------------------------- alpha 3

def build_alpha3(L: OrientedComplex, e1, e2, steps=None) -> GeneratorChain:
    """Flip e1, flip e2, flip the first new edge back, flip the second back:
    the commutator of the two flips, both built on L.  Two edges of one
    triangle are no priced pattern; flips that make the same edge fail in
    the replay."""
    e1, e2 = tuple(sorted(e1)), tuple(sorted(e2))
    rot = canonical.sphere_data(L).rot
    side1, side2 = _edge_triangles(rot, e1), _edge_triangles(rot, e2)
    if e1 == e2 or side1 is None or side2 is None:
        raise AnchorConfigurationInvalid("need two distinct edges")
    overlaps = [(d1, d2, set(d1) & set(d2)) for d1 in side1 for d2 in side2]
    nonempty = [(d1, d2, c) for d1, d2, c in overlaps if c]
    shared = [(d1, d2, c) for d1, d2, c in nonempty if len(c) == 2]
    bit = 1
    if not nonempty:
        spec = GeneratorSpec("S3_0", ())
    elif len(nonempty) == 1 and len(nonempty[0][2]) == 1:
        d1, d2, (x,) = nonempty[0]
        p = _arc_count(rot, x, d1, d2)
        spec = GeneratorSpec("S3_1", (p, len(rot[x]) - p - 2))
    elif len(shared) == 1 and not set(e1) & set(e2):
        # no triangle holds both edges, so the edge that d1 and d2 share
        # has one vertex y on e1 and one vertex x on e2; x != y as the edges
        # are disjoint
        d1, d2, c = shared[0]
        (y,), (x,) = c & set(e1), c & set(e2)
        d3 = next(f for f in side1 if f != d1)
        bit = _triple_bit(rot, y, d3, d1, d2)
        spec = GeneratorSpec("S3_2", (len(rot[x]) - 3, len(rot[y]) - 3))
    else:
        raise AnchorConfigurationInvalid("configuration is not a priced pattern")
    m1, m2 = _flip(rot, e1), _flip(rot, e2)
    return _finish(L, [m1, m2, m1.inverse(), m2.inverse()], spec, bit, steps)


# ---------------------------------------------------------------- alpha 4

def _hub_of(rot: dict, x, y, z):
    """The vertex whose link is the triangle x, y, z: the neighbour of x
    whose rotation is exactly {x, y, z}."""
    hubs = [u for u in rot.get(x, ()) if rot[u].keys() == {x, y, z}]
    if len(hubs) != 1:
        raise AnchorConfigurationInvalid(
            f"{len(hubs)} hub vertices for ({x},{y},{z})")
    return hubs[0]


def build_alpha4(L: OrientedComplex, x, y, z, steps=None) -> GeneratorChain:
    """Subdivide {u,y,z} with a new vertex v, flip {u,z} onto {x,v}, remove
    u (its link is then {x,y,v}); closes up to the relabeling u -> v."""
    rot = canonical.sphere_data(L).rot
    u = _hub_of(rot, x, y, z)
    bit = _fan_bit(rot, u, (x, y, z, x))
    spec = GeneratorSpec(
        "S4", (len(rot[x]) - 2, len(rot[y]) - 2, len(rot[z]) - 2))
    v = max(L.vertices) + 1
    moves = [_move((u, y, z), (v,)), _move((u, z), (x, v)),
             _move((u,), (x, y, v))]
    return _finish(L, moves, spec, bit, steps)


# ---------------------------------------------------------------- alpha 5

def _require_full(L: OrientedComplex, rot: dict, verts, triangles) -> None:
    """Raise unless the triangles are the maximal simplices L spans on
    verts: exactly these triples of verts are facets, and every other pair
    of verts is a non-edge (each vertex lies in one of the triangles)."""
    want = {tuple(sorted(t)) for t in triangles}
    sides = {e for t in want for e in itertools.combinations(t, 2)}
    vs = sorted(verts)
    if (any((t in L.facets) != (t in want)
            for t in itertools.combinations(vs, 3))
            or any(b in rot[a] for a, b in itertools.combinations(vs, 2)
                   if (a, b) not in sides)):
        raise AnchorConfigurationInvalid(
            f"full subcomplex on {verts} is not the required triangles")


def build_alpha5(L: OrientedComplex, x, y, z, u,
                 steps=None) -> GeneratorChain:
    """Pentagon loop: subdivide {x,z,u} with a new vertex w, flip {x,z} onto
    {y,w}, flip {w,z} onto {y,u}, remove w (its link is then {x,y,u}),
    flip {y,u} back onto {x,z}."""
    rot = canonical.sphere_data(L).rot
    _require_full(L, rot, (x, y, z, u), [(x, y, z), (x, z, u)])
    bit = _fan_bit(rot, x, (y, z, u))
    spec = GeneratorSpec("S5", (len(rot[x]) - 2, len(rot[y]) - 1,
                                len(rot[z]) - 2, len(rot[u]) - 1))
    w = max(L.vertices) + 1
    moves = [_move((x, z, u), (w,)), _move((x, z), (y, w)),
             _move((w, z), (y, u)), _move((w,), (x, y, u)),
             _move((y, u), (x, z))]
    return _finish(L, moves, spec, bit, steps)


# ---------------------------------------------------------------- alpha 6

def build_alpha6(L: OrientedComplex, x, y, z, u, v,
                 steps=None) -> GeneratorChain:
    """Pentagon of five flips around the fan of three triangles at x:
    {x,z} onto {y,u}, {x,u} onto {y,v}, {y,u} onto {z,v}, {y,v} onto {x,z},
    {z,v} onto {x,u}."""
    rot = canonical.sphere_data(L).rot
    _require_full(L, rot, (x, y, z, u, v), [(x, y, z), (x, z, u), (x, u, v)])
    bit = _fan_bit(rot, x, (y, z, u, v))
    spec = GeneratorSpec("S6", (len(rot[x]) - 3, len(rot[y]) - 1,
                                len(rot[z]) - 2, len(rot[u]) - 2,
                                len(rot[v]) - 1))
    moves = [_move((x, z), (y, u)), _move((x, u), (y, v)),
             _move((y, u), (z, v)), _move((y, v), (x, z)),
             _move((z, v), (x, u))]
    return _finish(L, moves, spec, bit, steps)


# ---------------------------------------------------------------- surveys

def _anchors(L: OrientedComplex):
    """(builder, anchor, unordered) for every anchor at L, in the order
    ``enumerate_at`` tries them.  ``unordered`` marks the pair families α1
    and α3: the swapped pair replays the reverse loop, whose chain is the
    negated one."""
    rot = canonical.sphere_data(L).rot
    facets = sorted(L.facets)
    adm = sorted(m.delta1 for m in admissible_moves(L, (2,)))
    for t1, t2 in itertools.combinations(facets, 2):
        yield build_alpha1, (t1, t2), True
    for t in facets:
        for e in adm:
            if not set(e) <= set(t):
                yield build_alpha2, (t, e), False
    for e1, e2 in itertools.combinations(adm, 2):
        yield build_alpha3, (e1, e2), True
    for u in L.vertices:
        if len(rot[u]) == 3:
            cyc = _link_cycle(rot, u)
            for roll in range(3):
                x, y, z = cyc[roll:] + cyc[:roll]
                yield build_alpha4, (x, y, z), False
                yield build_alpha4, (x, z, y), False
    for e in sorted(L.faces(1)):
        x0, z0 = e
        tips = sorted((rot[x0][z0], rot[z0][x0]))
        for x, z in ((x0, z0), (z0, x0)):
            for y, u in (tips, tips[::-1]):
                yield build_alpha5, (x, y, z, u), False
    for x in L.vertices:
        cyc = _link_cycle(rot, x)
        if len(cyc) < 4:
            continue
        for ordered in (cyc, cyc[::-1]):
            for i in range(len(ordered)):
                window = [ordered[(i + j) % len(ordered)] for j in range(4)]
                yield build_alpha6, (x, *window), False


def _image(sigma: dict, anchor: tuple) -> tuple:
    """An anchor moved by the vertex map sigma, its simplices sorted."""
    return tuple(tuple(sorted([sigma[v] for v in a])) if isinstance(a, tuple)
                 else sigma[a] for a in anchor)


def enumerate_at(L: OrientedComplex):
    """The solver's columns at L: each priced loop of every family with a
    nonzero chain, then its mirror; repeats up to sign are kept for
    ``evaluate_c0`` to drop.  Configurations the table does not price
    (AnchorConfigurationInvalid) carry no value and are skipped.

    A chain is written in canonical codes and orbits, so anchors that an
    orientation-preserving automorphism of L maps onto each other give the
    same spec, bit and chain; an orientation-reversing one maps L onto
    L.reverse(), so it gives the chain built on L.reverse(), the mirror of
    the first.  Each anchor is therefore built once per Aut± orbit: when
    an anchor is tried, all its images are marked tried.  The unordered
    pairs of α1 and α3 give the negated chain when swapped, so an
    orientation-preserving automorphism that swaps a pair makes its chain
    zero, and such a pair is not built at all; a reversing one relates the
    chain to its negated mirror and proves nothing.  With repeats dropped,
    the columns are those every anchor built in turn would give, first
    seen at the same anchors.

    All loops of one call replay through one step table (see
    ``loop_to_chain``), so each (state, move) step is applied and priced
    once per call.  The α1-α3 commutators repeat steps: a move out of L
    opens many loops, and the inverse move back into L closes many.  The
    families share no tried anchors, and the step table only caches, so
    the columns of one family are the same whatever other families build.
    """
    plus, minus = canonical.sphere_data(L).automorphisms()
    out = []
    tried = set()
    steps: dict = {}
    for builder, anchor, unordered in _anchors(L):
        if (builder, anchor) in tried:
            continue
        images = [_image(sigma, anchor) for sigma in plus]
        zero = unordered and anchor[::-1] in images
        images += [_image(sigma, anchor) for sigma in minus]
        for img in images:
            tried.add((builder, img))
            if unordered:
                tried.add((builder, img[::-1]))
        if zero:
            continue
        try:
            g = builder(L, *anchor, steps=steps)
        except (AnchorConfigurationInvalid, MoveNotAdmissible):
            continue
        if g.chain:
            out += g, g.mirror()
    return out


def _link_cycle(rot: dict, v) -> list:
    r = rot[v]
    start = min(r)
    cyc = [start]
    cur = r[start]
    while cur != start:
        cyc.append(cur)
        cur = r[cur]
    return cyc
