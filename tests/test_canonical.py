import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from plp1 import canonical as canon
from plp1 import complexes as cx
from plp1 import moves as mv
from plp1 import pontryagin as pt
from plp1.fixtures import boundary_d5, cp2_9, link_L

from conftest import (OCTAHEDRON, STACKED6, euler_characteristic, oriented,
                      relabeled, subdivided)
from isomorphism import automorphisms, iso_generic, labelings


def test_code_equal_under_relabeling():
    octa = oriented(OCTAHEDRON)
    rng = random.Random(5)
    base = canon.sphere_data(octa).code
    verts = list(octa.vertices)
    for _ in range(100):
        img = verts[:]
        rng.shuffle(img)
        perm = dict(zip(verts, img))
        assert canon.sphere_data(relabeled(octa, perm)).code == base


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(1, 7))))
def test_code_relabeling_invariance_property(img):
    L = oriented(STACKED6)
    perm = dict(zip(L.vertices, img))
    assert canon.sphere_data(relabeled(L, perm)).code == canon.sphere_data(L).code


def test_boundary_simplex_is_symmetric():
    d3 = cx.boundary_simplex(3)
    d = canon.sphere_data(d3)
    assert d.code == d.mirror_code


def test_mirror_code_is_code_of_reverse():
    """The property ``EdgeKey.mirror`` relies on: a sphere's mirror code and
    mirror orbits are the code and orbits of its reverse, on symmetric and
    on chiral spheres."""
    chiral = cx.oriented_link(cx.oriented_link(cp2_9(), 1), 3)
    for L in (cx.boundary_simplex(3), oriented(OCTAHEDRON),
              oriented(STACKED6), chiral):
        d, rev = canon.sphere_data(L), canon.sphere_data(L.reverse())
        assert d.mirror_code == rev.code and rev.mirror_code == d.code
        for k in range(3):
            for s in L.faces(k):
                assert d.orbit(s, mirror=True) == rev.orbit(s)
    d = canon.sphere_data(chiral)
    assert d.code != d.mirror_code


def test_distinct_spheres_have_distinct_codes():
    assert canon.sphere_data(oriented(OCTAHEDRON)).code != \
        canon.sphere_data(cx.boundary_simplex(3)).code
    assert canon.sphere_data(oriented(OCTAHEDRON)).code != \
        canon.sphere_data(oriented(STACKED6)).code


def test_automorphism_counts():
    """One class automorphism per code-minimising labeling: the root
    pruning of the code search must keep all of them."""
    for L, count in ((cx.boundary_simplex(3), 12), (oriented(OCTAHEDRON), 24)):
        data = canon.sphere_data(L)
        assert len(data.cls.auts) == count
        assert len(data.cls.mirror.auts) == count
    assert len(canon.sphere_data(oriented(STACKED6)).cls.auts) >= 1
    # labeling k composed with the inverse of labeling 0 is an automorphism,
    # orientation-reversing for the mirror labelings
    octa = oriented(OCTAHEDRON)
    data = canon.sphere_data(octa)
    base = data.label
    for mirror, image in ((False, octa), (True, octa.reverse())):
        for lab in labelings(data, mirror):
            inv = {lab[v]: v for v in lab}
            assert relabeled(octa, {v: inv[base[v]] for v in base}) == image


def _all_roots_labelings(data):
    """The least code over every directed edge of data.rot, and every
    labeling achieving it."""
    codes: dict = {}
    for u in data.rot:
        for w in data.rot[u]:
            blocks, label = canon._code_from_root(data.rot, u, w)
            codes.setdefault(sum(blocks, ()), []).append(label)
    least = min(codes)
    return bytes(least), codes[least]


def _same_labelings(found, reference):
    return (len(found) == len(reference)
            and all(lab in reference for lab in found))


def test_code_is_least_over_all_roots(stacked6):
    """The pruned search finds the least code over every directed edge and
    every labeling that achieves it, along a seeded random walk."""
    rng = random.Random(3)
    L = stacked6
    for _ in range(8):
        data = canon.sphere_data(L)
        code, reference = _all_roots_labelings(data)
        assert data.code == code
        assert _same_labelings(labelings(data), reference)
        L = mv.apply_move(L, rng.choice(mv.admissible_moves(L)))


def _clear_caches():
    canon._SPHERE_CACHE.clear()
    canon._CLASSES.clear()


@pytest.fixture(scope="module")
def cp2_sphere_pairs():
    """Every 2-sphere the cp2_9 pipeline meets, in the order first met,
    each with its reverse."""
    _clear_caches()
    pt.pontryagin_number(pt.Manifold4Input(cp2_9()))
    return [(L, L.reverse()) for L in canon._SPHERE_CACHE]


def _map_set(maps):
    return {tuple(sorted(sigma.items())) for sigma in maps}


def _canonical_values(L):
    """Labeling, code, mirror code, both orbits of every face, and the Aut+
    and Aut- vertex maps as sets."""
    d = canon.sphere_data(L)
    faces = [s for k in range(3) for s in sorted(L.faces(k))]
    plus, minus = d.automorphisms()
    return (d.label, d.code, d.mirror_code,
            [(d.orbit(s), d.orbit(s, mirror=True)) for s in faces],
            _map_set(plus), _map_set(minus))


@pytest.fixture(scope="module")
def cp2_move_steps(cp2_sphere_pairs):
    """(L, m, L2) for every admissible move m of both orientations of every
    23rd sphere the cp2_9 pipeline meets, L2 what the move makes of L."""
    return [(L, m, mv.apply_move(L, m)) for pair in cp2_sphere_pairs[::23]
            for L in pair for m in mv.admissible_moves(L)]


def test_results_do_not_depend_on_cache_state(cp2_sphere_pairs,
                                              cp2_move_steps):
    """Canonical data read cold (both module caches cleared before each
    sphere), warm in pipeline order, and warm in reversed order with the
    reverse first, agree; and so does the data of moved spheres reached
    through ``SphereData.after``, in step order and in reversed order, with
    that of the same spheres read cold."""
    cold = []
    for pair in cp2_sphere_pairs:
        values = []
        for L in pair:
            _clear_caches()
            values.append(_canonical_values(L))
        cold.append(values)
    _clear_caches()
    warm = [[_canonical_values(L) for L in pair] for pair in cp2_sphere_pairs]
    _clear_caches()
    backwards = [[_canonical_values(L) for L in pair[::-1]][::-1]
                 for pair in cp2_sphere_pairs[::-1]][::-1]
    assert cold == warm == backwards

    def moved(steps):
        _clear_caches()
        out = []
        for L, m, L2 in steps:
            canon.sphere_data(L).after(m, L2)
            out.append(_canonical_values(L2))
        return out

    cold = []
    for _, _, L2 in cp2_move_steps:
        _clear_caches()
        cold.append(_canonical_values(L2))
    assert moved(cp2_move_steps) == cold
    assert moved(cp2_move_steps[::-1])[::-1] == cold


def test_cached_data_equals_cold_after_pipelines():
    """After p1 of three inputs and the cycle of a fourth, in one process,
    every cached sphere's data, many of them labelled through move tables,
    equals the data built with both caches cleared, rotation system
    included."""
    _clear_caches()
    for M in (cp2_9(), subdivided(cp2_9(), 2), boundary_d5()):
        pt.pontryagin_number(pt.Manifold4Input(M))
    K = pt.Manifold4Input(subdivided(cp2_9(), 7))
    pt.assemble_p1_cycle(K, pt.verify_4manifold(K).links)
    cached = list(canon._SPHERE_CACHE.items())
    assert sum(d._rot is None for _, d in cached) > len(cached) // 4
    warm = [(_canonical_values(L), d.rot) for L, d in cached]
    cold = []
    for L, _ in cached:
        _clear_caches()
        cold.append((_canonical_values(L), canon.sphere_data(L).rot))
    assert warm == cold


def _first_root_labeling(L):
    """The labeling of the first root, in sorted order, of least code over
    every directed edge of L."""
    rot = canon.rotation_system(L)
    best = None
    for u in sorted(rot):
        for w in sorted(rot[u]):
            blocks, label = canon._code_from_root(rot, u, w)
            if best is None or blocks < best[0]:
                best = blocks, label
    return best[1]


def _subdivided_twice():
    """The octahedron with two opposite faces subdivided: two vertices of
    degree 3 that an orientation-preserving automorphism swaps."""
    L = oriented(OCTAHEDRON)
    for face in ((1, 2, 3), (4, 5, 6)):
        L = mv.apply_move(L, mv.make_move(L, face))
    return L


def test_move_table_has_one_entry_per_orbit():
    """Every admissible move of the octahedron, of it with two opposite
    faces subdivided and of STACKED6 (2-2 flips, 1-3 subdivisions with a
    fresh vertex, 3-1 removals) prices its moved sphere with the labeling
    of the sphere's first code-minimising root; the moves of one Aut+ orbit
    share one table entry, and all but the first are labelled from it."""
    shared = set()
    for L in (oriented(OCTAHEDRON), _subdivided_twice(), oriented(STACKED6)):
        _clear_caches()
        d = canon.sphere_data(L)
        orbits: dict = {}
        for m in mv.admissible_moves(L):
            hit = d.orbit(m.delta1) in d.cls.moves
            orbits.setdefault(d.orbit(m.delta1), []).append(m)
            L2 = mv.apply_move(L, m)
            got = d.after(m, L2)
            assert got is canon.sphere_data(L2)
            assert (got._rot is None) == hit
            assert got.label == _first_root_labeling(L2)
            assert got.rot == canon.rotation_system(L2)
        assert d.cls.moves.keys() == orbits.keys()
        shared |= {len(ms[0].delta1) for ms in orbits.values()
                   if len(ms) > 1}
    assert shared == {1, 2, 3}


def test_moved_sphere_that_does_not_match_the_table_is_rejected():
    """With the subdivision and flip orbits of the octahedron in its table,
    a sphere of the wrong vertex count, vertex set or facet count for the
    move raises NotA2Sphere and is not cached."""
    octa = oriented(OCTAHEDRON)
    _clear_caches()
    d = canon.sphere_data(octa)
    moves = mv.admissible_moves(octa)
    for size in (2, 3):
        first, m = [m for m in moves if len(m.delta1) == size][:2]
        d.after(first, mv.apply_move(octa, first))
        L2 = mv.apply_move(octa, m)
        extra = next(f for f in itertools.combinations(L2.vertices, 3)
                     if f not in L2.signs)
        shift = {v: v + 10 for v in L2.vertices}
        wrong = [relabeled(L2, shift), cx.OrientedComplex({**L2.signs,
                                                           extra: 1})]
        if size == 3:
            wrong.append(octa.reverse())
        for bad in wrong:
            with pytest.raises(canon.NotA2Sphere):
                d.after(m, bad)
            assert bad not in canon._SPHERE_CACHE


def test_labelings_are_all_minimising_roots_cold_and_warm(cp2_sphere_pairs):
    """The labelings a sphere's view and class give, and those of its
    reverse through the mirror map, are the all-roots reference, whether
    the class is new (cold) or known (warm: only the sphere cache cleared,
    so the first minimising root is taken)."""
    spheres = [L for pair in cp2_sphere_pairs[::7] for L in pair]

    def check(L):
        d = canon.sphere_data(L)
        code, reference = _all_roots_labelings(d)
        assert d.code == code
        assert _same_labelings(labelings(d), reference)
        _, reference = _all_roots_labelings(canon.sphere_data(L.reverse()))
        assert _same_labelings(labelings(d, mirror=True), reference)

    for L in spheres:
        _clear_caches()
        check(L)
    for L in spheres:
        canon.sphere_data(L)
    for L in spheres:
        canon._SPHERE_CACHE.clear()
        check(L)


def test_automorphisms_match_backtracking_search(cp2_sphere_pairs):
    """The Aut+ and Aut- vertex maps read off the class record are those a
    backtracking search finds, on both orientations of every sphere the
    cp2_9 pipeline meets (chiral and amphichiral alike) and on symmetric
    spheres; Aut- is empty exactly on chiral spheres."""
    spheres = [L for pair in cp2_sphere_pairs[::5] for L in pair]
    spheres += [cx.boundary_simplex(3), oriented(OCTAHEDRON),
                oriented(STACKED6)]
    kinds = set()
    for L in spheres:
        d = canon.sphere_data(L)
        plus, minus = d.automorphisms()
        isos = automorphisms(L)
        assert _map_set(plus) == _map_set(
            i.vertex_map for i in isos if i.orientation_preserving)
        assert _map_set(minus) == _map_set(
            i.vertex_map for i in isos if not i.orientation_preserving)
        assert len(_map_set(plus)) == len(plus)
        assert len(_map_set(minus)) == len(minus)
        assert bool(minus) == (d.code == d.mirror_code)
        kinds.add(bool(minus))
    assert kinds == {True, False}


def _bipyramid(n: int):
    """The bipyramid over an n-gon: n + 2 vertices, apexes of degree n."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    return oriented([(a, b, n) for a, b in ring] +
                    [(a, b, n + 1) for a, b in ring])


def test_too_large_sphere_names_the_limit():
    """Codes are bytes: a sphere of 256 vertices is canonised, one of 257
    or more (here with apexes of degree 255 and 256) raises SphereTooLarge,
    a ComplexError, naming the limit."""
    d = canon.sphere_data(_bipyramid(254))
    assert len(d.code) == 256 + 2 * 3 * 254
    for n in (255, 256):
        with pytest.raises(canon.SphereTooLarge, match="at most 256"):
            canon.sphere_data(_bipyramid(n))
    assert issubclass(canon.SphereTooLarge, cx.ComplexError)


def _disjoint(A, B):
    signs = {**A.signs, **B.signs}
    return cx.OrientedComplex(signs)


def test_not_a_2sphere_rejected():
    d3 = cx.boundary_simplex(3)
    torus = oriented([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                     + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])
    assert euler_characteristic(torus) == 0
    shift = {v: v + 10 for v in range(7)}
    two_spheres = _disjoint(d3, relabeled(d3, shift))
    sphere_and_torus = _disjoint(d3, relabeled(torus, shift))
    assert euler_characteristic(sphere_and_torus) == 2
    for L in (cx.boundary_simplex(4), two_spheres, torus, sphere_and_torus):
        with pytest.raises(canon.NotA2Sphere):
            canon.sphere_data(L)


def test_complex_from_code_round_trip():
    for L in (cx.boundary_simplex(3), oriented(OCTAHEDRON), oriented(STACKED6)):
        rebuilt = canon.complex_from_code(canon.sphere_data(L).code)
        assert canon.sphere_data(rebuilt).code == canon.sphere_data(L).code


def test_iso_generic_relabelings_of_d4():
    d4 = cx.boundary_simplex(4)
    perm = {0: 3, 1: 4, 2: 0, 3: 2, 4: 1}
    other = relabeled(d4, perm)
    iso = iso_generic(d4, other)
    assert iso is not None
    mapped = {tuple(sorted(iso(v) for v in f)) for f in d4.facets}
    assert mapped == set(other.facets)


def test_iso_generic_distinguishes():
    assert iso_generic(link_L(), cx.boundary_simplex(4)) is None


def test_iso_generic_orientation_flag():
    d4 = cx.boundary_simplex(4)
    iso = iso_generic(d4, d4.reverse(), orientation=False)
    assert iso is not None and not iso.orientation_preserving
    assert iso_generic(d4, d4, orientation=True).orientation_preserving


def test_canonical_orbit_invariance():
    octa = oriented(OCTAHEDRON)
    rng = random.Random(11)
    verts = list(octa.vertices)
    base = canon.sphere_data(octa).orbit((1, 2))
    for _ in range(20):
        img = verts[:]
        rng.shuffle(img)
        perm = dict(zip(verts, img))
        other = relabeled(octa, perm)
        assert canon.sphere_data(other).orbit((perm[1], perm[2])) == base
