import random

import pytest
from hypothesis import given, settings, strategies as st

from plp1 import canonical as canon
from plp1 import complexes as cx
from plp1.fixtures import link_L

from conftest import OCTAHEDRON, STACKED6, oriented, relabeled


def test_code_equal_under_relabeling():
    octa = oriented(OCTAHEDRON)
    rng = random.Random(5)
    base = canon.code_bytes(octa)
    verts = list(octa.vertices)
    for _ in range(100):
        img = verts[:]
        rng.shuffle(img)
        perm = dict(zip(verts, img))
        assert canon.code_bytes(relabeled(octa, perm)) == base


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(1, 7))))
def test_code_relabeling_invariance_property(img):
    L = oriented(STACKED6)
    perm = dict(zip(L.vertices, img))
    assert canon.code_bytes(relabeled(L, perm)) == canon.code_bytes(L)


def test_boundary_simplex_is_symmetric():
    d3 = cx.boundary_simplex(3)
    assert canon.code_bytes(d3) == canon.mirror_code_bytes(d3)


def test_mirror_code_is_code_of_reverse():
    for L in (oriented(OCTAHEDRON), oriented(STACKED6)):
        assert canon.mirror_code_bytes(L) == canon.code_bytes(L.reverse())
        assert canon.code_bytes(L.reverse()) != b"" and \
            canon.mirror_code_bytes(L.reverse()) == canon.code_bytes(L)


def test_distinct_spheres_have_distinct_codes():
    assert canon.code_bytes(oriented(OCTAHEDRON)) != \
        canon.code_bytes(cx.boundary_simplex(3))
    assert canon.code_bytes(oriented(OCTAHEDRON)) != \
        canon.code_bytes(oriented(STACKED6))


def test_automorphism_counts():
    autos, reversing = canon.automorphisms_2sphere(cx.boundary_simplex(3))
    assert len(autos) == 12 and len(reversing) == 12
    autos, reversing = canon.automorphisms_2sphere(oriented(OCTAHEDRON))
    assert len(autos) == 24 and len(reversing) == 24
    autos, _ = canon.automorphisms_2sphere(oriented(STACKED6))
    assert len(autos) >= 1
    octa = oriented(OCTAHEDRON)
    for a in canon.automorphisms_2sphere(octa)[0]:
        assert {a.apply_simplex(f) for f in octa.facets} == set(octa.facets)


def test_not_a_2sphere_rejected():
    with pytest.raises(canon.NotA2Sphere):
        canon.code_bytes(cx.boundary_simplex(4))


def test_complex_from_code_round_trip():
    for L in (cx.boundary_simplex(3), oriented(OCTAHEDRON), oriented(STACKED6)):
        rebuilt = canon.complex_from_code(canon.code_bytes(L))
        assert canon.code_bytes(rebuilt) == canon.code_bytes(L)


def test_iso_generic_relabelings_of_d4():
    d4 = cx.boundary_simplex(4)
    perm = {0: 3, 1: 4, 2: 0, 3: 2, 4: 1}
    other = relabeled(d4, perm)
    iso = canon.iso_generic(d4, other)
    assert iso is not None
    mapped = {iso.apply_simplex(f) for f in d4.facets}
    assert mapped == set(other.facets)


def test_iso_generic_distinguishes():
    assert canon.iso_generic(link_L(), cx.boundary_simplex(4)) is None


def test_iso_generic_orientation_flag():
    d4 = cx.boundary_simplex(4)
    iso = canon.iso_generic(d4, d4.reverse(), orientation=False)
    assert iso is not None and not iso.orientation_preserving
    assert canon.iso_generic(d4, d4, orientation=True).orientation_preserving


def test_canonical_orbit_invariance():
    octa = oriented(OCTAHEDRON)
    rng = random.Random(11)
    verts = list(octa.vertices)
    base = canon.canonical_orbit(octa, (1, 2))
    for _ in range(20):
        img = verts[:]
        rng.shuffle(img)
        perm = dict(zip(verts, img))
        other = relabeled(octa, perm)
        assert canon.canonical_orbit(other, (perm[1], perm[2])) == base
