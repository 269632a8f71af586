import pickle
import re

import pytest

from plp1 import complexes as cx
from plp1.fixtures import cp2_9, link_L

from conftest import BIPYRAMID, OCTAHEDRON, RP2_6, euler_characteristic, oriented


def test_boundary_simplex_counts():
    d3 = cx.boundary_simplex(3)
    assert len(d3.facets) == 4
    assert len(d3.vertices) == 4
    assert len(d3.faces(1)) == 6
    d4 = cx.boundary_simplex(4)
    assert len(d4.facets) == 5 and len(d4.vertices) == 5


def test_build_rejects_duplicates_and_mixed_rows():
    with pytest.raises(cx.DuplicateFacet):
        cx.orient([(1, 2, 3), (3, 2, 1)])
    with pytest.raises(cx.NotPure):
        cx.orient([(1, 2, 3), (1, 2)])
    with pytest.raises(cx.ComplexError):
        cx.simplex((1, 1, 2))
    # an oriented complex is validated by the same constructor check
    with pytest.raises(cx.ComplexError, match="empty facet list"):
        cx.OrientedComplex({})
    with pytest.raises(cx.NotPure):
        cx.OrientedComplex({(1, 2, 3): 1, (1, 2): -1})


def test_link_table_is_closed_3_pseudomanifold():
    L = link_L()
    assert L.dim == 3
    assert len(L.vertices) == 8
    assert len(L.facets) == 20
    cx.require_closed(L)


def test_orientations_of_boundary_simplex():
    K = cx.boundary_simplex(3)
    seed = min(K.facets)
    plus = cx.OrientedComplex(cx.extend_orientation(K.facets, {seed: 1}))
    minus = cx.OrientedComplex(cx.extend_orientation(K.facets, {seed: -1}))
    assert plus == cx.orient(K.facets)
    assert minus == plus.reverse()
    assert {plus.signs[f] * minus.signs[f] for f in K.facets} == {-1}


def test_boundary_d5_orientable():
    cx.orient(cx.boundary_simplex(5).facets)


def test_projective_plane_is_not_orientable():
    with pytest.raises(cx.NonOrientable):
        cx.orient(RP2_6)


def test_explicit_file_is_read_in_one_traversal(monkeypatch):
    """One propagation decides closed, connected and consistent, and the
    facets keep the order of the rows."""
    calls = []
    extend_orientation = cx.extend_orientation

    def counted(facets, seed_signs):
        calls.append(len(seed_signs))
        return extend_orientation(facets, seed_signs)

    monkeypatch.setattr(cx, "extend_orientation", counted)
    L = cx.parse_facet_text("orient=explicit\n2 3 4\n1 4 3\n1 2 4\n1 3 2\n")
    assert calls == [4]
    assert L == cx.orient(L.facets).reverse()
    assert list(L.facets) == [(2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3)]


def test_inconsistent_explicit_file_names_a_conflicting_ridge():
    """Row 1 2 3 carries the sign opposite to the one the other three rows
    give it.  The ridge named is an edge of that row, on which both of its
    rows induce the same direction (the edge after the opposite vertex)."""
    rows = [(2, 3, 4), (1, 4, 3), (1, 2, 4), (1, 2, 3)]
    text = "".join(" ".join(map(str, r)) + "\n" for r in rows)
    with pytest.raises(cx.NonOrientable) as info:
        cx.parse_facet_text("orient=explicit\n" + text)
    m = re.fullmatch(r"parity conflict at ridge \((\d), (\d)\)",
                     str(info.value))
    ridge = {int(m[1]), int(m[2])}
    assert ridge < {1, 2, 3}
    directions = []
    for r in rows:
        if ridge < set(r):
            (w,) = set(r) - ridge
            i = r.index(w)
            directions.append(r[i + 1:] + r[:i])
    assert len(directions) == 2 and directions[0] == directions[1]


def test_vertex_links():
    d3 = cx.boundary_simplex(3)
    lk = cx.oriented_link(d3, 0)
    assert lk.dim == 1 and len(lk.facets) == 3
    octa = oriented(OCTAHEDRON)
    assert len(cx.oriented_link(octa, 1).facets) == 4


def test_link_of_reversed_ambient_is_mirrored():
    octa = oriented(OCTAHEDRON)
    assert cx.oriented_link(octa.reverse(), 1) == cx.oriented_link(octa, 1).reverse()


def test_suspension_is_closed():
    susp = cx.suspension(oriented(OCTAHEDRON))
    assert susp.dim == 3
    cx.require_closed(susp)


def test_oriented_links_are_closed_pseudomanifolds():
    for L in (cx.boundary_simplex(4), oriented(OCTAHEDRON), link_L()):
        for v in L.vertices:
            lk = cx.oriented_link(L, v)
            cx.require_closed(lk)
            assert lk.dim == L.dim - 1


def _link_by_subsimplex_parity(L, s):
    """Reference link of the sorted simplex s: a facet's sign times the
    parity of reordering it as (s ascending, rest ascending)."""
    out = {}
    for f, sign in L.signs.items():
        if set(s) <= set(f):
            shift = sum(f.index(v) for v in s) - len(s) * (len(s) - 1) // 2
            out[tuple(v for v in f if v not in s)] = -sign if shift % 2 else sign
    return cx.OrientedComplex(out)


def test_simplex_links_match_sorted_subsimplex_parity():
    L = link_L()
    susp = cx.suspension(L)
    # the first suspension vertex links to L as given
    assert cx.oriented_link(susp, max(L.vertices) + 1) == L
    for K in (cp2_9(), susp):
        for d in (1, 2):
            for s in sorted(K.faces(d)):
                lk = K
                for v in s:  # the links of its vertices in increasing order
                    lk = cx.oriented_link(lk, v)
                assert lk == _link_by_subsimplex_parity(K, s), s


def test_two_sphere_euler_characteristic():
    for facets in (OCTAHEDRON, BIPYRAMID):
        assert euler_characteristic(oriented(facets)) == 2


def test_facet_text_round_trip(tmp_path):
    path = tmp_path / "octa.facets"
    lines = ["# test file", "dim=2", "orient=explicit"]
    octa = oriented(OCTAHEDRON)
    for f in sorted(octa.facets):
        row = list(f)
        if octa.signs[f] < 0:
            row[1], row[2] = row[2], row[1]
        lines.append(" ".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n")
    L = cx.load_facet_file(path)
    assert isinstance(L, cx.OrientedComplex)
    assert L == octa


def test_pickled_complexes_keep_equality_hash_and_signs():
    L = link_L()
    copy = pickle.loads(pickle.dumps(L))
    assert type(copy) is cx.OrientedComplex
    assert copy == L and hash(copy) == hash(L)
    assert copy.signs == L.signs
    # an oriented complex pickles as its sign map alone
    assert L.__reduce__() == (cx.OrientedComplex, (L.signs,))
