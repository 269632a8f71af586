import itertools
import random

import pytest

from plp1 import canonical as canon
from plp1 import complexes as cx
from plp1 import moves as mv
from plp1.fixtures import cp2_9, link_L, sequence_9

from conftest import BIPYRAMID, OCTAHEDRON, oriented


def test_admissible_move_counts():
    assert len(mv.admissible_moves(cx.boundary_simplex(3))) == 4
    assert len(mv.admissible_moves(oriented(OCTAHEDRON))) == 20
    assert len(mv.admissible_moves(cx.boundary_simplex(4))) == 5


def _admissible_by_face(L):
    """Reference scan: make_move on every face of every sorted facet, each
    face once, in order of first appearance."""
    n = L.dim
    nv = max(L.vertices) + 1
    out, seen = [], set()
    for f in sorted(L.facets):
        for k in range(1, n + 2):
            for d1 in itertools.combinations(f, k):
                if d1 in seen:
                    continue
                seen.add(d1)
                try:
                    out.append(mv.make_move(L, d1, new_vertex=nv if k == n + 1 else None))
                except mv.MoveNotAdmissible:
                    pass
    return out


def test_indexed_scan_matches_per_face_scan(octahedron, stacked6):
    rng = random.Random(7)
    K = cp2_9()
    starts = [octahedron, stacked6] + [cx.oriented_link(K, v) for v in K.vertices]
    for L in starts:
        for _ in range(8):
            moves = mv.admissible_moves(L)
            assert moves == _admissible_by_face(L)
            L = mv.apply_move(L, rng.choice(moves))


def test_subdivision_counts_and_euler():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    L2 = mv.apply_move(d3, m)
    assert len(L2.facets) == 6 and len(L2.vertices) == 5
    assert L2.complex.euler_characteristic() == 2


def test_euler_preserved_by_all_moves(octahedron):
    for m in mv.admissible_moves(octahedron):
        out = mv.apply_move(octahedron, m)
        assert out.complex.euler_characteristic() == 2


def test_apply_then_inverse_is_identity(octahedron):
    for m in mv.admissible_moves(octahedron):
        L2 = mv.apply_move(octahedron, m)
        assert mv.apply_move(L2, m.inverse()) == octahedron


def test_inadmissible_rejected(octahedron):
    with pytest.raises(mv.MoveNotAdmissible):
        mv.make_move(octahedron, (1,))  # degree-4 vertex is not removable
    with pytest.raises(mv.MoveNotAdmissible):
        mv.apply_move(octahedron, mv.Move((1, 6), (2, 3)))  # not even an edge


def test_first_printed_step_on_link_table():
    L = link_L()
    m = mv.make_move(L, (1, 3))
    L2 = mv.apply_move(L, m)
    removed = set(L.facets) - set(L2.facets)
    added = set(L2.facets) - set(L.facets)
    assert removed == {(1, 2, 3, 4), (1, 2, 3, 7), (1, 3, 4, 7)}
    assert added == {(1, 2, 4, 7), (2, 3, 4, 7)}
    assert len(L2.facets) == 19


def test_essentialness():
    d3 = cx.boundary_simplex(3)
    assert mv.is_essential(d3, mv.make_move(d3, (0, 1, 2)))
    bip = oriented(BIPYRAMID)
    flip = mv.make_move(bip, (1, 2))  # equatorial edge of the bipyramid
    assert mv.apply_move(bip, flip) != bip
    assert canon.code_bytes(mv.apply_move(bip, flip)) == canon.code_bytes(bip)
    assert not mv.is_essential(bip, flip)


def test_induced_moves_of_facet_subdivision():
    d4 = cx.boundary_simplex(4)
    m = mv.make_move(d4, (0, 1, 2, 3))
    recs = mv.induced_vertex_moves(d4, m)
    assert len(recs) == 4
    assert all(r.essential for r in recs)
    assert {r.vertex for r in recs} == {0, 1, 2, 3}
    for r in recs:
        assert mv.apply_move(r.link_before, r.induced) == r.link_after


def test_induced_moves_replay_on_3sphere_step():
    L = link_L()
    m = mv.make_move(L, (1, 3))
    recs = mv.induced_vertex_moves(L, m)
    assert {r.vertex for r in recs} <= {1, 2, 3, 4, 7}
    for r in recs:
        assert mv.apply_move(r.link_before, r.induced) == r.link_after


def test_vertex_outside_support_not_reported(octahedron):
    m = mv.make_move(octahedron, (1, 2))
    recs = mv.induced_vertex_moves(octahedron, m)
    assert all(r.vertex in (1, 2, 3, 4) for r in recs)


def test_L_beta_counts_and_links():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    lb = mv.build_L_beta(d3, m)
    assert len(lb.vertices) == 7 and len(lb.facets) == 11
    u2 = max(lb.vertices)
    u1 = u2 - 1
    assert cx.oriented_link(lb, u2) == mv.apply_move(d3, m)
    assert cx.oriented_link(lb, u1) == d3.reverse()


def test_L_beta_of_inverse_is_antiisomorphic():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    L2 = mv.apply_move(d3, m)
    lb = mv.build_L_beta(d3, m)
    lb_inv = mv.build_L_beta(L2, m.inverse())
    assert canon.iso_generic(lb, lb_inv.reverse(), orientation=True) is not None


def test_inessential_move_gives_symmetric_L_beta():
    bip = oriented(BIPYRAMID)
    flip = mv.make_move(bip, (1, 2))
    lb = mv.build_L_beta(bip, flip)
    assert canon.iso_generic(lb, lb.reverse(), orientation=True) is not None


def test_sequence_replay_and_reverse():
    seq = sequence_9()
    final = seq.final()
    assert len(final.vertices) == 5 and len(final.facets) == 5
    rev = seq.reversed()
    assert rev.final() == seq.initial
    text = seq.to_json()
    again = mv.MoveSequence.from_json(seq.initial, text)
    assert [m.delta1 for m in again.moves] == [m.delta1 for m in seq.moves]


def _random_walk_signs_agree(L, steps, rng):
    """Apply seeded random admissible moves; at each step the local signs of
    apply_move must equal a full propagation from the surviving facets."""
    for _ in range(steps):
        m = rng.choice(mv.admissible_moves(L))
        out = mv.apply_move(L, m)
        survivors = {f: s for f, s in L.signs.items() if f in out.signs}
        assert out.signs == cx.extend_orientation(out.facets, survivors)
        L = out


def test_local_signs_match_propagation(octahedron):
    rng = random.Random(5)
    _random_walk_signs_agree(octahedron, 30, rng)
    K = cp2_9()
    for v in (1, 5, 9):
        lk = cx.oriented_link(K, v)
        _random_walk_signs_agree(lk, 12, rng)
        for w in sorted(lk.vertices)[:2]:
            _random_walk_signs_agree(cx.oriented_link(lk, w), 15, rng)


def test_inconsistent_star_is_non_orientable(octahedron):
    m = mv.make_move(octahedron, (1, 2))
    assert len(m.delta2) == 2
    f = next(f for f in sorted(octahedron.facets) if set(m.delta1) <= set(f))
    signs = dict(octahedron.signs)
    signs[f] = -signs[f]
    bad = cx.OrientedComplex(octahedron.complex, signs)
    with pytest.raises(cx.NonOrientable):
        mv.apply_move(bad, m)
