import random
from fractions import Fraction

import pytest

from plp1 import canonical as canon
from plp1 import complexes as cx
from plp1 import fixtures as fx
from plp1 import gamma2 as g2
from plp1 import moves as mv
from plp1 import pontryagin as pt

from conftest import BIPYRAMID, oriented, relabeled


def test_inessential_move_has_no_edge():
    bip = oriented(BIPYRAMID)
    flip = mv.make_move(bip, (1, 2))
    assert g2.edge_of_move(bip, flip, mv.apply_move(bip, flip)) is None


def test_no_edge_exactly_when_code_and_orbit_repeat():
    """edge_of_move is None exactly when the sphere code and the orbit of
    the move's simplex come back unchanged, over the induced moves that
    assembly walks on cp2_9 and the bipyramid flip."""
    bip = oriented(BIPYRAMID)
    flip = mv.make_move(bip, (1, 2))
    cases = [(bip, flip, mv.apply_move(bip, flip))]
    report = pt.verify_4manifold(pt.Manifold4Input(fx.cp2_9()))
    assert len(report.links) == 9
    for seq in report.links.values():
        for before, m, after in reversed(list(seq.replay())):
            links = cx.oriented_links(after, after.vertices)
            for rec in mv.induced_vertex_moves(links, m.inverse(), before):
                cases.append((rec.link_before, rec.induced, rec.link_after))
    verdicts = []
    for L, m, L2 in cases:
        inessential = (canon.sphere_data(L).code == canon.sphere_data(L2).code
                       and canon.sphere_data(L).orbit(m.delta1)
                       == canon.sphere_data(L2).orbit(m.delta2))
        assert (g2.edge_of_move(L, m, L2) is None) == inessential
        verdicts.append(inessential)
    assert set(verdicts) == {True, False}


def test_subdivision_edge_endpoints():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    key, sign = g2.edge_of_move(d3, m, mv.apply_move(d3, m))
    codes = {key.a.code, key.b.code}
    assert canon.sphere_data(d3).code in codes
    assert canon.sphere_data(mv.apply_move(d3, m)).code in codes


def test_move_and_inverse_share_key_with_opposite_signs(stacked6):
    for m in mv.admissible_moves(stacked6):
        L2 = mv.apply_move(stacked6, m)
        e = g2.edge_of_move(stacked6, m, L2)
        if e is None:
            continue
        key, sign = e
        key2, sign2 = g2.edge_of_move(L2, m.inverse(), stacked6)
        assert key2 == key and sign2 == -sign


def test_edge_key_stable_under_relabeling(stacked6):
    rng = random.Random(3)
    m = mv.make_move(stacked6, (1, 3))
    key, sign = g2.edge_of_move(stacked6, m, mv.apply_move(stacked6, m))
    verts = list(stacked6.vertices)
    for _ in range(20):
        img = verts[:]
        rng.shuffle(img)
        perm = dict(zip(verts, img))
        other = relabeled(stacked6, perm)
        m2 = mv.Move(tuple(sorted((perm[1], perm[3]))),
                     mv.make_move(other, (perm[1], perm[3])).delta2)
        key2, sign2 = g2.edge_of_move(other, m2, mv.apply_move(other, m2))
        assert (key2, sign2) == (key, sign)


def test_mirror_is_involution(stacked6):
    m = mv.make_move(stacked6, (1, 3))
    key, sign = g2.edge_of_move(stacked6, m, mv.apply_move(stacked6, m))
    chain = g2.Chain1({key: sign})
    assert g2.mirror_chain(g2.mirror_chain(chain)) == chain
    assert g2.mirror_chain(g2.Chain1()) == g2.Chain1()


def test_mirror_of_symmetric_subdivision_edge():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    key, sign = g2.edge_of_move(d3, m, mv.apply_move(d3, m))
    mk, ms = key.mirror()
    assert mk == key  # both endpoints are symmetric spheres, same orbit data
    assert g2.mirror_chain(g2.Chain1({key: 1})) == g2.Chain1({key: ms})


def test_boundary_and_cycles(stacked6):
    m = mv.make_move(stacked6, (2, 3, 6))  # subdivision: endpoints differ
    key, sign = g2.edge_of_move(stacked6, m, mv.apply_move(stacked6, m))
    one = g2.Chain1({key: sign})
    assert not g2.is_cycle(one)
    assert g2.is_cycle(one - one)
    # a flip with isomorphic endpoints is a loop edge, hence a cycle
    flip = mv.make_move(stacked6, (1, 3))
    loop_key, loop_sign = g2.edge_of_move(stacked6, flip,
                                          mv.apply_move(stacked6, flip))
    assert loop_key.a.code == loop_key.b.code
    assert g2.is_cycle(g2.Chain1({loop_key: loop_sign}))


def test_cancel_loop_is_zero_chain():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2), new_vertex=9)
    chain = g2.loop_to_chain(d3, [m, mv.Move((9,), (0, 1, 2))])
    assert not chain


def test_loop_not_closed_raises(stacked6):
    m = mv.make_move(stacked6, (2, 3, 6))
    with pytest.raises(g2.LoopNotClosed):
        g2.loop_to_chain(stacked6, [m])


def test_chain_algebra():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    key, sign = g2.edge_of_move(d3, m, mv.apply_move(d3, m))
    a = g2.Chain1({key: sign})
    assert (a + a).coefficients[key] == 2 * sign
    assert not (a - a)
    assert a.scale(Fraction(1, 2)).coefficients[key] == Fraction(sign, 2)
    rep, s = a.scale(-3).normalized()
    assert s in (-1, 1) and rep.coefficients[min(rep.coefficients)] > 0


def test_chain_json_round_trip(stacked6):
    m = mv.make_move(stacked6, (1, 3))
    key, sign = g2.edge_of_move(stacked6, m, mv.apply_move(stacked6, m))
    chain = g2.Chain1({key: sign}).scale(Fraction(7, 3))
    again = g2.chain_from_json(chain.to_json())
    assert again == chain


def test_chain_from_json_rejects_a_self_loop():
    """An edge from an endpoint to itself is no edge of the graph, so the
    entry is refused rather than searched for a decomposition."""
    code = canon.sphere_data(cx.oriented_link(fx.link_L(), 1)).code.hex()
    entry = {"edge": {"from": code, "from_orbit": [3],
                      "to": code, "to_orbit": [3]}, "coeff": "1/1"}
    with pytest.raises(g2.ChainFormatError,
                       match=r"^entry 0: ValueError: .* to itself$"):
        g2.chain_from_json([entry])


def test_mirror_commutes_with_loop_to_chain(stacked6, loop_moves):
    """Mirroring the sphere and replaying the same moves mirrors the chain,
    and gives the chain of the mirror column."""
    import plp1.generators as gen
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    [(_, moves)] = loop_moves
    mirrored_loop = g2.loop_to_chain(stacked6.reverse(), moves)
    assert mirrored_loop == g2.mirror_chain(g.chain) == g.mirror().chain
    assert g.mirror().mirror() == g
