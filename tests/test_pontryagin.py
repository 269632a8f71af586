from fractions import Fraction

import pytest

from plp1 import canonical as canon
from plp1 import complexes as cx
from plp1 import fixtures as fx
from plp1 import gamma2 as g2
from plp1 import pontryagin as pt
from plp1.moves import Move, MoveSequence
from plp1.reduction import ReductionConfig

from conftest import product_sphere_circle


def test_input_dimension_checked(octahedron):
    with pytest.raises(cx.ComplexError):
        pt.Manifold4Input(octahedron)


def test_boundary_d5_verifies_trivially():
    K = pt.Manifold4Input(fx.boundary_d5())
    report = pt.verify_4manifold(K)
    assert set(report.links) == set(K.complex.vertices)
    assert all(len(seq) == 0 for seq in report.links.values())


def test_boundary_d5_p1_zero():
    value, cert, report, gamma = pt.pontryagin_number(
        pt.Manifold4Input(fx.boundary_d5()))
    assert value == 0
    assert not gamma


def test_all_nine_links_isomorphic_to_printed_table():
    cp2 = fx.cp2_9()
    L = fx.link_L()
    for v in cp2.vertices:
        assert canon.iso_generic(cx.oriented_link(cp2, v), L) is not None


def test_assembled_chain_is_cycle_and_equivariant():
    cp2 = fx.cp2_9()
    K = pt.Manifold4Input(cp2)
    report = pt.verify_4manifold(K, ReductionConfig(seed=0))
    gamma, registry = pt.assemble_p1_cycle(K, report.links)
    assert g2.is_cycle(gamma)
    assert g2.mirror_chain(gamma) == -gamma


def test_pontryagin_number_is_three():
    value, cert, report, gamma = pt.pontryagin_number(
        pt.Manifold4Input(fx.cp2_9()), ReductionConfig(seed=0))
    assert value == Fraction(3)
    assert not cert.residual(gamma)
    assert cert.value == Fraction(6)


def test_orientation_reversal_negates():
    value, *_ = pt.pontryagin_number(
        pt.Manifold4Input(fx.cp2_9().reverse()), ReductionConfig(seed=0))
    assert value == Fraction(-3)


def test_sequence_independence_with_fixture_reduction():
    """The nine-move printed sequence, transported to each vertex link by an
    isomorphism, replaces the searched reductions without changing p1."""
    cp2 = fx.cp2_9()
    K = pt.Manifold4Input(cp2)
    seq9 = fx.sequence_9()
    linkL = fx.link_L()
    reductions = {}
    for v in cp2.vertices:
        lk = cx.oriented_link(cp2, v)
        iso = canon.iso_generic(linkL, lk)
        assert iso is not None
        moves = [Move(tuple(sorted(map(iso, m.delta1))),
                      tuple(sorted(map(iso, m.delta2))))
                 for m in seq9.moves]
        reductions[v] = MoveSequence(lk, moves)
    value, *_ = pt.pontryagin_number(K, reductions=reductions)
    assert value == Fraction(3)


def test_seed_independence():
    values = set()
    for seed in (0, 5):
        v, *_ = pt.pontryagin_number(pt.Manifold4Input(fx.cp2_9()),
                                     ReductionConfig(seed=seed))
        values.add(v)
    assert values == {Fraction(3)}


def test_suspended_non_sphere_link_rejected():
    sxs = product_sphere_circle(3)
    bad = cx.suspension(sxs)
    assert bad.dim == 4
    cx.require_closed(bad.complex)
    K = pt.Manifold4Input(bad)
    cfg = ReductionConfig(seed=0, max_steps=150, restarts=2)
    with pytest.raises(pt.LinkNotCertified):
        pt.verify_4manifold(K, cfg)


def test_open_link_names_its_ridge():
    d5 = cx.boundary_simplex(5)
    signs = {f: s for f, s in d5.signs.items() if f != (0, 1, 2, 3, 4)}
    K = pt.Manifold4Input(cx.OrientedComplex(cx.SimplicialComplex(signs), signs))
    with pytest.raises(pt.LinkNotCertified,
                       match=r"link of vertex \d: ridge \(.*\) lies in 1 facets"):
        pt.verify_4manifold(K)


def test_report_json():
    K = pt.Manifold4Input(fx.boundary_d5())
    report = pt.verify_4manifold(K)
    blob = report.to_json()
    assert len(blob["links"]) == 6
    assert all(entry["vertices"] == 5 for entry in blob["links"])


def test_single_link_half_chain_is_not_a_cycle():
    """One link's unmirrored share always has boundary (its endpoints differ
    from simplex-boundary links); on this fixture, whose link has a
    mirror-closed multiset of vertex links, the equivariant single-link
    share happens to close already."""
    from plp1 import gamma2 as g2
    from plp1.moves import induced_vertex_moves
    cp2 = fx.cp2_9()
    K = pt.Manifold4Input(cp2)
    report = pt.verify_4manifold(K, ReductionConfig(seed=0))
    v = cp2.vertices[0]
    half = g2.Chain1()
    for before, m, after in reversed(list(report.links[v].replay())):
        for rec in induced_vertex_moves(after, m.inverse(), before):
            e = g2.edge_of_move(rec.link_before, rec.induced,
                                L2=rec.link_after)
            if e is not None:
                half = half + g2.single_edge(*e)
    assert not g2.is_cycle(half)
    assert g2.is_cycle(half - g2.mirror_chain(half))
