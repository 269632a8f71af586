import os
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from plp1 import complexes as cx
from plp1 import fixtures as fx
from plp1 import gamma2 as g2
from plp1 import pontryagin as pt
from plp1 import moves as mv
from plp1.moves import Move, MoveSequence
from plp1.reduction import ReductionConfig
from plp1.solver import evaluate_c0

from conftest import product_sphere_circle, relabeled, subdivided
from isomorphism import iso_generic


def test_input_dimension_checked(octahedron):
    with pytest.raises(cx.ComplexError):
        pt.Manifold4Input(octahedron)


def test_flipped_facet_sign_names_its_vertex():
    """A sign map that is no orientation is refused at the least vertex of
    the flipped facet, before any reduction runs."""
    K = fx.cp2_9()
    f = next(iter(K.signs))
    bad = cx.OrientedComplex({**K.signs, f: -K.signs[f]})
    with pytest.raises(pt.LinkNotCertified, match=r"^link of vertex 1: ") as info:
        pt.verify_4manifold(pt.Manifold4Input(bad))
    assert info.value.vertex == min(f) == 1


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
        assert iso_generic(cx.oriented_link(cp2, v), L) is not None


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


def test_four_subdivisions_price_with_few_columns():
    """The cycle of cp2_9 after 4 seeded facet subdivisions lies in the
    span of its first anchors' columns, fewer than the 2,652 columns of
    every anchor under it."""
    K = pt.Manifold4Input(subdivided(fx.cp2_9(), 4))
    p1, cert, _, gamma = pt.pontryagin_number(K)
    assert p1 == 3 and not cert.residual(gamma)
    assert cert.columns_seen < 2652


@pytest.mark.parametrize("reverse", [False, True])
def test_flipped_cp2_10_rung(reverse):
    """CP² on 10 vertices made by a subdivision and 20 seeded flips, the
    recipe in the file's header: p1 is 3, and -3 reversed, with an exact
    replay."""
    path = Path(__file__).parent / "data" / "cp2_10_flipped.facets"
    K = cx.parse_facet_text(path.read_text())
    p1, cert, _, gamma = pt.pontryagin_number(
        pt.Manifold4Input(K.reverse() if reverse else K))
    assert p1 == (-3 if reverse else 3) and not cert.residual(gamma)


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
        iso = iso_generic(linkL, lk)
        assert iso is not None
        moves = [Move(tuple(sorted(map(iso, m.delta1))),
                      tuple(sorted(map(iso, m.delta2))))
                 for m in seq9.moves]
        reductions[v] = MoveSequence(lk, moves)
    gamma, registry = pt.assemble_p1_cycle(K, reductions)
    value, _ = evaluate_c0(gamma, registry)
    assert value / 2 == Fraction(3)


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
    cx.require_closed(bad)
    K = pt.Manifold4Input(bad)
    cfg = ReductionConfig(seed=0, max_steps=150, restarts=2)
    with pytest.raises(pt.LinkNotCertified):
        pt.verify_4manifold(K, cfg)


def test_open_link_names_its_ridge():
    d5 = cx.boundary_simplex(5)
    signs = {f: s for f, s in d5.signs.items() if f != (0, 1, 2, 3, 4)}
    K = pt.Manifold4Input(cx.OrientedComplex(signs))
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
        links = cx.oriented_links(after, after.vertices)
        for rec in induced_vertex_moves(links, m.inverse(), before):
            e = g2.edge_of_move(rec.link_before, rec.induced, rec.link_after)
            if e is not None:
                half = half + g2.Chain1([e])
    assert not g2.is_cycle(half)
    assert g2.is_cycle(half - g2.mirror_chain(half))


def test_link_not_certified_pickles():
    exc = pt.LinkNotCertified(7, "no certified reduction")
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is pt.LinkNotCertified
    assert copy.vertex == 7 and str(copy) == str(exc)


def test_missing_reductions_are_named():
    K = pt.Manifold4Input(fx.cp2_9())
    report = pt.verify_4manifold(K, ReductionConfig(seed=0))
    partial = {v: seq for v, seq in report.links.items() if v not in (1, 4)}
    with pytest.raises(cx.ComplexError,
                       match=r"no reduction for vertices \[1, 4\]"):
        pt.assemble_p1_cycle(K, partial)


def test_reduction_that_stops_short_is_rejected():
    """A reduction that does not end on a simplex boundary would price a
    wrong cycle (p1 = 8/3 for an empty one at vertex 1), so assembly
    refuses it and names the vertex."""
    K = pt.Manifold4Input(fx.cp2_9())
    links = pt.verify_4manifold(K, ReductionConfig(seed=0)).links
    links[1] = MoveSequence(links[1].initial, [])
    with pytest.raises(cx.ComplexError, match=r"^reduction for vertex 1 "
                       r"does not end on a simplex boundary$"):
        pt.assemble_p1_cycle(K, links)


def _see_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_equals_inline(monkeypatch):
    """Three shares give the reductions, the cycle in its insertion order
    and the registry with its keys in order and its representatives of one
    inline loop."""
    K = pt.Manifold4Input(subdivided(fx.cp2_9(), 8))
    assert len(K.complex.facets) >= pt.SPLIT_MIN_FACETS
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    runs = []
    for cpus in (1, 3):
        _see_cpus(monkeypatch, cpus)
        report = pt.verify_4manifold(K, ReductionConfig(seed=0))
        gamma, registry = pt.assemble_p1_cycle(K, report.links)
        _assert_no_child_left()
        runs.append((report.to_json(),
                     [(v, seq.initial, seq.moves)
                      for v, seq in report.links.items()],
                     list(gamma.items()), list(registry.items())))
    assert len(forks) == 4  # two children for each stage
    assert runs[0] == runs[1]


@pytest.mark.parametrize("cones", [(13, 14), (2, 3)])
def test_split_names_least_failing_vertex(monkeypatch, cones):
    """The two cone points of a suspended S2 x S1 have links that are no
    spheres; in two shares they fall to different processes, the least
    one to the parent (13) or to the child (2)."""
    bad = cx.suspension(product_sphere_circle(3))
    assert max(bad.vertices) == 14
    others = [v for v in range(1, 15) if v not in cones]
    K = pt.Manifold4Input(relabeled(bad, dict(zip(range(1, 15),
                                                  others + list(cones)))))
    assert len(K.complex.facets) >= pt.SPLIT_MIN_FACETS
    cfg = ReductionConfig(seed=0, max_steps=150, restarts=2)
    errors = []
    for cpus in (1, 2):
        _see_cpus(monkeypatch, cpus)
        with pytest.raises(pt.LinkNotCertified) as info:
            pt.verify_4manifold(K, cfg)
        _assert_no_child_left()
        errors.append((info.value.vertex, str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] == cones[0]


def test_small_inputs_never_fork(monkeypatch):
    """Inputs of up to 46 facets, as large as the benchmark's p1-small
    ones, run inline however many CPUs there are."""
    def no_fork():
        raise AssertionError("forked on a small input")

    monkeypatch.setattr(os, "fork", no_fork)
    _see_cpus(monkeypatch, 2)
    for M in (fx.cp2_9(), subdivided(fx.cp2_9(), 2),
              subdivided(fx.boundary_d5(), 10)):
        assert len(M.facets) <= 46
        K = pt.Manifold4Input(M)
        report = pt.verify_4manifold(K)
        pt.assemble_p1_cycle(K, report.links)


@pytest.mark.parametrize("subdivisions", [0, 2])
def test_walk_carries_the_links_of_every_state(monkeypatch, subdivisions):
    """In every vertex walk of ``assemble_p1_cycle`` the carried links are
    the links of the state before and after each step, and the records are
    those read from whole links."""
    K = pt.Manifold4Input(subdivided(fx.cp2_9(), subdivisions))
    report = pt.verify_4manifold(K)
    steps = []

    def checked(links, m, K2):
        K1 = mv.apply_move(K2, m.inverse())
        assert links == cx.oriented_links(K1, K1.vertices)
        records = mv.induced_vertex_moves(links, m, K2)
        assert links == cx.oriented_links(K2, K2.vertices)
        assert records == mv.induced_vertex_moves(
            cx.oriented_links(K1, K1.vertices), m, K2)
        steps.append(m)
        return records

    monkeypatch.setattr(pt, "induced_vertex_moves", checked)
    pt.assemble_p1_cycle(K, report.links)
    # the inputs are below the split size, so every step ran here
    assert len(steps) == sum(map(len, report.links.values())) > 0


def test_flipped_sign_in_the_moved_state_is_no_induced_move():
    L = fx.link_L()
    m = mv.make_move(L, (1, 3))
    L2 = mv.apply_move(L, m)
    for g in set(L2.facets) - set(L.facets):
        signs = dict(L2.signs)
        signs[g] = -signs[g]
        # the links of the closed support alone, and of every vertex
        for vertices in (sorted(set(m.delta1) | set(m.delta2)), L.vertices):
            links = cx.oriented_links(L, vertices)
            with pytest.raises(mv.InducedDiffNotABistellarMove):
                mv.induced_vertex_moves(links, m, cx.OrientedComplex(signs))
