import random
from fractions import Fraction

import pytest

from plp1 import canonical as canon
from plp1 import complexes as cx
from plp1 import moves as mv
from plp1 import tcomplex as tc
from plp1.selfcheck import random_skew_table, random_walk

from conftest import oriented
from isomorphism import iso_generic


@pytest.fixture(scope="module")
def pool():
    rng = random.Random(17)
    d3 = cx.boundary_simplex(3)
    return [random_walk(d3, rng.randrange(3, 10), rng) for _ in range(10)]


def test_table_skew_and_symmetric_zero(pool):
    rng = random.Random(1)
    f = random_skew_table(pool, rng)
    d3 = cx.boundary_simplex(3)
    assert f.value(d3) == 0  # symmetric sphere
    for L in pool:
        assert f.value(L.reverse()) == -f.value(L)
    with pytest.raises(cx.ComplexError):
        tc.LocalFunction([(d3, Fraction(1))])


def test_delta_on_boundary_simplex_vanishes(pool):
    f = random_skew_table(pool, random.Random(2))
    assert tc.delta_eval(f, cx.boundary_simplex(4)) == 0


def test_zero_table_evaluates_to_zero():
    f = tc.LocalFunction()
    assert tc.delta_eval(f, cx.boundary_simplex(4)) == 0
    assert tc.delta2_eval(f, cx.boundary_simplex(5)) == 0


def test_delta_counts_link_multiplicity():
    """A table supported on one asymmetric link class sums its net signed
    multiplicity among the vertex links of a 3-sphere."""
    rng = random.Random(23)
    target = None
    while target is None:
        S = random_walk(cx.boundary_simplex(3), rng.randrange(4, 9), rng)
        d = canon.sphere_data(S)
        if d.code != d.mirror_code:
            target = S
    m = rng.choice(mv.admissible_moves(target))
    L_beta = tc.build_L_beta(target, m)  # the link of one cone point is -target
    links = [cx.oriented_link(L_beta, v) for v in L_beta.vertices]
    f = tc.LocalFunction([(target, Fraction(5, 3))])
    d = canon.sphere_data(target)
    code, mirror = d.code, d.mirror_code
    net = sum(1 for lk in links if canon.sphere_data(lk).code == code) \
        - sum(1 for lk in links if canon.sphere_data(lk).code == mirror)
    assert net != 0
    assert tc.delta_eval(f, L_beta) == Fraction(5, 3) * net


def test_delta_squared_zero_on_suspensions(pool):
    rng = random.Random(3)
    for i in range(4):
        L3 = random_walk(cx.boundary_simplex(4), 3 + i, rng, max_vertices=9)
        M4 = cx.suspension(L3)
        sample = []
        for v in list(M4.vertices)[::2]:
            lk = cx.oriented_link(M4, v)
            sample += [cx.oriented_link(lk, w) for w in list(lk.vertices)[::3]]
        f = random_skew_table(sample + pool[:3], rng)
        assert tc.delta2_eval(f, M4) == 0


def test_dimension_checks(pool):
    f = random_skew_table(pool, random.Random(4))
    with pytest.raises(tc.DimensionMismatch):
        tc.delta_eval(f, cx.boundary_simplex(4 + 1))
    with pytest.raises(tc.DimensionMismatch):
        tc.delta2_eval(f, cx.boundary_simplex(4))


def test_homotopy_identity_holds(pool):
    rng = random.Random(7)
    for _ in range(30):
        L = pool[rng.randrange(len(pool))]
        move = rng.choice(mv.admissible_moves(L))
        involved = [L, mv.apply_move(L, move)]
        # induced moves on circles change the vertex count: all essential
        for rec in mv.induced_vertex_moves(cx.oriented_links(L, L.vertices),
                                           move, involved[1]):
            involved.append(tc.build_L_beta(rec.link_before, rec.induced))
        L_beta = tc.build_L_beta(L, move)
        involved += [cx.oriented_link(L_beta, v) for v in L_beta.vertices]
        terms = tc.identity_terms(L, move)
        assert [S for _, S in terms] == involved
        assert [sign for sign, _ in terms] == [-1, 1] + [-1] * (len(involved) - 2)
        f = random_skew_table(involved, rng)
        assert tc.prop_identity_residual(f, L, move) == 0


def test_symmetric_spheres_always_evaluate_to_zero(pool):
    """Symmetric classes are structurally zero: the glued sphere of an
    inessential move is symmetric, so skew tables kill its links too."""
    from conftest import BIPYRAMID
    bip = oriented(BIPYRAMID)
    flip = mv.make_move(bip, (1, 2))
    lb = tc.build_L_beta(bip, flip)
    assert iso_generic(lb, lb.reverse(), orientation=True) is not None
    f = random_skew_table(pool, random.Random(9))
    for sym in (cx.boundary_simplex(3), bip):
        d = canon.sphere_data(sym)
        assert d.code == d.mirror_code
        assert f.value(sym) == 0


def test_d_eval_vanishes_on_loop_moves(pool):
    """A move with isomorphic endpoints has equal table values on both."""
    from conftest import STACKED6, oriented
    stacked = oriented(STACKED6)
    loop_move = mv.make_move(stacked, (1, 3))
    assert canon.sphere_data(mv.apply_move(stacked, loop_move)).code == \
        canon.sphere_data(stacked).code
    f = random_skew_table(pool + [stacked], random.Random(12))
    assert f.value(mv.apply_move(stacked, loop_move)) == f.value(stacked)
