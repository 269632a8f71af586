from fractions import Fraction

import pytest

from plp1 import complexes as cx
from plp1 import gamma2 as g2
from plp1 import generators as gen
from plp1 import moves as mv
from plp1 import solver as sv



def test_empty_chain_evaluates_to_zero():
    value, cert = sv.evaluate_c0(g2.Chain1(), {})
    assert value == 0 and cert.terms == []


def test_not_a_cycle_rejected(stacked6):
    m = mv.make_move(stacked6, (2, 3, 6))
    key, sign = g2.edge_of_move(stacked6, m)
    with pytest.raises(sv.NotACycle):
        sv.evaluate_c0(g2.single_edge(key, sign), {})


def test_single_alpha4_loop(stacked6):
    d3 = cx.boundary_simplex(3)
    g = gen.build_alpha4(d3, 1, 2, 3)
    value, cert = sv.evaluate_c0(g.chain, g.registry)
    assert value == 0


def test_single_alpha6_loop(stacked6):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    value, cert = sv.evaluate_c0(g.chain, g.registry)
    assert value == Fraction(1, 6)
    assert cert.residual(g.chain) == g2.Chain1()


def test_shuffle_invariance(stacked6):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    values = set()
    for seed in (0, 1, 2, 3):
        v, _ = sv.evaluate_c0(g.chain, g.registry,
                              sv.SolverBudget(seed=seed))
        values.add(v)
    assert values == {Fraction(1, 6)}


def test_equivariance(stacked6, bipyramid):
    for L in (stacked6, bipyramid):
        for g in gen.enumerate_at(L)[:8]:
            if not g.chain:
                continue
            v, _ = sv.evaluate_c0(g.chain, g.registry)
            mv_, _ = sv.evaluate_c0(g2.mirror_chain(g.chain), {})
            assert mv_ == -v


def test_linearity(stacked6):
    gs = [g for g in gen.enumerate_at(stacked6) if g.chain][:2]
    a, b = Fraction(3), Fraction(-7, 2)
    combo = gs[0].chain.scale(a) + gs[1].chain.scale(b)
    v, _ = sv.evaluate_c0(combo, {**gs[0].registry, **gs[1].registry})
    v0, _ = sv.evaluate_c0(gs[0].chain, gs[0].registry)
    v1, _ = sv.evaluate_c0(gs[1].chain, gs[1].registry)
    assert v == a * v0 + b * v1


def test_certificate_json(stacked6):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    _, cert = sv.evaluate_c0(g.chain, g.registry)
    blob = cert.to_json()
    assert blob["value"] == "1/6"
    assert isinstance(blob["terms"], list) and blob["terms"]


def test_budget_exhaustion_reported(stacked6, monkeypatch):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    monkeypatch.setattr(sv, "enumerate_at", lambda L: gen.enumerate_at(L, {"S1"}))
    with pytest.raises(sv.NoDecompositionWithinBudget):
        sv.evaluate_c0(g.chain, g.registry, sv.SolverBudget(radius_max=0))


def test_eliminator_relations():
    e = sv.Eliminator()
    assert e.insert(0, {"a": Fraction(1), "b": Fraction(2)}) is None
    assert e.insert(1, {"b": Fraction(1)}) is None
    rel = e.insert(2, {"a": Fraction(2), "b": Fraction(1)})
    assert rel is not None
    total = {}
    cols = [{"a": Fraction(1), "b": Fraction(2)}, {"b": Fraction(1)},
            {"a": Fraction(2), "b": Fraction(1)}]
    for i, c in rel.items():
        for k, q in cols[i].items():
            total[k] = total.get(k, 0) + c * q
    assert all(v == 0 for v in total.values())
    sol = e.express({"a": Fraction(3), "b": Fraction(1)})
    recon = {}
    for i, c in sol.items():
        for k, q in cols[i].items():
            recon[k] = recon.get(k, 0) + c * q
    assert recon == {"a": Fraction(3), "b": Fraction(1)}
    assert e.express({"z": Fraction(1)}) is None


from hypothesis import given, settings, strategies as st


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=-5, max_value=5), st.fractions(min_value=-5, max_value=5))
def test_chain_scaling_linearity_property(a, b):
    from plp1.complexes import boundary_simplex
    d3 = boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    key, sign = g2.edge_of_move(d3, m)
    c = g2.single_edge(key, sign)
    left = c.scale(a) + c.scale(b)
    right = c.scale(a + b)
    assert left == right
