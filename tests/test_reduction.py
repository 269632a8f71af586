import pytest

from plp1 import complexes as cx
from plp1 import moves as mv
from plp1 import reduction as red
from plp1.canonical import iso_generic
from plp1.fixtures import link_L, sequence_9

from conftest import product_sphere_circle


def test_boundary_simplex_reduces_to_empty_sequence():
    seq = red.reduce_sphere(cx.boundary_simplex(4))
    assert len(seq) == 0
    seq2 = red.reduce_sphere(cx.boundary_simplex(3))
    assert len(seq2) == 0


def test_octahedron_reduces(octahedron):
    seq = red.reduce_sphere(octahedron)
    assert len(seq) >= 2
    final = seq.final()
    assert iso_generic(final, cx.boundary_simplex(3)) is not None


def test_link_table_reduces():
    seq = red.reduce_sphere(link_L(), red.ReductionConfig(seed=0))
    final = seq.final()
    assert len(final.vertices) == 5 and len(final.facets) == 5
    assert iso_generic(final, cx.boundary_simplex(4)) is not None


def test_determinism():
    cfg = red.ReductionConfig(seed=3)
    a = red.reduce_sphere(link_L(), cfg)
    b = red.reduce_sphere(link_L(), cfg)
    assert a.to_json() == b.to_json()
    c = red.reduce_sphere(link_L(), red.ReductionConfig(seed=4))
    cx.require_closed(c.final().complex)


def test_verify_sequence_replays_fixture():
    L = link_L()
    final = red.verify_sequence(L, sequence_9())
    assert iso_generic(final, cx.boundary_simplex(4)) is not None


def test_verify_sequence_reports_bogus_step():
    L = link_L()
    seq = sequence_9()
    broken = mv.MoveSequence(L, [mv.Move((1, 2), (9,))] + seq.moves)
    with pytest.raises(mv.MoveNotAdmissible) as err:
        red.verify_sequence(L, broken)
    assert "step 0" in str(err.value)


def test_verify_sequence_rejects_foreign_initial():
    with pytest.raises(cx.ComplexError):
        red.verify_sequence(cx.boundary_simplex(4), sequence_9())


def test_non_sphere_exhausts_budget():
    sxs = product_sphere_circle(3)
    cx.require_closed(sxs.complex)
    assert sxs.complex.euler_characteristic() == 0
    cfg = red.ReductionConfig(seed=0, max_steps=150, restarts=2)
    with pytest.raises(red.BudgetExhausted):
        red.reduce_sphere(sxs, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        red.ReductionConfig(max_steps=0)


def test_empty_sequence_replays_to_input():
    L = link_L()
    assert red.verify_sequence(L, mv.MoveSequence(L, [])) == L
