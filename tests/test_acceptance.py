"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each on stdout."""
import time
from fractions import Fraction

from plp1 import complexes as cx
from plp1 import fixtures as fx
from plp1 import gamma2 as g2
from plp1 import generators as gen
from plp1 import moves as mv
from plp1 import pontryagin as pt
from plp1 import selfcheck as sc
from plp1 import solver as sv
from plp1 import tcomplex as tc
from plp1.reduction import ReductionConfig, verify_sequence

from conftest import STACKED6, oriented
from isomorphism import iso_generic


def _report(n, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {label}")
    assert ok


def test_criterion_1_projective_plane_number():
    t0 = time.time()
    plus, *_ = pt.pontryagin_number(pt.Manifold4Input(fx.cp2_9()),
                                    ReductionConfig(seed=0))
    minus, *_ = pt.pontryagin_number(pt.Manifold4Input(fx.cp2_9().reverse()),
                                     ReductionConfig(seed=0))
    ok = plus == Fraction(3) and minus == Fraction(-3) and time.time() - t0 < 300
    _report(1, f"9-vertex projective plane gives p1 = {plus} / reversed {minus} "
               f"({time.time() - t0:.1f}s)", ok)


def test_criterion_2_fixture_replay():
    t0 = time.time()
    seq = fx.sequence_9()
    final = verify_sequence(seq.initial, seq)
    ok = (len(final.vertices) == 5 and len(final.facets) == 5
          and iso_generic(final, cx.boundary_simplex(4)) is not None
          and time.time() - t0 < 1.0)
    _report(2, "printed nine-move sequence ends at the 4-simplex boundary", ok)


def test_criterion_3_link_isomorphism():
    t0 = time.time()
    cp2, L = fx.cp2_9(), fx.link_L()
    ok = all(iso_generic(cx.oriented_link(cp2, v), L) is not None
             for v in cp2.vertices) and time.time() - t0 < 10
    _report(3, f"all 9 vertex links isomorphic to the printed table "
               f"({time.time() - t0:.1f}s)", ok)


def test_criterion_4_baseline_sphere():
    t0 = time.time()
    value, *_ = pt.pontryagin_number(pt.Manifold4Input(fx.boundary_d5()))
    ok = value == 0 and time.time() - t0 < 1.0
    _report(4, "5-simplex boundary gives p1 = 0", ok)


def test_criterion_5_homotopy_identity_suite():
    t0 = time.time()
    checked, failures = sc.suite_homotopy_identity(pairs=100, seed=0)
    ok = checked >= 100 and failures == 0 and time.time() - t0 < 60
    _report(5, f"chain homotopy identity exact on {checked} randomized pairs "
               f"({time.time() - t0:.1f}s)", ok)


def test_criterion_6_delta_squared_suite():
    t0 = time.time()
    checked, failures = sc.suite_delta_squared(cases=20, seed=0)
    ok = checked >= 20 and failures == 0 and time.time() - t0 < 60
    _report(6, f"double link sum exactly zero on {checked} 4-spheres "
               f"({time.time() - t0:.1f}s)", ok)


def test_criterion_7_generator_value_table():
    S = gen.GeneratorSpec
    table = [
        (S("S1_0", ()), Fraction(0)),
        (S("S2_0", ()), Fraction(0)),
        (S("S3_0", ()), Fraction(0)),
        (S("S1_1", (2, 2)), Fraction(0)),
        (S("S1_1", (5, 5)), Fraction(0)),
        (S("S1_1", (1, 2)), Fraction(1, 210)),
        (S("S4", (1, 1, 1)), Fraction(0)),
        (S("S6", (2, 2, 2, 2, 2)), Fraction(1, 6)),
    ]
    ok = all(gen.c0_of(spec) == want for spec, want in table)
    _report(7, "closed-form generator values reproduced exactly", ok)


def test_criterion_8_solver_well_definedness():
    t0 = time.time()
    K = pt.Manifold4Input(fx.cp2_9())
    values = set()
    for seed in (0, 1, 2):
        report = pt.verify_4manifold(K, ReductionConfig(seed=seed))
        gamma, registry = pt.assemble_p1_cycle(K, report.links)
        for shuffle in (3, 4, 5):
            v, _ = sv.evaluate_c0(gamma, registry, sv.SolverBudget(seed=shuffle))
            values.add(v)
    ok = values == {Fraction(6)} and time.time() - t0 < 300
    _report(8, f"3 reduction seeds x 3 candidate shuffles all give c0 = 6 "
               f"({time.time() - t0:.1f}s)", ok)


def test_criterion_9_equivariance():
    cycles = []
    stacked = oriented(STACKED6)
    cycles.append(gen.build_alpha6(stacked, 1, 2, 3, 4, 5).chain)
    cycles.append(gen.build_alpha4(cx.boundary_simplex(3), 1, 2, 3).chain)
    K = pt.Manifold4Input(fx.cp2_9())
    report = pt.verify_4manifold(K, ReductionConfig(seed=0))
    gamma, registry = pt.assemble_p1_cycle(K, report.links)
    cycles.append(gamma)
    ok = True
    for c in cycles:
        if not c:
            continue
        v, _ = sv.evaluate_c0(c, registry)
        w, _ = sv.evaluate_c0(g2.mirror_chain(c), registry)
        ok = ok and w == -v
    _report(9, "mirrored cycles evaluate to the negated value", ok)


def test_criterion_10_negative_control():
    """Reversing the glued sphere in the s-delta term must break the
    homotopy identity on the same pairs the suite checks exactly."""
    residuals, mutated = [], []
    for f, L, move in sc.identity_cases(pairs=25, seed=0):
        r = tc.prop_identity_residual(f, L, move)
        L_beta = tc.build_L_beta(L, move)
        residuals.append(r)
        mutated.append(r + tc.delta_eval(f, L_beta)
                       - tc.delta_eval(f, L_beta.reverse()))
    broken = sum(1 for r in mutated if r)
    ok = all(r == 0 for r in residuals) and broken > 0
    _report(10, f"reversed glued sphere breaks the identity "
                f"({broken}/{len(mutated)} nonzero residuals)", ok)
