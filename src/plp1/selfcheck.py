"""Embedded property suites, runnable from the command line.

Four suites: the chain homotopy identity on random (table, move) pairs,
the double-link vanishing on 4-spheres, the generator value table, and
mirror equivariance of evaluated cycles.  All arithmetic is exact; a suite
passes only with zero failures.
"""
from __future__ import annotations

import random
from fractions import Fraction

from . import canonical
from .complexes import (OrientedComplex, boundary_simplex, oriented_links,
                        suspension)
from .gamma2 import mirror_chain
from .generators import (GeneratorSpec, build_alpha4, build_alpha6, c0_of,
                         enumerate_at)
from .moves import admissible_moves, apply_move
from .solver import evaluate_c0
from .tcomplex import (LocalFunction, delta2_eval, identity_terms,
                       prop_identity_residual)


def random_walk(L: OrientedComplex, steps: int, rng: random.Random,
                max_vertices: int = 12) -> OrientedComplex:
    """Seeded random sequence of admissible moves with a vertex cap."""
    for _ in range(steps):
        cands = [m for m in admissible_moves(L)
                 if not (len(m.delta2) == 1 and len(L.vertices) >= max_vertices)]
        L = apply_move(L, rng.choice(cands))
    return L


def random_skew_table(spheres, rng: random.Random) -> LocalFunction:
    f = LocalFunction()
    for L in spheres:
        data = canonical.sphere_data(L)
        if data.code != data.mirror_code:
            f.set_value(L, Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)))
    return f


def identity_cases(pairs: int, seed: int):
    """Seeded random (skew table, 2-sphere, move) triples."""
    rng = random.Random(seed)
    d3 = boundary_simplex(3)
    pool = [random_walk(d3, rng.randrange(3, 12), rng) for _ in range(12)]
    for _ in range(pairs):
        L = pool[rng.randrange(len(pool))]
        move = rng.choice(admissible_moves(L))
        spheres = [S for _, S in identity_terms(L, move)]
        f = random_skew_table(spheres + rng.sample(pool, 3), rng)
        yield f, L, move


def suite_homotopy_identity(pairs: int = 100, seed: int = 0):
    """d = delta s + s delta on random (skew table, move) pairs."""
    failures = sum(1 for f, L, move in identity_cases(pairs, seed)
                   if prop_identity_residual(f, L, move) != 0)
    return pairs, failures


def suite_delta_squared(cases: int = 20, seed: int = 0):
    """Exact zero of the iterated link sum on 4-spheres."""
    rng = random.Random(seed)
    failures = 0
    spheres = [boundary_simplex(5)]
    while len(spheres) < cases:
        L3 = random_walk(boundary_simplex(4), rng.randrange(2, 7), rng,
                         max_vertices=9)
        spheres.append(suspension(L3))
    for M4 in spheres[:cases]:
        sample = []
        for lk in oriented_links(M4, M4.vertices[::2]).values():
            sample += oriented_links(lk, lk.vertices[::3]).values()
        f = random_skew_table(sample, rng)
        if delta2_eval(f, M4) != 0:
            failures += 1
    return cases, failures


def suite_value_table():
    """The closed-form values the solver prices generators with."""
    S = GeneratorSpec
    expected = [
        (S("S1_0", ()), Fraction(0)),
        (S("S2_0", ()), Fraction(0)),
        (S("S3_0", ()), Fraction(0)),
        (S("S1_1", (4, 4)), Fraction(0)),
        (S("S1_1", (1, 2)), Fraction(1, 210)),
        (S("S4", (1, 1, 1)), Fraction(0)),
        (S("S5", (2, 2, 2, 2)), Fraction(0)),
        (S("S6", (2, 2, 2, 2, 2)), Fraction(1, 6)),
    ]
    failures = sum(1 for spec, want in expected if c0_of(spec) != want)
    return len(expected), failures


def _fixture_loops():
    from .complexes import orient
    d3 = boundary_simplex(3)
    stacked = orient([(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
                      (2, 6, 3), (3, 6, 4), (4, 6, 5)])
    columns = enumerate_at(stacked)
    s2 = [g for g in columns if g.spec.kind[:2] == "S2"]
    s5 = [g for g in columns if g.spec.kind[:2] == "S5"]
    return [build_alpha4(d3, 1, 2, 3), build_alpha6(stacked, 1, 2, 3, 4, 5),
            *s2[:10:2], *s5[:1]]  # [::2] skips the mirrors


def suite_equivariance():
    """evaluate(mirror) = -evaluate on the fixture generator cycles."""
    checked = failures = 0
    for g in _fixture_loops():
        if not g.chain:
            continue
        v1, _ = evaluate_c0(g.chain)
        v2, _ = evaluate_c0(mirror_chain(g.chain))
        checked += 1
        if v1 != g.value or v2 != -v1:
            failures += 1
    return checked, failures


SUITES = (
    ("homotopy-identity", lambda seed: suite_homotopy_identity(100, seed)),
    ("delta-squared", lambda seed: suite_delta_squared(20, seed)),
    ("generator-value-table", lambda seed: suite_value_table()),
    ("equivariance", lambda seed: suite_equivariance()),
)


def run_all(seed: int = 0):
    results = []
    for name, fn in SUITES:
        checked, failures = fn(seed)
        results.append({"suite": name, "checked": checked, "failures": failures})
    return results
