import random
import re
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
    key, sign = g2.edge_of_move(stacked6, m, mv.apply_move(stacked6, m))
    with pytest.raises(sv.NotACycle):
        sv.evaluate_c0(g2.Chain1({key: sign}), {})


def test_single_alpha4_loop(stacked6):
    d3 = cx.boundary_simplex(3)
    g = gen.build_alpha4(d3, 1, 2, 3)
    value, cert = sv.evaluate_c0(g.chain)
    assert value == 0


def test_single_alpha6_loop(stacked6):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    value, cert = sv.evaluate_c0(g.chain)
    assert value == Fraction(1, 6)
    assert cert.residual(g.chain) == g2.Chain1()


def test_shuffle_invariance(stacked6):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    values = set()
    for seed in (0, 1, 2, 3):
        v, _ = sv.evaluate_c0(g.chain, budget=sv.SolverBudget(seed=seed))
        values.add(v)
    assert values == {Fraction(1, 6)}


def test_equivariance(stacked6, bipyramid):
    for L in (stacked6, bipyramid):
        for g in gen.enumerate_at(L)[:16:2]:
            if not g.chain:
                continue
            v, _ = sv.evaluate_c0(g.chain)
            mv_, _ = sv.evaluate_c0(g2.mirror_chain(g.chain), {})
            assert mv_ == -v


def test_linearity(stacked6):
    gs = [g for g in gen.enumerate_at(stacked6) if not g.mirrored][:2]
    a, b = Fraction(3), Fraction(-7, 2)
    combo = gs[0].chain.scale(a) + gs[1].chain.scale(b)
    v, _ = sv.evaluate_c0(combo)
    v0, _ = sv.evaluate_c0(gs[0].chain)
    v1, _ = sv.evaluate_c0(gs[1].chain)
    assert v == a * v0 + b * v1


def test_certificate_json(stacked6):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    _, cert = sv.evaluate_c0(g.chain)
    blob = cert.to_json()
    assert blob["value"] == "1/6"
    assert isinstance(blob["terms"], list) and blob["terms"]


def _families(L, *families):
    """The columns ``enumerate_at`` returns at L of the named families."""
    return [g for g in gen.enumerate_at(L) if g.spec.kind[:2] in families]


def test_budget_exhaustion_reported(stacked6, monkeypatch):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    monkeypatch.setattr(sv, "enumerate_at", lambda L: _families(L, "S1"))
    with pytest.raises(sv.NoDecompositionWithinBudget):
        sv.evaluate_c0(g.chain, budget=sv.SolverBudget(radius_max=0))


def _decompose_every_column(gamma, cands, radius, prime):
    """Reference for ``solver._Span``: insert every column, then express
    gamma over them."""
    coord = {}
    target = sv._on_coordinates(gamma, coord)
    elim = sv.Eliminator(prime)
    for idx, cand in enumerate(cands):
        elim.insert(idx, sv._on_coordinates(cand.chain, coord))
    combo = elim.express(target)
    if combo is None:
        return None
    terms = [(cands[i], q) for i, q in sorted(combo.items())]
    value = sum((c.value * q for c, q in terms), Fraction(0))
    cert = sv.DecompositionCertificate(terms, value, radius, len(cands))
    if cert.residual(gamma):
        raise sv.UnluckyPrime(f"no exact replay modulo {prime}")
    return cert


def _record_inserts(monkeypatch) -> list:
    """(prime, column index) of every ``Eliminator.insert`` while the test
    runs, in call order."""
    inserts, insert = [], sv.Eliminator.insert
    monkeypatch.setattr(sv.Eliminator, "insert",
                        lambda self, idx, vec: inserts.append((self.prime, idx))
                        or insert(self, idx, vec))
    return inserts


def test_negative_radius_is_refused(stacked6):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    with pytest.raises(ValueError, match="radius_max -1"):
        sv.evaluate_c0(g.chain, budget=sv.SolverBudget(radius_max=-1))


@pytest.fixture(scope="module")
def priced_cycles():
    """(name, cycle, registry, seed): the cycles of cp2_9, its reverse and
    cp2_9 after 1 to 4 facet subdivisions, and the chains of
    ``test_cli.PINNED_C0_CYCLE`` as read back from JSON."""
    import json
    import conftest
    from plp1 import pontryagin as pt
    from plp1.fixtures import cp2_9
    from plp1.reduction import ReductionConfig
    out = []
    for k in range(5):
        for rev in ((False, True) if k == 0 else (False,)):
            K = conftest.subdivided(cp2_9(), k)
            K = pt.Manifold4Input(K.reverse() if rev else K)
            links = pt.verify_4manifold(K).links
            gamma, registry = pt.assemble_p1_cycle(K, links)
            out.append((f"cp2_9+{k}{'r' if rev else ''}", gamma, registry, 0))
    K = pt.Manifold4Input(cp2_9())
    gamma, _ = pt.assemble_p1_cycle(
        K, pt.verify_4manifold(K, ReductionConfig(seed=0)).links)
    alpha6 = gen.build_alpha6(conftest.oriented(conftest.STACKED6),
                              1, 2, 3, 4, 5).chain
    for name, chain in (("alpha6", alpha6), ("cp2_9", gamma)):
        read = g2.chain_from_json(json.loads(json.dumps(chain.to_json())))
        out += [(f"{name} seed {seed}", read, {}, seed) for seed in (0, 3)]
    return out


def test_early_stop_keeps_the_certificate(priced_cycles, monkeypatch):
    """Eliminating only until gamma lies in the span gives the certificate
    of eliminating every column built, modulo the same prime, with fewer
    inserts than columns."""
    inserts, calls = _record_inserts(monkeypatch), []
    certificate = sv._Span.certificate
    monkeypatch.setattr(sv._Span, "certificate",
                        lambda self, cands, radius: calls.append(
                            (self.elim.prime, list(cands), radius))
                        or certificate(self, cands, radius))
    found = {}
    for name, gamma, registry, seed in priced_cycles:
        inserts.clear()
        budget = sv.SolverBudget(seed=seed)
        value, cert = sv.evaluate_c0(gamma, registry, budget)
        found[name] = (len(inserts), cert.columns_seen)
        prime, cands, radius = calls[-1]
        assert len(cands) == cert.columns_seen, name
        ref = _decompose_every_column(gamma, cands, radius, prime)
        assert (value, cert.terms) == (ref.value, ref.terms), name
        assert cert.to_json() == ref.to_json(), name
    assert found["cp2_9+0"][0] < found["cp2_9+0"][1] == 29
    assert found["cp2_9+4"][0] < found["cp2_9+4"][1] == 221


@pytest.mark.parametrize("q", [Fraction(10**9, 7), 10**12, Fraction(10**40, 3),
                               Fraction(1, 10**40)],
                         ids=["1e9/7", "1e12", "1e40/3", "1e-40"])
def test_large_coefficients_solve_over_the_last_prime(priced_cycles, q):
    """A cycle scaled past the reconstruction bound of the word-size primes
    is solved modulo the last prime: q times the value, the same terms with
    q times their coefficients."""
    _, gamma, registry, _ = priced_cycles[0]
    value, cert = sv.evaluate_c0(gamma, registry)
    scaled_value, scaled = sv.evaluate_c0(gamma.scale(q), registry)
    assert scaled_value == q * value
    assert scaled.terms == [(c, q * a) for c, a in cert.terms]
    assert not scaled.residual(gamma.scale(q))


def _combine(combo, cols):
    out = {}
    for i, c in combo.items():
        for k, q in cols[i].items():
            out[k] = out.get(k, 0) + c * q
    return {k: q for k, q in out.items() if q}


def test_eliminator_relations():
    cols = [{"a": Fraction(1), "b": Fraction(2)}, {"b": Fraction(1)},
            {"a": Fraction(2), "b": Fraction(1)}]
    e = sv.Eliminator()
    e.insert(0, cols[0])
    e.insert(1, cols[1])
    # the third column is dependent: express gives the relation it closes
    rel = e.express(cols[2])
    assert rel is not None and set(rel) <= {0, 1}
    assert _combine(rel, cols) == cols[2]
    e.insert(2, cols[2])
    sol = e.express({"a": Fraction(3), "b": Fraction(1)})
    assert _combine(sol, cols) == {"a": Fraction(3), "b": Fraction(1)}
    assert e.express({"z": Fraction(1)}) is None

    # Relations and solutions that are true fractions are reconstructed.
    f = sv.Eliminator()
    f.insert(0, {"a": 3})
    assert f.express({"a": 2}) == {0: Fraction(2, 3)}
    f.insert(1, {"a": 2})
    assert f.express({"a": 1}) == {0: Fraction(1, 3)}
    assert f.express({"a": Fraction(5, 7)}) == {0: Fraction(5, 21)}
    f.insert(2, {"b": Fraction(1, 2), "c": Fraction(-3, 4)})
    assert f.express({"a": 1, "b": 2, "c": -3}) == {0: Fraction(1, 3), 2: 4}

    # Each row past the first was reduced by the one before it, so the
    # solution is substituted back through both.
    h, cols = sv.Eliminator(), [{"a": 1, "b": 1}, {"a": 1, "c": 1},
                                {"b": 1, "c": 1}]
    for i, c in enumerate(cols):
        h.insert(i, c)
    half = Fraction(1, 2)
    assert h.express({"a": 1}) == {0: half, 1: half, 2: -half}


def _exact_rank_grows(rows: list, col: dict) -> bool:
    """Fraction Gaussian elimination: reduce col by the (pivot, row) pairs
    in order, each row 1 at its pivot and 0 at every earlier pivot, and
    append the reduced column as a row when it is nonzero."""
    vec = {k: Fraction(q) for k, q in col.items()}
    for pivot, row in rows:
        c = vec.get(pivot)
        if c:
            for k, q in row.items():
                vec[k] = vec.get(k, 0) - c * q
            vec = {k: q for k, q in vec.items() if q}
    if vec:
        pivot = next(iter(vec))
        rows.append((pivot, {k: q / vec[pivot] for k, q in vec.items()}))
    return bool(vec)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("key", [lambda i: i, lambda i: (i % 3, -i)],
                         ids=["int", "tuple"])
def test_eliminator_agrees_with_exact_elimination(seed, key):
    """Random sparse integer columns, about a third of them combinations of
    earlier ones: a column becomes a row exactly when the exact rank
    grows, a dependent column's combination and the expression of an
    in-span vector rebuild them exactly, and the steps name pivots in
    strictly decreasing order."""
    rng = random.Random(seed)
    keys = [key(i) for i in range(14)]
    cols, exact, elim, multi_step = [], [], sv.Eliminator(), False
    for i in range(40):
        if i > 2 and rng.random() < 0.35:
            col = _combine({j: rng.randint(-3, 3)
                            for j in rng.sample(range(i), 3)}, cols)
        else:
            col = {k: q for k in rng.sample(keys, rng.randint(1, 4))
                   if (q := rng.randint(-4, 4))}
        cols.append(col)
        steps = elim.insert(i, col)
        assert (steps is None) == _exact_rank_grows(exact, col), i
        if steps is not None:
            pivots = [k for k, _ in steps]
            assert pivots == sorted(set(pivots), reverse=True), i
            multi_step |= len(pivots) > 1
            combo = elim.combination(steps)
            assert set(combo) <= set(range(i)), i
            assert _combine(combo, cols) == col, i
    assert multi_step
    for _ in range(10):
        vec = _combine({j: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for j in rng.sample(range(len(cols)), 4)}, cols)
        assert _combine(elim.express(vec), cols) == vec
    assert elim.express({key(99): 1}) is None


def test_rational_reconstruction():
    p = sv.PRIMES[0]
    for q in (Fraction(0), Fraction(-5, 6), Fraction(2**30 - 1, 2**30 - 3)):
        assert sv.rational(q.numerator * pow(q.denominator, -1, p), p) == q
    with pytest.raises(sv.UnluckyPrime):
        sv.rational(10**15 + 38, p)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: these bases decide every n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    assert n < 3_317_044_064_679_887_385_961_981
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_mersenne_prime(n: int) -> bool:
    """Lucas-Lehmer: n = 2**e - 1, e an odd prime, is prime exactly when
    s = 4, s -> s*s - 2, reaches 0 modulo n after e - 2 steps."""
    e = n.bit_length()
    assert n == 2**e - 1 and e > 2 and _is_prime(e)
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % n
    return s == 0


def test_primes_are_prime():
    assert [_is_prime(n) for n in (2, 97, 561, 2**31 - 1, 2**61 - 3)] == [
        True, True, False, True, False]
    assert [_is_mersenne_prime(2**e - 1) for e in (3, 11, 61, 67, 521, 523)] == [
        True, False, True, False, True, False]
    for p in sv.PRIMES:  # a Mersenne entry 2**e - 1 by Lucas-Lehmer
        assert _is_mersenne_prime(p) if p & (p + 1) == 0 else _is_prime(p)
    assert len(set(sv.PRIMES)) == len(sv.PRIMES)


@pytest.mark.parametrize("bad", [5, 7])
def test_unlucky_prime_is_retried(stacked6, monkeypatch, bad):
    """Modulo 5 the alpha6 loop lifts to a wrong decomposition that the
    replay rejects; modulo 7 a coefficient has no small preimage.  Either
    way the next prime gives the unpatched answer, and with no next prime
    the solver raises instead of returning."""
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    value, cert = sv.evaluate_c0(g.chain)
    monkeypatch.setattr(sv, "PRIMES", (bad,) + sv.PRIMES)
    v, c = sv.evaluate_c0(g.chain)
    assert v == value and c.to_json() == cert.to_json()
    monkeypatch.setattr(sv, "PRIMES", (bad,))
    with pytest.raises(cx.ComplexError, match="no prime"):
        sv.evaluate_c0(g.chain)


def _radius_one_case(stacked6, monkeypatch):
    """The first S2_2 (1, 1) chain at STACKED6, priced with the S3 and S5
    families only: it decomposes one move ring out, not at radius 0."""
    g = next(g for g in gen.enumerate_at(stacked6)
             if g.spec == gen.GeneratorSpec("S2_2", (1, 1)))
    monkeypatch.setattr(sv, "enumerate_at", lambda L: _families(L, "S3", "S5"))
    return g


def test_decomposition_at_radius_one(stacked6, monkeypatch):
    g = _radius_one_case(stacked6, monkeypatch)
    value, cert = sv.evaluate_c0(g.chain)
    assert value == g.value == Fraction(-1, 30)
    assert (cert.radius_used, cert.columns_seen) == (1, 254)
    assert not cert.residual(g.chain)


def test_out_of_span_modulo_one_prime_keeps_the_radius(stacked6, monkeypatch):
    """Modulo 5 the radius-1 columns miss the chain; the next prime still
    finds the unpatched certificate there, also at radius_max=1."""
    g = _radius_one_case(stacked6, monkeypatch)
    _, cert = sv.evaluate_c0(g.chain)
    monkeypatch.setattr(sv, "PRIMES", (5,) + sv.PRIMES)
    for budget in (sv.SolverBudget(), sv.SolverBudget(radius_max=1)):
        _, c = sv.evaluate_c0(g.chain, budget=budget)
        assert c.to_json() == cert.to_json()


def test_out_of_span_cycle_skips_the_last_prime(stacked6, monkeypatch):
    """A cycle out of the span of the radius-0 columns is eliminated modulo
    the two word-size primes only, each column once modulo each: the first
    prime as each anchor's columns come, the second at the end of the
    radius.  The slow last prime lifts large coefficients and has nothing
    to add once a prime found no result."""
    g = _radius_one_case(stacked6, monkeypatch)
    inserts = _record_inserts(monkeypatch)
    with pytest.raises(sv.NoDecompositionWithinBudget) as failure:
        sv.evaluate_c0(g.chain, budget=sv.SolverBudget(radius_max=0))
    n = int(re.search(r"\((\d+) candidates\)", str(failure.value))[1])
    assert n > 0
    assert inserts == [(p, i) for p in sv.PRIMES[:2] for i in range(n)]


def test_null_relations_retry_unlucky_prime(stacked6, monkeypatch):
    columns = [(g.chain, g.value) for g in gen.enumerate_at(stacked6)]
    assert sv.value_null_violations(columns) == []
    monkeypatch.setattr(sv, "PRIMES", (5,) + sv.PRIMES)
    assert sv.value_null_violations(columns) == []
    monkeypatch.setattr(sv, "PRIMES", (5,))
    with pytest.raises(cx.ComplexError, match="no prime"):
        sv.value_null_violations(columns)


from hypothesis import given, settings, strategies as st


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=-5, max_value=5), st.fractions(min_value=-5, max_value=5))
def test_chain_scaling_linearity_property(a, b):
    from plp1.complexes import boundary_simplex
    d3 = boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    key, sign = g2.edge_of_move(d3, m, mv.apply_move(d3, m))
    c = g2.Chain1({key: sign})
    left = c.scale(a) + c.scale(b)
    right = c.scale(a + b)
    assert left == right
