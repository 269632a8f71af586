import itertools
import random
from fractions import Fraction

import pytest

from plp1 import canonical as canon
from plp1 import complexes as cx
from plp1 import gamma2 as g2
from plp1 import generators as gen
from plp1 import moves as mv
from plp1 import solver as sv
from plp1.reduction import verify_sequence

from conftest import OCTAHEDRON, oriented
from isomorphism import automorphisms


def spec(kind, *params):
    return gen.GeneratorSpec(kind, tuple(params))


def test_value_table():
    assert gen.c0_of(spec("S1_0")) == 0
    assert gen.c0_of(spec("S2_0")) == 0
    assert gen.c0_of(spec("S3_0")) == 0
    assert gen.c0_of(spec("S1_1", 3, 3)) == 0
    assert gen.c0_of(spec("S1_1", 1, 2)) == Fraction(1, 210)
    assert gen.c0_of(spec("S1_2", 1, 2)) == Fraction(1, 60) - Fraction(1, 60)
    assert gen.c0_of(spec("S2_2", 1, 1)) == Fraction(1, 30)
    assert gen.c0_of(spec("S4", 1, 1, 1)) == 0
    assert gen.c0_of(spec("S5", 2, 2, 2, 2)) == 0
    assert gen.c0_of(spec("S6", 2, 2, 2, 2, 2)) == Fraction(1, 6)


def test_alpha1_is_closed_4_move_loop(octahedron, loop_moves):
    g = gen.build_alpha1(octahedron, (1, 2, 3), (6, 5, 4))
    [(L, moves)] = loop_moves
    assert L is octahedron and len(moves) == 4
    assert g.spec.kind == "S1_0"
    assert g2.is_cycle(g.chain)
    loop = mv.MoveSequence(octahedron, moves)
    assert verify_sequence(octahedron, loop) == octahedron


def test_alpha1_classification_cases(octahedron):
    g = gen.build_alpha1(octahedron, (1, 2, 3), (4, 5, 6))
    assert g.spec == spec("S1_0")
    g = gen.build_alpha1(octahedron, (1, 2, 3), (1, 4, 5))
    assert g.spec.kind == "S1_1" and sum(g.spec.params) == 2
    d3 = cx.boundary_simplex(3)
    g = gen.build_alpha1(d3, (0, 1, 2), (0, 1, 3))
    assert g.spec == spec("S1_2", 1, 1)


def test_alpha1_antisymmetry(stacked6):
    a = gen.build_alpha1(stacked6, (1, 2, 3), (1, 4, 5))
    b = gen.build_alpha1(stacked6, (1, 4, 5), (1, 2, 3))
    assert a.chain == -b.chain
    assert a.value == -b.value


def test_alpha1_shared_vertex_params_swap(stacked6):
    a = gen.build_alpha1(stacked6, (1, 2, 3), (1, 4, 5))
    b = gen.build_alpha1(stacked6, (1, 4, 5), (1, 2, 3))
    assert a.spec.params == tuple(reversed(b.spec.params))


def test_alpha2_loop_and_error(octahedron, loop_moves):
    g = gen.build_alpha2(octahedron, (1, 2, 3), (4, 5))
    assert [len(moves) for _, moves in loop_moves] == [4]
    assert g2.is_cycle(g.chain)
    with pytest.raises(gen.AnchorConfigurationInvalid):
        gen.build_alpha2(octahedron, (1, 2, 3), (1, 2))  # edge inside triangle


def test_alpha3_admissible_pair(octahedron, loop_moves):
    assert gen.admissible_pair(octahedron, (1, 2), (3, 5))
    assert not gen.admissible_pair(octahedron, (1, 2), (1, 3))  # share a facet
    g = gen.build_alpha3(octahedron, (1, 2), (3, 5))
    assert [len(moves) for _, moves in loop_moves] == [4]
    assert g2.is_cycle(g.chain)
    with pytest.raises(gen.AnchorConfigurationInvalid):
        gen.build_alpha3(octahedron, (1, 2), (1, 3))


def test_alpha4_on_boundary_simplex_prices_to_zero():
    d3 = cx.boundary_simplex(3)
    g = gen.build_alpha4(d3, 1, 2, 3)
    assert g.spec == spec("S4", 1, 1, 1)
    assert g.value == 0
    assert g2.is_cycle(g.chain)


def test_alpha4_generic_has_three_terms(stacked6):
    L7 = mv.apply_move(stacked6, mv.make_move(stacked6, (2, 3, 6),
                                              new_vertex=7))
    g = gen.build_alpha4(L7, 2, 3, 6)
    assert g.spec.kind == "S4"
    assert len(set(g.spec.params)) == 3  # asymmetric anchors
    assert len(g.chain) == 3
    assert g2.is_cycle(g.chain)


def test_alpha5_pentagon(octahedron, loop_moves):
    g = gen.build_alpha5(octahedron, 1, 3, 2, 4)
    assert [len(moves) for _, moves in loop_moves] == [5]
    assert g.spec.kind == "S5"
    assert g2.is_cycle(g.chain)
    with pytest.raises(gen.AnchorConfigurationInvalid):
        gen.build_alpha5(octahedron, 1, 3, 6, 4)  # not the two-triangle pattern


def test_alpha5_rejects_a_lone_edge():
    """Triangles 124 and 134 are facets and 123, 234 are not, but 23 is an
    edge: the full subcomplex on 1..4 has a lone edge beside the two
    triangles, so (1, 2, 4, 3) is no alpha5 anchor; (2, 1, 4, 6) is."""
    L = oriented([(1, 2, 4), (1, 3, 4), (2, 3, 6), (3, 4, 6), (2, 4, 6),
                  (1, 2, 5), (2, 3, 5), (1, 3, 5)])
    with pytest.raises(gen.AnchorConfigurationInvalid):
        gen.build_alpha5(L, 1, 2, 4, 3)
    assert gen.build_alpha5(L, 2, 1, 4, 6).spec.kind == "S5"


def test_alpha6_pentagon(stacked6, loop_moves):
    g = gen.build_alpha6(stacked6, 1, 2, 3, 4, 5)
    assert g.spec == spec("S6", 2, 2, 2, 2, 2)
    assert g.value == Fraction(1, 6)
    assert [len(moves) for _, moves in loop_moves] == [5]
    assert g2.is_cycle(g.chain)
    with pytest.raises(gen.AnchorConfigurationInvalid):
        gen.build_alpha6(stacked6, 1, 2, 3, 4, 6)


def test_every_enumerated_chain_is_a_cycle(bipyramid, octahedron, stacked6):
    for L in (bipyramid, octahedron, stacked6):
        for g in gen.enumerate_at(L):
            assert g2.is_cycle(g.chain)


def test_octahedron_has_s5_loops():
    octa = oriented(OCTAHEDRON)
    assert any(g.spec.kind == "S5" for g in gen.enumerate_at(octa))


def test_mirror_equivariance_of_values(stacked6, bipyramid):
    for L in (stacked6, bipyramid):
        for g in gen.enumerate_at(L)[:24:2]:
            if not g.chain:
                continue
            mirrored = g2.mirror_chain(g.chain)
            v, _ = sv.evaluate_c0(mirrored, {})
            assert v == -g.value


def test_value_consistency_on_null_relations(bipyramid, stacked6, octahedron):
    """Every exact linear relation among generator chains must be matched by
    the corresponding relation among their values: this is the guard that
    pins every chirality convention in the classifier."""
    columns = []
    for L in (bipyramid, stacked6, octahedron):
        columns += [(g.chain, g.value) for g in _every_anchor(L)]
        seen = {canon.sphere_data(L).code}
        for m in mv.admissible_moves(L):
            L2 = mv.apply_move(L, m)
            code = canon.sphere_data(L2).code
            if code in seen:
                continue
            seen.add(code)
            columns += [(g.chain, g.value) for g in _every_anchor(L2)]
    assert len(columns) > 300
    violations = sv.value_null_violations(columns)
    assert violations == []


def _every_anchor(L):
    """Reference enumeration: build every anchor in turn and keep the first
    anchor of each new nonzero normalized chain."""
    out, seen = [], set()
    for builder, anchor, _ in gen._anchors(L):
        try:
            g = builder(L, *anchor)
        except (gen.AnchorConfigurationInvalid, mv.MoveNotAdmissible):
            continue
        key = g.chain.normalized()[0].frozen()
        if key and key not in seen:
            seen.add(key)
            out.append(g)
    return out


def _columns(columns):
    """The columns as ``evaluate_c0`` keeps them: the first occurrence of
    each normalized chain, in order."""
    out, seen = [], set()
    for c in columns:
        key = c.chain.normalized()[0].frozen()
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def test_generator_spec_json():
    s = spec("S6", 2, 2, 2, 2, 2)
    assert s.to_json() == {"kind": "S6", "params": [2, 2, 2, 2, 2]}


def test_enumeration_collapses_on_symmetric_spheres():
    """All 6 triangle pairs of the simplex boundary produce fully cancelling
    loops (the automorphism group identifies every subdivision edge), and
    their common class value is 0 accordingly."""
    d3 = cx.boundary_simplex(3)
    assert not any(g.spec.kind[:2] == "S1" for g in gen.enumerate_at(d3))
    import itertools
    for t1, t2 in itertools.combinations(sorted(d3.facets), 2):
        g = gen.build_alpha1(d3, t1, t2)
        assert not g.chain and g.value == 0


def test_octahedron_admissible_pairs_exist(octahedron):
    import itertools
    adm = [e for e in sorted(octahedron.faces(1))
           if gen.admissible_pair(octahedron, e, e) or True]
    pairs = [(e1, e2) for e1, e2 in itertools.combinations(
                 sorted(octahedron.faces(1)), 2)
             if gen.admissible_pair(octahedron, e1, e2)]
    assert len(pairs) > 0
    # every edge of the octahedron is flippable, pairs exclude facet-sharing
    for e1, e2 in pairs:
        assert not any(set(e1) | set(e2) <= set(f) for f in octahedron.facets)


def _normalized_entries(chains_and_values):
    out = set()
    for chain, value in chains_and_values:
        rep, sign = chain.normalized()
        out.add((rep.frozen(), value * sign))
    return out


@pytest.fixture(scope="module")
def cp2_cycle():
    """The seed-0 cycle of cp2_9 and its registry of spheres."""
    from plp1.fixtures import cp2_9
    from plp1 import pontryagin as pt
    from plp1.reduction import ReductionConfig
    K = pt.Manifold4Input(cp2_9())
    report = pt.verify_4manifold(K, ReductionConfig(seed=0))
    return pt.assemble_p1_cycle(K, report.links)


@pytest.fixture(scope="module")
def cp2_cycle_spheres(cp2_cycle):
    """The spheres under the seed-0 cycle of cp2_9, in code order."""
    gamma, registry = cp2_cycle
    codes = {code for key in gamma.coefficients
             for code in (key.a.code, key.b.code)}
    return [registry.get(code) or canon.complex_from_code(code)
            for code in sorted(codes)]


def test_generator_families_are_pinned(cp2_cycle_spheres, loop_moves):
    """Each loop is a written-down list of moves that the replay checks; a
    wrong cofactor makes ``enumerate_at`` drop its loop silently, so the
    family counts are pinned, and every move must be the one ``make_move``
    derives on the replayed state."""
    per_sphere, per_family, columns = [], {}, []
    for L in cp2_cycle_spheres:
        chains = gen.enumerate_at(L)
        per_sphere.append(len(chains))
        columns.append(len(_columns(chains)))
        for g in chains:
            assert g2.is_cycle(g.chain)
            family = g.spec.kind[:2]
            per_family[family] = per_family.get(family, 0) + 1
    assert loop_moves
    for L, moves in loop_moves:
        for state, m, _ in mv.MoveSequence(L, moves).replay():
            fresh = m.delta2[0] if len(m.delta1) == 3 else None
            assert mv.make_move(state, m.delta1, new_vertex=fresh) == m
    # one loop per Aut± orbit of anchors, each followed by its mirror
    # column; ``enumerate_at`` keeps the columns that repeat an earlier one
    # up to sign (some S4, S5 and S6 loops repeat other chains), so these
    # counts hold them, and ``evaluate_c0``'s dedup gives the column counts
    assert per_sphere == [44, 134, 134, 70, 82]
    assert columns == [29, 108, 108, 59, 64]
    assert per_family == {"S1": 140, "S2": 148, "S3": 16, "S4": 38,
                          "S5": 96, "S6": 26}


def test_mirror_sphere_enumerates_mirrored_chains(cp2_cycle_spheres):
    """The solver skips an anchor whose mirror it has enumerated; that is
    sound because the columns at L.reverse(), chains and their mirrors, are
    the mirrors of those at L, with negated values."""
    assert cp2_cycle_spheres
    for L in cp2_cycle_spheres:
        here = _columns(gen.enumerate_at(L))
        there = _columns(gen.enumerate_at(L.reverse()))
        assert len(here) == len(there)
        mirrored = _normalized_entries(
            (g2.mirror_chain(c.chain), -c.value) for c in here)
        assert mirrored == _normalized_entries(
            (c.chain, c.value) for c in there)


def test_enumerate_replays_each_step_once(cp2_cycle_spheres, monkeypatch,
                                          loop_moves):
    """One ``enumerate_at`` call applies each (state, move) step of its
    loops once: a reference replay of the loops it builds counts the
    distinct steps, and ``gamma2`` calls ``apply_move`` exactly that
    often, although the loops take more steps than that."""
    applied, apply_move = [], g2.apply_move
    monkeypatch.setattr(g2, "apply_move",
                        lambda L, m: applied.append(m) or apply_move(L, m))
    for L in cp2_cycle_spheres:
        loop_moves.clear()
        applied.clear()
        gen.enumerate_at(L)
        after, taken = {}, 0
        for state, moves in loop_moves:
            for m in moves:
                if (state, m) not in after:
                    after[state, m] = mv.apply_move(state, m)
                state = after[state, m]
                taken += 1
        assert len(applied) == len(after) < taken


def test_loop_chains_hold_integers(cp2_cycle, cp2_cycle_spheres):
    """Loop chains, their mirrors and the assembled cycle hold ints; only
    scaling by a non-integer and reading JSON make Fractions, which equal
    and hash like the integers they stand for."""
    import json
    gamma, _ = cp2_cycle
    chains = [gamma] + [c for L in cp2_cycle_spheres
                        for g in gen.enumerate_at(L)
                        for c in (g.chain, g2.mirror_chain(g.chain),
                                  g.chain.normalized()[0])]
    for c in chains:
        assert c and all(type(q) is int for _, q in c.items())
    half = gamma.scale(Fraction(1, 2))
    assert all(type(q) is Fraction for _, q in half.items())
    assert half.scale(2) == gamma and half.scale(2).frozen() == gamma.frozen()
    read = g2.chain_from_json(json.loads(json.dumps(gamma.to_json())))
    assert all(type(q) is Fraction for _, q in read.items())
    assert read == gamma and read.frozen() == gamma.frozen()
    assert read.to_json() == gamma.to_json()


@pytest.fixture(scope="module")
def anchor_spheres(octahedron, bipyramid, stacked6, cp2_cycle_spheres):
    """Spheres with 24, 12, 6 and 2 automorphisms, and the cp2_9 cycle."""
    return [octahedron, cx.boundary_simplex(3), bipyramid, stacked6,
            *cp2_cycle_spheres]


def _image(sigma, anchor):
    return tuple(tuple(sorted(sigma[v] for v in a)) if isinstance(a, tuple)
                 else sigma[a] for a in anchor)


def _built(builder, L, anchor):
    try:
        g = builder(L, *anchor)
    except (gen.AnchorConfigurationInvalid, mv.MoveNotAdmissible):
        return None
    return g.spec, g.value, g.chain


def test_builders_are_invariant_under_automorphisms(anchor_spheres):
    """The premise of building one anchor per Aut± orbit.  An
    orientation-preserving automorphism moves no spec, value or chain,
    and a swapped pair of the unordered families gives the negated chain,
    so a pair that one of them swaps has chain zero.  An
    orientation-reversing automorphism sigma is an orientation-preserving
    map from L.reverse() onto L, so building at sigma(a) on L gives what
    building at a on L.reverse() gives: the mirror of the chain at a.  The
    automorphisms come from a backtracking search, not from the canonical
    class records that ``enumerate_at`` reads."""
    reversing = 0
    for L in anchor_spheres:
        isos = automorphisms(L)
        plus = [i.vertex_map for i in isos if i.orientation_preserving]
        minus = [i.vertex_map for i in isos if not i.orientation_preserving]
        for builder, anchor, unordered in gen._anchors(L):
            here = _built(builder, L, anchor)
            for sigma in plus:
                assert _built(builder, L, _image(sigma, anchor)) == here
            if minus:
                there = _built(builder, L.reverse(), anchor)
            for sigma in minus:
                assert _built(builder, L, _image(sigma, anchor)) == there
                reversing += 1
            if unordered:
                swapped = _built(builder, L, anchor[::-1])
                assert (swapped is None) == (here is None)
                assert swapped is None or swapped[2] == -here[2]
                if any(_image(sigma, anchor) == anchor[::-1]
                       for sigma in plus):
                    assert here is None or not here[2]
    assert reversing > 1000


def test_enumerate_matches_building_every_anchor(anchor_spheres):
    """Reference: build every anchor in turn and keep the first anchor of
    each new normalized chain; the solver's columns, chains and their
    mirrors, must come out the same and in the same order.  A key coarser
    than the anchor's Aut± orbit, such as a tuple of per-simplex orbits,
    or a swapped pair taken for zero under an orientation-reversing map,
    drops columns here."""
    for L in anchor_spheres:
        every = [c for g in _every_anchor(L) for c in (g, g.mirror())]
        assert _columns(gen.enumerate_at(L)) == _columns(every)


def _subdivided_cycle(k: int):
    """The default cycle of cp2_9 after ``k`` seeded facet subdivisions,
    and its registry of spheres."""
    from conftest import subdivided
    from plp1.fixtures import cp2_9
    from plp1 import pontryagin as pt
    K = pt.Manifold4Input(subdivided(cp2_9(), k))
    return pt.assemble_p1_cycle(K, pt.verify_4manifold(K).links)


def _record_enumerated(monkeypatch) -> list:
    """What ``enumerate_at`` returns to ``evaluate_c0``, one list per call."""
    returned, enumerate_at = [], sv.enumerate_at

    def record_columns(L):
        returned.append(enumerate_at(L))
        return returned[-1]

    monkeypatch.setattr(sv, "enumerate_at", record_columns)
    return returned


def test_evaluate_c0_alone_drops_repeats(cp2_cycle, monkeypatch):
    """The columns the elimination gets, on the seed-0 cycle and on the
    cycle of 4 subdivisions, have distinct normalized chains, and they are
    the first occurrences among what ``enumerate_at`` returned at the
    spheres ``evaluate_c0`` enumerated, each anchor's new columns in the
    order of the seeded shuffle."""
    anchors = []
    for gamma, registry in (cp2_cycle, _subdivided_cycle(4)):
        given, certificate = [], sv._Span.certificate
        with monkeypatch.context() as m:
            returned = _record_enumerated(m)
            m.setattr(sv._Span, "certificate",
                      lambda self, cands, radius: given.append(list(cands))
                      or certificate(self, cands, radius))
            _, cert = sv.evaluate_c0(gamma, registry)
        assert cert.radius_used == 0
        cands = given[-1]
        keys = {c.chain.normalized()[0].frozen() for c in cands}
        assert len(keys) == len(cands) == cert.columns_seen
        rng, kept, seen = random.Random(0), [], set()
        for columns in returned:
            new = [c for c in _columns(columns)
                   if c.chain.normalized()[0].frozen() not in seen]
            seen.update(c.chain.normalized()[0].frozen() for c in new)
            rng.shuffle(new)
            kept += new
        # there were repeats to drop
        assert len(kept) < sum(len(columns) for columns in returned)
        assert len(cands) == len(kept)
        assert all(a is b for a, b in zip(cands, kept))
        anchors.append(len(returned))
    assert anchors == [1, 4]


def test_evaluate_c0_stops_at_the_first_anchor_that_spans(cp2_cycle,
                                                          monkeypatch):
    """The seed-0 cycle lies in the span of its smallest anchor's columns:
    ``evaluate_c0`` enumerates that one sphere and counts only its
    columns."""
    returned = _record_enumerated(monkeypatch)
    _, cert = sv.evaluate_c0(*cp2_cycle)
    assert len(returned) == 1
    assert cert.columns_seen == len(_columns(returned[0])) == 29


# Reference rules that read anchor geometry by scanning the facets and their
# positive vertex order; the classifiers read it off the rotation system.

def _positive_triple(L, f):
    x, y, z = f
    return (x, y, z) if L.signs[f] > 0 else (x, z, y)


def _scan_link_edge_at(L, f, x):
    t = _positive_triple(L, f)
    i = t.index(x)
    return (t[(i + 1) % 3], t[(i + 2) % 3])


def _scan_head_of_edge(L, f, e):
    t = _positive_triple(L, f)
    for i in range(3):
        if {t[i], t[(i + 1) % 3]} == set(e):
            return t[(i + 1) % 3]
    raise gen.AnchorConfigurationInvalid(f"{e} is not an edge of {f}")


def _scan_edge_triangles(L, e):
    tris = sorted(f for f in L.facets if set(e) <= set(f))
    return tris if len(tris) == 2 else None


def _scan_hub_of(L, x, y, z):
    hubs = [u for u in L.vertices
            if u not in (x, y, z)
            and all(tuple(sorted((u, a, b))) in L.facets
                    for a, b in ((x, y), (y, z), (z, x)))]
    if len(hubs) != 1:
        raise gen.AnchorConfigurationInvalid(f"{len(hubs)} hub vertices")
    return hubs[0]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except gen.AnchorConfigurationInvalid:
        return "invalid"


def test_rotation_reads_match_facet_scans(anchor_spheres, bipyramid):
    """The rotation-system reads of the classifiers agree with the facet
    scans they replaced, on both orientations, for edges and non-edges,
    and for triples with no hub, one hub, or two (the bipyramid's apexes)."""
    from plp1.selfcheck import random_walk
    rng = random.Random(7)
    walks = [random_walk(cx.boundary_simplex(3), rng.randrange(3, 12), rng)
             for _ in range(10)]
    invalid = set()
    for L in [*anchor_spheres, *walks]:
        for M in (L, L.reverse()):
            rot = canon.sphere_data(M).rot
            verts = sorted(M.vertices) + [max(M.vertices) + 1]
            for f in M.facets:
                for x in f:
                    assert gen._link_edge_at(rot, f, x) == \
                        _scan_link_edge_at(M, f, x)
                for e in itertools.combinations(verts, 2):
                    assert _outcome(gen._head_of_edge, rot, f, e) == \
                        _outcome(_scan_head_of_edge, M, f, e)
            for e in itertools.combinations(verts, 2):
                assert gen._edge_triangles(rot, e) == _scan_edge_triangles(M, e)
            for x, y, z in itertools.permutations(verts, 3):
                want = _outcome(_scan_hub_of, M, x, y, z)
                assert _outcome(gen._hub_of, rot, x, y, z) == want
                invalid.add(want == "invalid")
    assert invalid == {True, False}
    assert _outcome(gen._hub_of, canon.sphere_data(bipyramid).rot, 1, 2, 3) \
        == "invalid" == _outcome(_scan_hub_of, bipyramid, 1, 2, 3)
