import ast
import itertools
import random
from pathlib import Path

import pytest

from plp1 import canonical as canon
from plp1 import complexes as cx
from plp1 import gamma2 as g2
from plp1 import moves as mv
from plp1 import reduction as red
from plp1 import tcomplex as tc
from plp1.fixtures import cp2_9, link_L, sequence_9

from conftest import (BIPYRAMID, OCTAHEDRON, STACKED6, euler_characteristic,
                      oriented, product_sphere_circle, subdivided)
from isomorphism import iso_generic


def test_admissible_move_counts():
    assert len(mv.admissible_moves(cx.boundary_simplex(3))) == 4
    assert len(mv.admissible_moves(oriented(OCTAHEDRON))) == 20
    assert len(mv.admissible_moves(cx.boundary_simplex(4))) == 5


def _admissible_by_face(L):
    """Reference scan: make_move on every face of every sorted facet, each
    face once, in order of first appearance."""
    n = L.dim
    nv = max(L.vertices) + 1
    out, seen = [], set()
    for f in sorted(L.facets):
        for k in range(1, n + 2):
            for d1 in itertools.combinations(f, k):
                if d1 in seen:
                    continue
                seen.add(d1)
                try:
                    out.append(mv.make_move(L, d1, new_vertex=nv if k == n + 1 else None))
                except mv.MoveNotAdmissible:
                    pass
    return out


def _assert_scan_matches_reference(L):
    """admissible_moves(L, sizes), for every subset of sizes, is the
    reference scan filtered to those sizes; returns the full list."""
    reference = _admissible_by_face(L)
    assert mv.admissible_moves(L) == reference
    kinds = range(1, L.dim + 2)
    for r in kinds:
        for sizes in itertools.combinations(kinds, r):
            assert mv.admissible_moves(L, sizes) == [
                m for m in reference if len(m.delta1) in sizes]
    return reference


def test_indexed_scan_matches_per_face_scan(octahedron, stacked6):
    """On random walks from small spheres and CP2 vertex links, on the
    boundary of the 4-simplex, and on each state of one seeded reduction."""
    rng = random.Random(7)
    K = cp2_9()
    starts = [octahedron, stacked6] + [cx.oriented_link(K, v) for v in K.vertices]
    for L in starts:
        for _ in range(8):
            L = mv.apply_move(L, rng.choice(_assert_scan_matches_reference(L)))
    lk = cx.oriented_link(subdivided(K, 8), 3)
    seq = red.reduce_sphere(lk, red.ReductionConfig(seed=3))
    for L in [cx.boundary_simplex(4), lk] + [after for _, _, after in seq.replay()]:
        _assert_scan_matches_reference(L)


def test_size_rule_holds_on_closed_non_spheres():
    """The star-size rule of FaceIndex.moves agrees with the full link test
    on closed 3-manifolds that are not spheres, as the cone links that
    verify_4manifold hands reduce_sphere can be, along seeded walks."""
    rng = random.Random(29)
    for m in (3, 4):
        L = product_sphere_circle(m)
        for _ in range(25):
            L = mv.apply_move(L, rng.choice(_assert_scan_matches_reference(L)))
        _assert_scan_matches_reference(L)


def _candidate_moves(L):
    """Every face of L with the vertex set of its link as cofactor, and every
    facet with a fresh and with an existing vertex."""
    nv = max(L.vertices) + 1
    out = set()
    for f in L.facets:
        out.add(mv.Move(f, (nv,)))
        out.add(mv.Move(f, (min(L.vertices),)))
        for k in range(1, L.dim + 1):
            for d1 in itertools.combinations(f, k):
                lk = {v for g in L.facets if set(d1) <= set(g) for v in g}
                out.add(mv.Move(d1, tuple(sorted(lk - set(d1)))))
    return out


def test_apply_move_accepts_exactly_make_move(octahedron, stacked6):
    rng = random.Random(11)
    K = cp2_9()
    starts = [octahedron, stacked6] + [cx.oriented_link(K, v) for v in (1, 5, 9)]
    for L in starts:
        for _ in range(6):
            reference = _admissible_by_face(L)
            candidates = _candidate_moves(L)
            assert set(reference) <= candidates
            for m in candidates:
                try:
                    mv.apply_move(L, m)
                    accepted = True
                except mv.MoveNotAdmissible:
                    accepted = False
                assert accepted == (m in reference), m
            L = mv.apply_move(L, rng.choice(reference))


def test_admissible_moves_rejects_sizes_outside_the_faces():
    for sizes in [(0,), (4,), (1, 4), (-1, 2)]:
        with pytest.raises(ValueError):
            mv.admissible_moves(cx.boundary_simplex(3), sizes)


def _assert_index_is_fresh(index, L):
    """The index equals one built on L: signs, stars and counts, and every
    candidate list is the reference scan filtered to its sizes."""
    fresh = mv.FaceIndex(L)
    assert index.signs == L.signs and index._stars == fresh._stars
    assert index.vertices == L.vertices and len(index.facets) == len(L.facets)
    reference = _admissible_by_face(L)
    kinds = range(1, L.dim + 2)
    for r in kinds:
        for sizes in itertools.combinations(kinds, r):
            assert index.moves(sizes) == fresh.moves(sizes) == [
                m for m in reference if len(m.delta1) in sizes]


def test_face_index_follows_random_walks(octahedron, stacked6):
    """Updated move by move along seeded walks on 2- and 3-spheres, with
    every candidate list read at every state."""
    rng = random.Random(13)
    K = cp2_9()
    starts = [octahedron, stacked6, link_L()] + [
        cx.oriented_link(K, v) for v in (1, 5, 9)]
    for L in starts:
        index = mv.FaceIndex(L)
        for _ in range(10):
            _assert_index_is_fresh(index, L)
            m = rng.choice(index.moves())
            index.apply(m)
            L = mv.apply_move(L, m)
        _assert_index_is_fresh(index, L)


def test_face_index_drops_a_stale_link_test(octahedron):
    index = mv.FaceIndex(octahedron)
    assert mv.Move((1, 2), (3, 4)) in index.moves((2,))
    # the subdivision of (1, 2, 3) changes the star of the edge (1, 2)
    index.apply(mv.Move((1, 2, 3), (7,)))
    edges = index.moves((2,))
    assert mv.Move((1, 2), (4, 7)) in edges
    assert mv.Move((1, 2), (3, 4)) not in edges


def test_face_index_applies_with_the_checks_of_apply_move(octahedron, stacked6):
    """Every candidate move, hand-built bad moves, an inconsistent star and
    a move on all facets: FaceIndex.apply raises what apply_move raises,
    with the same message, and otherwise holds apply_move's signs."""
    flipped = dict(octahedron.signs)
    flipped[1, 2, 3] = -flipped[1, 2, 3]
    cases = [(L, m) for L in (octahedron, stacked6, cx.oriented_link(cp2_9(), 1))
             for m in sorted(_candidate_moves(L))]
    cases += [(octahedron, m) for m in (
        mv.Move((1, 2), (3, 5)), mv.Move((1, 2), (4, 3)), mv.Move((1, 2, 3), (6,)),
        mv.Move((2, 1), (3, 4)), mv.Move((2, 1, 3), (7,)), mv.Move((1, 6), (2, 3)))]
    cases += [(cx.OrientedComplex(flipped), mv.Move((1, 2), (3, 4))),
              (cx.OrientedComplex({(0, 1, 2): 1, (0, 1, 3): 1}),
               mv.Move((0, 1), (2, 3)))]
    raised = set()
    for L, m in cases:
        index = mv.FaceIndex(L)
        try:
            want = mv.apply_move(L, m)
        except cx.ComplexError as exc:
            with pytest.raises(type(exc)) as err:
                index.apply(m)
            assert str(err.value) == str(exc), m
            raised.add(type(exc))
        else:
            index.apply(m)
            assert index.signs == want.signs, m
    assert raised == {mv.MoveNotAdmissible, cx.NonOrientable}


def test_apply_move_rejects_hand_built_moves(octahedron):
    assert mv.make_move(octahedron, (1, 2)) == mv.Move((1, 2), (3, 4))
    mv.apply_move(octahedron, mv.Move((1, 2, 3), (7,)))
    for bad in (mv.Move((1, 2), (3, 5)),      # wrong cofactor
                mv.Move((1, 2), (4, 3)),      # unsorted cofactor
                mv.Move((1, 2, 3), (6,)),     # facet move onto a vertex
                mv.Move((2, 1), (3, 4)),      # unsorted delta1
                mv.Move((2, 1, 3), (7,))):    # unsorted facet
        with pytest.raises(mv.MoveNotAdmissible):
            mv.apply_move(octahedron, bad)
    # a wrong cofactor that is an edge names the move, not the cofactor
    # apply_move derived, (3, 4), which is no simplex of the octahedron
    for bad in (mv.Move((1, 2), (3, 5)), mv.Move((1, 2), (5, 6))):
        with pytest.raises(mv.MoveNotAdmissible) as err:
            mv.apply_move(octahedron, bad)
        assert str(err.value) == f"{bad} not admissible"
    with pytest.raises(mv.MoveNotAdmissible) as err:
        mv.apply_move(cx.boundary_simplex(3), mv.Move((0, 1), (2, 3)))
    assert str(err.value) == "cofactor (2, 3) already a simplex"


def test_links_read_together_match_one_by_one(octahedron):
    K = cp2_9()
    for L in (K, K.reverse(), octahedron, cx.oriented_link(K, 1)):
        links = cx.oriented_links(L, L.vertices)
        assert list(links) == list(L.vertices)
        for v in L.vertices:
            assert links[v] == cx.oriented_link(L, v)


def test_subdivision_counts_and_euler():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    L2 = mv.apply_move(d3, m)
    assert len(L2.facets) == 6 and len(L2.vertices) == 5
    assert euler_characteristic(L2) == 2


def test_euler_preserved_by_all_moves(octahedron):
    for m in mv.admissible_moves(octahedron):
        out = mv.apply_move(octahedron, m)
        assert euler_characteristic(out) == 2


def test_apply_then_inverse_is_identity(octahedron):
    for m in mv.admissible_moves(octahedron):
        L2 = mv.apply_move(octahedron, m)
        assert mv.apply_move(L2, m.inverse()) == octahedron


def test_inadmissible_rejected(octahedron):
    with pytest.raises(mv.MoveNotAdmissible):
        mv.make_move(octahedron, (1,))  # degree-4 vertex is not removable
    with pytest.raises(mv.MoveNotAdmissible):
        mv.apply_move(octahedron, mv.Move((1, 6), (2, 3)))  # not even an edge


def test_first_printed_step_on_link_table():
    L = link_L()
    m = mv.make_move(L, (1, 3))
    L2 = mv.apply_move(L, m)
    removed = set(L.facets) - set(L2.facets)
    added = set(L2.facets) - set(L.facets)
    assert removed == {(1, 2, 3, 4), (1, 2, 3, 7), (1, 3, 4, 7)}
    assert added == {(1, 2, 4, 7), (2, 3, 4, 7)}
    assert len(L2.facets) == 19


def test_essentialness():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    assert g2.edge_of_move(d3, m, mv.apply_move(d3, m)) is not None
    bip = oriented(BIPYRAMID)
    flip = mv.make_move(bip, (1, 2))  # equatorial edge of the bipyramid
    assert mv.apply_move(bip, flip) != bip
    assert canon.sphere_data(mv.apply_move(bip, flip)).code == canon.sphere_data(bip).code
    assert g2.edge_of_move(bip, flip, mv.apply_move(bip, flip)) is None


def test_induced_moves_of_facet_subdivision():
    d4 = cx.boundary_simplex(4)
    m = mv.make_move(d4, (0, 1, 2, 3))
    recs = mv.induced_vertex_moves(cx.oriented_links(d4, d4.vertices), m,
                                   mv.apply_move(d4, m))
    assert len(recs) == 4
    assert all(g2.edge_of_move(r.link_before, r.induced, r.link_after)
               is not None for r in recs)
    assert {r.vertex for r in recs} == {0, 1, 2, 3}
    for r in recs:
        assert mv.apply_move(r.link_before, r.induced) == r.link_after


def test_induced_moves_replay_on_3sphere_step():
    L = link_L()
    m = mv.make_move(L, (1, 3))
    recs = mv.induced_vertex_moves(cx.oriented_links(L, L.vertices), m,
                                   mv.apply_move(L, m))
    assert {r.vertex for r in recs} <= {1, 2, 3, 4, 7}
    for r in recs:
        assert mv.apply_move(r.link_before, r.induced) == r.link_after


def test_vertex_outside_support_not_reported(octahedron):
    m = mv.make_move(octahedron, (1, 2))
    recs = mv.induced_vertex_moves(
        cx.oriented_links(octahedron, octahedron.vertices), m,
        mv.apply_move(octahedron, m))
    assert all(r.vertex in (1, 2, 3, 4) for r in recs)


def test_L_beta_counts_and_links():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    lb = tc.build_L_beta(d3, m)
    assert len(lb.vertices) == 7 and len(lb.facets) == 11
    u2 = max(lb.vertices)
    u1 = u2 - 1
    assert cx.oriented_link(lb, u2) == mv.apply_move(d3, m)
    assert cx.oriented_link(lb, u1) == d3.reverse()


def test_L_beta_of_inverse_is_antiisomorphic():
    d3 = cx.boundary_simplex(3)
    m = mv.make_move(d3, (0, 1, 2))
    L2 = mv.apply_move(d3, m)
    lb = tc.build_L_beta(d3, m)
    lb_inv = tc.build_L_beta(L2, m.inverse())
    assert iso_generic(lb, lb_inv.reverse(), orientation=True) is not None


def test_inessential_move_gives_symmetric_L_beta():
    bip = oriented(BIPYRAMID)
    flip = mv.make_move(bip, (1, 2))
    lb = tc.build_L_beta(bip, flip)
    assert iso_generic(lb, lb.reverse(), orientation=True) is not None


def test_sequence_replay_and_reverse():
    seq = sequence_9()
    final = red.verify_sequence(seq.initial, seq)
    assert len(final.vertices) == 5 and len(final.facets) == 5
    inverse = mv.MoveSequence(final, [m.inverse() for m in reversed(seq.moves)])
    assert red.verify_sequence(final, inverse) == seq.initial
    text = seq.to_json()
    again = mv.MoveSequence.from_json(seq.initial, text)
    assert [m.delta1 for m in again.moves] == [m.delta1 for m in seq.moves]


def test_forward_replay_walked_backwards_is_the_inverse_replay():
    seq = sequence_9()
    inverse = mv.MoveSequence(red.verify_sequence(seq.initial, seq),
                              [m.inverse() for m in reversed(seq.moves)])
    walked = [(after, m.inverse(), before)
              for before, m, after in reversed(list(seq.replay()))]
    assert walked == list(inverse.replay())


@pytest.mark.parametrize("module,allowed", [
    (mv, {"complexes": {"ComplexError", "NonOrientable", "OrientedComplex",
                        "Simplex", "link_signs"}}),
    (red, {"complexes": {"ComplexError", "OrientedComplex"},
           "moves": {"FaceIndex", "Move", "MoveSequence"}}),
], ids=["moves", "reduction"])
def test_layered_imports(module, allowed):
    """The move kernel and the reduction import only the layers below, and
    of them only the names the pipeline uses."""
    tree = ast.parse(Path(module.__file__).read_text())
    local: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.module, "import of a whole package module"
            local.setdefault(node.module, set()).update(
                a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("plp1")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("plp1") for a in node.names)
    assert local == allowed


def test_canonical_is_read_through_sphere_data():
    """Outside ``canonical``, the package reads a sphere's canonical data
    only from ``sphere_data`` (rebuilding spheres with ``complex_from_code``
    and catching its exceptions), so no per-field wrapper comes back."""
    allowed = {"sphere_data", "complex_from_code"} | {
        name for name, obj in vars(canon).items()
        if isinstance(obj, type) and issubclass(obj, Exception)}
    for path in sorted(Path(canon.__file__).parent.glob("*.py")):
        if path.stem == "canonical":
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("plp1.")
                if module == "canonical":
                    assert {a.name for a in node.names} <= allowed, path.name
                elif module in ("", "plp1"):
                    aliases |= {a.asname or a.name for a in node.names
                                if a.name == "canonical"}
            elif isinstance(node, ast.Import):
                assert "plp1.canonical" not in {a.name for a in node.names}
        reads = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in aliases]
        assert {node.attr for node in reads} <= allowed, path.name
        bare = [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in aliases]
        assert len(bare) == len(reads), path.name


def test_orientation_is_derived_in_complexes():
    """Outside ``complexes``, no module imports ``extend_orientation`` or a
    private name of ``complexes``, so orientations are only propagated
    there."""
    def allowed(name):
        return name != "extend_orientation" and not name.startswith("_")
    for path in sorted(Path(cx.__file__).parent.glob("*.py")):
        if path.stem == "complexes":
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("plp1.")
                if module == "complexes":
                    assert all(allowed(a.name) for a in node.names), path.name
                elif module in ("", "plp1"):
                    aliases |= {a.asname or a.name for a in node.names
                                if a.name == "complexes"}
            elif isinstance(node, ast.Import):
                assert "plp1.complexes" not in {a.name for a in node.names}
        reads = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in aliases]
        assert all(allowed(node.attr) for node in reads), path.name
        bare = [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in aliases]
        assert len(bare) == len(reads), path.name


def test_columns_are_made_in_generators():
    """``solver`` takes its columns from ``enumerate_at`` alone: it imports
    nothing else from ``generators`` and does not name ``mirror_chain``,
    and no module but ``generators`` calls ``GeneratorChain(``."""
    src = Path(cx.__file__).parent
    from_generators, named = set(), set()
    for node in ast.walk(ast.parse((src / "solver.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if (node.module or "").removeprefix("plp1.") == "generators":
                from_generators |= names
            else:
                named |= names
        elif isinstance(node, ast.Import):
            named |= {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert from_generators == {"enumerate_at"}
    assert "mirror_chain" not in named
    assert not any(n.split(".")[-1] == "generators" for n in named)
    for path in sorted(src.glob("*.py")):
        if path.stem == "generators":
            continue
        calls = [node.func for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)]
        assert "GeneratorChain" not in {
            getattr(f, "id", None) or getattr(f, "attr", None)
            for f in calls}, path.name


def test_glued_sphere_links_its_second_cone_vertex_to_the_moved_sphere():
    for L1 in (oriented(OCTAHEDRON), oriented(STACKED6)):
        for m in mv.admissible_moves(L1):
            L_beta = tc.build_L_beta(L1, m)
            u2 = max(L_beta.vertices)
            assert cx.oriented_link(L_beta, u2) == mv.apply_move(L1, m), m


def _random_walk_signs_agree(L, steps, rng):
    """Apply seeded random admissible moves; at each step the local signs of
    apply_move must equal a full propagation from the surviving facets."""
    for _ in range(steps):
        m = rng.choice(mv.admissible_moves(L))
        out = mv.apply_move(L, m)
        survivors = {f: s for f, s in L.signs.items() if f in out.signs}
        assert out.signs == cx.extend_orientation(out.facets, survivors)
        L = out


def test_local_signs_match_propagation(octahedron):
    rng = random.Random(5)
    _random_walk_signs_agree(octahedron, 30, rng)
    K = cp2_9()
    for v in (1, 5, 9):
        lk = cx.oriented_link(K, v)
        _random_walk_signs_agree(lk, 12, rng)
        for w in sorted(lk.vertices)[:2]:
            _random_walk_signs_agree(cx.oriented_link(lk, w), 15, rng)


def test_inconsistent_star_is_non_orientable(octahedron):
    m = mv.make_move(octahedron, (1, 2))
    assert len(m.delta2) == 2
    f = next(f for f in sorted(octahedron.facets) if set(m.delta1) <= set(f))
    signs = dict(octahedron.signs)
    signs[f] = -signs[f]
    bad = cx.OrientedComplex(signs)
    with pytest.raises(cx.NonOrientable):
        mv.apply_move(bad, m)
