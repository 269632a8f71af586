import random

import pytest

from plp1.complexes import OrientedComplex, orient, simplex, sort_parity
from plp1.moves import admissible_moves, apply_move


def oriented(facets) -> OrientedComplex:
    return orient(facets)


OCTAHEDRON = [(1, 2, 3), (1, 3, 5), (1, 5, 4), (1, 4, 2),
              (6, 2, 3), (6, 3, 5), (6, 5, 4), (6, 4, 2)]

BIPYRAMID = [(1, 2, 4), (2, 3, 4), (1, 3, 4), (1, 2, 5), (2, 3, 5), (1, 3, 5)]

# 6-vertex stacked sphere: vertex 1 of degree 5, fan 2-3-4-5 around it
STACKED6 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
            (2, 6, 3), (3, 6, 4), (4, 6, 5)]

RP2_6 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
         (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


@pytest.fixture(scope="session")
def octahedron():
    return oriented(OCTAHEDRON)


@pytest.fixture(scope="session")
def bipyramid():
    return oriented(BIPYRAMID)


@pytest.fixture(scope="session")
def stacked6():
    return oriented(STACKED6)


@pytest.fixture
def loop_moves(monkeypatch):
    """(start sphere, moves) of every loop that ``generators`` replays
    while the test runs, in build order: what ``_finish`` hands to
    ``loop_to_chain``, recorded once the replay has closed."""
    from plp1 import generators
    loops, replay = [], generators.loop_to_chain

    def record(L, moves, steps=None):
        moves = list(moves)
        chain = replay(L, moves, steps)
        loops.append((L, moves))
        return chain

    monkeypatch.setattr(generators, "loop_to_chain", record)
    return loops


def product_sphere_circle(m: int = 3) -> OrientedComplex:
    """Staircase triangulation of (2-sphere) x (circle on m vertices):
    a closed orientable 3-manifold that is not a sphere."""
    tris = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    edges = [(k, k + 1) for k in range(m - 1)] + [(0, m - 1)]

    def lab(v, k):
        return (v - 1) * m + k + 1

    tets = []
    for a, b, c in tris:
        for s, t in edges:
            tets.append([lab(a, s), lab(b, s), lab(c, s), lab(c, t)])
            tets.append([lab(a, s), lab(b, s), lab(b, t), lab(c, t)])
            tets.append([lab(a, s), lab(a, t), lab(b, t), lab(c, t)])
    return oriented(tets)


def relabeled(L: OrientedComplex, perm: dict) -> OrientedComplex:
    signs = {}
    for f, s in L.signs.items():
        img = tuple(perm[v] for v in f)
        signs[simplex(img)] = s * sort_parity(img)
    return OrientedComplex(signs)


def subdivided(K: OrientedComplex, k: int, seed: int = 0) -> OrientedComplex:
    """K after ``k`` stellar subdivisions of seeded random facets; each adds
    one vertex and ``dim`` facets."""
    rng = random.Random(seed)
    for _ in range(k):
        K = apply_move(K, rng.choice(admissible_moves(K, (K.dim + 1,))))
    return K


def euler_characteristic(L: OrientedComplex) -> int:
    """The alternating sum of the face counts of L."""
    return sum((-1) ** d * len(L.faces(d)) for d in range(L.dim + 1))


def write_facets(path, K: OrientedComplex) -> None:
    """K as an ``orient=explicit`` facet file, a negative facet written
    with its last two vertices swapped."""
    lines = [f"dim={K.dim}", "orient=explicit"]
    for f in sorted(K.facets):
        row = list(f)
        if K.signs[f] < 0:
            row[-1], row[-2] = row[-2], row[-1]
        lines.append(" ".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n")


def reversed_entry(entry: dict) -> dict:
    """A chain-file entry with "from" and "to" swapped and its coefficient
    negated: the same edge, the same chain."""
    e = entry["edge"]
    num, den = entry["coeff"].split("/")
    return {"edge": {"from": e["to"], "from_orbit": e["to_orbit"],
                     "to": e["from"], "to_orbit": e["from_orbit"]},
            "coeff": f"{-int(num)}/{den}"}
