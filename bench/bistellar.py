"""Bistellar moves on oriented pure complexes held as plain facet maps.

This is the benchmark's own move code.  It builds the benchmark inputs and
replays reduction sequences returned by ``plp1``, so it imports nothing from
``plp1``.  A complex is a dict from facet (a sorted vertex tuple) to its sign,
the parity of the facet's orientation against the sorted vertex order.

The move on a face d1 whose link is the boundary of a missing simplex d2
replaces d1 * boundary(d2) by boundary(d1) * d2.  Facets the move keeps keep
their signs; the new facets take the signs the neighbours force on them.
"""
from __future__ import annotations

import hashlib
import itertools
import random


class NotAdmissible(ValueError):
    pass


def row_sign(row) -> int:
    """Sign of the permutation that sorts ``row`` (labels distinct)."""
    sign = 1
    for i in range(len(row)):
        for j in range(i + 1, len(row)):
            if row[i] > row[j]:
                sign = -sign
    return sign


def parse_facets(text: str) -> dict:
    """Facet map of an ``orient=explicit`` facet file."""
    explicit = False
    signs = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("dim="):
            continue
        if line.startswith("orient="):
            explicit = line[7:].strip() == "explicit"
            continue
        row = [int(tok) for tok in line.split()]
        signs[tuple(sorted(row))] = row_sign(row)
    if not explicit:
        raise ValueError("facet file lacks orient=explicit")
    return signs


def format_facets(signs: dict, comment: str) -> str:
    """``orient=explicit`` text whose row orders realise the signs."""
    dim = len(next(iter(signs))) - 1
    lines = [f"# {comment}", f"dim={dim}", "orient=explicit"]
    for f in sorted(signs):
        row = f if signs[f] > 0 else (f[1], f[0]) + f[2:]
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reverse(signs: dict) -> dict:
    return {f: -s for f, s in signs.items()}


def vertices(signs: dict) -> list:
    return sorted({v for f in signs for v in f})


def stars(signs: dict) -> dict:
    """Every face, mapped to the facets that contain it."""
    out = {}
    for f in signs:
        for k in range(1, len(f) + 1):
            for s in itertools.combinations(f, k):
                out.setdefault(s, []).append(f)
    return out


def vertex_link(signs: dict, v: int) -> dict:
    """Oriented link of ``v``: a positive facet (v, w0, .., wk) induces the
    positive facet (w0, .., wk)."""
    out = {}
    for f, s in signs.items():
        if v in f:
            i = f.index(v)
            out[f[:i] + f[i + 1:]] = s * (-1) ** i
    return out


def cofactor(signs: dict, d1: tuple, star: dict):
    """The missing simplex d2 whose boundary is the link of d1, or None.

    ``star`` is ``stars(signs)``.  A facet d1 gets the fresh vertex
    max + 1 as its cofactor.
    """
    dim = len(next(iter(signs))) - 1
    if len(d1) == dim + 1:
        return (max(vertices(signs)) + 1,) if d1 in signs else None
    lk = {tuple(v for v in f if v not in d1) for f in star.get(d1, ())}
    d2 = tuple(sorted({v for f in lk for v in f}))
    if len(d2) != dim + 2 - len(d1):
        return None
    if lk != set(itertools.combinations(d2, len(d2) - 1)) or d2 in star:
        return None
    return d2


def apply(signs: dict, d1: tuple, d2: tuple) -> dict:
    """The complex after the move (d1, d2), oriented from the kept facets."""
    removed = {f for f in signs if set(d1) <= set(f)}
    added = {tuple(sorted(set(d1) - {a} | set(d2))) for a in d1}
    out = {f: s for f, s in signs.items() if f not in removed}
    if not out:
        raise NotAdmissible(f"move {d1} -> {d2} replaces the whole complex")
    ridges = {}
    for f in out:
        for i in range(len(f)):
            ridges.setdefault(f[:i] + f[i + 1:], []).append((f, i))
    pending = set(added)
    while pending:
        progress = False
        for g in sorted(pending):
            for j in range(len(g)):
                for f, i in ridges.get(g[:j] + g[j + 1:], ()):
                    want = -out[f] * (-1) ** (i + j)
                    if g in out and out[g] != want:
                        raise NotAdmissible(f"orientation conflict at {g}")
                    out[g] = want
            if g in out:
                pending.discard(g)
                progress = True
                for j in range(len(g)):
                    ridges.setdefault(g[:j] + g[j + 1:], []).append((g, j))
        if not progress:
            raise NotAdmissible("new facets meet no kept facet")
    return out


def apply_checked(signs: dict, d1, d2) -> dict:
    """Apply the move after checking it against the benchmark's own rule;
    a facet move may name any fresh vertex."""
    d1 = tuple(sorted(d1))
    d2 = tuple(sorted(d2))
    dim = len(next(iter(signs))) - 1
    if len(d1) == dim + 1:
        if d1 not in signs or len(d2) != 1 or d2[0] in vertices(signs):
            raise NotAdmissible(f"subdivision {d1} -> {d2} not admissible")
    elif cofactor(signs, d1, stars(signs)) != d2:
        raise NotAdmissible(f"move {d1} -> {d2} not admissible")
    return apply(signs, d1, d2)


def candidates(signs: dict, sizes) -> list:
    """Admissible moves (d1, d2) with |d1| in ``sizes``, in sorted order."""
    star = stars(signs)
    out = []
    for d1 in sorted(s for s in star if len(s) in sizes):
        d2 = cofactor(signs, d1, star)
        if d2 is not None:
            out.append((d1, d2))
    return out


def retriangulate(signs: dict, rng: random.Random, subdivisions: int,
                  flips: int, edges: int | None = None) -> dict:
    """Subdivide ``subdivisions`` facets, then make ``flips`` moves that keep
    the vertex count, each picked by ``rng`` from a sorted candidate list.

    With ``edges``, seeded moves that add one edge (|d2| = 2) or remove one
    (|d1| = 2) follow until the complex has that many edges.  On a closed
    4-manifold the vertex and edge counts fix the whole f-vector, so every
    seed then gives a complex of the same size.
    """
    dim = len(next(iter(signs))) - 1
    for _ in range(subdivisions):
        d1, d2 = rng.choice(candidates(signs, {dim + 1}))
        signs = apply(signs, d1, d2)
    for _ in range(flips):
        d1, d2 = rng.choice(candidates(signs, set(range(2, dim + 1))))
        signs = apply(signs, d1, d2)
    while edges is not None and (have := len(edge_set(signs))) != edges:
        d1, d2 = rng.choice(candidates(signs, {dim} if have < edges else {2}))
        signs = apply(signs, d1, d2)
    return signs


def edge_set(signs: dict) -> set:
    return {e for f in signs for e in itertools.combinations(f, 2)}


def is_simplex_boundary(signs: dict) -> bool:
    """dim + 2 distinct facets on dim + 2 vertices: every facet of the
    (dim + 1)-simplex on those vertices, so its boundary."""
    dim = len(next(iter(signs))) - 1
    return len(signs) == dim + 2 and len(vertices(signs)) == dim + 2
