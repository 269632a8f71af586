"""Skew local functions on oriented 2-spheres and the maps they generate.

A local function of degree n assigns rationals to isomorphism classes of
oriented (n-1)-spheres, skew under orientation reversal (symmetric spheres
get 0 structurally).  Production tables live on 2-spheres (degree 3);
evaluation on higher spheres happens through vertex-link sums.  The chain
homotopy identity d = delta s + s delta is exposed as an executable check:
it exercises every orientation convention in the package at once.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable

from . import canonical
from .complexes import (ComplexError, OrientedComplex, orient, oriented_link,
                        oriented_links)
from .moves import Move, apply_move, induced_vertex_moves


class DimensionMismatch(ComplexError):
    pass


class LocalFunction:
    """Finitely tabulated skew function on oriented 2-spheres (degree 3).

    The table is stored on one orientation representative per class; looking
    up the mirror negates, and symmetric classes are forced to zero.
    """

    degree = 3

    def __init__(self, entries: Iterable = ()):
        self.table: Dict[bytes, Fraction] = {}
        for L, value in entries:
            self.set_value(L, value)

    def set_value(self, L: OrientedComplex, value) -> None:
        value = Fraction(value)
        data = canonical.sphere_data(L)
        code, mirror = data.code, data.mirror_code
        if code == mirror:
            if value:
                raise ComplexError("symmetric sphere must have value 0")
            return
        if mirror < code:
            code, value = mirror, -value
        if value:
            self.table[code] = value
        else:
            self.table.pop(code, None)

    def value(self, L: OrientedComplex) -> Fraction:
        data = canonical.sphere_data(L)
        code, mirror = data.code, data.mirror_code
        if code == mirror:
            return Fraction(0)
        if mirror < code:
            return -self.table.get(mirror, Fraction(0))
        return self.table.get(code, Fraction(0))


def delta_eval(f: LocalFunction, L: OrientedComplex) -> Fraction:
    """(delta f)(L) = sum of f over the oriented vertex links of L."""
    if L.dim != f.degree:
        raise DimensionMismatch(f"need a {f.degree}-dimensional complex")
    return sum(map(f.value, oriented_links(L, L.vertices).values()),
               Fraction(0))


def delta2_eval(f: LocalFunction, M: OrientedComplex) -> Fraction:
    """(delta delta f)(M) on a 4-dimensional complex; exactly zero for any
    skew table when the link orientation convention is coherent."""
    if M.dim != f.degree + 1:
        raise DimensionMismatch(f"need a {f.degree + 1}-dimensional complex")
    return sum((delta_eval(f, lk)
                for lk in oriented_links(M, M.vertices).values()), Fraction(0))


def build_L_beta(L1: OrientedComplex, m: Move) -> OrientedComplex:
    """The sphere C L1 union C L2 union (d1 * d2) of a move, oriented so the
    induced orientation of the link of the second cone vertex is L2."""
    L2 = apply_move(L1, m)
    top = max(max(L1.vertices), max(L2.vertices))
    u1, u2 = top + 1, top + 2
    out = orient([f + (u1,) for f in L1.facets]
                 + [f + (u2,) for f in L2.facets] + [m.delta1 + m.delta2])
    return out if oriented_link(out, u2) == L2 else out.reverse()


def identity_terms(L1: OrientedComplex, m: Move) -> list:
    """The signed spheres of d = delta s + s delta on one move between
    2-spheres: (d f)(e) = f(L2) - f(L1); (delta(s f))(e) sums f over the
    glued spheres of the induced circle moves; (s(delta f))(e) sums f over
    the vertex links of the glued sphere of the move itself.  Returns
    (sign, sphere) pairs of the residual d - delta s - s delta, in that
    order: L1, L2, each glued sphere, each link."""
    if L1.dim != 2:
        raise DimensionMismatch("identity checked on 2-sphere moves")
    L2 = apply_move(L1, m)
    links = oriented_links(L1, L1.vertices)
    terms = [(-1, L1), (1, L2)]
    terms += [(-1, build_L_beta(rec.link_before, rec.induced))
              for rec in induced_vertex_moves(links, m, L2)]
    L_beta = build_L_beta(L1, m)
    terms += [(-1, lk) for lk in oriented_links(L_beta, L_beta.vertices).values()]
    return terms


def prop_identity_residual(f: LocalFunction, L1: OrientedComplex, m: Move) -> Fraction:
    """Residual of d = delta s + s delta on one move between 2-spheres; zero
    for every skew table exactly when the orientation conventions cohere."""
    return sum((sign * f.value(S) for sign, S in identity_terms(L1, m)),
               Fraction(0))
