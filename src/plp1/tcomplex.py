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
from .complexes import (ComplexError, OrientedComplex, Simplex,
                        oriented_link_simplex, oriented_links)
from .gamma2 import _sparse_sum
from .moves import Move, apply_move, build_L_beta, induced_vertex_moves


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


def f_sharp(f: LocalFunction, K: OrientedComplex) -> Dict[Simplex, Fraction]:
    """The chain whose coefficient at each (dim K - 3)-simplex is f of its
    oriented link; simplices carry their sorted-order reference orientation."""
    m, n = K.dim, f.degree
    if m < n:
        raise DimensionMismatch("manifold dimension below function degree")
    chain: Dict[Simplex, Fraction] = {}
    for s in K.faces(m - n):
        v = f.value(oriented_link_simplex(K, s))
        if v:
            chain[s] = v
    return chain


def chain_boundary(chain: Dict[Simplex, Fraction]) -> Dict[Simplex, Fraction]:
    return _sparse_sum((s[:i] + s[i + 1:], q * (-1) ** i)
                       for s, q in chain.items() if len(s) > 1
                       for i in range(len(s)))


def is_cycle_fsharp(f: LocalFunction, K: OrientedComplex) -> bool:
    return not chain_boundary(f_sharp(f, K))


def prop_identity_residual(f: LocalFunction, L1: OrientedComplex, m: Move) -> Fraction:
    """Residual of d = delta s + s delta on one move between 2-spheres.

    d f(e) is f(L2) - f(L1); (delta(s f))(e) sums f over the glued spheres
    of the induced circle moves; (s(delta f))(e) sums f over the vertex
    links of the glued sphere of the move itself.  The residual is zero for
    every skew table exactly when the orientation conventions cohere.
    """
    if L1.dim != 2:
        raise DimensionMismatch("identity checked on 2-sphere moves")
    L2 = apply_move(L1, m)
    lhs = f.value(L2) - f.value(L1)
    delta_sf = Fraction(0)
    for rec in induced_vertex_moves(L1, m, L2):
        delta_sf += f.value(build_L_beta(rec.link_before, rec.induced))
    L_beta = build_L_beta(L1, m)
    s_delta_f = delta_eval(f, L_beta)
    return lhs - delta_sf - s_delta_f
