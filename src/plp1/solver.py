"""Exact evaluation of the pricing class on cycles by decomposition.

A cycle in a graph is homologous to zero iff it is zero, so expressing a
cycle as an exact rational combination of generator chains certifies its
value: the generator families span the cycle space, and the value of the
combination is independent of the decomposition found.  The solver
enumerates generator chains anchored at the spheres supporting the cycle,
expanding in move-radius rings on failure, and solves the sparse rational
system by fraction-exact elimination.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from . import canonical
from .complexes import ComplexError, OrientedComplex
from .gamma2 import Chain1, is_cycle, mirror_chain
from .generators import GeneratorSpec, enumerate_at
from .moves import admissible_moves, apply_move


class NotACycle(ComplexError):
    pass


class NoDecompositionWithinBudget(ComplexError):
    pass


CANDIDATE_MAX = 200_000


class Eliminator:
    """Incremental exact Gaussian elimination over sparse rational vectors.

    Basis rows remember how they combine the inserted columns, so inserting
    a dependent column yields the exact null relation it closes.
    """

    def __init__(self):
        self.rows = []  # (pivot_key, reduced_vec, expr: idx -> Fraction)

    def _reduce(self, vec: dict, expr: dict):
        for pivot, col, bc in self.rows:
            c = vec.get(pivot)
            if not c:
                continue
            fac = c / col[pivot]
            for k, q in col.items():
                s = vec.get(k, Fraction(0)) - fac * q
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
            for i, q in bc.items():
                s = expr.get(i, Fraction(0)) - fac * q
                if s:
                    expr[i] = s
                else:
                    expr.pop(i, None)
        return vec, expr

    def insert(self, idx, vec: dict) -> Optional[dict]:
        """Insert column ``idx``; returns a null relation {i: a_i} with
        sum a_i * col_i = 0 when the column is dependent, else None."""
        v, expr = self._reduce(dict(vec), {})
        if not v:
            expr[idx] = expr.get(idx, Fraction(0)) + 1
            return expr
        expr[idx] = expr.get(idx, Fraction(0)) + 1
        self.rows.append((min(v), v, expr))
        return None

    def express(self, vec: dict) -> Optional[dict]:
        """{i: a_i} with vec = sum a_i * col_i, or None if out of span."""
        v, expr = self._reduce(dict(vec), {})
        if v:
            return None
        return {i: -a for i, a in expr.items() if a}


@dataclass
class Candidate:
    spec: GeneratorSpec
    mirrored: bool
    chain: Chain1
    value: Fraction


@dataclass
class DecompositionCertificate:
    terms: list            # (Candidate, Fraction coefficient)
    value: Fraction
    radius_used: int
    columns_seen: int

    def residual(self, target: Chain1) -> Chain1:
        acc = Chain1()
        for cand, coeff in self.terms:
            acc = acc + cand.chain.scale(coeff)
        return target - acc

    def to_json(self) -> dict:
        return {
            "value": f"{self.value.numerator}/{self.value.denominator}",
            "radius_used": self.radius_used,
            "columns_seen": self.columns_seen,
            "terms": [
                {"kind": c.spec.kind, "params": list(c.spec.params),
                 "mirrored": c.mirrored,
                 "coeff": f"{q.numerator}/{q.denominator}"}
                for c, q in self.terms],
        }


@dataclass
class SolverBudget:
    radius_max: int = 2
    seed: int = 0


def _candidates_at(L: OrientedComplex) -> list:
    out = []
    for g in enumerate_at(L):
        val = g.value
        out.append(Candidate(g.spec, False, g.chain, val))
        m = mirror_chain(g.chain)
        if m:
            out.append(Candidate(g.spec, True, m, -val))
    return out


def _support_complexes(chain: Chain1, registry: dict) -> dict:
    """code -> OrientedComplex for every sphere under the chain's support."""
    out = {}
    for key in chain.coefficients:
        for code in (key.a.code, key.b.code, key.a.mcode, key.b.mcode):
            if code in out:
                continue
            L = registry.get(code)
            if L is None:
                L = canonical.complex_from_code(code)
            out[code] = L
    return out


def evaluate_c0(gamma: Chain1, registry: Optional[dict] = None,
                budget: Optional[SolverBudget] = None):
    """Exact value of the pricing class on a cycle, plus its certificate.

    Raises NotACycle for non-cycles and NoDecompositionWithinBudget when the
    expanding candidate search fails; never returns an approximate answer.
    """
    if not is_cycle(gamma):
        raise NotACycle("boundary is nonzero")
    budget = budget or SolverBudget()
    if not gamma:
        return Fraction(0), DecompositionCertificate([], Fraction(0), 0, 0)

    rng = random.Random(budget.seed)
    elim = Eliminator()
    cands: list = []
    seen_chains = set()
    anchors = dict(_support_complexes(gamma, registry or {}))
    frontier = list(anchors.values())
    target = dict(gamma.coefficients)

    enumerated = set()
    for radius in range(budget.radius_max + 1):
        batch = []
        for L in frontier:
            # _candidates_at(L) already holds the mirror of every chain at
            # the mirror sphere, so an anchor whose mirror was enumerated
            # would add only duplicates.
            if canonical.mirror_code_bytes(L) in enumerated:
                continue
            enumerated.add(canonical.code_bytes(L))
            for cand in _candidates_at(L):
                rep, _ = cand.chain.normalized()
                key = rep.frozen()
                if key in seen_chains:
                    continue
                seen_chains.add(key)
                batch.append(cand)
                if len(cands) + len(batch) > CANDIDATE_MAX:
                    raise NoDecompositionWithinBudget(
                        f"more than {CANDIDATE_MAX} candidates")
        rng.shuffle(batch)
        for cand in batch:
            idx = len(cands)
            cands.append(cand)
            elim.insert(idx, cand.chain.coefficients)
        combo = elim.express(target)
        if combo is not None:
            terms = [(cands[i], q) for i, q in sorted(combo.items()) if q]
            value = sum((cands[i].value * q for i, q in combo.items()),
                        Fraction(0))
            cert = DecompositionCertificate(terms, value, radius,
                                            len(cands))
            if cert.residual(gamma):
                raise ComplexError("certificate replay failed")
            return value, cert
        if radius == budget.radius_max:
            break
        nxt: list = []
        for L in frontier:
            for m in admissible_moves(L):
                try:
                    L2 = apply_move(L, m)
                except ComplexError:
                    continue
                code = canonical.code_bytes(L2)
                if code not in anchors:
                    anchors[code] = L2
                    nxt.append(L2)
        frontier = nxt
    raise NoDecompositionWithinBudget(
        f"no decomposition within radius {budget.radius_max} "
        f"({len(cands)} candidates)")


def value_null_violations(columns: Iterable) -> list:
    """Violated null relations among (chain, value) columns.

    Every exact linear relation among generator chains must be matched by
    the same relation among their values; any violation witnesses an
    inconsistent chirality convention and is returned for inspection.
    """
    cols = list(columns)
    elim = Eliminator()
    bad = []
    for i, (chain, value) in enumerate(cols):
        rel = elim.insert(i, dict(chain.coefficients))
        if rel is None:
            continue
        total = sum((cols[j][1] * a for j, a in rel.items()), Fraction(0))
        if total:
            bad.append((rel, total))
    return bad
