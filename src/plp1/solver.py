"""Exact evaluation of the pricing class on cycles by decomposition.

A cycle in a graph is homologous to zero iff it is zero, so expressing a
cycle as an exact rational combination of generator chains certifies its
value: the generator families span the cycle space, and the value of the
combination is independent of the decomposition found.  The solver
enumerates generator chains anchored at the spheres supporting the cycle,
expanding in move-radius rings on failure.  Each radius is solved once
modulo a prime, eliminating the columns in order only until the cycle lies
in their span, and lifted by rational reconstruction; the exact replay of
the certificate decides whether it is accepted.  An unlucky prime gives
way to the next (the last one only after unlucky ones), and the radius
grows only when some prime found the cycle out of span and none gave a
certificate.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, NamedTuple, Optional

from . import canonical
from .complexes import ComplexError
from .gamma2 import Chain1, is_cycle
from .generators import enumerate_at
from .moves import admissible_moves, apply_move


class NotACycle(ComplexError):
    pass


class NoDecompositionWithinBudget(ComplexError):
    pass


CANDIDATE_MAX = 200_000


# The primes of the modular elimination, tried in order; all are prime
# (tests/test_solver.py checks it).  The two word-size ones admit every
# fraction whose numerator and denominator are below 2**30; the Mersenne
# prime 2**521 - 1, tried only when both are unlucky, admits those below
# 2**259.
PRIMES = (2**61 - 1, 2**62 - 57, 2**521 - 1)


class UnluckyPrime(ComplexError):
    """A result modulo the prime that has no small rational preimage, or
    whose preimage fails the exact check; the next prime is tried."""


def rational(r: int, p: int) -> Fraction:
    """The fraction a/b with |a|, b <= sqrt(p/2) and a = r*b mod p.

    Wang's rational reconstruction: the extended Euclidean algorithm on
    (p, r), stopped at the first remainder below the bound.  Such a
    fraction is unique when it exists; raises UnluckyPrime when it does
    not.
    """
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, r % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        raise UnluckyPrime(f"{r} has no small preimage modulo {p}")
    return Fraction(r1, t1)


class Eliminator:
    """Gaussian elimination modulo a prime over sparse columns.

    Columns map keys to rationals and are read as residues modulo
    ``prime``.  A column is reduced by subtracting the row whose pivot is
    its largest key that is a pivot, until no key is one; a row's keys are
    at most its pivot, so that key strictly decreases and no row is met
    twice.  ``insert`` makes a column independent of the earlier ones a
    row, keyed by its pivot, the largest key it keeps (so a row holds no
    earlier row's pivot): the reduced column scaled so the pivot is 1, its
    column index, and the multiples of earlier rows its reduction
    subtracted.  A dependent column is reduced to zero, and the steps of
    that reduction are what ``combination`` substitutes back, from the
    last row to the first, to write the column over the earlier ones;
    ``express`` does the same for any vector.
    """

    def __init__(self, prime: int = PRIMES[0]):
        self.prime = prime
        self.rows = {}  # pivot -> (row, column, 1 / pivot entry, multiples)

    def _residues(self, vec: dict) -> dict:
        p = self.prime
        try:
            out = {k: (q if type(q) is int
                       else q.numerator * pow(q.denominator, -1, p)) % p
                   for k, q in vec.items()}
        except ValueError:
            raise UnluckyPrime(f"a denominator vanishes modulo {p}") from None
        return {k: r for k, r in out.items() if r}

    def _reduce(self, vec: dict):
        """vec reduced by the rows, and [(pivot, multiple subtracted)]."""
        rows, steps, p = self.rows, [], self.prime
        while (pivot := max(filter(rows.__contains__, vec),
                            default=None)) is not None:
            c = vec[pivot]
            for k, q in rows[pivot][0].items():  # vec -= c * row
                if s := (vec.get(k, 0) - c * q) % p:
                    vec[k] = s
                else:
                    del vec[k]
            steps.append((pivot, c))
        return vec, steps

    def insert(self, idx, vec: dict) -> Optional[list]:
        """Insert column ``idx``: None when it became a row, else the
        reduction steps of the dependent column for ``combination``."""
        v, steps = self._reduce(self._residues(vec))
        if not v:
            return steps
        pivot, p = max(v), self.prime
        inv = pow(v[pivot], -1, p)
        self.rows[pivot] = ({k: q * inv % p for k, q in v.items()},
                            idx, inv, steps)
        return None

    def express(self, vec: dict) -> Optional[dict]:
        """{i: a_i} with vec = sum a_i * col_i, lifted to rationals by
        ``rational``, or None if vec is out of span modulo the prime.  The
        pipeline does not call it; it stays as the plain elimination of
        every column that the solver's early stop is tested against, and
        as a traced name."""
        v, steps = self._reduce(self._residues(vec))
        return None if v else self.combination(steps)

    def combination(self, steps: list) -> dict:
        """{i: a_i}, lifted by ``rational``, with sum a_i * col_i the
        vector that ``steps`` reduced to zero."""
        p, out, coeff = self.prime, {}, dict(steps)  # vec over the rows
        for pivot in reversed(self.rows):
            if coeff.get(pivot):
                _, idx, inv, sub = self.rows[pivot]
                a = out[idx] = coeff[pivot] * inv % p
                for j, c in sub:
                    coeff[j] = (coeff.get(j, 0) - a * c) % p
        return {i: rational(a, p) for i, a in out.items()}


def _over_primes(solve, final: bool = True):
    """The first result of solve(prime) over the primes of PRIMES; solve
    raises UnluckyPrime when its result fails the exact check and returns
    None when it finds none.  None when no prime gave a result and at
    least one found none.  The last prime, the slowest, serves only
    results the others cannot reconstruct, so it is not tried once an
    earlier one has found none; with ``final`` False, while more columns
    are still to come, no prime is tried after one that found none."""
    found_none = False
    for prime in PRIMES:
        if found_none and (not final or prime == PRIMES[-1]):
            break
        try:
            out = solve(prime)
        except UnluckyPrime:
            continue
        if out is not None:
            return out
        found_none = True
    if found_none:
        return None
    raise ComplexError("no prime in PRIMES gives an exact result")


class DecompositionCertificate(NamedTuple):
    terms: list            # (GeneratorChain, Fraction coefficient)
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
                {**c.spec.to_json(), "mirrored": c.mirrored,
                 "coeff": f"{q.numerator}/{q.denominator}"}
                for c, q in self.terms],
        }


class SolverBudget(NamedTuple):
    radius_max: int = 2
    seed: int = 0


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

    ``registry`` maps codes to the complexes ``assemble_p1_cycle`` met;
    the solver's anchors are labelled as there, which fixes the
    certificate found.  Any other code under the cycle is rebuilt from the
    code itself with ``canonical.complex_from_code``.

    The anchors of a radius are enumerated one at a time, fewest vertices
    first (a code's length is 7V - 12) and then by code; each anchor's new
    columns are shuffled by the seeded generator and fed to the
    elimination, which stops the search once the cycle lies in their span.

    Raises ValueError for a negative ``radius_max``, NotACycle for
    non-cycles, NoDecompositionWithinBudget when the expanding candidate
    search fails, and ComplexError when every prime of PRIMES is unlucky;
    every returned value has passed the exact replay of its certificate.
    """
    budget = budget or SolverBudget()
    if budget.radius_max < 0:
        raise ValueError(f"radius_max {budget.radius_max} is negative")
    if not is_cycle(gamma):
        raise NotACycle("boundary is nonzero")
    if not gamma:
        return Fraction(0), DecompositionCertificate([], Fraction(0), 0, 0)

    rng = random.Random(budget.seed)
    cands: list = []
    seen_chains = set()
    anchors = _support_complexes(gamma, registry or {})
    frontier = list(anchors)
    spans: dict = {}  # prime -> _Span of gamma over cands

    def solve(prime):
        if prime not in spans:
            spans[prime] = _Span(gamma, prime)
        return spans[prime].certificate(cands, radius)

    enumerated = set()
    for radius in range(budget.radius_max + 1):
        for code in sorted(frontier, key=lambda c: (len(c), c)):
            # enumerate_at(L) already holds the mirror of every column at
            # the mirror sphere, so an anchor whose mirror was enumerated
            # would add only repeats.
            data = canonical.sphere_data(anchors[code])
            if data.mirror_code in enumerated:
                continue
            enumerated.add(data.code)
            batch = []
            for cand in enumerate_at(anchors[code]):
                key = cand.chain.normalized()[0].frozen()
                if key in seen_chains:
                    continue
                seen_chains.add(key)
                batch.append(cand)
                if len(cands) + len(batch) > CANDIDATE_MAX:
                    raise NoDecompositionWithinBudget(
                        f"more than {CANDIDATE_MAX} candidates")
            rng.shuffle(batch)
            cands += batch
            cert = _over_primes(solve, final=False)
            if cert is not None:
                return cert.value, cert
        cert = _over_primes(solve)
        if cert is not None:
            return cert.value, cert
        if radius == budget.radius_max:
            break
        nxt: list = []
        for code in frontier:
            L = anchors[code]
            data = canonical.sphere_data(L)
            for m in admissible_moves(L):
                L2 = apply_move(L, m)
                code2 = data.after(m, L2).code
                if code2 not in anchors:
                    anchors[code2] = L2
                    nxt.append(code2)
        frontier = nxt
    raise NoDecompositionWithinBudget(
        f"no decomposition within radius {budget.radius_max} "
        f"({len(cands)} candidates)")


class _Span:
    """The elimination of gamma modulo one prime, resumed as columns come.

    Each column is inserted once, in order, until gamma lies in the span
    of those so far.  The residual of gamma holds no pivot: a new row
    holds no earlier row's pivot, so only a new row whose pivot is a key
    of the residual changes it, and the eliminator's own reduction then
    restores that, its steps being what ``combination`` substitutes back.
    A later column could only add a row with coefficient zero, because
    gamma's representation over independent rows is unique; so the
    certificate is the one all columns would give."""

    def __init__(self, gamma: Chain1, prime: int):
        self.gamma, self.coord, self.elim = gamma, {}, Eliminator(prime)
        # EdgeKey -> integer coordinate, gamma's keys first
        self.residual = self.elim._residues(_on_coordinates(gamma, self.coord))
        self.steps = []  # (pivot, multiple subtracted from the residual)
        self.fed = 0     # columns of cands inserted so far

    def certificate(self, cands: list, radius: int):
        """Insert the columns of ``cands`` not yet inserted: the
        certificate of gamma over them, None when gamma is out of their
        span modulo the prime; raises UnluckyPrime when the certificate
        does not replay exactly."""
        elim = self.elim
        while self.residual and self.fed < len(cands):
            idx, self.fed = self.fed, self.fed + 1
            col = _on_coordinates(cands[idx].chain, self.coord)
            if (elim.insert(idx, col) is None
                    and next(reversed(elim.rows)) in self.residual):
                self.steps += elim._reduce(self.residual)[1]
        if self.residual:
            return None
        terms = [(cands[i], q)
                 for i, q in sorted(elim.combination(self.steps).items())]
        value = sum((c.value * q for c, q in terms), Fraction(0))
        cert = DecompositionCertificate(terms, value, radius, len(cands))
        if cert.residual(self.gamma):
            raise UnluckyPrime(f"no exact replay modulo {elim.prime}")
        return cert


def _on_coordinates(chain: Chain1, coord: dict) -> dict:
    """The chain's coefficients keyed by coordinate, numbering new keys."""
    return {coord.setdefault(k, len(coord)): q
            for k, q in chain.coefficients.items()}


def value_null_violations(columns: Iterable) -> list:
    """Violated null relations among (chain, value) columns.

    Every exact linear relation among generator chains must be matched by
    the same relation among their values; any violation witnesses an
    inconsistent chirality convention and is returned for inspection.
    Each column is inserted once; a dependent one's relation is
    substituted back from its reduction steps, lifted, and checked exactly
    on the chains before its values are summed.
    """
    cols = list(columns)
    return _over_primes(lambda prime: _value_null_violations(cols, prime))


def _value_null_violations(cols: list, prime: int) -> list:
    bad, elim = [], Eliminator(prime)
    for i, (chain, value) in enumerate(cols):
        steps = elim.insert(i, chain.coefficients)
        if steps is None:
            continue
        combo = elim.combination(steps)
        rel = {i: Fraction(1), **{j: -a for j, a in combo.items()}}
        if sum((cols[j][0].scale(a) for j, a in rel.items()), Chain1()):
            raise UnluckyPrime(f"relation closed by column {i} is not exact")
        total = sum((cols[j][1] * a for j, a in rel.items()), Fraction(0))
        if total:
            bad.append((rel, total))
    return bad
