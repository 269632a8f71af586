"""The chain algebra of the graph of oriented 2-spheres.

Vertices of the graph are canonical codes of oriented 2-spheres; an edge is
an equivalence class of essential bistellar moves, identified by the codes
of its two endpoints together with the automorphism orbits of the move's
simplex on either side.  The key of a move and of its inverse coincide with
opposite signs; an inessential move (orbit data palindromic) yields no edge
at all.  Chains are sparse maps from edge keys to exact rationals: a
coefficient is an ``int`` until a chain is scaled by a non-``int`` or read
from JSON, and a ``Fraction`` from then on.  ``1 == Fraction(1)`` and both
hash alike, so equality, dedup keys and ``to_json`` see no difference.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from . import canonical
from .complexes import ComplexError, OrientedComplex
from .moves import Move, MoveNotAdmissible, apply_move


class LoopNotClosed(ComplexError):
    pass


class ChainFormatError(ComplexError):
    pass


class EndPoint(NamedTuple):
    """One endpoint of an edge: sphere code, move-simplex orbit, and the
    corresponding data on the orientation-reversed sphere."""
    code: bytes
    orbit: tuple
    mcode: bytes
    morbit: tuple

    def mirrored(self) -> "EndPoint":
        return EndPoint(self.mcode, self.morbit, self.code, self.orbit)


class EdgeKey(NamedTuple):
    """Canonicalized unoriented edge; ``a <= b`` fixes the stored direction."""
    a: EndPoint
    b: EndPoint

    def mirror(self):
        """The mirror edge with the sign relating stored directions."""
        ma, mb = self.a.mirrored(), self.b.mirrored()
        if (mb, ma) < (ma, mb):
            return EdgeKey(mb, ma), -1
        return EdgeKey(ma, mb), 1

    def to_json(self) -> dict:
        return {"from": self.a.code.hex(), "from_orbit": list(self.a.orbit),
                "to": self.b.code.hex(), "to_orbit": list(self.b.orbit)}


def endpoint(d, s) -> EndPoint:
    """The endpoint at the simplex s of the sphere whose data is d."""
    return EndPoint(d.code, d.orbit(s), d.mirror_code, d.orbit(s, mirror=True))


def edge_of_move(L: OrientedComplex, m: Move, L2: OrientedComplex):
    """(EdgeKey, sign) of an essential move L -> L2, or None when inessential.

    This is the one rule for essential moves.  A move is inessential when
    its two endpoints agree: the spheres before and after have the same
    code, and the move's simplex and the inverse move's simplex the same
    orbit (equal code and orbit force equal mirror data).

    The sign is +1 when the move's direction is the stored canonical one;
    the inverse move returns the same key with the opposite sign.  L2 is
    read through ``SphereData.after``, so it must be what ``apply_move``
    makes of L by m.
    """
    d = canonical.sphere_data(L)
    src = endpoint(d, m.delta1)
    dst = endpoint(d.after(m, L2), m.delta2)
    if src == dst:
        return None
    if (dst, src) < (src, dst):
        return EdgeKey(dst, src), -1
    return EdgeKey(src, dst), 1


def _exact(q):
    """q itself when it is an int, else Fraction(q)."""
    return q if isinstance(q, int) else Fraction(q)


class Chain1:
    """Sparse rational 1-chain on edge keys; zero coefficients are dropped.
    Integer coefficients stay ints; any other becomes a Fraction."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=None):
        pairs = coefficients or ()
        if hasattr(pairs, "items"):
            pairs = pairs.items()
        self.coefficients = _sparse_sum((k, _exact(q)) for k, q in pairs)

    def __bool__(self):
        return bool(self.coefficients)

    def __eq__(self, other):
        return isinstance(other, Chain1) and self.coefficients == other.coefficients

    def __len__(self):
        return len(self.coefficients)

    def items(self):
        return self.coefficients.items()

    def __add__(self, other: "Chain1") -> "Chain1":
        c = Chain1()
        c.coefficients = _sparse_sum(other.coefficients.items(),
                                     dict(self.coefficients))
        return c

    def __sub__(self, other: "Chain1") -> "Chain1":
        return self + other.scale(-1)

    def __neg__(self) -> "Chain1":
        return self.scale(-1)

    def scale(self, q) -> "Chain1":
        q = _exact(q)
        c = Chain1()
        if q:
            c.coefficients = {k: v * q for k, v in self.coefficients.items()}
        return c

    def normalized(self):
        """(representative, sign): the chain scaled so its least key has a
        positive coefficient; used to deduplicate candidate columns."""
        if not self.coefficients:
            return self, 1
        k0 = min(self.coefficients)
        if self.coefficients[k0] < 0:
            return self.scale(-1), -1
        return self, 1

    def frozen(self):
        return frozenset(self.coefficients.items())

    def to_json(self) -> list:
        out = []
        for k, q in sorted(self.coefficients.items()):
            out.append({"edge": k.to_json(), "coeff": f"{q.numerator}/{q.denominator}"})
        return out


def _sparse_sum(pairs, out=None) -> dict:
    """Add each (key, value) pair into ``out`` (a new dict by default);
    a key whose sum is zero is dropped.  The one accumulation rule of
    chains and boundaries."""
    out = {} if out is None else out
    for k, q in pairs:
        v = out.get(k, 0) + q
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def mirror_chain(c: Chain1) -> Chain1:
    res = Chain1()
    res.coefficients = _sparse_sum((mk, q * s)
                                   for k, q in c.coefficients.items()
                                   for mk, s in (k.mirror(),))
    return res


def boundary(c: Chain1) -> dict:
    """Sparse boundary on sphere codes; loop edges contribute nothing."""
    return _sparse_sum(pair for k, q in c.coefficients.items()
                       for pair in ((k.b.code, q), (k.a.code, -q)))


def is_cycle(c: Chain1) -> bool:
    return not boundary(c)


def chain_from_json(entries: Iterable[dict]) -> Chain1:
    """Rebuild a chain from its JSON form.

    Each endpoint sphere is rebuilt from its canonical code, once per code,
    only to check the edge's orbits and recompute its mirror data; no
    sphere is handed out, since ``evaluate_c0`` rebuilds any code it is not
    given a complex for.  Raises ChainFormatError, naming the entry, on
    anything but a list of {"edge": {...}, "coeff": "p/q"} entries whose
    orbits are canonical orbits of faces of their spheres, with int labels
    (not bool) and no label repeated, and whose two endpoints differ.
    """
    spheres: dict = {}

    def end(code_hex: str, orbit) -> EndPoint:
        code = bytes.fromhex(code_hex)
        L = spheres.get(code)
        if L is None:
            L = spheres[code] = canonical.complex_from_code(code)
        data = canonical.sphere_data(L)
        orbit = tuple(orbit)
        if any(type(c) is not int for c in orbit):  # 1.0 and True pass as 1
            raise ValueError(f"{list(orbit)} has a label that is not an int")
        # the simplex the orbit names under the sphere's labeling
        inv = {c: v for v, c in data.label.items()}
        s = tuple(sorted(inv[c] for c in orbit))
        # has_simplex compares vertex sets, so a repeated label is caught here
        if (not s or len(set(s)) < len(s) or not L.has_simplex(s)
                or data.orbit(s) != orbit):
            raise ValueError(f"{list(orbit)} is not the orbit of a face")
        return endpoint(data, s)

    if not isinstance(entries, list):
        raise ChainFormatError(
            f"expected a list of entries, got {type(entries).__name__}")
    items = []
    for i, entry in enumerate(entries):
        try:
            e = entry["edge"]
            a = end(e["from"], e["from_orbit"])
            b = end(e["to"], e["to_orbit"])
            if a == b:
                raise ValueError("the edge joins an endpoint to itself")
            num, den = entry["coeff"].split("/")
            items.append((EdgeKey(a, b), Fraction(int(num), int(den))))
        except (LookupError, TypeError, ValueError, AttributeError,
                ZeroDivisionError, ComplexError) as exc:
            raise ChainFormatError(
                f"entry {i}: {type(exc).__name__}: {exc}") from None
    return Chain1(items)


def loop_to_chain(L0: OrientedComplex, moves: Iterable[Move],
                  steps: Optional[dict] = None) -> Chain1:
    """Signed sum of the edges of a closed move loop, inessential steps
    dropped; raises LoopNotClosed unless the replay returns to a sphere
    orientation-preservingly isomorphic to the start.

    ``steps`` maps (state, move) to (next state, edge or None) for every
    step already replayed and priced; a step not in it is applied and
    checked by ``apply_move`` (a failure names the step and records
    nothing), priced by ``edge_of_move`` and recorded.  None means a fresh
    table.  Loops replayed through one table share their common steps.

    The result is a cycle with no further check: each kept step adds
    code(after) - code(before) to the boundary and a dropped step has equal
    codes, so the boundary telescopes to code(final) - code(L0) = 0.  No
    sphere is handed out; ``evaluate_c0`` rebuilds each code it meets."""
    steps = {} if steps is None else steps
    edges = []
    state = L0
    for j, m in enumerate(moves):
        step = steps.get((state, m))
        if step is None:
            try:
                nxt = apply_move(state, m)
            except MoveNotAdmissible as exc:
                raise MoveNotAdmissible(f"step {j}: {exc}") from exc
            step = steps[state, m] = nxt, edge_of_move(state, m, nxt)
        state, e = step
        if e is not None:
            edges.append(e)
    if canonical.sphere_data(state).code != canonical.sphere_data(L0).code:
        raise LoopNotClosed("replay does not return to the initial sphere")
    return Chain1(edges)
