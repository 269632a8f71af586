"""First Pontryagin number of an oriented closed triangulated 4-manifold.

Every vertex link is certified a 3-sphere by bistellar reduction; replaying
each reduction backwards (simplex boundary to link) and collecting, per
step, the essential induced moves on the vertex links of the intermediate
3-spheres yields an equivariant cycle in the graph of 2-spheres.  Half the
value of the pricing class on that cycle is the Pontryagin number; the
result is an exact rational, independent of the reduction sequences used.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from . import canonical
from .complexes import (ComplexError, OrientedComplex, oriented_links,
                        require_closed)
from .gamma2 import Chain1, is_cycle, mirror_chain, edge_of_move
from .moves import MoveSequence, induced_vertex_moves
from .reduction import BudgetExhausted, ReductionConfig, reduce_sphere
from .solver import SolverBudget, evaluate_c0


class LinkNotCertified(ComplexError):
    def __init__(self, vertex, reason):
        super().__init__(f"link of vertex {vertex}: {reason}")
        self.vertex = vertex


class AssembledChainNotACycle(ComplexError):
    pass


@dataclass
class Manifold4Input:
    complex: OrientedComplex

    def __post_init__(self):
        if self.complex.dim != 4:
            raise ComplexError(f"need a 4-complex, got dim {self.complex.dim}")


@dataclass
class VerificationReport:
    links: Dict[int, MoveSequence] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"links": [
            {"vertex": v, "vertices": len(seq.initial.vertices),
             "facets": len(seq.initial.facets),
             "reduction_moves": len(seq)}
            for v, seq in sorted(self.links.items())]}


def verify_4manifold(K: Manifold4Input,
                     cfg: Optional[ReductionConfig] = None) -> VerificationReport:
    """Certify every vertex link as a 3-sphere; raises LinkNotCertified."""
    cfg = cfg or ReductionConfig()
    oc = K.complex
    report = VerificationReport()
    links = oriented_links(oc, oc.vertices)
    for v, lk in links.items():
        try:
            require_closed(lk.complex)
        except ComplexError as exc:
            raise LinkNotCertified(v, str(exc))
    for v in sorted(links):
        try:
            report.links[v] = reduce_sphere(links[v], cfg)
        except BudgetExhausted as exc:
            raise LinkNotCertified(v, str(exc))
    return report


def assemble_p1_cycle(K: Manifold4Input,
                      reductions: Dict[int, MoveSequence]):
    """The equivariant move cycle of the manifold, with a registry from the
    code of every link under it to that link.

    Reductions run link -> simplex boundary; the sums of the formula run the
    other way, so each reduction is replayed forward once and its steps are
    walked last to first, each as the inverse move.  The induced moves on
    the links of the intermediate 3-spheres that are edges of the graph of
    2-spheres (``edge_of_move`` is not None) make up the cycle.
    """
    oc = K.complex
    links = oriented_links(oc, oc.vertices)
    edges = []
    registry: dict = {}
    for v in sorted(oc.vertices):
        seq = reductions[v]
        if seq.initial != links[v]:
            raise ComplexError(f"reduction for vertex {v} starts elsewhere")
        for before, m, after in reversed(list(seq.replay())):
            for rec in induced_vertex_moves(after, m.inverse(), before):
                e = edge_of_move(rec.link_before, rec.induced,
                                 L2=rec.link_after)
                if e is None:
                    continue
                edges.append(e)
                for lk in (rec.link_before, rec.link_after):
                    registry.setdefault(canonical.sphere_data(lk).code, lk)
    half = Chain1(edges)
    gamma = half - mirror_chain(half)
    if not is_cycle(gamma):
        raise AssembledChainNotACycle("equivariant assembly has boundary")
    return gamma, registry


def pontryagin_number(K: Manifold4Input,
                      cfg: Optional[ReductionConfig] = None,
                      budget: Optional[SolverBudget] = None,
                      reductions: Optional[Dict[int, MoveSequence]] = None):
    """Exact first Pontryagin number plus the decomposition certificate."""
    report = None
    if reductions is None:
        report = verify_4manifold(K, cfg)
        reductions = report.links
    gamma, registry = assemble_p1_cycle(K, reductions)
    value, cert = evaluate_c0(gamma, registry, budget)
    return value / 2, cert, report, gamma
