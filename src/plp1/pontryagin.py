"""First Pontryagin number of an oriented closed triangulated 4-manifold.

Every vertex link is certified a 3-sphere by bistellar reduction; replaying
each reduction backwards (simplex boundary to link) and collecting, per
step, the essential induced moves on the vertex links of the intermediate
3-spheres yields an equivariant cycle in the graph of 2-spheres.  Half the
value of the pricing class on that cycle is the Pontryagin number; the
result is an exact rational, independent of the reduction sequences used.

What a vertex contributes depends only on its link, so the per-vertex work
of ``verify_4manifold`` (reduction) and of ``assemble_p1_cycle`` (replay and
induced moves) is split into one share per usable CPU: vertices are dealt
round robin in sorted order, the calling process computes the first share
and each other share runs in a forked child that pickles its results back.
The results are merged in sorted vertex order and an error names the least
failing vertex, so every output is that of one serial loop, whatever the
split.  The work runs inline, in one share, on one CPU, without ``os.fork``
or ``os.sched_getaffinity``, when other threads are alive, or on inputs of
fewer than ``SPLIT_MIN_FACETS`` facets.
"""
from __future__ import annotations

import os
import sys
from typing import Dict, Optional

from . import canonical, reduction
from .complexes import (ComplexError, OrientedComplex, oriented_links,
                        require_closed)
from .gamma2 import Chain1, is_cycle, mirror_chain, edge_of_move
from .moves import MoveSequence, induced_vertex_moves
from .reduction import BudgetExhausted, ReductionConfig, reduce_sphere
from .solver import SolverBudget, evaluate_c0

# Inputs with fewer facets run their vertex links inline: below this, a
# second CPU saves about 10 ms of wall time or less, while the fork, the
# pickled results and the busy second core add about 25 ms of CPU time.
SPLIT_MIN_FACETS = 64


class LinkNotCertified(ComplexError):
    def __init__(self, vertex, reason):
        super().__init__(f"link of vertex {vertex}: {reason}")
        self.vertex = vertex
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.vertex, self.reason)


class AssembledChainNotACycle(ComplexError):
    pass


class Manifold4Input:
    """A closed oriented 4-complex, the input of the pipeline."""

    def __init__(self, complex: OrientedComplex):
        if complex.dim != 4:
            raise ComplexError(f"need a 4-complex, got dim {complex.dim}")
        self.complex = complex


class VerificationReport:
    """The certified reduction of every vertex link, by vertex."""

    def __init__(self, links: Optional[Dict[int, MoveSequence]] = None):
        self.links = {} if links is None else links

    def to_json(self) -> dict:
        return {"links": [
            {"vertex": v, "vertices": len(seq.initial.vertices),
             "facets": len(seq.initial.facets),
             "reduction_moves": len(seq)}
            for v, seq in sorted(self.links.items())]}


def _share_count(facets: int, vertices: int) -> int:
    """How many shares the per-vertex work of an input is split into."""
    if (facets < SPLIT_MIN_FACETS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), vertices)


def _run_share(work, vertices):
    """("ok", results) of ``work`` over ``vertices`` in order, or
    ("error", vertex, exception) for the first vertex that raises."""
    out = []
    for v in vertices:
        try:
            out.append(work(v))
        except Exception as exc:
            return "error", v, exc
    return "ok", out


def _per_vertex(work, vertices, facets: int) -> dict:
    """``{v: work(v)}`` in sorted vertex order, computed in shares (see the
    module docstring); raises the error of the least failing vertex."""
    order = sorted(vertices)
    n = _share_count(facets, len(order))
    if n == 1:
        return {v: work(v) for v in order}
    import gc
    import pickle
    import signal
    shares = [order[i::n] for i in range(n)]
    children = []  # (pid, read end of its pipe) of the uncollected shares
    # a frozen object is never scanned by a child's collector, so the memory
    # pages it shares with this process stay shared
    gc.freeze()
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    blob = pickle.dumps(_run_share(work, share),
                                        pickle.HIGHEST_PROTOCOL)
                    with os.fdopen(w, "wb") as out:
                        out.write(blob)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, r))
        outcomes = [_run_share(work, shares[0])]
        for share in shares[1:]:
            pid, r = children[0]
            blob = b"".join(iter(lambda: os.read(r, 1 << 20), b""))
            children.pop(0)
            os.close(r)
            os.waitpid(pid, 0)
            if not blob:
                raise ChildProcessError(
                    f"the share of vertices {share} returned no result")
            outcomes.append(pickle.loads(blob))
    finally:
        gc.unfreeze()
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    errors = [o[1:] for o in outcomes if o[0] == "error"]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    merged = {}
    for share, (_, results) in zip(shares, outcomes):
        merged.update(zip(share, results))
    return {v: merged[v] for v in order}


def verify_4manifold(K: Manifold4Input,
                     cfg: Optional[ReductionConfig] = None) -> VerificationReport:
    """Certify every vertex link as a 3-sphere; raises LinkNotCertified."""
    cfg = cfg or ReductionConfig()
    oc = K.complex
    links = oriented_links(oc, oc.vertices)
    for v, lk in links.items():
        try:
            require_closed(lk)
        except ComplexError as exc:
            raise LinkNotCertified(v, str(exc))

    def reduce_link(v):
        try:
            return reduce_sphere(links[v], cfg).moves
        except BudgetExhausted as exc:
            raise LinkNotCertified(v, str(exc))

    moves = _per_vertex(reduce_link, links, len(oc.facets))
    return VerificationReport({v: MoveSequence(links[v], ms)
                               for v, ms in moves.items()})


def assemble_p1_cycle(K: Manifold4Input,
                      reductions: Dict[int, MoveSequence]):
    """The equivariant move cycle of the manifold, with a registry from the
    code of every link under it to that link.

    Reductions run link -> simplex boundary; the sums of the formula run the
    other way, so each reduction is replayed forward once and its steps are
    walked last to first, each as the inverse move.  The links of the
    simplex boundary a reduction ends on are read once and carried back
    through the walk by ``induced_vertex_moves``.  The induced moves on
    the links of the intermediate 3-spheres that are edges of the graph of
    2-spheres (``edge_of_move`` is not None) make up the cycle.  The
    registry keeps the first link seen per code, in sorted vertex order.
    """
    oc = K.complex
    missing = sorted(set(oc.vertices) - set(reductions))
    if missing:
        raise ComplexError(f"no reduction for vertices {missing}")
    links = oriented_links(oc, oc.vertices)
    seen = set()  # codes this share has already reported

    def walk(v):
        seq = reductions[v]
        if seq.initial != links[v]:
            raise ComplexError(f"reduction for vertex {v} starts elsewhere")
        edges, firsts = [], []
        steps = list(seq.replay())
        state = steps[-1][2] if steps else seq.initial
        if not reduction._is_target(state):
            raise ComplexError(
                f"reduction for vertex {v} does not end on a simplex boundary")
        carried = oriented_links(state, state.vertices)
        for before, m, after in reversed(steps):
            for rec in induced_vertex_moves(carried, m.inverse(), before):
                e = edge_of_move(rec.link_before, rec.induced, rec.link_after)
                if e is None:
                    continue
                edges.append(e)
                for lk in (rec.link_before, rec.link_after):
                    code = canonical.sphere_data(lk).code
                    if code not in seen:
                        seen.add(code)
                        firsts.append((code, lk))
        return edges, firsts

    edges = []
    registry: dict = {}
    for v_edges, firsts in _per_vertex(walk, oc.vertices,
                                       len(oc.facets)).values():
        edges.extend(v_edges)
        for code, lk in firsts:
            registry.setdefault(code, lk)
    half = Chain1(edges)
    gamma = half - mirror_chain(half)
    if not is_cycle(gamma):
        raise AssembledChainNotACycle("equivariant assembly has boundary")
    return gamma, registry


def pontryagin_number(K: Manifold4Input,
                      cfg: Optional[ReductionConfig] = None,
                      budget: Optional[SolverBudget] = None):
    """Exact first Pontryagin number plus the decomposition certificate."""
    report = verify_4manifold(K, cfg)
    gamma, registry = assemble_p1_cycle(K, report.links)
    value, cert = evaluate_c0(gamma, registry, budget)
    return value / 2, cert, report, gamma
