"""Spans around the public functions of each ``plp1`` module.

The traced run wraps every name in ``TRACED`` from outside the program: a
function is rebound in every ``plp1`` module that holds it, a method is
replaced on its class.  A name missing at some commit is listed as absent
instead of failing the run.  Each call records a span (name, start, end,
parent span); spans stay in memory until ``write`` and are aggregated per
name as they close.

Self time is a span's duration minus the time its child spans cover.  Layer
self time (``layer_self_s``) subtracts only the children from other modules,
so same-module helpers count towards their caller's layer.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

PACKAGE = "plp1"

# (module, attribute) pairs; the module is the span's layer.
TRACED = (
    ("pontryagin", "verify_4manifold"),
    ("pontryagin", "assemble_p1_cycle"),
    ("reduction", "reduce_sphere"),
    ("moves", "make_move"),
    ("moves", "admissible_moves"),
    ("moves", "apply_move"),
    ("moves", "induced_vertex_moves"),
    ("moves", "is_essential"),
    ("complexes", "extend_orientation"),
    ("complexes", "oriented_link"),
    ("canonical", "sphere_data"),
    ("canonical", "SphereData.__init__"),
    ("canonical", "iso_generic"),
    ("gamma2", "loop_to_chain"),
    ("gamma2", "edge_of_move"),
    ("generators", "enumerate_at"),
    *(("generators", f"build_alpha{k}") for k in range(1, 7)),
    ("solver", "evaluate_c0"),
    ("solver", "Eliminator.insert"),
    ("solver", "Eliminator.express"),
    ("solver", "DecompositionCertificate.residual"),
)

# Spans whose result length is summed as their work size.
SIZED = {"reduction.reduce_sphere", "generators.enumerate_at"}


class _Stats:
    __slots__ = ("calls", "raised", "s", "self_s", "layer_self_s", "size",
                 "depth")

    def __init__(self):
        self.calls = self.raised = self.size = self.depth = 0
        self.s = self.self_s = self.layer_self_s = 0.0


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layers: list = []
        self.stats: list = []
        self.spans: list = []      # (id, name index, start, end, parent id)
        self.stack: list = []      # [id, name index, start, child, foreign]
        self.absent: list = []
        self.active = False
        self._installed: list = []

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module(f"{PACKAGE}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        for modname, path in TRACED:
            name = f"{modname}.{path}"
            *owners, attr = path.split(".")
            try:
                owner = sys.modules[f"{PACKAGE}.{modname}"]
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (KeyError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owners:
                self._rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(name.split(".")[0])
        self.stats.append(_Stats())
        sized = name in SIZED
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(idx, clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, clock(), True, 0)
                raise
            tracer._close(frame, clock(), False, len(result) if sized else 0)
            return result

        return wrapper

    def _open(self, idx: int, now: int) -> list:
        frame = [len(self.spans) + len(self.stack), idx, now, 0, 0]
        self.stats[idx].depth += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, now: int, raised: bool, size: int) -> None:
        self.stack.pop()
        span_id, idx, start, child, foreign = frame
        dur = now - start
        parent = self.stack[-1] if self.stack else None
        self.spans.append((span_id, idx, start, now,
                           parent[0] if parent else -1))
        st = self.stats[idx]
        st.calls += 1
        st.raised += raised
        st.size += size
        st.depth -= 1
        if st.depth == 0:
            st.s += dur
        st.self_s += dur - child
        st.layer_self_s += dur - foreign
        if parent is not None:
            parent[3] += dur
            same = self.layers[parent[1]] == self.layers[idx]
            parent[4] += foreign if same else dur

    def summary(self) -> dict:
        """Per-name totals, times in seconds."""
        return {name: {"calls": st.calls, "raised": st.raised, "size": st.size,
                       "s": st.s / 1e9, "self_s": st.self_s / 1e9,
                       "layer_self_s": st.layer_self_s / 1e9}
                for name, st in zip(self.names, self.stats)}

    def write(self, path, instance: str) -> None:
        """Spans as tab-separated rows, ordered by close time."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("instance\tspan\tname\tstart_ns\tend_ns\tparent\n")
            for span_id, idx, start, end, parent in self.spans:
                fh.write(f"{instance}\t{span_id}\t{self.names[idx]}\t"
                         f"{start}\t{end}\t{parent}\n")
