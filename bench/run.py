"""Seeded benchmark of the plp1 pipeline on retriangulated CP2 and S4.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes its inputs
(retriangulations made by its own move code, see ``bistellar.py``) under
``.bench_work/``, runs each instance in a fresh interpreter (``child.py``),
one at a time, and checks every result with code that does not trust the
program.  A workload is a closed loop over its instance list: passes over
the list repeat until ``--seconds`` have gone by (and at least the
workload's minimum number of passes have run); a time is the sum over
instances of each instance's median over passes.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1`` it
runs each instance untraced and then traced, and prints the per-layer
metrics of the traced runs.
The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import bistellar

CHILD = Path(__file__).resolve().parent / "child.py"
WORK = Path(".bench_work")
FIXTURES = Path("src/plp1/fixtures")

RUN_LIMIT_S = 170        # the whole run, generation included
INSTANCE_LIMIT_S = 120   # one instance; the slowest seen took 51 s traced
SETUP_PROBES = 2         # extra set-up-only children per instance
POLL_S = 0.01


@dataclass(frozen=True)
class Rung:
    """An instance: ``subdivisions`` facet subdivisions of a shipped
    fixture, then ``flips`` moves that keep the vertex count, then (if
    ``edges`` is set) moves that bring the edge count to ``edges``."""
    name: str
    base: str
    subdivisions: int
    flips: int
    expect: int
    reverse: bool = False
    edges: int | None = None


@dataclass(frozen=True)
class Workload:
    mode: str            # child mode: "p1" or "links"
    min_passes: int      # short instances get more samples per run
    rungs: tuple


# Why each workload exists is recorded in README.md.  A seeded rung with
# flips gets a fixed edge count, so that its size, and with it the program's
# work, varies less from seed to seed.  The S4 rungs are 2-neighborly (36
# edges on 9 vertices); their assembled cycle is then nonempty on nearly
# every seed, and two copies make an all-empty draw rare.
WORKLOADS = {
    "p1-small": Workload("p1", 3, (
        Rung("cp2_9", "cp2_9", 0, 0, 3),
        Rung("cp2_9_reversed", "cp2_9", 0, 0, -3, reverse=True),
        *(Rung(f"s4_9{c}", "boundary_d5", 3, 3, 0, edges=36) for c in "ab"),
        Rung("cp2_10", "cp2_9", 1, 0, 3),
        Rung("cp2_11", "cp2_9", 2, 0, 3),
    )),
    # 2n flips, then the median edge count such flips reach: 6.25 n - 10.
    "links-large": Workload("links", 3, tuple(
        Rung(f"cp2_{n}", "cp2_9", n - 9, 2 * n, 3, edges=25 * n // 4 - 10)
        for n in (16, 20, 24, 28, 32))),
}


def generate(workload: str, seed: int, wl: Workload, outdir: Path) -> list:
    """Write the workload's facet files; returns (rung, path, digest)."""
    out = []
    for rung in wl.rungs:
        base = bistellar.parse_facets(
            (FIXTURES / f"{rung.base}.facets").read_text())
        rng = random.Random(f"{workload}:{seed}:{rung.name}")
        signs = bistellar.retriangulate(base, rng, rung.subdivisions,
                                        rung.flips, rung.edges)
        if rung.reverse:
            signs = bistellar.reverse(signs)
        text = bistellar.format_facets(
            signs, f"{rung.name}: {workload} seed {seed}, p1 = {rung.expect}")
        path = outdir / f"{rung.name}.facets"
        path.write_text(text)
        out.append((rung, path, bistellar.digest(text)))
    return out


class Runner:
    """Runs children one at a time under the run's overall deadline."""

    def __init__(self, outdir: Path, deadline: float):
        self.outdir = outdir
        self.deadline = deadline
        self.count = 0

    def run(self, mode: str, path: Path, *extra: str) -> dict:
        """One child; its result plus rusage, or a recorded failure."""
        self.count += 1
        result = self.outdir / f"child-{self.count}.json"
        log = self.outdir / f"child-{self.count}.log"
        argv = [sys.executable, str(CHILD), mode, str(path), str(result),
                *extra]
        limit = min(INSTANCE_LIMIT_S, self.deadline - time.monotonic())
        start = time.monotonic()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - start > limit:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    timed_out = True
                    break
                time.sleep(POLL_S)
        except BaseException:           # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.monotonic() - start
        out = {"cpu_s": usage.ru_utime + usage.ru_stime,
               "rss_mb": usage.ru_maxrss / 1024, "elapsed_s": elapsed}
        if timed_out:
            out.update(ok=False, error="Timeout",
                       detail=f"killed after {limit:.0f} s")
        elif proc.returncode != 0 or not result.exists():
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            out.update(ok=False, error="ChildExit",
                       detail=f"exit {proc.returncode}: {' | '.join(tail)}")
        else:
            out.update(json.loads(result.read_text()))
        return out


def run_pass(runner: Runner, wl: Workload, inputs: list, spans_dir=None):
    results = []
    for rung, path, _ in inputs:
        extra = ["--expect", str(rung.expect)]
        if spans_dir is not None:
            extra += ["--spans", str(spans_dir / f"{rung.name}.tsv")]
        res = runner.run(wl.mode, path, *extra)
        res["instance"] = rung.name
        results.append(res)
    return results


def wall(results: list) -> float:
    return sum(r.get("wall_s", r["elapsed_s"]) for r in results)


# Per-layer metrics: name -> (unit, span name, field).  Fields are the
# tracer's, plus "ok" (calls that returned) and "raised_frac".
SPAN_METRICS = {
    "pontryagin.reduce_s": ("s", "pontryagin.verify_4manifold", "s"),
    "pontryagin.assemble_s": ("s", "pontryagin.assemble_p1_cycle", "s"),
    "pontryagin.solve_s": ("s", "solver.evaluate_c0", "s"),
    "reduction.reduce_sphere.calls": ("count", "reduction.reduce_sphere", "calls"),
    "reduction.reduce_sphere.s": ("s", "reduction.reduce_sphere", "s"),
    "reduction.moves": ("count", "reduction.reduce_sphere", "size"),
    "moves.make_move.calls": ("count", "moves.make_move", "calls"),
    "moves.make_move.self_s": ("s", "moves.make_move", "self_s"),
    "moves.make_move.rejected_frac": ("ratio", "moves.make_move", "raised_frac"),
    "moves.admissible_moves.calls": ("count", "moves.admissible_moves", "calls"),
    "moves.admissible_moves.s": ("s", "moves.admissible_moves", "s"),
    "moves.apply_move.calls": ("count", "moves.apply_move", "calls"),
    "moves.apply_move.self_s": ("s", "moves.apply_move", "self_s"),
    "moves.induced_vertex_moves.calls": ("count", "moves.induced_vertex_moves", "calls"),
    "moves.induced_vertex_moves.s": ("s", "moves.induced_vertex_moves", "s"),
    "moves.is_essential.calls": ("count", "moves.is_essential", "calls"),
    "complexes.extend_orientation.calls": ("count", "complexes.extend_orientation", "calls"),
    "complexes.extend_orientation.self_s": ("s", "complexes.extend_orientation", "self_s"),
    "complexes.oriented_link.calls": ("count", "complexes.oriented_link", "calls"),
    "complexes.oriented_link.self_s": ("s", "complexes.oriented_link", "self_s"),
    "canonical.sphere_data.calls": ("count", "canonical.sphere_data", "calls"),
    "canonical.sphere_builds": ("count", "canonical.SphereData.__init__", "calls"),
    "canonical.sphere_build_s": ("s", "canonical.SphereData.__init__", "s"),
    "canonical.iso_generic.calls": ("count", "canonical.iso_generic", "calls"),
    "canonical.iso_generic.s": ("s", "canonical.iso_generic", "s"),
    "gamma2.loop_to_chain.calls": ("count", "gamma2.loop_to_chain", "calls"),
    "gamma2.loop_to_chain.s": ("s", "gamma2.loop_to_chain", "s"),
    "gamma2.loop_to_chain.self_s": ("s", "gamma2.loop_to_chain", "self_s"),
    "gamma2.edge_of_move.calls": ("count", "gamma2.edge_of_move", "calls"),
    "gamma2.edge_of_move.self_s": ("s", "gamma2.edge_of_move", "self_s"),
    "generators.enumerate_at.calls": ("count", "generators.enumerate_at", "calls"),
    "generators.enumerate_at.s": ("s", "generators.enumerate_at", "s"),
    "generators.enumerate_at.chains": ("count", "generators.enumerate_at", "size"),
    **{f"generators.build_alpha{k}.{field}": (
        "s" if field == "s" else "count", f"generators.build_alpha{k}", field)
       for k in range(1, 7) for field in ("calls", "ok", "s")},
    "solver.self_s": ("s", "solver.evaluate_c0", "layer_self_s"),
    "solver.Eliminator.insert.calls": ("count", "solver.Eliminator.insert", "calls"),
    "solver.Eliminator.insert.s": ("s", "solver.Eliminator.insert", "s"),
    "solver.Eliminator.express.s": ("s", "solver.Eliminator.express", "s"),
    "solver.residual_s": ("s", "solver.DecompositionCertificate.residual", "s"),
}

# Per-layer metrics read from each instance's checked result.
FACT_METRICS = {
    "pontryagin.cycle_edges": "cycle_edges",
    "pontryagin.cycle_spheres": "cycle_spheres",
    "solver.columns": "columns",
    "solver.terms": "terms",
    "solver.radius_used": "radius_used",
    "canonical.cache_entries": "cache_entries",
}

# Metrics that count work; they must repeat exactly on one commit.
COUNT_FIELDS = ("calls", "ok", "size")


def layer_metrics(results: list, untraced_wall: float):
    """(metrics, absent names, counts) of one traced pass."""
    spans: dict = {}
    facts: dict = {}
    absent = set()
    for r in results:
        absent.update(r.get("absent", ()))
        for name, st in r.get("spans", {}).items():
            acc = spans.setdefault(name, dict.fromkeys(st, 0))
            for k, v in st.items():
                acc[k] += v
        for k, v in r.get("facts", {}).items():
            facts[k] = max(facts.get(k, 0), v) if k == "radius_used" \
                else facts.get(k, 0) + v
    metrics = {}
    counts = {}
    for metric, (unit, name, field) in SPAN_METRICS.items():
        st = spans.get(name)
        if st is None:
            absent.add(name)
            value = 0
        elif field == "ok":
            value = st["calls"] - st["raised"]
        elif field == "raised_frac":
            value = st["raised"] / st["calls"] if st["calls"] else 0.0
        else:
            value = st[field]
        if field in COUNT_FIELDS:
            counts[metric] = value
        metrics[metric] = (value, unit)
    data = spans.get("canonical.sphere_data", {}).get("calls", 0)
    builds = spans.get("canonical.SphereData.__init__", {}).get("calls", 0)
    metrics["canonical.sphere_hit_frac"] = (
        1 - builds / data if data else 0.0, "ratio")
    for metric, key in FACT_METRICS.items():
        if key not in facts and key == "cache_entries":
            absent.add("canonical._SPHERE_CACHE")
        counts[metric] = facts.get(key, 0)
        metrics[metric] = (counts[metric], "count")
    spans_total = sum(r.get("span_count", 0) for r in results)
    counts["trace.spans"] = spans_total
    metrics["trace.spans"] = (spans_total, "count")
    metrics["trace.absent"] = (len(absent), "count")
    metrics["trace.overhead_frac"] = (
        wall(results) / untraced_wall - 1 if untraced_wall else 0.0, "ratio")
    return metrics, sorted(absent), counts


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("src/plp1").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(workload: str, seed: int, key: str, counts: dict) -> list:
    """Count metrics that differ from an earlier traced run of the same
    source on the same inputs; the first run records them."""
    record = WORK / "counts" / f"{workload}-{seed}.json"
    if record.exists():
        old = json.loads(record.read_text())
        if old["key"] == key:
            return sorted(k for k in counts if counts[k] != old["counts"].get(k))
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"key": key, "counts": counts}))
    return []


def timed_run(runner: Runner, wl: Workload, inputs: list, seconds: float,
              started: float):
    """End-to-end metrics over repeated passes; (metrics, pipeline results)."""
    setup = {rung.name: [] for rung, _, _ in inputs}
    for rung, path, _ in inputs:
        for _ in range(SETUP_PROBES):
            res = runner.run("setup", path)
            if res["ok"]:
                setup[rung.name].append(res["setup_s"])
    passes = []
    while True:
        pass_start = time.monotonic()
        passes.append(run_pass(runner, wl, inputs))
        now = time.monotonic()
        if 1.5 * (now - pass_start) > started + RUN_LIMIT_S - now:
            break           # another pass this long might overrun the run
        if len(passes) >= wl.min_passes and \
                sum(wall(p) for p in passes) >= seconds:
            break
    pipeline = [r for p in passes for r in p]
    for r in pipeline:
        if "setup_s" in r:
            setup[r["instance"]].append(r["setup_s"])
    failed = sum(not r["ok"] for r in pipeline)
    print(f"passes {len(passes)}, fail_frac {failed}/{len(pipeline)}")

    def per_instance_median(value) -> float:
        """Sum over instances of each instance's median over passes, so a
        slow or fast stretch of the machine shorter than a pass is outvoted."""
        return sum(statistics.median(value(p[i]) for p in passes)
                   for i in range(len(inputs)))

    metrics = {
        "wall_s": (per_instance_median(lambda r: wall([r])), "s"),
        "cpu_s": (per_instance_median(lambda r: r["cpu_s"]), "s"),
        "setup_s": (sum(statistics.median(v) for v in setup.values() if v),
                    "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in pipeline), "MB"),
        "ok_frac": (1 - failed / len(pipeline), "ratio"),
    }
    return metrics, pipeline


def traced_run(runner: Runner, wl: Workload, inputs: list, workload: str,
               seed: int, outdir: Path):
    """Per-layer metrics of one traced pass; (metrics, pipeline results,
    count metrics that failed to repeat).

    Each instance runs untraced and then traced, so the overhead compares
    runs close in time.  When 1.5 times an untraced run no longer fits
    before the run's deadline, that instance and the rest are not traced:
    they are reported as not run, not as failed.
    """
    spans_dir = outdir / "spans"
    spans_dir.mkdir()
    untraced, traced = [], []
    for i, item in enumerate(inputs):
        untraced += run_pass(runner, wl, [item])
        if 1.5 * untraced[-1]["elapsed_s"] > \
                runner.deadline - time.monotonic():
            for rung, _, _ in inputs[i:]:
                print(f"not run {rung.name}: its traced run might overrun "
                      f"the {RUN_LIMIT_S} s run limit")
            break
        traced += run_pass(runner, wl, [item], spans_dir)
    metrics, absent, counts = layer_metrics(
        traced, wall(untraced[:len(traced)]))
    changed = []
    if len(traced) == len(inputs) and all(r["ok"] for r in traced):
        key = source_digest() + "".join(d for _, _, d in inputs)
        changed = check_repeat(workload, seed, key, counts)
    for name in absent:
        print(f"absent {name}")
    for name in changed:
        print(f"FAIL {name} differs from an earlier traced run")
    return metrics, untraced + traced, changed


def measure(name: str, wl: Workload, seed: int, seconds: float,
            trace: bool):
    """One benchmark run; (the result object the last output line holds,
    the per-instance results)."""
    started = time.monotonic()
    outdir = WORK / f"{name}-trace{int(trace)}"     # the last run's files
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    inputs = generate(name, seed, wl, outdir)
    for rung, _, dig in inputs:
        print(f"input {rung.name:16s} sha256:{dig} expect p1={rung.expect}")

    runner = Runner(outdir, started + RUN_LIMIT_S)
    runner.run("setup", inputs[0][1])   # writes bytecode
    if trace:
        metrics, pipeline, changed = traced_run(runner, wl, inputs, name,
                                                seed, outdir)
    else:
        metrics, pipeline = timed_run(runner, wl, inputs, seconds, started)
        changed = []
    for r in pipeline:
        state = "ok" if r["ok"] else f"FAIL {r['error']}: {r['detail']}"
        edges = r.get("facts", {}).get("cycle_edges", "-")
        print(f"instance {r['instance']:16s} wall {r.get('wall_s', 0):8.3f} s "
              f"cpu {r['cpu_s']:8.3f} s rss {r['rss_mb']:6.1f} MB "
              f"cycle_edges {edges:>5} {state}")
    failed = sum(not r["ok"] for r in pipeline)
    return {
        "correct": failed == 0 and not changed,
        "attempted": len(pipeline),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, pipeline


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (Path("src/plp1/__init__.py").is_file() and FIXTURES.is_dir()):
        print("error: run from the root of a plp1 source checkout",
              file=sys.stderr)
        return 2
    result, _ = measure(args.workload, WORKLOADS[args.workload],
                        args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
