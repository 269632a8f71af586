"""One benchmark instance in a fresh interpreter.

    python3 bench/child.py MODE FACETS RESULT [--expect P1] [--spans PATH]

MODE is ``setup`` (import ``plp1`` and load the file, nothing else), ``p1``
(``pontryagin_number``) or ``links`` (``verify_4manifold`` then
``assemble_p1_cycle``).  The pipeline is timed from its first call until
it returns, and the process's CPU time and peak RSS are read at that point;
the checks that follow use the benchmark's own code and are not measured.
The result, including any failure with its exception name and detail, is
written to RESULT as JSON.  With ``--spans`` the pipeline runs traced and
the spans are written to PATH.
"""
import argparse
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class CheckFailed(Exception):
    pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "p1", "links"))
    ap.add_argument("facets")
    ap.add_argument("result")
    ap.add_argument("--expect")
    ap.add_argument("--spans")
    args = ap.parse_args()

    out: dict = {"ok": False}
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from plp1.complexes import load_facet_file
    from plp1.pontryagin import Manifold4Input
    K = Manifold4Input(load_facet_file(args.facets))
    out["setup_s"] = time.perf_counter() - start
    if args.mode == "setup":
        out["ok"] = True
        return _write(args.result, out)

    import plp1
    if not Path(plp1.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"plp1 imported from {plp1.__file__}, not {SRC}")
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        result, out["wall_s"] = _timed(args.mode, K, tracer)
        out.update(_usage())
        out["facts"] = _check(args, result)
        out["ok"] = True
    except Exception as exc:  # the boundary: every failure is recorded
        out["error"] = type(exc).__name__
        out["detail"] = str(exc)[:500]
        out["traceback"] = traceback.format_exc(limit=-4)[-2000:]
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.summary()
        out["span_count"] = len(tracer.spans)
        out["absent"] = tracer.absent
        tracer.write(args.spans, Path(args.facets).stem)
    return _write(args.result, out)


def _timed(mode: str, K, tracer):
    """(result, wall seconds) of the pipeline, traced when a tracer is given."""
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        return _run(mode, K), time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.active = False


def _usage() -> dict:
    """CPU seconds and peak RSS so far, of this process and its children."""
    usage = [resource.getrusage(who) for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return {"cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
            "rss_mb": max(u.ru_maxrss for u in usage) / 1024}


def _run(mode: str, K):
    from plp1 import pontryagin
    if mode == "p1":
        return pontryagin.pontryagin_number(K)
    report = pontryagin.verify_4manifold(K)
    gamma, _ = pontryagin.assemble_p1_cycle(K, report.links)
    return report, gamma


def _check(args, result) -> dict:
    """Checks that do not trust the generator machinery; raises CheckFailed."""
    import bistellar
    from plp1 import canonical

    signs = bistellar.parse_facets(Path(args.facets).read_text())
    facts: dict = {}
    if args.mode == "p1":
        value, cert, _, gamma = result
        want = Fraction(args.expect)
        if value != want:
            raise CheckFailed(f"p1 = {value}, expected {want}")
        if cert.residual(gamma):
            raise CheckFailed("certificate residual is nonzero")
        priced = sum((c.value * q for c, q in cert.terms), Fraction(0))
        if priced != 2 * value:
            raise CheckFailed(f"certificate prices to {priced}, not 2 * {value}")
        facts.update(columns=cert.columns_seen, terms=len(cert.terms),
                     radius_used=cert.radius_used)
    else:
        report, gamma = result
        _check_reductions(bistellar, signs, report.links)
        if args.expect is not None and Fraction(args.expect) and not gamma:
            raise CheckFailed("empty cycle for a manifold with p1 != 0")
    _check_boundary(gamma)
    codes = {end.code for key in gamma.coefficients for end in (key.a, key.b)}
    facts.update(cycle_edges=len(gamma.coefficients), cycle_spheres=len(codes))
    cache = getattr(canonical, "_SPHERE_CACHE", None)
    if cache is not None:
        facts["cache_entries"] = len(cache)
    return facts


def _check_reductions(bistellar, signs: dict, links: dict) -> None:
    """Every vertex link replays, by the benchmark's moves, to a simplex
    boundary, starting from the link the benchmark computes itself."""
    verts = bistellar.vertices(signs)
    if sorted(links) != verts:
        raise CheckFailed(f"reductions for {sorted(links)}, vertices {verts}")
    for v in verts:
        seq = links[v]
        state = bistellar.vertex_link(signs, v)
        if dict(seq.initial.signs) != state:
            raise CheckFailed(f"reduction of vertex {v} starts elsewhere")
        for step, m in enumerate(seq.moves):
            try:
                state = bistellar.apply_checked(state, m.delta1, m.delta2)
            except bistellar.NotAdmissible as exc:
                raise CheckFailed(f"vertex {v} step {step}: {exc}") from exc
        if not bistellar.is_simplex_boundary(state):
            raise CheckFailed(f"reduction of vertex {v} ends at "
                              f"{len(state)} facets")


def _check_boundary(gamma) -> None:
    """The boundary of the chain, summed over edge-endpoint codes, is zero."""
    total: dict = {}
    for key, q in gamma.coefficients.items():
        total[key.b.code] = total.get(key.b.code, 0) + q
        total[key.a.code] = total.get(key.a.code, 0) - q
    if any(total.values()):
        raise CheckFailed("assembled chain has nonzero boundary")


def _write(path: str, out: dict) -> int:
    Path(path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
