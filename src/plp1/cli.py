"""Batch command line: verify, reduce, p1, c0-cycle, selfcheck."""
from __future__ import annotations

import argparse
import json
import sys

from .complexes import ComplexError, OrientedComplex, load_facet_file, orient
from .gamma2 import chain_from_json
from .pontryagin import Manifold4Input, pontryagin_number, verify_4manifold
from .reduction import ReductionConfig, reduce_sphere
from .selfcheck import run_all
from .solver import SolverBudget, evaluate_c0


def _load_oriented(path) -> OrientedComplex:
    L = load_facet_file(path)
    if isinstance(L, OrientedComplex):
        return L
    return orient(L)


def _reduction_config(args) -> ReductionConfig:
    return ReductionConfig(seed=args.seed, max_steps=args.max_steps,
                           restarts=args.restarts)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _fail(args, exc: Exception) -> int:
    msg = {"error": type(exc).__name__, "detail": str(exc)}
    print(json.dumps(msg, sort_keys=True) if args.json else
          f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


def cmd_verify(args) -> int:
    try:
        K = Manifold4Input(_load_oriented(args.input))
        report = verify_4manifold(K, _reduction_config(args))
    except (ComplexError, OSError) as exc:
        return _fail(args, exc)
    payload = {"ok": True, **report.to_json()}
    _emit(args, payload,
          "all {} vertex links certified as 3-spheres".format(len(report.links)))
    return 0


def cmd_reduce(args) -> int:
    try:
        L = _load_oriented(args.input)
        seq = reduce_sphere(L, _reduction_config(args))
    except (ComplexError, OSError) as exc:
        return _fail(args, exc)
    _emit(args, {"moves": json.loads(seq.to_json())},
          seq.to_json())
    return 0


def cmd_p1(args) -> int:
    try:
        L = _load_oriented(args.input)
        if args.reverse_orientation:
            L = L.reverse()
        K = Manifold4Input(L)
        budget = SolverBudget(radius_max=args.radius_max, seed=args.seed)
        value, cert, report, gamma = pontryagin_number(
            K, _reduction_config(args), budget)
    except (ComplexError, OSError) as exc:
        return _fail(args, exc)
    payload = {"p1": str(value), "cycle_size": len(gamma.coefficients),
               "radius_used": cert.radius_used}
    if report is not None:
        payload["links"] = report.to_json()["links"]
    if args.certificate:
        payload["certificate"] = cert.to_json()
    _emit(args, payload, f"p1 = {value}")
    return 0


def cmd_c0_cycle(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        chain, registry = chain_from_json(entries)
        budget = SolverBudget(radius_max=args.radius_max, seed=args.seed)
        value, cert = evaluate_c0(chain, registry, budget)
    except (ComplexError, OSError, ValueError, KeyError) as exc:
        return _fail(args, exc)
    payload = {"c0": str(value), "radius_used": cert.radius_used}
    if args.certificate:
        payload["certificate"] = cert.to_json()
    _emit(args, payload, f"c0 = {value}")
    return 0


def cmd_selfcheck(args) -> int:
    results = run_all(args.seed)
    ok = all(r["failures"] == 0 for r in results)
    if args.json:
        print(json.dumps({"ok": ok, "suites": results}, sort_keys=True))
    else:
        for r in results:
            status = "pass" if r["failures"] == 0 else "FAIL"
            print(f"{r['suite']}: {status} ({r['checked']} checked, "
                  f"{r['failures']} failures)")
    return 0 if ok else 1


def _int_at_least(low: int):
    """argparse type for an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plp1",
        description="first Pontryagin numbers of triangulated 4-manifolds")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="facet-list file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")

    def reduction_flags(p):
        p.add_argument("--max-steps", type=_int_at_least(1), default=3000)
        p.add_argument("--restarts", type=_int_at_least(1), default=8)

    p = sub.add_parser("verify", help="certify all vertex links as 3-spheres")
    common(p)
    reduction_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="reduce a 2- or 3-sphere to a simplex boundary")
    common(p)
    reduction_flags(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("p1", help="first Pontryagin number of a 4-manifold")
    common(p)
    reduction_flags(p)
    p.add_argument("--radius-max", type=_int_at_least(0), default=2)
    p.add_argument("--certificate", action="store_true")
    p.add_argument("--reverse-orientation", action="store_true")
    p.set_defaults(fn=cmd_p1)

    p = sub.add_parser("c0-cycle", help="evaluate the pricing class on a chain file")
    common(p)
    p.add_argument("--radius-max", type=_int_at_least(0), default=2)
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(fn=cmd_c0_cycle)

    p = sub.add_parser("selfcheck", help="run the embedded property suites")
    common(p, needs_input=False)
    p.set_defaults(fn=cmd_selfcheck)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
