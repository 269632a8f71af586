"""Batch command line: verify, reduce, p1, c0-cycle, selfcheck."""
from __future__ import annotations

import argparse
import json
import sys

from .complexes import ComplexError, load_facet_file
from .gamma2 import chain_from_json
from .pontryagin import Manifold4Input, pontryagin_number, verify_4manifold
from .reduction import ReductionConfig, reduce_sphere
from .solver import SolverBudget, evaluate_c0


def _reduction_config(args) -> ReductionConfig:
    return ReductionConfig(seed=args.seed, max_steps=args.max_steps,
                           restarts=args.restarts)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_verify(args) -> int:
    K = Manifold4Input(load_facet_file(args.input))
    report = verify_4manifold(K, _reduction_config(args))
    payload = {"ok": True, **report.to_json()}
    _emit(args, payload,
          "all {} vertex links certified as 3-spheres".format(len(report.links)))
    return 0


def cmd_reduce(args) -> int:
    L = load_facet_file(args.input)
    seq = reduce_sphere(L, _reduction_config(args))
    _emit(args, {"moves": json.loads(seq.to_json())},
          seq.to_json())
    return 0


def cmd_p1(args) -> int:
    L = load_facet_file(args.input)
    if args.reverse_orientation:
        L = L.reverse()
    K = Manifold4Input(L)
    budget = SolverBudget(radius_max=args.radius_max, seed=args.seed)
    value, cert, report, gamma = pontryagin_number(
        K, _reduction_config(args), budget)
    payload = {"p1": str(value), "cycle_size": len(gamma.coefficients),
               "radius_used": cert.radius_used,
               "links": report.to_json()["links"]}
    if args.certificate:
        payload["certificate"] = cert.to_json()
    _emit(args, payload, f"p1 = {value}")
    return 0


def cmd_c0_cycle(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    chain = chain_from_json(entries)
    budget = SolverBudget(radius_max=args.radius_max, seed=args.seed)
    value, cert = evaluate_c0(chain, budget=budget)
    payload = {"c0": str(value), "radius_used": cert.radius_used}
    if args.certificate:
        payload["certificate"] = cert.to_json()
    _emit(args, payload, f"c0 = {value}")
    return 0


def cmd_selfcheck(args) -> int:
    # imported here so the pipeline verbs do not load the suites
    from .selfcheck import run_all
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
    """Run one verb; a bad input or a failed computation exits 1 with the
    exception's name and detail on standard error."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ComplexError, OSError, ValueError, KeyError, RecursionError) as exc:
        msg = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(msg, sort_keys=True) if args.json else
              f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
