"""Fast smoke test of the benchmark itself.

    python3 bench/smoke.py

Run from the repository root.  It measures tiny instance lists, untraced and
traced, and checks that every metric in BENCHMARK.json is reported under its
name with its unit, that an instance given a deliberately wrong expected p1
lands in the failure share, that the S4 rung's p1 = 0 check runs on a
nonempty cycle, that the link-reduction replay passes, and that the traced
counts repeat exactly between two traced runs.  Exits 1 on the
first failed check.
"""
import json
import sys
from pathlib import Path

import run

P1 = run.Workload("p1", 1, (
    run.Rung("s4_9", "boundary_d5", 3, 3, 0, edges=36),
    run.Rung("cp2_9", "cp2_9", 0, 0, 3),
    run.Rung("cp2_9_wrong", "cp2_9", 0, 0, 4),     # wrong on purpose
))
TRACED = run.Workload("p1", 1, P1.rungs[:2])
LINKS = run.Workload("links", 1, (run.Rung("cp2_10", "cp2_9", 1, 1, 3),))


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"smoke: FAIL {what}")
        sys.exit(1)
    print(f"smoke: ok   {what}")


def units(result: dict) -> dict:
    return {k: m["unit"] for k, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    res, pipeline = run.measure("smoke-p1", P1, 0, 0, False)
    expect(units(res) == end_to_end, "end-to-end metrics carry their units")
    expect(res["attempted"] == 3 and res["failed"] == 1
           and not res["correct"], "a wrong expected p1 counts as failed")
    expect(abs(res["metrics"]["ok_frac"]["value"] - 2 / 3) < 1e-12,
           "ok_frac is 1 - failed / attempted")
    s4 = [r for r in pipeline if r["instance"] == "s4_9"]
    expect(s4 and all(r["ok"] and r["facts"]["cycle_edges"] for r in s4),
           "S4 rung has p1 = 0 on a nonempty cycle")

    res, _ = run.measure("smoke-links", LINKS, 0, 0, False)
    expect(res["correct"], "link reductions replay to simplex boundaries")

    first, _ = run.measure("smoke-traced", TRACED, 0, 0, True)
    expect(units(first) == per_layer, "per-layer metrics carry their units")
    expect(first["correct"], "traced run is correct")
    second, _ = run.measure("smoke-traced", TRACED, 0, 0, True)
    expect(second["correct"], "traced counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
