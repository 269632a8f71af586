import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plp1
from plp1 import pontryagin
from plp1.cli import main
from plp1.fixtures import fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_p1_json(capsys, tmp_path):
    """Vertex labels are any integers: shifting cp2_9 to -4..4 keeps p1."""
    src = fixture_path("cp2_9.facets")
    shifted = tmp_path / "cp2_9_shifted.facets"
    lines = [" ".join(str(int(t) - 5) for t in line.split())
             if line[:1].isdigit() else line
             for line in src.read_text().splitlines()]
    shifted.write_text("\n".join(lines) + "\n")
    for path in (src, shifted):
        code, out, _ = run_cli(capsys, "p1", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["p1"] == "3"
        assert payload["cycle_size"] > 0


def test_p1_reverse_orientation(capsys):
    code, out, _ = run_cli(capsys, "p1", str(fixture_path("cp2_9.facets")),
                           "--reverse-orientation")
    assert code == 0
    assert "p1 = -3" in out


def test_p1_boundary_d5(capsys):
    code, out, _ = run_cli(capsys, "p1", str(fixture_path("boundary_d5.facets")))
    assert code == 0
    assert "p1 = 0" in out


def test_p1_certificate(capsys):
    code, out, _ = run_cli(capsys, "p1", str(fixture_path("cp2_9.facets")),
                           "--json", "--certificate")
    payload = json.loads(out)
    assert payload["certificate"]["value"] == "6/1"
    assert payload["certificate"]["terms"]


def test_reduce_and_verify(capsys):
    code, out, _ = run_cli(capsys, "reduce", str(fixture_path("link_L.facets")),
                           "--json")
    assert code == 0
    assert json.loads(out)["moves"]
    code, out, _ = run_cli(capsys, "verify", str(fixture_path("cp2_9.facets")),
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and len(payload["links"]) == 9


def test_determinism_of_json_output(capsys):
    a = run_cli(capsys, "p1", str(fixture_path("cp2_9.facets")), "--json",
                "--certificate", "--seed", "4")
    b = run_cli(capsys, "p1", str(fixture_path("cp2_9.facets")), "--json",
                "--certificate", "--seed", "4")
    assert a == b


# Certificate terms (kind, params, mirrored, coeff) of
# ``plp1 p1 cp2_9.facets --json --certificate --seed S``, keyed by
# (S, reversed).  The solution in the greedily chosen basis is unique, so
# these are fixed whatever arithmetic the elimination uses.
PINNED_TERMS = {
    (0, False): [
        ("S2_2", (1, 1), False, "-22/1"),
        ("S4", (3, 3, 2), True, "-6/1"),
        ("S5", (3, 2, 2, 3), False, "-99/1"),
        ("S2_2", (2, 2), False, "-18/1"),
        ("S5", (2, 3, 3, 2), False, "35/1"),
        ("S2_1", (1, 1), False, "6/1"),
    ],
    (0, True): [
        ("S2_2", (1, 1), False, "-22/1"),
        ("S4", (3, 2, 3), False, "-18/1"),
        ("S5", (3, 2, 2, 3), False, "-81/1"),
        ("S2_1", (1, 1), True, "-6/1"),
        ("S5", (2, 3, 3, 2), False, "35/1"),
        ("S4", (3, 3, 2), False, "6/1"),
    ],
    (4, False): [
        ("S2_2", (1, 1), False, "6/1"),
        ("S6", (2, 2, 2, 2, 2), False, "4/1"),
        ("S2_1", (1, 1), False, "-6/1"),
        ("S2_2", (1, 2), True, "32/1"),
        ("S2_2", (1, 2), False, "-32/1"),
        ("S4", (2, 3, 3), False, "-6/1"),
        ("S4", (3, 2, 3), False, "42/1"),
    ],
    (4, True): [
        ("S2_2", (1, 1), False, "6/1"),
        ("S6", (2, 2, 2, 2, 2), False, "-26/5"),
        ("S2_1", (1, 1), False, "-6/1"),
        ("S2_2", (1, 2), True, "32/1"),
        ("S2_2", (1, 2), False, "-32/1"),
        ("S4", (3, 2, 3), False, "-42/1"),
        ("S2_1", (1, 1), True, "6/1"),
    ],
}


@pytest.mark.parametrize("seed,reverse", sorted(PINNED_TERMS))
def test_certificate_terms_pinned(capsys, seed, reverse):
    argv = ["p1", str(fixture_path("cp2_9.facets")), "--json",
            "--certificate", "--seed", str(seed)]
    code, out, _ = run_cli(capsys, *argv,
                           *(["--reverse-orientation"] if reverse else []))
    assert code == 0
    terms = json.loads(out)["certificate"]["terms"]
    assert [(t["kind"], tuple(t["params"]), t["mirrored"], t["coeff"])
            for t in terms] == PINNED_TERMS[seed, reverse]


def test_c0_cycle_round_trip(capsys, tmp_path):
    from plp1 import generators as gen
    from conftest import STACKED6, oriented
    g = gen.build_alpha6(oriented(STACKED6), 1, 2, 3, 4, 5)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(g.chain.to_json()))
    code, out, _ = run_cli(capsys, "c0-cycle", str(path), "--json")
    assert code == 0
    assert json.loads(out)["c0"] == "1/6"


# ``plp1 c0-cycle <file> --json --certificate --seed S`` on two chain files
# written by ``Chain1.to_json``, keyed by (chain, S): c0, the certificate
# value, columns_seen, radius_used and the certificate terms (kind, params,
# mirrored, coeff).
PINNED_C0_CYCLE = {
    ("alpha6", 0): ("1/6", "1/6", 29, 0, [("S5", (3, 2, 2, 3), False, "-5/1")]),
    ("alpha6", 3): ("1/6", "1/6", 29, 0, [
        ("S5", (2, 3, 3, 2), False, "-5/1"),
        ("S2_2", (1, 2), True, "-5/1"),
        ("S2_2", (1, 2), False, "5/1"),
    ]),
    ("cp2_9", 0): ("6", "6/1", 29, 0, [
        ("S2_1", (1, 1), True, "-6/1"),
        ("S4", (3, 2, 3), False, "18/1"),
        ("S5", (2, 3, 3, 2), False, "35/1"),
        ("S5", (3, 2, 2, 3), False, "-81/1"),
        ("S4", (2, 3, 3), False, "-6/1"),
        ("S2_2", (1, 1), False, "-22/1"),
    ]),
    ("cp2_9", 3): ("6", "6/1", 29, 0, [
        ("S5", (2, 3, 3, 2), False, "-46/1"),
        ("S4", (2, 3, 3), True, "6/1"),
        ("S2_2", (1, 2), True, "-81/1"),
        ("S2_2", (1, 1), False, "-22/1"),
        ("S2_2", (1, 2), False, "81/1"),
        ("S2_1", (1, 1), False, "6/1"),
        ("S4", (3, 2, 3), False, "18/1"),
    ]),
}


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """The alpha6 chain of STACKED6 and the seed-0 cycle of cp2_9, each
    written by ``Chain1.to_json``, and that cycle with every entry reversed
    (``conftest.reversed_entry``)."""
    from plp1 import generators as gen
    from plp1 import pontryagin as pt
    from plp1.fixtures import cp2_9
    from plp1.reduction import ReductionConfig
    from conftest import STACKED6, oriented, reversed_entry
    K = pt.Manifold4Input(cp2_9())
    report = pt.verify_4manifold(K, ReductionConfig(seed=0))
    gamma, _ = pt.assemble_p1_cycle(K, report.links)
    chains = {"alpha6": gen.build_alpha6(oriented(STACKED6), 1, 2, 3, 4, 5).chain,
              "cp2_9": gamma}
    root = tmp_path_factory.mktemp("chains")
    for name, chain in chains.items():
        (root / f"{name}.json").write_text(json.dumps(chain.to_json()))
    (root / "cp2_9_reversed.json").write_text(
        json.dumps([reversed_entry(e) for e in gamma.to_json()]))
    return root


@pytest.mark.parametrize("chain,seed",
                         sorted(PINNED_C0_CYCLE) + [("cp2_9_reversed", 0)])
def test_c0_cycle_certificate_pinned(capsys, chain_files, chain, seed):
    """A reversed entry is the same edge with the opposite sign, so the
    reversed cycle prints the bytes pinned for its canonical file."""
    c0, value, columns, radius, terms = PINNED_C0_CYCLE[
        chain.removesuffix("_reversed"), seed]
    code, out, _ = run_cli(capsys, "c0-cycle", str(chain_files / f"{chain}.json"),
                           "--json", "--certificate", "--seed", str(seed))
    assert code == 0
    certificate = {
        "columns_seen": columns, "radius_used": radius, "value": value,
        "terms": [{"coeff": q, "kind": k, "mirrored": mir, "params": list(p)}
                  for k, p, mir, q in terms]}
    expected = {"c0": c0, "certificate": certificate, "radius_used": radius}
    assert out == json.dumps(expected, sort_keys=True) + "\n"


def test_computation_failure_exits_one(capsys, tmp_path):
    import conftest
    from plp1.complexes import suspension
    path = tmp_path / "bad.facets"
    conftest.write_facets(path, suspension(conftest.product_sphere_circle(3)))
    code, out, err = run_cli(capsys, "verify", str(path), "--json",
                             "--max-steps", "120", "--restarts", "1")
    assert code == 1
    assert json.loads(err)["error"] == "LinkNotCertified"


def _child_env() -> dict:
    """The environment of a child that imports the same plp1 as this test,
    installed or not."""
    package_root = str(Path(plp1.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_usage_error_exits_two():
    facets = str(fixture_path("cp2_9.facets"))
    env = _child_env()
    for argv in (["frobnicate"], ["verify", facets, "--jobs", "2"],
                 ["verify", facets, "--max-steps", "0"],
                 ["reduce", facets, "--restarts", "0"],
                 ["p1", facets, "--radius-max", "-1"]):
        proc = subprocess.run([sys.executable, "-m", "plp1.cli", *argv],
                              capture_output=True, env=env)
        assert proc.returncode == 2


# The CLI in a fresh interpreter that sees ``{cpus}`` CPUs and splits the
# vertex links of inputs with at least ``{min_facets}`` facets.
SHARED_CLI = ("import os, sys\n"
              "from plp1 import cli, pontryagin\n"
              "os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
              "pontryagin.SPLIT_MIN_FACETS = {min_facets}\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")


def _stdout_in_shares(argv, min_facets):
    """Standard output of the CLI run inline and split in two shares; both
    runs must succeed, silently on stderr."""
    out = []
    for cpus in (1, 2):
        code = SHARED_CLI.format(cpus=cpus, min_facets=min_facets)
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, env=_child_env())
        assert (proc.returncode, proc.stderr) == (0, b"")
        out.append(proc.stdout)
    return out


def test_split_cli_prints_one_line_as_inline(tmp_path):
    """Forked shares print nothing: the split run writes exactly the one
    JSON line of the inline run.  ``p1`` on an input above the crossover
    would spend minutes in the solver, so it runs on cp2_9 with the
    crossover lowered."""
    import conftest
    from plp1.fixtures import cp2_9
    path = tmp_path / "cp2_17.facets"
    K = conftest.subdivided(cp2_9(), 8)
    assert len(K.facets) >= pontryagin.SPLIT_MIN_FACETS
    conftest.write_facets(path, K)
    for argv, min_facets in (
            (["verify", str(path), "--json"], pontryagin.SPLIT_MIN_FACETS),
            (["p1", str(fixture_path("cp2_9.facets")), "--json",
              "--certificate"], 0)):
        inline, split = _stdout_in_shares(argv, min_facets)
        assert split == inline
        assert split.count(b"\n") == 1 and split.endswith(b"\n")
        json.loads(split)


# The child of the second share writes half of its pickled result and is
# killed, as the OOM killer may kill a child blocked on a full pipe.
KILLED_SHARE_CLI = ("import os, signal, sys\n"
                    "from plp1 import cli, pontryagin\n"
                    "os.sched_getaffinity = lambda pid: set(range(2))\n"
                    "pontryagin.SPLIT_MIN_FACETS = 0\n"
                    "def fdopen(fd, *args, _open=os.fdopen, _parent=os.getpid()):\n"
                    "    out = _open(fd, *args)\n"
                    "    if os.getpid() != _parent:\n"
                    "        def write(blob):\n"
                    "            os.write(fd, blob[:len(blob) // 2])\n"
                    "            os.kill(os.getpid(), signal.SIGKILL)\n"
                    "        out.write = write\n"
                    "    return out\n"
                    "os.fdopen = fdopen\n"
                    "sys.exit(cli.main(sys.argv[1:]))\n")


def test_killed_share_exits_one_with_a_json_error():
    """A share whose child dies is a ChildProcessError, not a traceback
    from unpickling the part of its result that came through the pipe."""
    proc = subprocess.run(
        [sys.executable, "-c", KILLED_SHARE_CLI, "verify",
         str(fixture_path("cp2_9.facets")), "--json"],
        capture_output=True, env=_child_env())
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.count(b"\n") == 1
    error = json.loads(proc.stderr)
    assert error["error"] == "ChildProcessError"
    assert error["detail"].endswith("returned no result")


def test_selfcheck(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert {s["suite"] for s in payload["suites"]} == {
        "homotopy-identity", "delta-squared", "generator-value-table",
        "equivariance"}


# The whole ``plp1 selfcheck --json`` line, and the generator loops its
# equivariance suite evaluates: (kind, params, mirrored).
SELFCHECK_LINE = (
    '{"ok": true, "suites": ['
    '{"checked": 100, "failures": 0, "suite": "homotopy-identity"}, '
    '{"checked": 20, "failures": 0, "suite": "delta-squared"}, '
    '{"checked": 8, "failures": 0, "suite": "generator-value-table"}, '
    '{"checked": 7, "failures": 0, "suite": "equivariance"}]}\n')
FIXTURE_LOOPS = [
    ("S4", (1, 1, 1), False), ("S6", (2, 2, 2, 2, 2), False),
    ("S2_2", (2, 2), False), ("S2_2", (1, 2), False), ("S2_2", (1, 1), False),
    ("S2_1", (1, 1), False), ("S2_2", (1, 2), False),
    ("S5", (3, 2, 2, 3), False)]


def test_selfcheck_is_pinned(capsys):
    from plp1.selfcheck import _fixture_loops
    assert [(g.spec.kind, g.spec.params, g.mirrored)
            for g in _fixture_loops()] == FIXTURE_LOOPS
    assert run_cli(capsys, "selfcheck", "--json") == (0, SELFCHECK_LINE, "")


def test_malformed_input_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.facets"
    for content in (b"dim=x\n1 2 3 4 5\n", b"1 2 3 4 five\n", b"\xba\xff\n",
                    b"orient=explicit-rows\n1 2 3 4 5\n",
                    b"1 2 3\n1 2 4\norient=explicit\n1 3 4\n2 3 4\n"):
        path.write_bytes(content)
        code, _, err = run_cli(capsys, "p1", str(path), "--json")
        assert code == 1
        assert json.loads(err)["error"] == "FacetFormatError"


def test_open_oriented_input_exits_one(capsys, tmp_path):
    """Explicitly oriented input gets the closedness check of unoriented
    input, not a failure in reduction: a disk is rejected at its first open
    ridge, and two disjoint tetrahedron boundaries as not connected.  The
    library loader raises the same error as the command line."""
    from plp1.complexes import ComplexError, load_facet_file
    path = tmp_path / "open.facets"
    for rows, error, detail in (
            ("1 2 3\n1 3 4\n", "RidgeDegreeViolation",
             "ridge (1, 2) lies in 1 facets"),
            ("2 3 4\n1 4 3\n1 2 4\n1 3 2\n6 7 8\n5 8 7\n5 6 8\n5 7 6\n",
             "ComplexError", "complex is not connected")):
        for header in ("", "orient=explicit\n"):
            path.write_text(header + rows)
            code, _, err = run_cli(capsys, "reduce", str(path), "--json")
            assert code == 1
            assert json.loads(err) == {"error": error, "detail": detail}
            with pytest.raises(ComplexError) as info:
                load_facet_file(path)
            assert (type(info.value).__name__, str(info.value)) == (error, detail)


def test_unoriented_cp2_9_is_oriented_as_shipped(capsys, tmp_path):
    """cp2_9's rows without their header are oriented by the reader, with
    +1 on the least facet, which is the shipped orientation."""
    from plp1.complexes import load_facet_file
    from plp1.fixtures import cp2_9
    path = tmp_path / "cp2_9.facets"
    path.write_text("".join(line for line in fixture_path("cp2_9.facets")
                            .read_text().splitlines(keepends=True)
                            if not line.startswith("orient=")))
    assert load_facet_file(path) == cp2_9()
    assert run_cli(capsys, "p1", str(path)) == (0, "p1 = 3\n", "")


def test_missing_input_exits_one(capsys, tmp_path):
    for verb in ("p1", "verify", "reduce"):
        code, _, err = run_cli(capsys, verb, str(tmp_path / "absent.facets"),
                               "--json")
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"


def test_malformed_chain_exits_one(capsys, tmp_path):
    import itertools
    from plp1 import canonical as canon
    from plp1 import generators as gen
    from conftest import STACKED6, oriented
    good = gen.build_alpha6(oriented(STACKED6), 1, 2, 3, 4, 5).chain.to_json()
    edge = good[0]["edge"]
    # an orbit out of canonical (sorted) order, a pair that is no edge, a
    # repeated label, which would name a vertex as if it were an edge, and
    # the orbit's labels as floats or with 1 as true, equal to them in Python
    L = canon.complex_from_code(bytes.fromhex(edge["from"]))
    non_edge = next(list(p) for p in itertools.combinations(sorted(L.vertices), 2)
                    if not L.has_simplex(p))
    floats = [float(c) for c in edge["from_orbit"]]
    with_bool = [True if c == 1 else c for c in edge["from_orbit"]]
    def bad_orbit(orbit):
        return [dict(good[0], edge=dict(edge, from_orbit=orbit))]
    assert edge["from_orbit"][::-1] != edge["from_orbit"]
    assert floats == with_bool == edge["from_orbit"] and True in with_bool
    not_int = "has a label that is not an int"
    path = tmp_path / "chain.json"
    for entries, detail in (([1], ""), ({"a": 1}, None),
                            ([dict(good[0], coeff="1/0")], ""),
                            ([dict(good[0], coeff=1)], ""),
                            (bad_orbit(edge["from_orbit"][::-1]), ""),
                            (bad_orbit(non_edge), ""),
                            (bad_orbit([0, 0]), ""),
                            (bad_orbit(floats), not_int),
                            (bad_orbit(with_bool), not_int)):
        path.write_text(json.dumps(entries))
        code, _, err = run_cli(capsys, "c0-cycle", str(path), "--json")
        assert code == 1
        report = json.loads(err)
        assert report["error"] == "ChainFormatError"
        if detail is not None:
            assert report["detail"].startswith("entry 0:")
            assert detail in report["detail"]
    # nesting too deep for the JSON reader is reported, not a traceback
    path.write_text("[" * 100_000)
    code, _, err = run_cli(capsys, "c0-cycle", str(path), "--json")
    assert code == 1 and json.loads(err)["error"] == "RecursionError"


# Sphere codes that ``complex_from_code`` rejects, one per kind of fault,
# with the exception each raises.
BAD_SPHERE_CODES = {
    "empty": ("00", "ComplexError: empty facet list"),
    "trailing": ("0000", "ComplexError: trailing data"),
    "truncated": ("0301", "ComplexError: truncated canonical code"),
    "zero_length": ("", "ComplexError: truncated canonical code"),
    # the tetrahedron with vertex 1's rotation reversed
    "inconsistent": ("03010203030002030300010303000201",
                     "ComplexError: inconsistent rotations"),
    # STACKED6 rooted at an edge that does not give the least code
    "round_trip": ("050102030405030005020400010503040002050403000305"
                   "050004030201", "ComplexError: code round-trip failed"),
    # the 7-vertex torus, rooted at its first directed edge
    "not_a_sphere": ("06010203040506060006040305020600010504060306000206"
                     "050104060003010602050600040201030606000503020401",
                     "NotA2Sphere: Euler characteristic"),
}


@pytest.mark.parametrize("kind", sorted(BAD_SPHERE_CODES))
def test_bad_sphere_code_names_its_entry(capsys, tmp_path, kind):
    from plp1 import generators as gen
    from conftest import STACKED6, oriented
    code, fault = BAD_SPHERE_CODES[kind]
    good = gen.build_alpha6(oriented(STACKED6), 1, 2, 3, 4, 5).chain.to_json()
    bad = dict(good[0], edge=dict(good[0]["edge"], to=code))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps([good[0], bad]))
    status, _, err = run_cli(capsys, "c0-cycle", str(path), "--json")
    assert status == 1
    report = json.loads(err)
    assert report["error"] == "ChainFormatError"
    assert report["detail"].startswith(f"entry 1: {fault}")
