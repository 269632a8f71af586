import json
import subprocess
import sys

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


def test_c0_cycle_round_trip(capsys, tmp_path):
    from plp1 import generators as gen
    from conftest import STACKED6, oriented
    g = gen.build_alpha6(oriented(STACKED6), 1, 2, 3, 4, 5)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(g.chain.to_json()))
    code, out, _ = run_cli(capsys, "c0-cycle", str(path), "--json")
    assert code == 0
    assert json.loads(out)["c0"] == "1/6"


def test_computation_failure_exits_one(capsys, tmp_path):
    import conftest
    from plp1.complexes import suspension
    bad = suspension(conftest.product_sphere_circle(3))
    path = tmp_path / "bad.facets"
    lines = ["dim=4", "orient=explicit"]
    for f in sorted(bad.facets):
        row = list(f)
        if bad.signs[f] < 0:
            row[-1], row[-2] = row[-2], row[-1]
        lines.append(" ".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify", str(path), "--json",
                             "--max-steps", "120", "--restarts", "1")
    assert code == 1
    assert json.loads(err)["error"] == "LinkNotCertified"


def test_usage_error_exits_two():
    facets = str(fixture_path("cp2_9.facets"))
    for argv in (["frobnicate"], ["verify", facets, "--jobs", "2"],
                 ["verify", facets, "--max-steps", "0"],
                 ["reduce", facets, "--restarts", "0"],
                 ["p1", facets, "--radius-max", "-1"]):
        proc = subprocess.run([sys.executable, "-m", "plp1.cli", *argv],
                              capture_output=True)
        assert proc.returncode == 2


def test_selfcheck(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert {s["suite"] for s in payload["suites"]} == {
        "homotopy-identity", "delta-squared", "generator-value-table",
        "equivariance"}


def test_env_fixture_override(tmp_path, monkeypatch, capsys):
    src = fixture_path("boundary_d5.facets").read_text()
    (tmp_path / "boundary_d5.facets").write_text(src)
    monkeypatch.setenv("P1_FIXTURES", str(tmp_path))
    from plp1 import fixtures
    assert fixtures.boundary_d5().dim == 4


def test_malformed_input_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.facets"
    for content in (b"dim=x\n1 2 3 4 5\n", b"1 2 3 4 five\n", b"\xba\xff\n"):
        path.write_bytes(content)
        code, _, err = run_cli(capsys, "p1", str(path), "--json")
        assert code == 1
        assert json.loads(err)["error"] == "FacetFormatError"


def test_missing_input_exits_one(capsys, tmp_path):
    for verb in ("p1", "verify", "reduce"):
        code, _, err = run_cli(capsys, verb, str(tmp_path / "absent.facets"),
                               "--json")
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"
