import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import plp1
from plp1 import fixtures
from plp1.generators import enumerate_at
from plp1.moves import (InducedMoveRecord, Move, MoveNotAdmissible, apply_move,
                        make_move)
from plp1.pontryagin import Manifold4Input, VerificationReport, verify_4manifold
from plp1.reduction import ReductionConfig
from plp1.solver import SolverBudget, evaluate_c0


def test_every_export_resolves():
    missing = [name for name in plp1.__all__ if not hasattr(plp1, name)]
    assert missing == []


def test_fixture_without_explicit_orientation_is_refused(tmp_path, monkeypatch):
    """The shipped orientation fixes the sign of p1, so a fixture must
    carry it: rows the reader would orient itself are refused."""
    src = fixtures.fixture_path("cp2_9.facets").read_text()
    bare = tmp_path / "cp2_9.facets"
    bare.write_text("".join(line for line in src.splitlines(keepends=True)
                            if not line.startswith("orient=")))
    monkeypatch.setattr(fixtures, "fixture_path", lambda name: tmp_path / name)
    with pytest.raises(TypeError, match="lacks an explicit orientation"):
        fixtures.cp2_9()


def _fresh_modules(code: str) -> set:
    """The names in ``sys.modules`` after ``code`` runs in a fresh
    interpreter that imports this checkout's ``plp1``."""
    src = Path(plp1.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_import_leaves_dataclasses_out():
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
    ``tokenize``; no module the pipeline imports needs it, yet every
    pipeline module is still imported by ``import plp1``."""
    loaded = _fresh_modules("import plp1, plp1.pontryagin")
    assert "dataclasses" not in loaded
    assert {f"plp1.{m}" for m in ("complexes", "moves", "canonical", "gamma2",
                                   "reduction", "generators", "solver",
                                   "pontryagin")} <= loaded


def test_cli_import_leaves_the_suites_out():
    loaded = _fresh_modules("import plp1.cli")
    assert "plp1.selfcheck" not in loaded
    assert "plp1.tcomplex" not in loaded


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def test_move_is_a_hashable_key_with_its_repr(octahedron):
    a, b = Move((1, 2), (3, 4)), Move((1, 2), (3, 4))
    assert a == b and hash(a) == hash(b) and a is not b
    L = fixtures.link_L()
    steps = {(L, a): "step"}
    assert steps[(L, b)] == "step"
    assert a.inverse() == Move((3, 4), (1, 2))
    assert repr(a) == "Move(delta1=(1, 2), delta2=(3, 4))"
    with pytest.raises(MoveNotAdmissible) as err:
        apply_move(octahedron, Move((1, 2), (4, 3)))
    assert str(err.value) == "Move(delta1=(1, 2), delta2=(4, 3)) not admissible"


def test_records_survive_pickling(octahedron):
    """The forked shares send moves and records back pickled."""
    m = make_move(octahedron, (1, 2))
    rec = InducedMoveRecord(0, m, octahedron, apply_move(octahedron, m))
    g = enumerate_at(octahedron)[0]
    _, cert = evaluate_c0(g.chain)
    for obj in (m, rec, g.spec, g, cert):
        assert _round_trip(obj) == obj
    report = verify_4manifold(Manifold4Input(fixtures.cp2_9()),
                              ReductionConfig(seed=0))
    back = _round_trip(report)
    assert back.links.keys() == report.links.keys()
    for v, seq in report.links.items():
        assert back.links[v].initial == seq.initial
        assert back.links[v].moves == seq.moves
    assert back.to_json() == report.to_json()


def test_configs_keep_their_defaults_and_keywords():
    cfg = ReductionConfig()
    assert (cfg.seed, cfg.max_steps, cfg.restarts) == (0, 3000, 8)
    cfg = ReductionConfig(seed=3, max_steps=10, restarts=2)
    assert (cfg.seed, cfg.max_steps, cfg.restarts) == (3, 10, 2)
    assert ReductionConfig(1, 2, 3).restarts == 3
    with pytest.raises(ValueError, match="restarts must be positive"):
        ReductionConfig(restarts=0)
    budget = SolverBudget()
    assert (budget.radius_max, budget.seed) == (2, 0)
    budget = SolverBudget(radius_max=0, seed=5)
    assert (budget.radius_max, budget.seed) == (0, 5)
    assert VerificationReport().links == {}
