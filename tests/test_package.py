import pytest

import plp1
from plp1 import fixtures


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
