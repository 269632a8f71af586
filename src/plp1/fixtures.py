"""Shipped data: the 9-vertex projective-plane triangulation, its vertex
link, the nine-move reduction of that link, and the 5-simplex boundary.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .complexes import OrientedComplex, parse_facet_text
from .moves import MoveSequence


def fixture_path(name: str) -> Path:
    return Path(str(resources.files("plp1") / "fixtures" / name))


def load_oriented(name: str) -> OrientedComplex:
    """A shipped complex; its orientation, which fixes the sign of p1, must
    be the one written in the file."""
    text = fixture_path(name).read_text(encoding="utf-8")
    if not any(line.split("#", 1)[0].strip() == "orient=explicit"
               for line in text.splitlines()):
        raise TypeError(f"fixture {name} lacks an explicit orientation")
    return parse_facet_text(text)


def boundary_d5() -> OrientedComplex:
    return load_oriented("boundary_d5.facets")


def cp2_9() -> OrientedComplex:
    return load_oriented("cp2_9.facets")


def link_L() -> OrientedComplex:
    return load_oriented("link_L.facets")


def sequence_9() -> MoveSequence:
    with open(fixture_path("sequence_9.json"), "r", encoding="utf-8") as fh:
        return MoveSequence.from_json(link_L(), fh.read())
