"""Bundled example files: two small systems and their projection operators.

Both systems have a one-dimensional derived algebra sitting inside the
center, so their adjoint representation is a self-action and the
coordinate projection onto the listed abelian subsystem is an operator
of every weight.  The operator files carry weight 1; the CLI weight
flag overrides it.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .linalg import StructureError

FIXTURES = {
    "lts3": {
        "file": "lts3.json",
        "kind": "algebra",
        "description": "3-dimensional system with [e1,e2,e1] = e3; center spanned by e3",
    },
    "lts4": {
        "file": "lts4.json",
        "kind": "algebra",
        "description": "4-dimensional system with [e1,e2,e1] = e4; center spanned by e3 and e4",
    },
    "rbo3_P": {
        "file": "rbo3_P.json",
        "kind": "operator",
        "description": "projection of lts3 onto span{e1} along span{e2,e3},"
        " relative Rota-Baxter operator of every weight for the adjoint self-action",
    },
    "rbo4_P": {
        "file": "rbo4_P.json",
        "kind": "operator",
        "description": "projection of lts4 onto span{e2,e3} along span{e1,e4},"
        " relative Rota-Baxter operator of every weight for the adjoint self-action",
    },
}


def fixture_path(name: str) -> Path:
    if name not in FIXTURES:
        raise StructureError(f"unknown fixture {name!r}; known: {', '.join(sorted(FIXTURES))}")
    return Path(resources.files(__package__).joinpath("fixtures", FIXTURES[name]["file"]))


def list_fixtures() -> list[dict]:
    return [
        {"name": name, "kind": info["kind"], "description": info["description"]}
        for name, info in sorted(FIXTURES.items())
    ]
