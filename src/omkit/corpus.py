"""The bundled example systems.

All members except the non-realizable one are rebuilt exactly from small
rational arrangements; the non-realizable instance ships as a frozen
covector list (see tools/generate_non_pappus.py for its construction).
"""

from __future__ import annotations

from importlib import resources

from .matroids import CovectorSystem, RationalArrangement, from_arrangement
from .omfile import parse_om_text

CORPUS_NAMES = (
    "rank1",
    "boolean3",
    "uniform-2-3",
    "braid3",
    "sec3-arrangement",
    "non-pappus",
)


def corpus(name: str) -> CovectorSystem:
    if name == "rank1":
        return CovectorSystem.from_strings(("e1",), ["0", "+", "-"])
    if name == "boolean3":
        return from_arrangement(
            RationalArrangement(("e1", "e2", "e3"), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        )
    if name == "uniform-2-3":
        return from_arrangement(
            RationalArrangement(("e1", "e2", "e3"), [(1, 0), (0, 1), (1, 1)])
        )
    if name == "braid3":
        return from_arrangement(
            RationalArrangement(
                ("12", "13", "14", "23", "24", "34"),
                [
                    (1, -1, 0),
                    (1, 0, -1),
                    (1, 0, 0),
                    (0, 1, -1),
                    (0, 1, 0),
                    (0, 0, 1),
                ],
            )
        )
    if name == "sec3-arrangement":
        return from_arrangement(
            RationalArrangement(
                ("H1", "H2", "H3", "H4", "H5"),
                [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)],
            )
        )
    if name == "non-pappus":
        text = resources.files("omkit.data").joinpath("non_pappus.om").read_text()
        return parse_om_text(text).to_system()
    raise KeyError(f"unknown corpus name {name!r}; known: {', '.join(CORPUS_NAMES)}")
