"""One-time generator for the bundled non-realizable rank-3 instance.

Construction: take the classical nine-line incidence configuration with
rational coordinates, drop the line carrying the three cross points, and
compute the covector system of the remaining eight lines exactly.  Then
re-insert the ninth element combinatorially: a single-element extension
forced through the two finite cross points and the common infinite point
of the two horizontal lines, and kept off every other rank-two flat, in
particular off the middle cross point.  Classical incidence geometry pins
the middle cross point onto any straight realization of that line, so
every extension found this way is non-realizable; the search is complete,
and the lexicographically first signature is frozen.

`non_pappus_text()` returns the covector file text; `main` writes it to
src/omkit/data/non_pappus.om.  Run from the repository root:

    python tools/generate_non_pappus.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "src" / "omkit" / "data" / "non_pappus.om"
sys.path.insert(0, str(ROOT / "src"))

from omkit import CovectorSystem, RationalArrangement, from_arrangement, build_lattice
from omkit.extensions import single_element_extensions
from omkit.matroids import flat_id
from omkit.omfile import format_system

EIGHT = [
    ("L1", (0, 1, -1)),   # y = 1
    ("L2", (0, 1, 1)),    # y = -1
    ("L4", (2, 1, 1)),    # through (-1,1) and (0,-1)
    ("L5", (2, -1, 1)),   # through (-1,-1) and (0,1)
    ("L6", (1, 1, 0)),    # through (-1,1) and (1,-1)
    ("L7", (1, -1, 0)),   # through (-1,-1) and (1,1)
    ("L8", (2, 1, -1)),   # through (0,1) and (1,-1)
    ("L9", (2, -1, -1)),  # through (0,-1) and (1,1)
]

POINT_TRIPLES = [
    {"L1", "L4", "L6"},
    {"L1", "L5", "L8"},
    {"L1", "L7", "L9"},
    {"L2", "L5", "L7"},
    {"L2", "L4", "L9"},
    {"L2", "L6", "L8"},
]
CROSS_LEFT = {"L4", "L5"}
CROSS_MID = {"L6", "L7"}
CROSS_RIGHT = {"L8", "L9"}
INFINITY = {"L1", "L2"}


def non_pappus_text() -> str:
    """The covector file of the nine-element instance, checked as built."""
    labels = tuple(lab for lab, _ in EIGHT)
    arr = RationalArrangement(labels, [f for _, f in EIGHT])
    base = from_arrangement(arr)
    assert base.check_axioms().ok

    lat = build_lattice(base)
    for triple in POINT_TRIPLES:
        assert base.label_mask(triple) in lat.rank_of, f"missing triple {triple}"
    for pair in (CROSS_LEFT, CROSS_MID, CROSS_RIGHT, INFINITY):
        assert base.label_mask(pair) in lat.rank_of, f"missing cross point {pair}"

    zero = frozenset(base.label_mask(pair) for pair in (CROSS_LEFT, CROSS_RIGHT, INFINITY))
    nonzero = frozenset(
        f for f in lat.flats_of_rank(2) if f not in zero
    )
    result = next(single_element_extensions(base, zero_flats=zero, nonzero_flats=nonzero, new_label="L3"))

    ext = result.extended
    # reorder the ground set to L1..L9
    order = tuple(sorted(ext.ground))
    source = [ext.ground.index(lab) for lab in order]

    def permute(x: int) -> int:
        return sum((x >> i & 1) << j for j, i in enumerate(source))

    reordered = CovectorSystem(order, [(permute(p), permute(m)) for p, m in ext.vectors()])
    assert len(reordered) == len(ext)
    assert reordered.check_axioms().ok
    assert reordered.is_simple()
    assert reordered.rank() == 3

    lat9 = build_lattice(reordered)
    triples = sorted(
        flat_id(f, order) for f in lat9.flats_of_rank(2) if f.bit_count() == 3
    )
    expected_triples = sorted(
        [
            "L1,L2,L3",
            "L3,L4,L5",
            "L3,L8,L9",
        ]
        + [flat_id(reordered.label_mask(t), order) for t in POINT_TRIPLES]
    )
    assert triples == expected_triples, triples
    assert reordered.label_mask({"L6", "L7"}) in lat9.rank_of  # the broken cross point
    assert lat9.is_supersolvable() is None, "instance must not be supersolvable"
    return format_system(reordered)


def main() -> None:
    text = non_pappus_text()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
