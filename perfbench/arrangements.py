"""Seeded rank-3 integer arrangements of a fixed combinatorial type.

Forms have entries in [-2, 2]; zero rows, proportional pairs and sets
of rank below 3 are redrawn.  Each draw is also redrawn until its type
matches the one asked for, so two seeds give different arrangements
with the same lattice of flats up to relabelling, hence the same
number of covectors, Salvetti cells and order-complex simplices.  That
keeps the amount of work per run fixed while the inputs change.
"""

from __future__ import annotations

import random
from itertools import combinations

Form = tuple[int, int, int]

# (sorted sizes of the rank-2 flats with three or more forms,
#  sorted number of such flats through each form)
TWO_TRIPLES_5 = ((3, 3), (1, 1, 1, 1, 2))
ONE_QUADRUPLE_5 = ((4,), (0, 1, 1, 1, 1))
GENERIC_6 = ((), (0, 0, 0, 0, 0, 0))
ONE_TRIPLE_6 = ((3,), (0, 0, 0, 1, 1, 1))
TWO_TRIPLES_6 = ((3, 3), (0, 1, 1, 1, 1, 2))


def _det(a: Form, b: Form, c: Form) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _proportional(a: Form, b: Form) -> bool:
    return a[0] * b[1] == a[1] * b[0] and a[0] * b[2] == a[2] * b[0] and a[1] * b[2] == a[2] * b[1]


def rank2_flats(rows: list[Form]) -> set[frozenset[int]]:
    """Index sets of the forms vanishing on each line of the arrangement."""
    n = len(rows)
    return {
        frozenset(k for k in range(n) if k in (i, j) or _det(rows[i], rows[j], rows[k]) == 0)
        for i, j in combinations(range(n), 2)
    }


def arrangement_type(rows: list[Form]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    multiple = [f for f in rank2_flats(rows) if len(f) > 2]
    sizes = tuple(sorted((len(f) for f in multiple), reverse=True))
    per_form = tuple(sorted(sum(1 for f in multiple if i in f) for i in range(len(rows))))
    return sizes, per_form


def is_supersolvable(rows: list[Form]) -> bool:
    """Rank 3: some line (rank-2 flat) meets every other one."""
    flats = rank2_flats(rows)
    return any(all(x & y for y in flats) for x in flats)


def draw(rng: random.Random, kind: tuple[tuple[int, ...], tuple[int, ...]]) -> list[Form]:
    n = len(kind[1])
    while True:
        rows: list[Form] = []
        while len(rows) < n:
            r = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
            if any(r) and not any(_proportional(r, s) for s in rows):
                rows.append(r)
        if all(_det(a, b, c) == 0 for a, b, c in combinations(rows, 3)):
            continue  # rank below 3
        if arrangement_type(rows) == kind:
            return rows
