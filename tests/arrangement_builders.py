"""Arrangements outside the corpus, as `RationalArrangement`s: the braid
arrangements A_{k-1} and the reflection arrangement B_3.  This module
imports neither pytest nor Hypothesis, so the scripts in `tools/` can
build A_5 and A_6 from it without loading the test framework."""

import itertools

from omkit.matroids import RationalArrangement


def braid_arrangement(k):
    """The forms x_i - x_j, i < j, on R^k: A_{k-1}, which is outside the
    corpus."""
    forms = []
    for i, j in itertools.combinations(range(k), 2):
        row = [0] * k
        row[i], row[j] = 1, -1
        forms.append(row)
    return RationalArrangement(tuple(f"H{i + 1}" for i in range(len(forms))), forms)


def b3_arrangement():
    """The reflection arrangement B_3: x_i and x_i +- x_j on R^3."""
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for i, j in itertools.combinations(range(3), 2):
        for s in (1, -1):
            row = [0] * 3
            row[i], row[j] = 1, s
            rows.append(row)
    return RationalArrangement(tuple(f"H{i + 1}" for i in range(9)), rows)
