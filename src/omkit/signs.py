"""Sign vectors over a fixed ordered ground set.

Entries take values in {+, -, 0}.  A sign vector is packed as a pair of
bit masks (plus, minus), bit i set in plus where entry i is + and in
minus where it is -, so composition, separators and the product partial
order are single integer operations.  The library keeps covectors as
bare pairs: the kernels below and the conversion between a pair and its
sign text are what it uses.  The tests keep a labelled reference class,
`tests/sign_vector.py`, to check these kernels against.
"""

from __future__ import annotations

from typing import Iterable


class GroundSetMismatchError(ValueError):
    """Two sign vectors over different ground sets were combined."""


def parse_signs(text: str, n: int) -> tuple[int, int]:
    """The (plus, minus) pair of a sign text over a ground set of n elements."""
    if len(text) != n:
        raise ValueError(f"sign string {text!r} has length {len(text)}, ground set has {n}")
    plus = minus = 0
    for i, ch in enumerate(text):
        if ch == "+":
            plus |= 1 << i
        elif ch == "-":
            minus |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid sign character {ch!r}")
    return plus, minus


def sign_text(plus: int, minus: int, n: int) -> str:
    """The sign text of a pair over a ground set of n elements."""
    return "".join("+" if plus >> i & 1 else "-" if minus >> i & 1 else "0" for i in range(n))


def compose_masks(p1: int, m1: int, p2: int, m2: int) -> tuple[int, int]:
    free = ~(p1 | m1)
    return p1 | (p2 & free), m1 | (m2 & free)


def separator_masks(p1: int, m1: int, p2: int, m2: int) -> int:
    return (p1 & m2) | (m1 & p2)


def restrict_masks(pairs: Iterable[tuple[int, int]], keep: int) -> list[tuple[int, int]]:
    """Each pair restricted to the ground bits in keep: bit j of a result
    is the j-th bit of keep, so the kept elements stay in ground order."""
    spots = [i for i in range(keep.bit_length()) if keep >> i & 1]
    out = []
    for p, m in pairs:
        rp = rm = 0
        for j, i in enumerate(spots):
            rp |= (p >> i & 1) << j
            rm |= (m >> i & 1) << j
        out.append((rp, rm))
    return out
