"""Sign vectors over a fixed ordered ground set.

Entries take values in {+, -, 0}.  A sign vector is packed as a pair of
bit masks (plus, minus), bit i set in plus where entry i is + and in
minus where it is -, so composition, separators and the product partial
order are single integer operations.  The library keeps covectors as
bare pairs: the kernels below and the conversion between a pair and its
sign text are what it uses.  `SignVector` is the labelled object that
the tests keep as the reference for those kernels.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator


class GroundSetMismatchError(ValueError):
    """Two sign vectors over different ground sets were combined."""


@lru_cache(maxsize=None)
def _label_index(labels: tuple[str, ...]) -> dict[str, int]:
    index = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise ValueError(f"duplicate ground-set label {lab!r}")
        index[lab] = i
    return index


class SignVector:
    """Immutable sign vector indexed by an ordered tuple of labels."""

    __slots__ = ("labels", "plus", "minus")

    def __init__(self, labels: tuple[str, ...], plus: int, minus: int):
        if plus & minus:
            raise ValueError("an entry cannot be both + and -")
        if (plus | minus) >> len(labels):
            raise ValueError("mask bits outside the ground set")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def __setattr__(self, name, value):
        raise AttributeError("SignVector is immutable")

    # -- construction ------------------------------------------------

    @classmethod
    def from_string(cls, text: str, labels: Iterable[str]) -> "SignVector":
        labels = tuple(labels)
        return cls(labels, *parse_signs(text, len(labels)))

    @classmethod
    def from_signs(cls, signs: Iterable[int], labels: Iterable[str]) -> "SignVector":
        labels = tuple(labels)
        plus = minus = 0
        n = 0
        for i, s in enumerate(signs):
            n += 1
            if s > 0:
                plus |= 1 << i
            elif s < 0:
                minus |= 1 << i
        if n != len(labels):
            raise ValueError("sign count does not match ground set size")
        return cls(labels, plus, minus)

    @classmethod
    def zero(cls, labels: Iterable[str]) -> "SignVector":
        return cls(tuple(labels), 0, 0)

    # -- entry access ------------------------------------------------

    def sign(self, label: str) -> int:
        i = _label_index(self.labels)[label]
        bit = 1 << i
        if self.plus & bit:
            return 1
        if self.minus & bit:
            return -1
        return 0

    def __iter__(self) -> Iterator[tuple[str, int]]:
        for i, lab in enumerate(self.labels):
            bit = 1 << i
            yield lab, 1 if self.plus & bit else (-1 if self.minus & bit else 0)

    @property
    def support_mask(self) -> int:
        return self.plus | self.minus

    @property
    def zero_mask(self) -> int:
        return ((1 << len(self.labels)) - 1) & ~(self.plus | self.minus)

    # -- the calculus ------------------------------------------------

    def _check_ground(self, other: "SignVector") -> None:
        if self.labels != other.labels:
            raise GroundSetMismatchError(
                f"ground sets differ: {self.labels} vs {other.labels}"
            )

    def compose(self, other: "SignVector") -> "SignVector":
        """Entry e is self_e when nonzero, other_e otherwise."""
        self._check_ground(other)
        free = ~(self.plus | self.minus)
        return SignVector(
            self.labels,
            self.plus | (other.plus & free),
            self.minus | (other.minus & free),
        )

    def separator_mask(self, other: "SignVector") -> int:
        self._check_ground(other)
        return (self.plus & other.minus) | (self.minus & other.plus)

    def opposite(self) -> "SignVector":
        return SignVector(self.labels, self.minus, self.plus)

    def restrict(self, keep: int) -> "SignVector":
        """Restriction to the elements of a ground-bit mask, kept in ground order."""
        if keep >> len(self.labels):
            raise ValueError("mask bits outside the ground set")
        labels = []
        plus = minus = 0
        for i, lab in enumerate(self.labels):
            if keep >> i & 1:
                plus |= (self.plus >> i & 1) << len(labels)
                minus |= (self.minus >> i & 1) << len(labels)
                labels.append(lab)
        return SignVector(tuple(labels), plus, minus)

    def leq(self, other: "SignVector") -> bool:
        """Product partial order with 0 < + and 0 < -."""
        self._check_ground(other)
        return not (self.plus & ~other.plus) and not (self.minus & ~other.minus)

    def __le__(self, other: "SignVector") -> bool:
        return self.leq(other)

    def __ge__(self, other: "SignVector") -> bool:
        return other.leq(self)

    # -- canonical text form ------------------------------------------

    def __str__(self) -> str:
        return sign_text(self.plus, self.minus, len(self.labels))

    def __repr__(self) -> str:
        return f"SignVector({str(self)!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignVector)
            and self.labels == other.labels
            and self.plus == other.plus
            and self.minus == other.minus
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.plus, self.minus))


# The library works on bare (plus, minus) pairs: their sign text and kernels.

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
