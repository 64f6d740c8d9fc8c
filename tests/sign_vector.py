"""The reference sign vector: a labelled (plus, minus) pair with the sign
calculus written out as methods.  The library keeps covectors as bare
pairs and runs the kernels of `omkit.signs`; the tests compare those
kernels, and what the library builds from them, against this class."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from omkit.signs import GroundSetMismatchError, parse_signs, sign_text


@lru_cache(maxsize=None)
def _label_index(labels: tuple[str, ...]) -> dict[str, int]:
    index = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise ValueError(f"duplicate ground-set label {lab!r}")
        index[lab] = i
    return index


class SignVector:
    """Sign vector indexed by an ordered tuple of labels; hashed, so never mutated."""

    __slots__ = ("labels", "plus", "minus")

    def __init__(self, labels: tuple[str, ...], plus: int, minus: int):
        if plus & minus:
            raise ValueError("an entry cannot be both + and -")
        if (plus | minus) >> len(labels):
            raise ValueError("mask bits outside the ground set")
        self.labels = labels
        self.plus = plus
        self.minus = minus

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

