"""Finite posets and their order complexes.

Elements are the integers 0..n-1, numbered in the sorted order of their
names, so integer order is name order and every tie-break picks what it
would pick on names.  The names tuple is read only to parse input and to
write reports and error messages.  The order is kept as per-element
bitmasks of the elements below and above.  A subposet, an order ideal or
a fiber is a mask over its parent's numbering, so derived posets need no
index translation.  The constructor checks the poset axioms; derived
posets inherit them.  All objects are immutable.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Mapping


class PosetError(ValueError):
    pass


def bits(mask: int) -> list[int]:
    """The elements of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


class FinitePoset:
    """A finite partially ordered set on a mask of integer elements.

    `names[i]` is the name of element i, shared by every poset derived
    from the same root.  The relation is kept as per-element reflexive
    "below" and "above" masks; covers and heights are derived and cached.
    """

    __slots__ = ("names", "members", "_below", "_above", "_elements", "_covers", "_heights", "_dual", "_maximal")

    def __init__(self, names: Iterable[str], below: Mapping[int, int]):
        """`below[x]` is a mask of elements below x, for each element x.
        The names must be distinct and sorted."""
        names = tuple(names)
        for a, b in zip(names, names[1:]):
            if not a < b:
                raise PosetError(f"names are not distinct and sorted: {a!r}, {b!r}")
        if any(not 0 <= x < len(names) for x in below):
            raise PosetError("an element has no name")
        members = mask_of(below)
        lo = [0] * len(names)
        for y, m in below.items():
            if m & ~members:
                raise PosetError(f"an element below {names[y]!r} is unknown")
            lo[y] = m | 1 << y
        elements = bits(members)
        up = [0] * len(names)
        for y in elements:
            outside, bit = ~lo[y], 1 << y
            for x in bits(lo[y]):
                # transitivity: below sets are downward closed
                if lo[x] & outside:
                    raise PosetError(f"transitivity fails at ({names[x]!r}, {names[y]!r})")
                up[x] |= bit
        self._set(names, members, lo, up)
        for x in elements:
            # antisymmetry: nothing both above and below except x itself
            if lo[x] & up[x] != 1 << x:
                raise PosetError(f"antisymmetry fails at {names[x]!r}: {self.names_of(lo[x] & up[x])}")

    def _set(self, *values) -> None:
        for slot, value in zip(self.__slots__, values + (None,) * 5):
            object.__setattr__(self, slot, value)

    def _derive(self, members: int, below: list[int], above: list[int]) -> "FinitePoset":
        out = object.__new__(FinitePoset)
        out._set(self.names, members, below, above)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("FinitePoset is immutable")

    def names_of(self, mask: int) -> list[str]:
        """The names of the elements of a mask, for reports and messages."""
        return [self.names[x] for x in bits(mask)]

    # -- basic queries --------------------------------------------------

    @property
    def elements(self) -> tuple[int, ...]:
        if self._elements is None:
            object.__setattr__(self, "_elements", tuple(bits(self.members)))
        return self._elements

    def __len__(self) -> int:
        return self.members.bit_count()

    def __contains__(self, x: int) -> bool:
        return self.members >> x & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def leq(self, x: int, y: int) -> bool:
        return self._below[y] >> x & 1 == 1

    def below(self, x: int) -> int:
        return self._below[x]

    def above(self, x: int) -> int:
        return self._above[x]

    def is_cover(self, x: int, y: int) -> bool:
        """x is covered by y."""
        return x != y and self._above[x] & self._below[y] == 1 << x | 1 << y

    def covers(self) -> frozenset[tuple[int, int]]:
        """All pairs (x, y) with x covered by y."""
        if self._covers is None:
            below = self._below
            out = []
            for y in self.elements:
                strict = below[y] ^ 1 << y
                reached = 0
                for x in bits(strict):
                    reached |= below[x] ^ 1 << x
                out.extend((x, y) for x in bits(strict & ~reached))
            object.__setattr__(self, "_covers", frozenset(out))
        return self._covers

    def maximal_elements(self) -> int:
        if self._maximal is None:
            maximal = mask_of(x for x in self.elements if self._above[x] == 1 << x)
            object.__setattr__(self, "_maximal", maximal)
        return self._maximal

    def minimal_elements(self) -> int:
        return mask_of(x for x in self.elements if self._below[x] == 1 << x)

    def heights(self) -> dict[int, int]:
        """Length of a longest chain ending at each element."""
        if self._heights is None:
            # peel off the minimal elements of what is left, layer by layer
            h: dict[int, int] = {}
            left, level = self.members, 0
            while left:
                layer = [x for x in bits(left) if self._below[x] & left == 1 << x]
                h.update(dict.fromkeys(layer, level))
                left &= ~mask_of(layer)
                level += 1
            object.__setattr__(self, "_heights", h)
        return self._heights

    def height(self) -> int:
        """Length of a longest chain in the poset (edge count)."""
        return max(self.heights().values(), default=0)

    # -- derived posets --------------------------------------------------

    def dual(self) -> "FinitePoset":
        if self._dual is None:
            dual = self._derive(self.members, self._above, self._below)
            object.__setattr__(dual, "_dual", self)
            object.__setattr__(self, "_dual", dual)
        return self._dual

    def _check_mask(self, mask: int) -> None:
        unknown = bits(mask & ~self.members)
        if unknown:
            shown = [self.names[x] if x < len(self.names) else x for x in unknown[:4]]
            raise PosetError(f"unknown elements: {shown}")

    def subposet(self, mask: int) -> "FinitePoset":
        """The induced subposet on a mask of elements."""
        self._check_mask(mask)
        below = [0] * len(self.names)
        above = [0] * len(self.names)
        for x in bits(mask):
            below[x] = self._below[x] & mask
            above[x] = self._above[x] & mask
        return self._derive(mask, below, above)

    def order_ideal(self, generators: int) -> int:
        self._check_mask(generators)
        out = 0
        for g in bits(generators):
            out |= self._below[g]
        return out

    def is_ideal(self, mask: int) -> bool:
        return all(not self._below[x] & ~mask for x in bits(mask))

    def linear_extension_ideal_first(self, ideal: int) -> list[int]:
        """A linear extension where the given order ideal comes first.

        Ties go to the least element, so the output is deterministic and
        reproducible downstream (shelling orders, matchings).
        """
        self._check_mask(ideal)
        if not self.is_ideal(ideal):
            raise PosetError("the given set is not an order ideal")
        below, above = self._below, self._above
        out: list[int] = []
        placed = 0
        for part in (ideal, self.members & ~ideal):
            ready = [x for x in bits(part) if not below[x] & ~placed & ~(1 << x)]
            heapq.heapify(ready)
            while ready:
                x = heapq.heappop(ready)
                if placed >> x & 1:
                    continue
                out.append(x)
                placed |= 1 << x
                for y in bits(above[x] & part & ~placed):
                    if not below[y] & ~placed & ~(1 << y):
                        heapq.heappush(ready, y)
        if len(out) != len(self):
            raise PosetError("linear extension failed")
        return out

    def chains(self) -> Iterator[tuple[int, ...]]:
        """All nonempty chains, each as a tuple in increasing order."""
        strict_above = {x: bits(self._above[x] ^ 1 << x) for x in self.elements}

        def extend(chain: list[int]) -> Iterator[tuple[int, ...]]:
            yield tuple(chain)
            for y in strict_above[chain[-1]]:
                chain.append(y)
                yield from extend(chain)
                chain.pop()

        for x in self.elements:
            yield from extend([x])

    def order_complex(self) -> "SimplicialComplexRecord":
        faces = tuple(frozenset(c) for c in self.chains())
        return SimplicialComplexRecord(self.elements, faces)


class SimplicialComplexRecord:
    """A simplicial complex as an explicit face list (no empty face),
    checked to be closed under taking faces."""

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces):
        vertices = tuple(vertices)
        faces = tuple(dict.fromkeys(faces))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        vset = set(vertices)
        fset = set(faces)
        for f in faces:
            if not f:
                raise ValueError("the empty face is not stored")
            if not f <= vset:
                raise ValueError(f"face {sorted(f)} uses unknown vertices")
            for v in f:
                if len(f) > 1 and (f - {v}) not in fset:
                    raise ValueError(
                        f"face list not closed under subsets: missing {sorted(f - {v})}"
                    )
