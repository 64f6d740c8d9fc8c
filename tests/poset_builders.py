"""Small posets for the tests, built from names and cover pairs or from
below masks, the relations the tests compare posets by, and `PosetMap`,
the checked order preserving map the tests' sections and isomorphisms are
built as and the library's numbered maps are compared against.  The
library builds its posets from covers only, and keeps its maps as tuples
and masks."""

from typing import Iterable, Mapping

from omkit.posets import FinitePoset, PosetError, _cover_pass, bits, mask_of
from poset_oracle import checked_above


def from_below(names: Iterable[str], below: Mapping[int, int]) -> FinitePoset:
    """The poset on the elements x of `below` whose below mask is
    `below[x]`, numbered by the sorted names.  The pair scan refuses
    anything that is no partial order, the cover pass finds the covers and
    `FinitePoset.from_covers` builds the poset on every name; the names
    without a mask are isolated there, so the rest is an order ideal."""
    names = tuple(names)
    checked_above(names, below)
    lo = [below.get(y, 0) | 1 << y for y in range(len(names))]
    lower, _, _, order = _cover_pass(lo, range(len(names)))
    poset = FinitePoset.from_covers(names, {y: lower[y] for y in order})
    members = mask_of(below)
    return poset if members == poset.members else poset.subposet(members)


def from_covers(names: Iterable[str], covers: Iterable[tuple[str, str]]) -> FinitePoset:
    """The transitive closure of the given cover pairs."""
    names = sorted(set(names))
    index = {a: i for i, a in enumerate(names)}
    below = [1 << i for i in range(len(names))]
    for x, y in covers:
        if x not in index or y not in index:
            raise PosetError(f"cover ({x!r}, {y!r}) mentions unknown element")
        below[index[y]] |= 1 << index[x]
    changed = True
    while changed:
        changed = False
        for y, m in enumerate(below):
            for x in bits(m):
                below[y] |= below[x]
            changed |= below[y] != m
    return from_below(names, dict(enumerate(below)))


def chain_poset(names: Iterable[str]) -> FinitePoset:
    """The names ordered as given."""
    names = tuple(names)
    return from_covers(names, zip(names, names[1:]))


def antichain(names: Iterable[str]) -> FinitePoset:
    return from_covers(names, [])


def cover_pairs(poset: FinitePoset) -> frozenset[tuple[int, int]]:
    """All pairs (x, y) with x covered by y."""
    return frozenset((x, y) for y in poset.elements for x in poset.lower_covers(y))


def order_pairs(poset: FinitePoset) -> frozenset[tuple[int, int]]:
    """The stored relation: all pairs (x, y) with x <= y, reflexive."""
    return frozenset((x, y) for y in poset.elements for x in bits(poset.below(y)))


class PosetMap:
    """An order preserving map between finite posets."""

    __slots__ = ("source", "target", "assignment", "_preimages")

    def __init__(self, source: FinitePoset, target: FinitePoset, assignment: dict[int, int]):
        for x, fx in assignment.items():
            if x not in source:
                raise PosetError(f"unknown source element {x!r}")
            if fx not in target:
                raise PosetError(f"image {fx!r} of {source.names[x]!r} not in target")
        missing = source.members & ~mask_of(assignment)
        if missing:
            raise PosetError(f"assignment not total; missing {source.names_of(missing)[:4]}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", dict(assignment))
        object.__setattr__(self, "_preimages", None)
        for y in source.elements:
            fy = assignment[y]
            for x in bits(source.below(y)):
                if not target.leq(assignment[x], fy):
                    raise PosetError(
                        f"not order preserving: {source.names[x]!r} <= {source.names[y]!r} "
                        f"but {target.names[assignment[x]]!r} !<= {target.names[fy]!r}"
                    )

    def __setattr__(self, name, value):
        raise AttributeError("PosetMap is immutable")

    def __call__(self, x: int) -> int:
        return self.assignment[x]

    def preimage(self, q: int) -> int:
        if self._preimages is None:
            pre = [0] * len(self.target.names)
            for x in self.source.elements:
                pre[self.assignment[x]] |= 1 << x
            object.__setattr__(self, "_preimages", pre)
        return self._preimages[q]

    def fiber(self, q: int) -> FinitePoset:
        """The poset fiber over q: the induced subposet on f^{-1}(target_{<=q})."""
        if q not in self.target:
            raise PosetError(f"unknown target element {q!r}")
        mask = 0
        for y in bits(self.target.below(q)):
            mask |= self.preimage(y)
        return self.source.subposet(mask)


def image(pmap: PosetMap) -> int:
    """The mask of the elements a poset map hits."""
    return mask_of(pmap.assignment.values())
