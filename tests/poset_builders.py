"""Small posets for the tests, built from names and cover pairs, and the
relations the tests compare posets and poset maps by.  The library builds
its posets from covector systems and facet lists only."""

from typing import Iterable

from omkit.posets import FinitePoset, PosetError, PosetMap, bits, mask_of


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
    return FinitePoset(names, dict(enumerate(below)))


def chain_poset(names: Iterable[str]) -> FinitePoset:
    """The names ordered as given."""
    names = tuple(names)
    return from_covers(names, zip(names, names[1:]))


def antichain(names: Iterable[str]) -> FinitePoset:
    return from_covers(names, [])


def order_pairs(poset: FinitePoset) -> frozenset[tuple[int, int]]:
    """The stored relation: all pairs (x, y) with x <= y, reflexive."""
    return frozenset((x, y) for y in poset.elements for x in bits(poset.below(y)))


def image(pmap: PosetMap) -> int:
    """The mask of the elements a poset map hits."""
    return mask_of(pmap.assignment.values())
