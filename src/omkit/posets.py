"""Finite posets and their order complexes.

Elements are the integers 0..n-1, numbered in the sorted order of their
names, so integer order is name order and every tie-break picks what it
would pick on names.  The names tuple is read only to parse input and to
write reports and error messages.  Every poset keeps each element's lower
covers and height, and the order itself as one bitmask per element, of
the elements below it; what lies above an element is read off the dual.
A subposet or an order ideal is a mask over its parent's numbering, so
derived posets need no index translation.

A poset is built one way, from its covers (`FinitePoset.from_covers`):
each element's lower covers are walked in an order that puts them first,
which proves the relation they generate is a partial order and finds the
heights, and the masks are a cache, derived by walking the covers the
first time one is read; so homology, which reads covers and heights
only, never builds them.  A relation given by below masks, such as the
covector order, has its covers found by the cover pass (`_cover_pass`),
which also checks the poset axioms.  Derived posets inherit the axioms,
and an order ideal (every localization fiber is one) inherits the covers
and heights too.  The dual is built from the upper covers, like every
other poset, and derives its own masks the first time one is read.  All
objects are immutable.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional


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


def _cover_pass(below: list[int], elements: Iterable[int]) -> Optional[tuple[list, list[int], bool, list[int]]]:
    """Lower covers, heights, gradedness and the order the elements were
    taken in, for a relation given by its reflexive below masks, or None
    when it is not a partial order.

    The elements are taken in order of ideal size.  The lower covers of y
    are peeled off below(y) - {y} from the highest height down: at each
    height, what is left and lies there is covered by y, and its ideal is
    taken off.  The relation is a partial order exactly when below(y) is
    {y} with the ideals of these covers, all of them taken before y; by
    induction every ideal is then downward closed and holds nothing taken
    after it, so no two elements lie below each other.  The height of y
    is one above its highest cover, and y is graded when every cover lies
    there.  The covers of each element are a tuple in increasing order.
    """
    lower: list = [()] * len(below)
    level = [0] * len(below)
    layers: list[int] = []  # layers[h]: the elements of height h taken so far
    graded = True
    order = sorted(elements, key=lambda y: below[y].bit_count())
    for y in order:
        m = below[y]
        reached = 1 << y
        rem = m ^ reached
        h = len(layers)
        covers: list[int] = []
        while rem and h:
            h -= 1
            cand = rem & layers[h]
            if cand:
                # the bits of cand, peeled inline as in `bits`: this loop
                # runs for every element of every poset
                while cand:
                    low = cand & -cand
                    c = low.bit_length() - 1
                    covers.append(c)
                    reached |= below[c]
                    cand ^= low
                rem = m ^ reached
        if rem:
            return None
        hy = 0
        if covers:
            hy = level[covers[0]] + 1
            if level[covers[-1]] != hy - 1:
                graded = False
                covers.sort()
            lower[y] = tuple(covers)
            level[y] = hy
        if hy == len(layers):
            layers.append(0)
        layers[hy] |= 1 << y
    return lower, level, graded, order


def _first_skipping_cover(elements: Iterable[int], lower, level: list[int]) -> Optional[tuple[int, int]]:
    """The first cover (x, y) that skips a height: y is least in the order
    of (height, element), and x is its highest such cover, the largest at
    that height."""
    found = None
    for y in elements:
        h = level[y]
        skips = [(level[x], x) for x in lower[y] if level[x] != h - 1]
        if skips and (found is None or (h, y) < found[:2]):
            found = (h, y, max(skips)[1])
    return None if found is None else (found[2], found[1])


def _sorted_names(names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    for a, b in zip(names, names[1:]):
        if not a < b:
            raise PosetError(f"names are not distinct and sorted: {a!r}, {b!r}")
    return names


def _raise_bad_walk(names: tuple[str, ...], y: int, covers: Iterable[int], level: list[int]) -> None:
    """Name what is wrong with the entry of element y in a walk of covers,
    whose elements walked so far have a height in `level` and the others
    -1."""
    if not 0 <= y < len(names):
        raise PosetError(f"element {y!r} has no name")
    prev = -1
    for c in covers:
        if not 0 <= c < len(names):
            raise PosetError(f"a cover of {names[y]!r} has no name: {c!r}")
        if c <= prev:
            raise PosetError(f"the covers of {names[y]!r} are not increasing: {names[prev]!r}, {names[c]!r}")
        if level[c] < 0:
            raise PosetError(f"the cover {names[c]!r} of {names[y]!r} is not walked before it")
        prev = c
    raise AssertionError("the walk refused good covers")


class FinitePoset:
    """A finite partially ordered set on a mask of integer elements.

    `names[i]` is the name of element i, shared by every poset derived
    from the same root.  Each element's lower covers and height are kept,
    with the relation as one reflexive "below" mask per element.  It is
    built from covers (`from_covers`), and the masks are derived when
    first read.  An order ideal inherits covers and heights, the dual is
    built from the upper covers, and any other subposet runs the cover
    pass.
    """

    __slots__ = (
        "names", "members", "_lower", "_level", "_graded", "_below",
        "_elements", "_heights", "_dual", "_maximal",
    )

    @staticmethod
    def from_covers(names: Iterable[str], covers: Mapping[int, tuple[int, ...]]) -> "FinitePoset":
        """The poset on one element per name whose covering relation is
        given: `covers[y]` is the tuple of the lower covers of element y,
        in increasing order, and the mapping is walked in its own order.
        The names must be distinct and sorted, and every element walked
        once.

        Each cover must be walked before its element (`PosetError` names
        the first that is not), so the covers have no cycle, and the
        relation they generate is a partial order.  The height of an
        element is one above its highest cover, and the poset is graded
        when every cover lies there.  A cover that skips a height might
        lie below another cover of the same element; that is refused, by
        the one check that reads the masks.  Otherwise the below masks are
        derived from the covers the first time one is read."""
        names = _sorted_names(names)
        n = len(names)
        lower: list = [()] * n
        level = [-1] * n  # the heights of the elements walked so far
        graded = True
        for y, cs in covers.items():
            if not 0 <= y < n:
                _raise_bad_walk(names, y, cs, level)
            prev = top = -1
            low = n
            for c in cs:
                h = level[c] if prev < c < n else -1
                if h < 0:
                    _raise_bad_walk(names, y, cs, level)
                prev = c
                if h > top:
                    top = h
                if h < low:
                    low = h
            level[y] = top + 1
            if cs:
                lower[y] = tuple(cs)
                graded = graded and low == top
        if -1 in level:
            raise PosetError(f"{names[level.index(-1)]!r} is not walked")
        poset = object.__new__(_Unmasked)
        poset._set(names, (1 << n) - 1, lower, level, graded)
        object.__setattr__(poset, "_elements", tuple(range(n)))
        if not graded:
            for y in poset.elements:
                for c in lower[y]:
                    over = [d for d in lower[y] if d != c and poset.leq(c, d)]
                    if over:
                        raise PosetError(f"{names[c]!r} is no cover of {names[y]!r}: it lies below {names[over[0]]!r}")
        return poset

    def _set(self, names, members, lower, level, graded, below=None) -> None:
        """Fill the slots; the caches start empty, and so do the masks
        when none are given."""
        for slot, value in zip(FinitePoset.__slots__, (names, members, lower, level, graded, below)):
            if value is not None:
                object.__setattr__(self, slot, value)
        for slot in ("_elements", "_heights", "_dual", "_maximal"):
            object.__setattr__(self, slot, None)

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

    def is_cover(self, x: int, y: int) -> bool:
        """x is covered by y."""
        return y in self and x in self._lower[y]

    def lower_covers(self, y: int) -> tuple[int, ...]:
        """The elements covered by an element y, in increasing order."""
        return self._lower[y]

    def maximal_elements(self) -> int:
        """The elements that are no element's lower cover."""
        if self._maximal is None:
            lower = self._lower
            covered = set()
            for y in self.elements:
                covered.update(lower[y])
            object.__setattr__(self, "_maximal", mask_of(x for x in self.elements if x not in covered))
        return self._maximal

    def minimal_elements(self) -> int:
        """The elements without a lower cover."""
        lower = self._lower
        return mask_of(x for x in self.elements if not lower[x])

    def heights(self) -> dict[int, int]:
        """Length of a longest chain ending at each element."""
        if self._heights is None:
            level = self._level
            object.__setattr__(self, "_heights", {x: level[x] for x in self.elements})
        return self._heights

    def height(self) -> int:
        """Length of a longest chain in the poset (edge count)."""
        return max(self.heights().values(), default=0)

    def skipping_cover(self) -> Optional[tuple[int, int]]:
        """A cover (x, y) with x more than one height below y, or None when
        the poset is graded: y is least by (height, element), and x is
        its highest such cover, the largest at that height."""
        if self._graded:
            return None
        return _first_skipping_cover(self.elements, self._lower, self._level)

    # -- derived posets --------------------------------------------------

    def dual(self) -> "FinitePoset":
        """The opposite order, built from the upper covers here, with its
        heights found from the top down; it derives its own masks the
        first time one is read."""
        if self._dual is None:
            upper: list = [[] for _ in self.names]
            for y in self.elements:
                for x in self._lower[y]:
                    upper[x].append(y)
            down = [0] * len(self.names)
            for x in sorted(self.elements, key=self._level.__getitem__, reverse=True):
                upper[x] = tuple(upper[x])
                down[x] = 1 + max((down[y] for y in upper[x]), default=-1)
            graded = _first_skipping_cover(self.elements, upper, down) is None
            dual = object.__new__(_Unmasked)
            dual._set(self.names, self.members, upper, down, graded)
            object.__setattr__(dual, "_dual", self)
            object.__setattr__(self, "_dual", dual)
        return self._dual

    def _check_mask(self, mask: int) -> None:
        unknown = bits(mask & ~self.members)
        if unknown:
            shown = [self.names[x] if x < len(self.names) else x for x in unknown[:4]]
            raise PosetError(f"unknown elements: {shown}")

    def subposet(self, mask: int) -> "FinitePoset":
        """The induced subposet on a mask of elements.  An order ideal
        keeps the lower covers and heights of its elements; any other
        subposet runs the cover pass."""
        self._check_mask(mask)
        below = [0] * len(self.names)
        whole = self._below
        ideal = True
        elements = bits(mask)
        for x in elements:
            below[x] = whole[x] & mask
            if below[x] != whole[x]:
                ideal = False
        if ideal:
            lower, level = self._lower, self._level
            graded = self._graded or _first_skipping_cover(elements, lower, level) is None
        else:
            lower, level, graded, _ = _cover_pass(below, elements)
        out = object.__new__(FinitePoset)
        out._set(self.names, mask, lower, level, graded, below)
        return out

    def order_ideal(self, generators: int) -> int:
        self._check_mask(generators)
        out = 0
        for g in bits(generators):
            out |= self._below[g]
        return out

    def chains(self) -> Iterator[tuple[int, ...]]:
        """All nonempty chains, each as a tuple in increasing order."""
        strictly_up = {x: bits(self.dual().below(x) ^ 1 << x) for x in self.elements}

        def extend(chain: list[int]) -> Iterator[tuple[int, ...]]:
            yield tuple(chain)
            for y in strictly_up[chain[-1]]:
                chain.append(y)
                yield from extend(chain)
                chain.pop()

        for x in self.elements:
            yield from extend([x])

    def order_complex(self) -> "SimplicialComplexRecord":
        faces = tuple(frozenset(c) for c in self.chains())
        return SimplicialComplexRecord(self.elements, faces)


class _Unmasked(FinitePoset):
    """A poset built from covers whose masks are not derived yet.  The
    first read derives them, walking the covers by height, and turns the
    poset into a plain `FinitePoset`, so every later read is a slot read.
    Keeping this hook off `FinitePoset` keeps attribute reads on every
    other poset at full speed."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "_below":
            raise AttributeError(name)
        lower = self._lower
        below = [0] * len(self.names)
        for y in sorted(self.elements, key=self._level.__getitem__):
            m = 1 << y
            for c in lower[y]:
                m |= below[c]
            below[y] = m
        object.__setattr__(self, "_below", below)
        object.__setattr__(self, "__class__", FinitePoset)
        return below


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
