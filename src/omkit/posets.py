"""Finite posets, poset maps, order complexes.

Elements are opaque strings.  The order relation is stored explicitly as
the full set of comparable pairs; everything here is small enough that
explicitness wins, and it makes the poset axioms directly checkable on
construction.  All objects are immutable after construction.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator


class PosetError(ValueError):
    pass


class FinitePoset:
    """A finite partially ordered set over string element ids.

    The relation is kept as per-element "below" and "above" frozensets
    (reflexive).  Covers are derived and cached.
    """

    __slots__ = ("elements", "_below", "_above", "_covers", "_heights")

    def __init__(
        self,
        elements: Iterable[str],
        pairs: Iterable[tuple[str, str]],
        _validated: bool = False,
    ):
        elems = tuple(sorted(set(elements)))
        index = set(elems)
        below: dict[str, set[str]] = {x: {x} for x in elems}
        above: dict[str, set[str]] = {x: {x} for x in elems}
        for x, y in pairs:
            if x not in index or y not in index:
                raise PosetError(f"relation pair ({x!r}, {y!r}) mentions unknown element")
            below[y].add(x)
            above[x].add(y)
        fbelow = {x: frozenset(s) for x, s in below.items()}
        fabove = {x: frozenset(s) for x, s in above.items()}
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_below", fbelow)
        object.__setattr__(self, "_above", fabove)
        object.__setattr__(self, "_covers", None)
        object.__setattr__(self, "_heights", None)
        if not _validated:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("FinitePoset is immutable")

    def _validate(self) -> None:
        for x in self.elements:
            ab = self._above[x]
            # antisymmetry: nothing both above and below except x itself
            meet = ab & self._below[x]
            if meet != {x}:
                raise PosetError(f"antisymmetry fails at {x!r}: {sorted(meet)}")
            # transitivity: above sets are upward closed
            for y in ab:
                if not self._above[y] <= ab:
                    raise PosetError(f"transitivity fails at ({x!r}, {y!r})")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_covers(
        cls, elements: Iterable[str], covers: Iterable[tuple[str, str]]
    ) -> "FinitePoset":
        elems = tuple(elements)
        up: dict[str, set[str]] = {x: set() for x in elems}
        for a, b in covers:
            up[a].add(b)
        # transitive closure by DFS from each element
        pairs = []
        for x in elems:
            seen: set[str] = set()
            stack = list(up[x])
            while stack:
                y = stack.pop()
                if y in seen:
                    continue
                seen.add(y)
                stack.extend(up[y])
            pairs.extend((x, y) for y in seen)
        return cls(elems, pairs)

    @classmethod
    def chain(cls, elements: Iterable[str]) -> "FinitePoset":
        elems = tuple(elements)
        return cls(elems, [(elems[i], elems[j]) for i in range(len(elems)) for j in range(i + 1, len(elems))])

    @classmethod
    def antichain(cls, elements: Iterable[str]) -> "FinitePoset":
        return cls(tuple(elements), [])

    # -- basic queries --------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: str) -> bool:
        return x in self._below

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def leq(self, x: str, y: str) -> bool:
        return x in self._below[y]

    def lt(self, x: str, y: str) -> bool:
        return x != y and x in self._below[y]

    def below(self, x: str) -> frozenset[str]:
        return self._below[x]

    def above(self, x: str) -> frozenset[str]:
        return self._above[x]

    def pairs(self) -> frozenset[tuple[str, str]]:
        """The stored relation: all pairs (x, y) with x <= y, reflexive."""
        return frozenset((x, y) for y in self.elements for x in self._below[y])

    def covers(self) -> frozenset[tuple[str, str]]:
        """All pairs (x, y) with x covered by y."""
        if self._covers is None:
            covs = frozenset(
                (x, y)
                for y in self.elements
                for x in self._below[y]
                if x != y and len(self._above[x] & self._below[y]) == 2
            )
            object.__setattr__(self, "_covers", covs)
        return self._covers

    def maximal_elements(self) -> frozenset[str]:
        return frozenset(x for x in self.elements if len(self._above[x]) == 1)

    def minimal_elements(self) -> frozenset[str]:
        return frozenset(x for x in self.elements if len(self._below[x]) == 1)

    def heights(self) -> dict[str, int]:
        """Length of a longest chain ending at each element."""
        if self._heights is None:
            h: dict[str, int] = {}
            for x in sorted(self.elements, key=lambda e: len(self._below[e])):
                h[x] = max((h[y] + 1 for y in self._below[x] if y != x), default=0)
            object.__setattr__(self, "_heights", h)
        return self._heights

    def height(self) -> int:
        """Length of a longest chain in the poset (edge count)."""
        return max(self.heights().values(), default=0)

    # -- derived posets --------------------------------------------------

    def dual(self) -> "FinitePoset":
        pairs = [(y, x) for y in self.elements for x in self._below[y] if x != y]
        return FinitePoset(self.elements, pairs, _validated=True)

    def subposet(self, subset: Iterable[str]) -> "FinitePoset":
        sub = set(subset)
        unknown = sub.difference(self._below)
        if unknown:
            raise PosetError(f"unknown elements: {sorted(unknown)}")
        pairs = [
            (x, y)
            for y in sub
            for x in self._below[y]
            if x != y and x in sub
        ]
        return FinitePoset(tuple(sub), pairs, _validated=True)

    def order_ideal(self, generators: Iterable[str]) -> frozenset[str]:
        gens = list(generators)
        unknown = set(gens).difference(self._below)
        if unknown:
            raise PosetError(f"unknown elements: {sorted(unknown)}")
        out: set[str] = set()
        for g in gens:
            out |= self._below[g]
        return frozenset(out)

    def is_ideal(self, subset: Iterable[str]) -> bool:
        sub = set(subset)
        return all(self._below[x] <= sub for x in sub)

    def linear_extension_ideal_first(self, ideal: Iterable[str]) -> list[str]:
        """A linear extension where the given order ideal comes first.

        Tie-breaking is lexicographic on element ids, so the output is
        deterministic and reproducible downstream (shelling orders,
        matchings).
        """
        iset = set(ideal)
        unknown = iset.difference(self._below)
        if unknown:
            raise PosetError(f"unknown elements: {sorted(unknown)}")
        if not self.is_ideal(iset):
            raise PosetError("the given set is not an order ideal")
        out: list[str] = []
        placed: set[str] = set()
        for part in (iset, set(self.elements) - iset):
            remaining = set(part)
            ready = [
                x
                for x in part
                if all(y == x or y in placed for y in self._below[x])
            ]
            heapq.heapify(ready)
            while ready:
                x = heapq.heappop(ready)
                if x not in remaining:
                    continue
                out.append(x)
                placed.add(x)
                remaining.discard(x)
                for y in self._above[x]:
                    if y in remaining and all(
                        z == y or z in placed for z in self._below[y]
                    ):
                        heapq.heappush(ready, y)
        if len(out) != len(self.elements):
            raise PosetError("linear extension failed")
        return out

    def chains(self) -> Iterator[tuple[str, ...]]:
        """All nonempty chains, each as a tuple in increasing order."""
        strict_above = {
            x: sorted(y for y in self._above[x] if y != x) for x in self.elements
        }

        def extend(chain: list[str]) -> Iterator[tuple[str, ...]]:
            yield tuple(chain)
            for y in strict_above[chain[-1]]:
                chain.append(y)
                yield from extend(chain)
                chain.pop()

        for x in sorted(self.elements):
            yield from extend([x])

    def order_complex(self) -> "SimplicialComplexRecord":
        faces = tuple(frozenset(c) for c in self.chains())
        return SimplicialComplexRecord(self.elements, faces, _closed=True)


class SimplicialComplexRecord:
    """A simplicial complex as an explicit face list (no empty face)."""

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces, _closed: bool = False):
        vertices = tuple(vertices)
        faces = tuple(dict.fromkeys(faces))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)
        vset = set(vertices)
        for f in faces:
            if not f:
                raise ValueError("the empty face is not stored")
            if not f <= vset:
                raise ValueError(f"face {sorted(f)} uses unknown vertices")
        if not _closed:
            fset = set(faces)
            for f in faces:
                for v in f:
                    if len(f) > 1 and (f - {v}) not in fset:
                        raise ValueError(
                            f"face list not closed under subsets: missing {sorted(f - {v})}"
                        )

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[str]]) -> "SimplicialComplexRecord":
        all_faces: set[frozenset[str]] = set()
        verts: set[str] = set()
        for facet in facets:
            fs = frozenset(facet)
            verts |= fs
            stack = [fs]
            while stack:
                f = stack.pop()
                if f in all_faces or not f:
                    continue
                all_faces.add(f)
                for v in f:
                    stack.append(f - {v})
        return cls(tuple(sorted(verts)), tuple(sorted(all_faces, key=lambda f: (len(f), sorted(f)))), _closed=True)

    def by_dimension(self) -> dict[int, list[frozenset[str]]]:
        out: dict[int, list[frozenset[str]]] = {}
        for f in self.faces:
            out.setdefault(len(f) - 1, []).append(f)
        return out

    def f_vector(self) -> tuple[int, ...]:
        byd = self.by_dimension()
        if not byd:
            return ()
        return tuple(len(byd.get(d, ())) for d in range(max(byd) + 1))


class PosetMap:
    """An order preserving map between finite posets."""

    __slots__ = ("source", "target", "assignment")

    def __init__(
        self,
        source: FinitePoset,
        target: FinitePoset,
        assignment: dict[str, str],
        _validated: bool = False,
    ):
        missing = set(source.elements).difference(assignment)
        if missing:
            raise PosetError(f"assignment not total; missing {sorted(missing)[:4]}")
        for x, fx in assignment.items():
            if x not in source:
                raise PosetError(f"unknown source element {x!r}")
            if fx not in target:
                raise PosetError(f"image {fx!r} of {x!r} not in target")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", dict(assignment))
        if not _validated:
            for y in source.elements:
                fy = assignment[y]
                for x in source.below(y):
                    if not target.leq(assignment[x], fy):
                        raise PosetError(
                            f"not order preserving: {x!r} <= {y!r} but "
                            f"{assignment[x]!r} !<= {fy!r}"
                        )

    def __setattr__(self, name, value):
        raise AttributeError("PosetMap is immutable")

    def __call__(self, x: str) -> str:
        return self.assignment[x]

    def fiber(self, q: str) -> FinitePoset:
        """The poset fiber over q: the induced subposet on f^{-1}(target_{<=q})."""
        if q not in self.target:
            raise PosetError(f"unknown target element {q!r}")
        down = self.target.below(q)
        cells = [x for x in self.source.elements if self.assignment[x] in down]
        return self.source.subposet(cells)

    def preimage(self, q: str) -> frozenset[str]:
        return frozenset(x for x in self.source.elements if self.assignment[x] == q)

    def image(self) -> frozenset[str]:
        return frozenset(self.assignment.values())

    def is_surjective(self) -> bool:
        return self.image() == frozenset(self.target.elements)

    def compose(self, other: "PosetMap") -> "PosetMap":
        """self after other (other first)."""
        if other.target is not self.source and other.target.elements != self.source.elements:
            raise PosetError("composition type mismatch")
        return PosetMap(
            other.source,
            self.target,
            {x: self.assignment[fx] for x, fx in other.assignment.items()},
            _validated=True,
        )
