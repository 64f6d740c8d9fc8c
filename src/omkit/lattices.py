"""The lattice of flats: rank, modularity, supersolvability, Moebius data.

Flats are zero sets of covectors, kept as frozensets of labels with a
canonical comma-joined rendering in ground-set order (the empty flat
renders as "{}").  Whitney numbers double as the independent oracle for
Betti numbers downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .matroids import CovectorSystem, NotAFlatError
from .posets import FinitePoset, PosetMap, mask_of


def flat_id(flat: Iterable[str], ground: tuple[str, ...]) -> str:
    members = set(flat)
    unknown = members.difference(ground)
    if unknown:
        raise ValueError(f"labels outside ground set: {sorted(unknown)}")
    if not members:
        return "{}"
    return ",".join(lab for lab in ground if lab in members)


def parse_flat(text: str, ground: tuple[str, ...]) -> frozenset[str]:
    text = text.strip()
    if text in ("{}", ""):
        return frozenset()
    members = [t.strip() for t in text.split(",")]
    unknown = set(members).difference(ground)
    if unknown:
        raise ValueError(f"unknown labels: {sorted(unknown)}")
    return frozenset(members)


@dataclass(frozen=True)
class ModularityCheck:
    ok: bool
    witness: Optional[tuple[frozenset[str], frozenset[str]]] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class MChain:
    """A maximal chain of flats, all modular."""

    flats: tuple[frozenset[str], ...]


class GeometricLattice:
    """Lattice of flats of a simple covector system, ordered by inclusion."""

    __slots__ = (
        "ground",
        "flats",
        "rank_of",
        "mobius",
        "_poset",
        "_index",
        "_flats_by_rank",
        "_join_table",
    )

    def __init__(self, ground: tuple[str, ...], flats: Iterable[frozenset[str]]):
        flist = sorted(set(flats), key=lambda f: (len(f), flat_id(f, ground)))
        fset = set(flist)
        if frozenset() not in fset:
            raise ValueError("bottom flat missing")
        if frozenset(ground) not in fset:
            raise ValueError("top flat missing")
        for x in flist:
            for y in flist:
                if not (x & y) in fset:
                    raise ValueError(
                        f"flats not closed under intersection: "
                        f"{flat_id(x, ground)} ^ {flat_id(y, ground)}"
                    )
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "flats", tuple(flist))
        rank_of: dict[frozenset[str], int] = {}
        for x in flist:  # flist is sorted by size, so predecessors are done
            rank_of[x] = max(
                (rank_of[y] + 1 for y in flist if y < x), default=0
            )
        object.__setattr__(self, "rank_of", rank_of)
        mob: dict[frozenset[str], int] = {}
        for x in flist:
            if not x:
                mob[x] = 1
            else:
                mob[x] = -sum(mob[y] for y in flist if y < x)
        object.__setattr__(self, "mobius", mob)
        object.__setattr__(self, "_poset", None)
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_flats_by_rank", None)
        object.__setattr__(self, "_join_table", None)
        # semimodularity of the rank function, checked once
        for x in flist:
            for y in flist:
                jn = self.join(x, y)
                if rank_of[x] + rank_of[y] < rank_of[jn] + rank_of[x & y]:
                    raise ValueError(
                        f"rank not semimodular at {flat_id(x, ground)}, "
                        f"{flat_id(y, ground)}"
                    )

    def __setattr__(self, name, value):
        raise AttributeError("GeometricLattice is immutable")

    # -- lattice operations ------------------------------------------------

    def rank(self) -> int:
        return self.rank_of[frozenset(self.ground)]

    def id(self, flat: frozenset[str]) -> str:
        return flat_id(flat, self.ground)

    def check_flat(self, flat: Iterable[str]) -> frozenset[str]:
        f = frozenset(flat)
        if f not in self.rank_of:
            raise NotAFlatError(f"{flat_id(f, self.ground)} is not a flat")
        return f

    def join(self, x: frozenset[str], y: frozenset[str]) -> frozenset[str]:
        if self._join_table is None:
            table = {}
            for a in self.flats:
                for b in self.flats:
                    if (b, a) in table:
                        table[(a, b)] = table[(b, a)]
                    else:
                        u = a | b
                        table[(a, b)] = min(
                            (f for f in self.flats if u <= f), key=len
                        )
            object.__setattr__(self, "_join_table", table)
        return self._join_table[(x, y)]

    def flats_of_rank(self, r: int) -> tuple[frozenset[str], ...]:
        if self._flats_by_rank is None:
            byr: dict[int, list[frozenset[str]]] = {}
            for f in self.flats:
                byr.setdefault(self.rank_of[f], []).append(f)
            object.__setattr__(self, "_flats_by_rank", byr)
        return tuple(self._flats_by_rank.get(r, ()))

    def poset(self) -> FinitePoset:
        """The flats under inclusion, numbered in the order of their ids."""
        if self._poset is None:
            named = sorted((self.id(f), f) for f in self.flats)
            flats = [f for _, f in named]
            below = {
                j: mask_of(i for i, x in enumerate(flats) if x <= y)
                for j, y in enumerate(flats)
            }
            poset = FinitePoset([t for t, _ in named], below, _validated=True)
            object.__setattr__(self, "_index", {f: i for i, f in enumerate(flats)})
            object.__setattr__(self, "_poset", poset)
        return self._poset

    def index(self, flat: frozenset[str]) -> int:
        """The element of `poset()` that is this flat."""
        self.poset()
        return self._index[self.check_flat(flat)]

    def interval(self, lo: frozenset[str], hi: frozenset[str]) -> FinitePoset:
        lo, hi = self.check_flat(lo), self.check_flat(hi)
        cells = mask_of(self.index(f) for f in self.flats if lo <= f <= hi)
        return self.poset().subposet(cells)

    def whitney(self) -> tuple[int, ...]:
        """Unsigned Whitney numbers |w_i|, from the Moebius recursion."""
        out = [0] * (self.rank() + 1)
        for f in self.flats:
            out[self.rank_of[f]] += abs(self.mobius[f])
        return tuple(out)

    # -- modularity and supersolvability -------------------------------------

    def is_modular_flat(self, flat: Iterable[str]) -> ModularityCheck:
        """Definition check: Z v (X ^ Y) = (Z v X) ^ Y for all Z <= Y."""
        x = self.check_flat(flat)
        for y in self.flats:
            xy = x & y
            for z in self.flats:
                if not z <= y:
                    continue
                if self.join(z, xy) != self.join(z, x) & y:
                    return ModularityCheck(False, (z, y))
        return ModularityCheck(True)

    def rank3_modular_coatom_test(self, flat: Iterable[str]) -> bool:
        """Rank-3 criterion: a rank-2 flat is modular iff it meets every
        rank-2 flat."""
        x = self.check_flat(flat)
        if self.rank() != 3:
            raise ValueError("criterion applies to rank-3 lattices only")
        if self.rank_of[x] != 2:
            raise ValueError("criterion applies to rank-2 flats only")
        return all(x & y for y in self.flats_of_rank(2))

    def is_supersolvable(self) -> Optional[MChain]:
        """Search for a maximal chain of modular flats.

        Recursive over modular coatoms (modularity checked inside the
        subinterval at each level).  The returned chain is re-verified
        against the full-definition quantifier in this lattice; a chain
        that fails it is a broken invariant and raises AssertionError.
        """
        chain = self._ss_chain(frozenset(self.ground))
        if chain is None:
            return None
        for f in chain:
            if not self.is_modular_flat(f).ok:
                raise AssertionError(f"the modular chain search returned {self.id(f)}, which is not modular")
        return MChain(tuple(chain))

    def _ss_chain(self, top: frozenset[str]) -> Optional[list[frozenset[str]]]:
        r = self.rank_of[top]
        if r == 0:
            return [top]
        sub = [f for f in self.flats if f <= top]
        coatoms = sorted(
            (f for f in sub if self.rank_of[f] == r - 1),
            key=lambda f: self.id(f),
        )
        for m in coatoms:
            if not self._modular_in(m, sub):
                continue
            rest = self._ss_chain(m)
            if rest is not None:
                return rest + [top]
        return None

    def _modular_in(self, x: frozenset[str], universe: list[frozenset[str]]) -> bool:
        # joins of flats below max(universe) stay below it, so the global
        # join table is valid inside the subinterval
        for y in universe:
            xy = x & y
            for z in universe:
                if not z <= y:
                    continue
                if self.join(z, xy) != self.join(z, x) & y:
                    return False
        return True

    def brylawski_iso(
        self, modular: Iterable[str], other: Iterable[str]
    ) -> tuple[PosetMap, PosetMap]:
        """The interval isomorphism [Y, X v Y] -> [X ^ Y, X] at a modular X,
        Z maps to Z ^ X, with inverse W maps to W v Y."""
        x = self.check_flat(modular)
        y = self.check_flat(other)
        check = self.is_modular_flat(x)
        if not check.ok:
            raise ValueError(f"{self.id(x)} is not modular; witness {check.witness}")
        top_int = self.interval(y, self.join(x, y))
        bot_int = self.interval(x & y, x)
        down = {}
        for f in self.flats:
            if y <= f <= self.join(x, y):
                down[self.index(f)] = self.index(f & x)
        up = {}
        for f in self.flats:
            if (x & y) <= f <= x:
                up[self.index(f)] = self.index(self.join(f, y))
        p_x = PosetMap(top_int, bot_int, down)
        s_y = PosetMap(bot_int, top_int, up)
        for e in top_int.elements:
            if up[down[e]] != e:
                raise AssertionError("brylawski maps are not mutually inverse")
        for e in bot_int.elements:
            if down[up[e]] != e:
                raise AssertionError("brylawski maps are not mutually inverse")
        return p_x, s_y


def build_lattice(system: CovectorSystem) -> GeometricLattice:
    """The lattice of zero sets of the covectors."""
    return GeometricLattice(system.ground, system.flats())
