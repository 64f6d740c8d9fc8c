"""The lattice of flats: rank, modularity, supersolvability, Moebius data.

A flat is the zero set of a covector, kept as a ground-bit mask (bit i is
`ground[i]`).  The lattice numbers its flats once, in the order of their
ids (`flat_id`: the labels comma-joined in ground order, "{}" for the
empty flat): flat number `index[f]` is named `names[index[f]]`, and every
tie-break between flats sorts by this number.  `build_lattice` builds the
lattice once per covector system and keeps it on the system, as the
covector poset is kept, so no caller passes a lattice along.  The
constructor makes one pass over the flats in size order for rank,
Moebius value and containment masks, each read off the flat's proper
subflats, and one pass over the unordered pairs for the join table and
the semimodularity check.  Supersolvability is decided once: the chain
search checks each candidate flat against the definition of modularity
over the whole lattice, so the chain it returns is the answer, with no
second check.  Each flat's modularity is decided once per lattice and
kept for every later question about it.  Whitney numbers double as the
independent oracle for Betti numbers downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .matroids import CovectorSystem, NotAFlatError, flat_id


@dataclass(frozen=True)
class ModularityCheck:
    ok: bool
    witness: Optional[tuple[int, int]] = None  # flats (Z, Y) breaking modularity

    def __bool__(self) -> bool:
        return self.ok

    def witness_text(self, ground: tuple[str, ...]) -> Optional[str]:
        """The witness as "Z=<flat> Y=<flat>" over the ground, or None."""
        if self.witness is None:
            return None
        z, y = self.witness
        return f"Z={flat_id(z, ground)} Y={flat_id(y, ground)}"


class GeometricLattice:
    """Lattice of flats of a simple covector system, ordered by inclusion.

    `flats` lists the flats by size, then by number; `names[i]` is the id
    of flat number i and `index` maps each flat to its number.
    """

    __slots__ = (
        "ground",
        "flats",
        "names",
        "index",
        "rank_of",
        "mobius",
        "_flats_by_rank",
        "_joins",
        "_witnesses",
    )

    def __init__(self, ground: tuple[str, ...], flats: Iterable[int]):
        object.__setattr__(self, "ground", ground)
        named = sorted((flat_id(f, ground), f) for f in set(flats))
        index = {f: i for i, (_, f) in enumerate(named)}
        flist = sorted(index, key=lambda f: (f.bit_count(), index[f]))
        if 0 not in index:
            raise ValueError("bottom flat missing")
        if (1 << len(ground)) - 1 not in index:
            raise ValueError("top flat missing")
        # closure under intersection; a meet is symmetric, so the first
        # failing x of the full scan fails with a y at or after it
        keys = index.keys()
        for i, x in enumerate(flist):
            if not keys >= {x & y for y in flist[i:]}:
                y = next(y for y in flist if x & y not in index)
                raise ValueError(
                    "flats not closed under intersection: "
                    f"{flat_id(x, ground)} ^ {flat_id(y, ground)}"
                )
        object.__setattr__(self, "flats", tuple(flist))
        object.__setattr__(self, "names", tuple(t for t, _ in named))
        object.__setattr__(self, "index", index)
        # rank and Moebius over each flat's proper subflats, which come
        # before it in flist; bit i of over[f] says that flist[i] contains f
        rank_of: dict[int, int] = {}
        mob: dict[int, int] = {}
        over: dict[int, int] = {}
        for i, x in enumerate(flist):
            bit = 1 << i
            over[x] = bit
            r, mu = -1, 0
            for y in flist[:i]:
                if not y & ~x:
                    over[y] |= bit
                    r = max(r, rank_of[y])
                    mu -= mob[y]
            rank_of[x] = r + 1
            mob[x] = mu if x else 1
        object.__setattr__(self, "rank_of", rank_of)
        object.__setattr__(self, "mobius", mob)
        object.__setattr__(self, "_flats_by_rank", None)
        # the join of a and b is the first flat over both: the lowest bit of
        # over[a] & over[b]; joins and semimodularity are symmetric, so one
        # visit per unordered pair fills both rows and finds the full scan's
        # first failing pair
        joins: dict[int, dict[int, int]] = {x: {} for x in flist}
        for i, x in enumerate(flist):
            row, over_x, rx = joins[x], over[x], rank_of[x]
            for y in flist[i:]:
                both = over_x & over[y]
                j = row[y] = joins[y][x] = flist[(both & -both).bit_length() - 1]
                if rx + rank_of[y] < rank_of[j] + rank_of[x & y]:
                    raise ValueError(
                        f"rank not semimodular at {flat_id(x, ground)}, {flat_id(y, ground)}"
                    )
        object.__setattr__(self, "_joins", joins)
        object.__setattr__(self, "_witnesses", {})

    def __setattr__(self, name, value):
        raise AttributeError("GeometricLattice is immutable")

    # -- lattice operations ------------------------------------------------

    def rank(self) -> int:
        return self.rank_of[(1 << len(self.ground)) - 1]

    def check_flat(self, flat: int) -> int:
        if flat not in self.index:
            raise NotAFlatError(f"{flat_id(flat, self.ground)} is not a flat")
        return flat

    def flats_of_rank(self, r: int) -> tuple[int, ...]:
        if self._flats_by_rank is None:
            byr: dict[int, list[int]] = {}
            for f in self.flats:
                byr.setdefault(self.rank_of[f], []).append(f)
            object.__setattr__(self, "_flats_by_rank", byr)
        return tuple(self._flats_by_rank.get(r, ()))

    def whitney(self) -> tuple[int, ...]:
        """Unsigned Whitney numbers |w_i|, from the Moebius recursion."""
        out = [0] * (self.rank() + 1)
        for f in self.flats:
            out[self.rank_of[f]] += abs(self.mobius[f])
        return tuple(out)

    # -- modularity and supersolvability -------------------------------------

    def is_modular_flat(self, flat: int) -> ModularityCheck:
        """Definition check: Z v (X ^ Y) = (Z v X) ^ Y for all Z <= Y."""
        witness = self._modularity_witness(self.check_flat(flat))
        return ModularityCheck(witness is None, witness)

    def is_supersolvable(self) -> Optional[tuple[int, ...]]:
        """A maximal chain of modular flats, bottom first, or None."""
        return self._ss_chain((1 << len(self.ground)) - 1)

    def _ss_chain(self, top: int) -> Optional[tuple[int, ...]]:
        """A chain of modular flats from the bottom up to `top`, depth
        first over the flats of the next rank down below `top`, by flat
        number, each checked once against the definition over the whole
        lattice."""
        r = self.rank_of[top]
        if r == 0:
            return (top,)
        below = (f for f in self.flats_of_rank(r - 1) if not f & ~top)
        for m in sorted(below, key=self.index.__getitem__):
            if self._modularity_witness(m) is not None:
                continue
            rest = self._ss_chain(m)
            if rest is not None:
                return rest + (top,)
        return None

    def _modularity_witness(self, x: int) -> Optional[tuple[int, int]]:
        """The first (Z, Y) of the flats, Y outer, with Z <= Y and
        Z v (X ^ Y) != (Z v X) ^ Y, or None when X is modular.  It is
        decided once per flat and kept, so `is_modular_flat`, the chain
        search and every fiber stratification share one decision."""
        witnesses = self._witnesses
        if x not in witnesses:
            witnesses[x] = self._first_nonmodular_pair(x)
        return witnesses[x]

    def _first_nonmodular_pair(self, x: int) -> Optional[tuple[int, int]]:
        flats, joins = self.flats, self._joins
        for y in flats:
            xy = x & y
            for z in flats:
                if z & ~y:
                    continue
                row = joins[z]
                if row[xy] != row[x] & y:
                    return z, y
        return None


def build_lattice(system: CovectorSystem) -> GeometricLattice:
    """The lattice of zero sets of the covectors, built once per system.
    A system with loops is refused by name: every zero set holds them, so
    the empty flat is missing."""

    def build():
        loops = system.loops()
        if loops:
            raise ValueError(
                f"loops {','.join(loops)}: the lattice of flats needs a system "
                "without loops; remove them with omkit simplify"
            )
        full = (1 << len(system.ground)) - 1
        return GeometricLattice(system.ground, {full & ~(p | m) for p, m in system.vectors()})

    return system.memo(("lattice",), build)
