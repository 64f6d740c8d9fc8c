"""Single-element extensions of low-rank covector systems.

An extension is searched as a sign assignment on cocircuit pairs.  The
search is depth-first with constraint propagation: the restriction of a
partial assignment to the cocircuits through each corank-two flat (a
coline) must agree with some placement of the new element on
the circle of that rank-two contraction.  The circle is read off the
base's edge cells, the covectors whose zero set is the coline, each
joining its two cocircuits, so no contraction is built.  A constraint
that a coatom flat's sign be 0 (the new element lies on it) or nonzero
is kept once, by dropping the placements that break it before the
search starts; every coatom lies on a coline, so no assignment that
breaks it reaches a leaf.  At a leaf the candidate is lifted off the
base covectors (Las Vergnas, 1978): a base covector X, with the signs s
of the new element on the cocircuits below X, gives (X, +) if some s is
+, (X, -) if some s is -, and (X, 0) if s takes both signs or neither.
The covector axioms are the final arbiter: nothing is emitted unverified.

Flats are ground-bit masks, cocircuits covector numbers and a covector's
value its (plus, minus) pair.  A new label
is appended to the ground, so a flat of the base is the same mask in the
extension, and search orders follow the lattice's flat numbering.  Each
system's lattice is `build_lattice(system)`, built once and kept on the
system, so a step of the supersolvable loop reuses the lattice of the
extension found before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional

from .lattices import GeometricLattice, build_lattice
from .matroids import CovectorSystem, flat_id
from .posets import bits


class ExtensionError(ValueError):
    pass


class LeviSearchError(RuntimeError):
    """The constrained search found no extension; with the hypotheses of
    the enlargement lemma satisfied this indicates a defect, so it is
    raised loudly instead of returning an empty result."""


@dataclass(frozen=True)
class ExtensionResult:
    base: CovectorSystem
    extended: CovectorSystem
    new_element: str
    signature: dict[int, int]  # coatom flat -> sign of its pair representative
    flat_lift: dict[int, int]  # flat of the base -> the least flat containing it


class _SearchSpace:
    """Shared data for the extension search on one system."""

    def __init__(self, system: CovectorSystem):
        system.require_simple("the extension search")
        self.system = system
        self.lattice = build_lattice(system)
        self.rank = self.lattice.rank()
        if self.rank not in (2, 3):
            raise ExtensionError("extension search supports rank 2 and 3 only")
        # each coatom flat carries one cocircuit pair; the representative is
        # the cocircuit of least number (covectors are numbered by sign text)
        cocirc = system.cocircuits()
        self.pair_rep: dict[int, int] = {}
        for y in bits(cocirc):
            self.pair_rep.setdefault(system.zero_set(y), y)
        index = self.lattice.index
        self.coatoms = sorted(self.pair_rep, key=index.__getitem__)
        self.colines = sorted(self.lattice.flats_of_rank(self.rank - 2), key=index.__getitem__)
        # the cocircuits below each covector, which a leaf's lift reads;
        # the edge cells, those on a coline, join its two cocircuits into
        # the circle of its rank-two contraction
        poset = system.covector_poset()
        self.cocircuits_below = [poset.below(f) & cocirc for f in poset.elements]
        adjacency: dict[int, dict[int, list[int]]] = {a: {} for a in self.colines}
        for f, below in enumerate(self.cocircuits_below):
            adj = adjacency.get(system.zero_set(f))
            if adj is None:
                continue
            ends = bits(below)
            if len(ends) != 2:
                raise ExtensionError(f"cell {poset.names[f]} has {len(ends)} vertices")
            y1, y2 = ends
            adj.setdefault(y1, []).append(y2)
            adj.setdefault(y2, []).append(y1)
        self.coline_data = [self._coline_candidates(a, adjacency[a]) for a in self.colines]

    # -- rank-two contractions as cycles ----------------------------------

    def _coline_cycle(self, adj: dict[int, list[int]], size: int) -> list[int]:
        """The cocircuits around a coline in circular order, walked along
        the edge cells on it: `adj` maps each cocircuit to its neighbours,
        and `size` is twice the number of coatoms through the coline."""
        if len(adj) != size:
            raise ExtensionError("cocircuit adjacency is not a single cycle")
        cycle = [min(adj)]
        while len(cycle) <= size:
            nxts = [y for y in adj[cycle[-1]] if y not in cycle[-2:-1]]
            if not nxts:
                raise ExtensionError("cocircuit adjacency walk dead-ends")
            if nxts[0] == cycle[0]:
                break
            cycle.append(nxts[0])
        if len(cycle) != size:
            raise ExtensionError("cocircuit adjacency is not a single cycle")
        m = size // 2
        vectors = self.system.vectors()
        if any(vectors[cycle[i + m]] != vectors[cycle[i]][::-1] for i in range(m)):
            raise ExtensionError("cocircuit cycle is not antipodally symmetric")
        return cycle

    def _coline_candidates(
        self, coline: int, adj: dict[int, list[int]]
    ) -> tuple[list[int], list[dict[int, int]]]:
        """All placements of the new element on one rank-two contraction.

        Returns the coatom flats through the coline and the complete list
        of admissible sign assignments restricted to them.
        """
        flats_here = [x for x in self.coatoms if not coline & ~x]
        n = 2 * len(flats_here)
        cycle = self._coline_cycle(adj, n)
        # the first half of the circle meets each coatom once: vertex y
        # stands for its zero set, with sign +1 when y is the pair's
        # representative and -1 when it is the opposite
        half = []
        for y in cycle[: n // 2]:
            x = self.system.zero_set(y)
            half.append((x, 1 if y == self.pair_rep[x] else -1))
        # half-step h is vertex h/2 for even h and the arc after vertex
        # (h-1)/2 for odd h; the new element crosses the circle at h and at
        # its antipode h + n, and h + n is h in the other orientation
        placements: dict[tuple[int, ...], dict[int, int]] = {}
        for h in range(2 * n):
            vals: dict[int, int] = {}
            for k, (x, rel) in enumerate(half):
                d = (2 * k - h) % (2 * n)
                vals[x] = 0 if d % n == 0 else rel if d < n else -rel
            placements.setdefault(tuple(vals[x] for x in flats_here), vals)
        return flats_here, list(placements.values())


def _lift(space: _SearchSpace, values: dict[int, int]) -> list[tuple[int, int]]:
    """The covectors of the candidate for a full signature, the new
    element being the bit above the base ground."""
    system = space.system
    gbit = 1 << len(system.ground)
    # the cocircuits on the + side of the new element and on its - side
    plus = minus = 0
    for x, y in space.pair_rep.items():
        p, m = system.vectors()[y]
        sides = (1 << y, 1 << system.numbering()[m, p])
        if values[x]:
            up, down = sides if values[x] > 0 else sides[::-1]
            plus, minus = plus | up, minus | down
    lifted: list[tuple[int, int]] = []
    for (p, m), below in zip(system.vectors(), space.cocircuits_below):
        up, down = below & plus, below & minus
        if up:
            lifted.append((p | gbit, m))
        if down:
            lifted.append((p, m | gbit))
        if bool(up) == bool(down):
            lifted.append((p, m))
    return lifted


def _build_extension(
    space: _SearchSpace,
    values: dict[int, int],
    new_label: str,
) -> Optional[ExtensionResult]:
    """Lift the candidate for a full signature off the base and verify it."""
    system = space.system
    lifted = _lift(space, values)
    # every base covector has a lift that restricts to it (`_lift`), so
    # the axioms are the single source of truth
    candidate = CovectorSystem(system.ground + (new_label,), lifted)
    if not candidate.is_simple() or not candidate.check_axioms().ok:
        return None
    # flats of the new lattice are sorted by size: the first one over a
    # base flat is its closure
    lattice = build_lattice(candidate)
    if lattice.rank() != space.rank:
        return None
    lift = {fl: next(g for g in lattice.flats if not fl & ~g) for fl in space.lattice.flats}
    return ExtensionResult(system, candidate, new_label, values, lift)


def single_element_extensions(
    system: CovectorSystem,
    zero_flats: frozenset[int] = frozenset(),
    nonzero_flats: frozenset[int] = frozenset(),
    new_label: str = "g",
) -> Iterator[ExtensionResult]:
    """Stream the simple single-element extensions, in lexicographic
    signature order, whose signature is 0 on the zero flats and nonzero
    on the nonzero flats; a flat in both sets is a zero flat."""
    space = _SearchSpace(system)
    fixed = zero_flats | nonzero_flats
    for f in fixed:
        if f not in space.pair_rep:
            raise ExtensionError(f"{flat_id(f, system.ground)} is not a coatom flat")
    if new_label in system.ground:
        raise ExtensionError(f"label {new_label!r} already used")

    # the placements of each coline that the constraints allow; every
    # coatom lies on a coline, so the search assigns no other sign
    active = [
        [c for c in cands if all((c[x] == 0) == (x in zero_flats) for x in c.keys() & fixed)]
        for _flats, cands in space.coline_data
    ]
    coline_of_flat: dict[int, list[int]] = {x: [] for x in space.coatoms}
    for ci, (flats_here, _cands) in enumerate(space.coline_data):
        for x in flats_here:
            coline_of_flat[x].append(ci)

    assignment: dict[int, int] = {}
    order = space.coatoms

    def dfs(i: int) -> Iterator[ExtensionResult]:
        if i == len(order):
            result = _build_extension(space, dict(assignment), new_label)
            if result is not None:
                yield result
            return
        x = order[i]
        for v in (1, -1, 0):
            assignment[x] = v
            ok = True
            saved: list[tuple[int, list]] = []
            # the active candidates of a coline agree with the flats
            # assigned before x already, so only x's value is compared
            for ci in coline_of_flat[x]:
                remaining = [cand for cand in active[ci] if cand[x] == v]
                saved.append((ci, active[ci]))
                active[ci] = remaining
                if not remaining:
                    ok = False
                    break
            if ok:
                yield from dfs(i + 1)
            for ci, prev in saved:
                active[ci] = prev
            del assignment[x]

    yield from dfs(0)


def levi_enlargement(
    system: CovectorSystem,
    flat1: int,
    flat2: int,
    generic: bool = False,
    new_label: str = "g",
) -> ExtensionResult:
    """Extend a rank-three system by one element through two disjoint
    rank-two flats.

    With generic=True the new element is additionally kept off every
    other rank-two flat.  The first extension of the constrained stream
    is the enlargement: sign 0 on a line's cocircuits puts the new
    element in the line's lift, and a nonzero sign keeps the line a
    flat of the extension.  Exhausting the search without a find is raised
    as a hard diagnostic: under the stated hypotheses an enlargement
    always exists, so an empty search points at this implementation (or,
    for the generic variant, at search-order incompleteness).
    """
    lat = build_lattice(system)
    if lat.rank() != 3:
        raise ExtensionError("enlargement applies to rank-three systems")
    for x in (flat1, flat2):
        if lat.rank_of.get(x) != 2:
            raise ExtensionError(f"{flat_id(x, system.ground)} is not a rank-two flat")
    if flat1 == flat2:
        raise ExtensionError("the two flats must be distinct")
    if flat1 & flat2:
        raise ExtensionError("the two flats must be disjoint")
    zero = frozenset({flat1, flat2})
    nonzero = frozenset(f for f in lat.flats_of_rank(2) if f not in zero) if generic else frozenset()
    for result in single_element_extensions(system, zero, nonzero, new_label):
        return result
    raise LeviSearchError(
        f"no enlargement through {flat_id(flat1, system.ground)} and "
        f"{flat_id(flat2, system.ground)} found"
        + ("; the generic search is inconclusive" if generic else "")
    )


@dataclass(frozen=True)
class LeviStep:
    pivot: int
    through: int
    new_element: str
    disjoint_before: int
    disjoint_after: int
    result: ExtensionResult


@dataclass(frozen=True)
class SupersolvableExtension:
    """The steps, the final system and its modular chain; every flat is a
    mask over the final ground, which extends each step's ground."""

    steps: tuple[LeviStep, ...]
    final: CovectorSystem
    chain: tuple[int, ...]


def _disjoint_rank2(lat: GeometricLattice, pivot: int) -> list[int]:
    return [f for f in lat.flats_of_rank(2) if not (f & pivot)]


def supersolvable_extension(system: CovectorSystem) -> SupersolvableExtension:
    """Iterate enlargements until some rank-two flat meets all others.

    The pivot is the rank-two flat with the fewest disjoint rank-two
    flats (ties by flat number) and is lifted along every step; the count
    of flats disjoint from it must drop strictly each time.  Each new
    element is labelled by the smallest g1, g2, ... not yet in the ground.
    Every step's axioms are checked: each step is a find of
    `single_element_extensions`, which the non-pappus generator also reads.
    """
    lat = build_lattice(system)
    if lat.rank() != 3:
        raise ExtensionError("supersolvable extension applies to rank three")
    system.require_simple("the supersolvable extension")
    chain = lat.is_supersolvable()
    if chain is not None:
        return SupersolvableExtension((), system, chain)

    pivot = min(
        lat.flats_of_rank(2),
        key=lambda f: (len(_disjoint_rank2(lat, f)), lat.index[f]),
    )
    current = system
    steps: list[LeviStep] = []
    while True:
        disjoint = _disjoint_rank2(lat, pivot)
        if not disjoint:
            break
        through = min(disjoint, key=lat.index.__getitem__)
        label = next(f"g{i}" for i in count(1) if f"g{i}" not in current.ground)
        result = levi_enlargement(current, pivot, through, new_label=label)
        new_pivot = result.flat_lift[pivot]
        new_lat = build_lattice(result.extended)
        after = len(_disjoint_rank2(new_lat, new_pivot))
        if after >= len(disjoint):
            raise LeviSearchError(
                f"disjoint-flat count failed to decrease at {label}: "
                f"{len(disjoint)} -> {after}"
            )
        steps.append(LeviStep(pivot, through, label, len(disjoint), after, result))
        current = result.extended
        lat = new_lat
        pivot = new_pivot
    chain = lat.is_supersolvable()
    if chain is None:
        raise LeviSearchError("pivot meets every rank-two flat but no chain found")
    return SupersolvableExtension(tuple(steps), current, chain)
