"""Acyclic matchings on face posets and the matchings used downstream.

A matching is a set of cover pairs of integer poset elements, no element
in two pairs; `Matching` refuses anything else as bad input.  What a
matching claims about a subcomplex it retracts onto is returned as a
`MorseCertificate`: a witness against each claim, a directed cycle and a
critical set that is not the subcomplex or not an ideal, or None where
the claim holds.  A failed claim is a report clause, never an error.
`morse_reduction_certificate` walks the matched Hasse digraph of a
matching once.  The walk runs over the cells matched upward only, which
a graded host allows, since each cycle then stays between two heights;
a host that is not graded is refused.

The fiber matchings are certified one way, by `certify_fibers`, whose
docstring gives the argument, for `certify-qf` and `morse --construction
fiber` alike: one list of lifted critical cells per cell, and no walk of
the glued matching, which only the tests glue and walk, as the oracle.

A shelled ball is collapsed by one routine on covers, `_collapse`; a
convex-critical matching runs it on the covector poset's own covers,
with no sphere or ball poset, and its pairs are checked once, by the
dual-ball `Matching` they end in.

The constructors build their matchings without checking these claims;
every path that reports a matching certifies it next.  Tope sets are
masks and shelling orders sequences of element numbers, over the
numbering of the covector poset, as in `omkit.topes`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .matroids import CovectorSystem
from .posets import FinitePoset, PosetError, bits, mask_of
from .salvetti import FiberStratification, SalvettiLocalization, restriction_iso
from .topes import is_convex, shelling_order_from_extension, sphere_poset


class MatchingError(ValueError):
    pass


@dataclass(frozen=True)
class Matching:
    """A matching on the cover relations of a host poset."""

    host: FinitePoset
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        host = self.host
        seen: set[int] = set()
        names = host.names
        for a, b in self.pairs:
            if not host.is_cover(a, b):
                raise MatchingError(f"pair ({names[a]!r}, {names[b]!r}) is not a cover relation")
            if a in seen or b in seen:
                raise MatchingError(f"cell matched twice near ({names[a]!r}, {names[b]!r})")
            seen.add(a)
            seen.add(b)

    def critical_cells(self) -> int:
        return self.host.members & ~mask_of(x for pair in self.pairs for x in pair)

    def cycle(self) -> Optional[tuple[int, ...]]:
        """A directed cycle of the modified Hasse digraph, its first cell
        repeated at the end, or None when the digraph is acyclic.  Matched
        cover edges point up and the others down.

        On a graded host a cycle climbs a matched cover and drops an
        unmatched one in turn, so it stays between two heights (Forman
        1998; Chari 2000).  One depth-first walk runs over the cells
        matched upward, with an edge a -> a2 for each other lower cover
        a2 of a's partner that is itself matched upward, and a cycle found
        there is returned through the partners, starting at its least
        cell.  A host that is not graded is refused."""
        host = self.host
        skip = host.skipping_cover()
        if skip is not None:
            x, y = skip
            raise MatchingError(
                f"host is not graded: the cover {host.names[x]!r} < {host.names[y]!r} skips a height"
            )
        partner = dict(self.pairs)
        succ = {
            a: [a2 for a2 in host.lower_covers(b) if a2 != a and a2 in partner]
            for a, b in sorted(partner.items())
        }
        on_path: dict[int, bool] = {}  # visited cells; True while on the path
        for root in succ:
            if root in on_path:
                continue
            path, todo = [root], [iter(succ[root])]
            on_path[root] = True
            while todo:
                nxt = next(todo[-1], None)
                if nxt is None:
                    on_path[path.pop()] = False
                    todo.pop()
                elif nxt not in on_path:
                    on_path[nxt] = True
                    path.append(nxt)
                    todo.append(iter(succ[nxt]))
                elif on_path[nxt]:
                    walk = path[path.index(nxt):]
                    cells = [x for a in walk for x in (a, partner[a])]
                    # start at the least cell
                    i = cells.index(min(cells))
                    cells = cells[i:] + cells[:i]
                    return tuple(cells) + (cells[0],)
        return None

    @cached_property
    def walked(self) -> Optional[tuple[int, ...]]:
        """`cycle()`, walked once and kept with the matching, so a local
        matching is walked once per system (see `certify_fibers`)."""
        return self.cycle()

    @cached_property
    def unmatched(self) -> tuple[int, ...]:
        """The critical cells, the host's elements no pair matches, in
        increasing order, read once and kept like `walked`."""
        matched = {x for pair in self.pairs for x in pair}
        return tuple(x for x in self.host.elements if x not in matched)

    def serialize(self) -> str:
        names = self.host.names
        return "\n".join(f"({names[a]} -> {names[b]})" for a, b in sorted(self.pairs))


# -- collapsing a shellable ball ---------------------------------------------


def matching_from_shelling(
    complex_poset: FinitePoset,
    order: Sequence[int],
    vertex: int,
) -> Matching:
    """Collapse a shellable ball onto one vertex of its first cell.

    Greedy elementary collapses, processing free faces of the most
    recently shelled cells first: at each step remove a pair (tau, sigma)
    where sigma is the unique cell above tau.  On a shellable ball this
    terminates with exactly the chosen vertex left over; if the greedy
    order ever jams, that is reported as a defect rather than patched
    over.  The vertex and the order are checked here, and the collapse
    is `_collapse`'s, on the covers of the complex.
    """
    cells = list(order)
    if vertex not in complex_poset:
        raise MatchingError(f"unknown vertex {vertex!r}")
    if cells and not complex_poset.leq(vertex, cells[0]):
        raise MatchingError("vertex must lie in the first maximal cell")
    birth = _births(complex_poset, [c for c in cells if c in complex_poset])
    if len(birth) != len(complex_poset):
        raise MatchingError("order does not cover the complex")
    return Matching(complex_poset, frozenset(_collapse(complex_poset, birth, vertex)))


def _births(poset: FinitePoset, order: Sequence[int], floor: int = -1) -> dict[int, int]:
    """The cells of the ideal below the cells of an order in a poset, each
    with its birth, the first cell of the order above it, in the order
    walked.  A walk down the covers stops at the cells born before, which
    lie below an earlier cell with all their faces.  The floor, an element
    below every cell (the zero vector of the covector poset), is read as
    no cell."""
    lower, birth = poset.lower_covers, {floor: -1}
    for i, c in enumerate(order):
        todo = [c]
        while todo:
            x = todo.pop()
            if x not in birth:
                birth[x] = i
                todo.extend(lower(x))
    del birth[floor]
    return birth


def _collapse(poset: FinitePoset, birth: dict[int, int], vertex: int) -> list[tuple[int, int]]:
    """The pairs of the greedy collapse of a ball onto a vertex: the ball
    is the cells that have a birth (`_births`), an order ideal of the
    poset but for a floor, read off the poset's covers and heights.

    Everything is read off the covers, in time linear in them.  A cell is
    free when one alive cell covers it: the cells alive always form a
    subcomplex, and in a regular complex (the balls here are) a cell of a
    subcomplex with one alive upper cover sigma has no other alive cell
    above it, since a cell above sigma would bring a second upper cover
    by the diamond property.  So the free cells, their partners and the
    pairs are the same as by counting every alive cell above.  The floor
    is never alive, so it is never paired, and heights shifted by one
    above it order the heap as the ball's own would.
    """
    lower, heights = poset.lower_covers, poset.heights()
    alive = [False] * len(poset.names)
    # the number of alive upper covers of each alive cell, and their sum,
    # which names the last one
    updeg = [0] * len(alive)
    upsum = [0] * len(alive)
    for y in birth:
        alive[y] = True
        for x in lower(y):
            updeg[x] += 1
            upsum[x] += y
    heap: list = []

    def push(tau: int) -> None:
        # tau is free: sigma, its one alive upper cover, goes with it;
        # larger birth and higher cells first, then the least element
        sigma = upsum[tau]
        heapq.heappush(heap, (-birth[sigma], -heights[sigma], sigma, tau))

    for x in birth:
        if x != vertex and updeg[x] == 1:
            push(x)
    pairs: list[tuple[int, int]] = []
    left = len(birth)
    while left > 1:
        while heap:
            _, _, sigma, tau = heapq.heappop(heap)
            # tau still free, so sigma is still its one alive upper cover
            if alive[sigma] and alive[tau] and updeg[tau] == 1:
                break
        else:
            raise MatchingError(
                f"greedy collapse jammed with {left} cells alive; "
                f"the order is not usable as a collapsing scheme"
            )
        pairs.append((tau, sigma))
        left -= 2
        for cell in (sigma, tau):
            alive[cell] = False
            for x in lower(cell):
                if alive[x]:
                    updeg[x] -= 1
                    upsum[x] -= cell
                    if updeg[x] == 1 and x != vertex:
                        push(x)

    if not alive[vertex]:
        rest = mask_of(x for x in birth if alive[x])
        raise MatchingError(f"collapse ended at {poset.names_of(rest)} instead of the vertex")
    return pairs


def collapse_ball(
    system: CovectorSystem, shelled: Sequence[int]
) -> tuple[Matching, int]:
    """Collapse the ball L(Q) of the covector sphere onto one vertex.

    The topes of Q are given in shelling order.  The ball is the order
    ideal below them in the system's one sphere poset, so it inherits the
    sphere's covers and heights, and the vertex is the least minimal cell
    below the first tope.  Returns the collapse and the vertex.
    """
    if not shelled:
        raise MatchingError("the ball has no tope to collapse")
    sphere = sphere_poset(system)
    ball = sphere.subposet(sphere.order_ideal(mask_of(shelled)))
    vertex = bits(ball.minimal_elements() & ball.below(shelled[0]))[0]
    return matching_from_shelling(ball, shelled, vertex), vertex


# -- the matchings with prescribed critical subcomplexes ----------------------


def matching_convex_critical(system: CovectorSystem, q: int) -> Matching:
    """An acyclic matching on the dual covector ball whose critical cells
    are exactly the dual subcomplex of a convex tope set (a mask).

    Collapses the ball generated by the complementary topes to a vertex,
    dualizes, and matches that vertex with the top dual cell.  The ball
    L(T - Q) of the topes outside Q is the ideal below them in the
    covector poset, less the zero vector, which lies below every cell: a
    cocircuit's one cover, the zero vector, is read as none, and every
    height is one above the sphere's, so the heap orders the cells as on
    the ball's own poset.  No sphere, ball `FinitePoset` or mask is
    built; the pairs are checked once, by the dual-ball `Matching`.
    Nothing is kept: the fiber matchings keep theirs per face, through
    `local_matchings`.
    """
    if not q:
        raise MatchingError("Q must be nonempty")
    poset = system.covector_poset()
    ball = poset.dual()
    if q == system.topes():
        return Matching(ball, frozenset())
    if not is_convex(system, q):
        raise MatchingError("Q must be convex")
    # a convex Q is an ideal of the tope poset at any of its topes, so a
    # Q-first extension exists; reversed, it is an extension of the tope
    # poset at the opposite base in which the complement comes first, and
    # its prefix shells the ball L(T\Q)
    try:
        ext = shelling_order_from_extension(system, bits(q)[0], q)
    except PosetError:
        raise AssertionError("convex set is not an ideal of the tope poset") from None
    shell_order = [t for t in reversed(ext) if not q >> t & 1]
    # the vertex is the least cocircuit below the first tope
    zero = system.numbering()[0, 0]
    birth = _births(poset, shell_order, zero)
    vertex = min(x for x, i in birth.items() if not i and poset.lower_covers(x) == (zero,))
    pairs = _collapse(poset, birth, vertex)
    return Matching(ball, frozenset([(b, a) for a, b in pairs] + [(vertex, zero)]))


def local_matchings(loc: SalvettiLocalization, target_cell: int) -> tuple[Matching, Matching]:
    """The convex-critical matchings a fiber matching onto the fiber of a
    localized cell is glued from: on the dual ball of the system, whose
    critical part is the fiber of rho over the cell's face, and on the
    dual ball of the localization, whose critical part is the face's
    star.  The first matches stratum 0 of every stratified fiber, the
    second each later stratum.

    Both critical sets depend on the face G alone: they are
    {F : rho F >= G} on the system and {F : F >= G} on the localization.
    A convex-critical matching is critical on the covectors all of whose
    topes lie in Q.  In an oriented matroid a covector F is the meet of
    the topes above it, since F o T and F o (-T) lie above it for every
    tope T and differ wherever F is zero.  So every tope above F lies in
    the star of G, that is above G, exactly when F >= G: the second set.
    The topes above F are the F o T, and rho(F o T) = rho F o rho T, where
    rho is onto the topes of the localization; so the topes rho sends
    above F are those of the localization above rho F, and they all lie
    above G exactly when rho F >= G: the first set.  The pair is thus
    built once per face and kept on the localized system, which the
    system keeps per flat: every fiber and every certificate after reads
    the same two matchings, with their walks and critical cells."""
    system, localized = loc.system, loc.localized
    face = loc.target.keys[target_cell][0]

    def build() -> tuple[Matching, Matching]:
        star = localized.covector_poset().dual().below(face) & localized.topes()
        rho = loc.rho
        m0 = matching_convex_critical(system, mask_of(t for t in bits(system.topes()) if star >> rho[t] & 1))
        return m0, matching_convex_critical(localized, star)

    return localized.memo(("local matchings", face), build)


def matching_salvetti_fiber(strat: FiberStratification, target_cell: int) -> Matching:
    """An acyclic matching on the stratified fiber over (0, B') whose
    critical cells are exactly the fiber over a smaller cell of the
    localized poset.

    Built lift by lift, one per stratum: the bottom stratum is the dual
    ball with a convex-critical matching; each later one is a copy of a
    contraction's dual ball, matched through the isomorphism restriction
    induces.  The lifted pairs, each inside its stratum since each lift
    `check_patchwork` returns is a bijection onto it, are glued into one
    matching on the fiber, which `certify_fibers` certifies without
    walking it.
    """
    target = strat.loc.target
    if not 0 <= target_cell < len(target):
        raise MatchingError(f"unknown cell {target_cell!r} of the localized poset")
    if target_cell not in target.ideal(strat.top):
        raise MatchingError(f"{target.poset.names[target_cell]} does not lie below {target.poset.names[strat.top]}")
    lifts = check_patchwork(strat)
    m0, mi = local_matchings(strat.loc, target_cell)
    matchings = [m0] + [mi] * (len(lifts) - 1)
    pairs = frozenset((lift[x], lift[y]) for lift, m in zip(lifts, matchings) for x, y in m.pairs)
    return Matching(strat.loc.source.poset.subposet(mask_of(strat.loc.fiber(strat.top))), pairs)


@dataclass(frozen=True)
class MorseCertificate:
    """A matching's claims about a subcomplex of its host, each with a
    witness against it, None where it holds: `cycle`, a directed cycle of
    the matched Hasse digraph, and `critical`, which says how the critical
    cells miss the subcomplex or where the subcomplex is not an ideal."""

    cycle: Optional[tuple[int, ...]]
    critical: Optional[str]

    @property
    def ok(self) -> bool:
        return self.cycle is None and self.critical is None

    def witnesses(self, names: Sequence[str]) -> list[str]:
        """The witness against each failed claim, a cycle by the host's
        names."""
        out = [] if self.cycle is None else [f"cycle {[names[x] for x in self.cycle]}"]
        return out if self.critical is None else out + [self.critical]


def _critical_claim(poset: FinitePoset, crit: int, subcomplex: int) -> Optional[str]:
    """How critical cells miss a subcomplex, or where it is not an ideal
    (its first cell with a face outside), or None."""
    if crit != subcomplex:
        return f"extra {poset.names_of(crit & ~subcomplex)[:4]}, missing {poset.names_of(subcomplex & ~crit)[:4]}"
    outside = ~subcomplex
    for x in bits(subcomplex):
        if poset.below(x) & outside:
            return f"not an ideal: {poset.names[x]} has faces {poset.names_of(poset.below(x) & outside)[:4]} outside"
    return None


def morse_reduction_certificate(matching: Matching, subcomplex: int) -> MorseCertificate:
    """Check that the matching's host collapses onto a subcomplex (a
    mask) through it: the matching is acyclic, its critical cells are the
    subcomplex, and the subcomplex is an ideal.  A failed claim is
    returned as its witness, never raised."""
    host = matching.host
    return MorseCertificate(matching.cycle(), _critical_claim(host, matching.critical_cells(), subcomplex))


# -- the fiber matchings by the patchwork theorem ------------------------------


def check_patchwork(strat: FiberStratification) -> tuple[tuple[int, ...], ...]:
    """The lifts of a stratified fiber, `lifts[i]` sending each element of
    the ball of stratum i to its cell, with the hypotheses of the
    patchwork theorem checked; a `MatchingError` names the first to fail.

    - Stratum i, the ideal below (0, T_i) less the strata before it, is
      walked down the source covers from (0, T_i), stopping at the earlier
      strata, an ideal; so the stratum index is order preserving.
    - The strata cover the fiber, an ideal by the order check of
      `salvetti_localization`: each (0, T_i) lies in it, and the cells
      walked are as many as the preimages over the ambient's ideal.
    - The faces of stratum i are exactly those prescribed, and `lifts[i]`
      is read off them: every covector for i = 0, and for i > 0 those
      `restriction_iso` gives, zero at the separator of T_{i-1} and T_i.
      A cell below (0, T_i) is (c, c o T_i), and c -> (c, c o T) is an
      order embedding of the dual covector poset onto the ideal below
      (0, T), by the definition of the Salvetti order; `restriction_iso`
      is checked an isomorphism.  So each lift is an isomorphism of its
      ball onto its stratum, which is convex, and keeps covers both ways."""
    loc = strat.loc
    source, system = loc.source, loc.system
    zero = system.numbering()[0, 0]
    tops = [source.index[zero, t] for t in strat.tope_string]
    faces = [range(len(system))] + [restriction_iso(loc, s) for s in strat.separators]
    lifts = []
    used: set[int] = set()
    for i, (top, face) in enumerate(zip(tops, faces, strict=True)):
        todo, walked, by_face = [top], len(used), {}
        while todo:
            k = todo.pop()
            if k not in used:
                used.add(k)
                by_face[source.keys[k][0]] = k
                todo += source.covers[k]
        # the faces are distinct, so a lift onto as many cells is onto them all
        lift = tuple(map(by_face.get, face))
        if len(used) - walked != len(face) or None in lift:
            raise MatchingError(f"lift {i} is no isomorphism of its ball onto stratum {i}")
        lifts.append(lift)
    ideal = loc.target.ideal(strat.top)
    if len(used) != sum(len(loc.preimages[q]) for q in ideal) or not set(ideal).issuperset(loc.cells[t] for t in tops):
        raise MatchingError("the strata do not cover the fiber")
    return tuple(lifts)


def certify_fibers(strat: FiberStratification, cells: Iterable[int]) -> dict[int, MorseCertificate]:
    """The certificate of the fiber matching onto each cell's fiber, for
    cells below the ambient of `strat`, by cell, read off the patchwork
    theorem instead of a walk of each glued matching, for `certify-qf`
    and `morse --construction fiber` alike.

    The patchwork theorem (Jonsson's cluster lemma, "Simplicial
    complexes of graphs", LNM 1928; Kozlov, "Combinatorial algebraic
    topology", 11.2): if phi: P -> Q is order preserving and each fiber
    of phi carries an acyclic matching, their union is an acyclic
    matching on P.  The matching `matching_salvetti_fiber` glues is such
    a union, with phi the stratum index, so it is acyclic when
    `check_patchwork` passes on the strata it walks and each local
    matching is acyclic on its own ball: a lift is an isomorphism of the
    ball onto its stratum, and the stratum is convex, so the matched
    Hasse digraph of the stratum is the ball's.  Each local matching is
    walked once (`Matching.walked`), and `local_matchings` keeps it per
    face on the localized system, so the walk is kept for every fiber
    and every certificate after.  A cycle is reported lifted into the
    fiber, through the lift of the first stratum it matches, starting at
    its least cell, as `Matching.cycle` gives it.

    The critical cells of the union are the union of the lifted critical
    sets, and they must be the fiber of the cell.  They are listed once
    per cell, off the critical cells of the local matchings (kept with
    each like its walk, `Matching.unmatched`), and the verdict and the
    witness read that list.  The lifts, one per stratum, are bijections
    onto strata that partition the ambient fiber, so the lifted cells
    are distinct: they are the fiber exactly when they are as many as
    the preimages over the cell's target ideal and all map into it.  The
    fiber is an ideal by the order check of `salvetti_localization`, so
    it is not checked here.  Every fiber is read off `strat.loc`, the one
    localization; the witnesses, which alone list its cells and read the
    source's `FinitePoset`, are those of `morse_reduction_certificate` on
    the glued matching."""
    lifts = check_patchwork(strat)
    loc = strat.loc
    later = len(lifts) - 1
    out = {}
    for cell in cells:
        m0, mi = local_matchings(loc, cell)
        ideal = loc.target.ideal(cell)
        crit = [lift[x] for lift, m in zip(lifts, [m0] + [mi] * later) for x in m.unmatched]
        size = sum(len(loc.preimages[q]) for q in ideal)
        critical = None
        if len(crit) != size or not set(ideal).issuperset(map(loc.cells.__getitem__, crit)):
            critical = _critical_claim(loc.source.poset, mask_of(crit), mask_of(loc.fiber(cell)))
        cycle = None
        for m, lift in zip((m0, mi), lifts[:2]):
            if m.walked is not None:
                lifted = [lift[x] for x in m.walked[:-1]]
                i = lifted.index(min(lifted))
                cycle = tuple(lifted[i:] + lifted[:i] + lifted[i:i + 1])
                break
        out[cell] = MorseCertificate(cycle, critical)
    return out
