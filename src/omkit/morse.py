"""Acyclic matchings on face posets and the matchings used downstream.

A matching is a set of cover pairs of integer poset elements, no element
in two pairs; `Matching` refuses anything else as bad input.  What a
matching claims about a subcomplex it retracts onto is checked in one
place: `morse_reduction_certificate` walks the matched Hasse digraph once
and returns a witness against each claim, a directed cycle and a
critical set that is not the subcomplex or not an ideal, or None where
the claim holds.  The walk runs over the cells matched upward only,
which a graded host allows, since each cycle then stays between two
heights; a host that is not graded is refused.  A failed claim is a
report clause, never an error.
The constructors, `patchwork` among them, build their matchings without
checking these claims; every path that reports a matching certifies it
next.  Tope sets are masks and shelling orders sequences of element
numbers, over the numbering of the covector poset, as in `omkit.topes`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .matroids import CovectorSystem
from .posets import FinitePoset, PosetError, bits, mask_of
from .salvetti import FiberStratification
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

    def serialize(self) -> str:
        names = self.host.names
        return "\n".join(f"({names[a]} -> {names[b]})" for a, b in sorted(self.pairs))


def patchwork(
    host: FinitePoset, strata: Sequence[int], local_pairs: Sequence[Iterable[tuple[int, int]]]
) -> Matching:
    """Union of matchings on the strata of a host, glued along an order
    preserving map to the chain of strata (the patchwork lemma).

    `local_pairs[i]` are the pairs of stratum i, by host number; each pair
    must lie inside its stratum (a mask).  The union is returned as one
    matching on the host, whose covers and disjointness are checked once,
    on the union, since a cover of the host inside a stratum is a cover of
    the stratum.  Its acyclicity is the certificate's to check: a cycle in
    one local matching is a cycle in the union.
    """
    names = host.names
    all_pairs: set[tuple[int, int]] = set()
    for i, (stratum, pairs) in enumerate(zip(strata, local_pairs, strict=True)):
        for a, b in pairs:
            if not (stratum >> a & 1 and stratum >> b & 1):
                raise MatchingError(f"pair ({names[a]!r}, {names[b]!r}) leaves stratum {i}")
            all_pairs.add((a, b))
    return Matching(host, frozenset(all_pairs))


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
    over.
    """
    cells = list(order)
    if vertex not in complex_poset:
        raise MatchingError(f"unknown vertex {vertex!r}")
    if cells and not complex_poset.leq(vertex, cells[0]):
        raise MatchingError("vertex must lie in the first maximal cell")
    below, above = complex_poset.below, complex_poset.above
    birth: dict[int, int] = {}
    born = 0
    for i, c in enumerate(cells):
        birth.update(dict.fromkeys(bits(below(c) & ~born), i))
        born |= below(c)
    if born != complex_poset.members:
        raise MatchingError("order does not cover the complex")
    heights = complex_poset.heights()
    alive = complex_poset.members
    # the number of alive cells strictly above each alive cell
    updeg = {x: above(x).bit_count() - 1 for x in complex_poset.elements}
    heap: list = []

    def push(tau: int) -> None:
        # tau is free: sigma, the one alive cell above it, goes with it;
        # larger birth and higher cells first, then the least element
        sigma = (above(tau) & alive ^ 1 << tau).bit_length() - 1
        heapq.heappush(heap, (-birth[sigma], -heights[sigma], sigma, tau))

    for x in complex_poset.elements:
        if x != vertex and updeg[x] == 1:
            push(x)
    pairs: list[tuple[int, int]] = []
    while alive & (alive - 1):
        while heap:
            _, _, sigma, tau = heapq.heappop(heap)
            # tau still free, so sigma is still the one alive cell above it
            live = alive >> sigma & 1 and alive >> tau & 1 and updeg[tau] == 1
            if live and complex_poset.is_cover(tau, sigma):
                break
        else:
            raise MatchingError(
                f"greedy collapse jammed with {alive.bit_count()} cells alive; "
                f"the order is not usable as a collapsing scheme"
            )
        pairs.append((tau, sigma))
        for cell in (sigma, tau):
            alive ^= 1 << cell
            for x in bits(below(cell) & alive):
                updeg[x] -= 1
                if updeg[x] == 1 and x != vertex:
                    push(x)

    if alive != 1 << vertex:
        raise MatchingError(
            f"collapse ended at {complex_poset.names_of(alive)} instead of the vertex"
        )
    return Matching(complex_poset, frozenset(pairs))


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
    dualizes, and matches that vertex with the top dual cell.  Built once
    per (system, Q) and kept on the system: every fiber matching over the
    same localized cell reuses it.
    """
    return system.memo(("convex-critical", q), lambda: _convex_critical(system, q))


def _convex_critical(system: CovectorSystem, q: int) -> Matching:
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
    collapse, vertex = collapse_ball(system, shell_order)
    dual_pairs = frozenset((b, a) for a, b in collapse.pairs)
    return Matching(ball, dual_pairs | {(vertex, system.numbering()[0, 0])})


def matching_salvetti_fiber(strat: FiberStratification, target_cell: int) -> Matching:
    """An acyclic matching on the stratified fiber over (0, B') whose
    critical cells are exactly the fiber over a smaller cell of the
    localized poset.

    Built stratum by stratum: the bottom stratum is the dual ball with a
    convex-critical matching; each later stratum is an isomorphic copy of
    a contraction's dual ball, matched through the isomorphism induced by
    restriction; `patchwork` glues the lifted pairs along the tope string.
    """
    loc = strat.loc
    poset = loc.target.poset
    if target_cell not in poset:
        raise MatchingError(f"unknown cell {target_cell!r} of the localized poset")
    if not poset.leq(target_cell, strat.top):
        raise MatchingError(f"{poset.names[target_cell]} does not lie below {poset.names[strat.top]}")
    system, localized = loc.system, loc.localized
    above = localized.covector_poset().above(loc.target.keys[target_cell][0])
    rho = loc.rho
    topes = system.topes()
    # stratum 0: the full dual ball, critical part the fiber of rho_X over sigma_a;
    # later strata: copies of contraction balls through the restriction iso,
    # all matched by the one convex-critical matching of the localization
    m0 = matching_convex_critical(system, mask_of(t for t in bits(topes) if above >> rho[t] & 1))
    mi = matching_convex_critical(localized, above & localized.topes())
    matchings = [m0] + [mi] * (len(strat.strata) - 1)
    local_pairs = [[(lift[x], lift[y]) for x, y in m.pairs] for lift, m in zip(strat.lifts, matchings)]
    return patchwork(strat.fiber, strat.strata, local_pairs)


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


def morse_reduction_certificate(matching: Matching, subcomplex: int) -> MorseCertificate:
    """Check that the matching's host collapses onto a subcomplex (a
    mask) through it: the matching is acyclic, its critical cells are the
    subcomplex, and the subcomplex is an ideal.  A failed claim is
    returned as its witness, never raised."""
    host = matching.host
    crit = matching.critical_cells()
    # the cells of the subcomplex with a face outside it
    open_cells = [x for x in bits(subcomplex) if host.below(x) & ~subcomplex]
    critical = None
    if crit != subcomplex:
        critical = (
            f"extra {host.names_of(crit & ~subcomplex)[:4]}, "
            f"missing {host.names_of(subcomplex & ~crit)[:4]}"
        )
    elif open_cells:
        x = open_cells[0]
        critical = f"not an ideal: {host.names[x]} has faces {host.names_of(host.below(x) & ~subcomplex)[:4]} outside"
    return MorseCertificate(matching.cycle(), critical)
