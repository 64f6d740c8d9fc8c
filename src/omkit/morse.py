"""Acyclic matchings on face posets and the matchings used downstream.

A matching is a set of cover pairs, no cell in two pairs.  Acyclicity of
the matched Hasse digraph is certified by a topological order, or refuted
by an explicit directed cycle.  Every constructor here re-verifies its
advertised critical set and acyclicity; nothing is taken on faith from
the theory that motivated it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .matroids import CovectorSystem
from .posets import FinitePoset, PosetMap
from .salvetti import FiberStratification, SalvettiCell, cell_id
from .signs import SignVector
from .topes import (
    NotConvexError,
    ShellingOrder,
    convex_first_extension,
    dual_subcomplex,
)


class MatchingError(ValueError):
    pass


@dataclass(frozen=True)
class AcyclicityReport:
    acyclic: bool
    topological_order: Optional[tuple[str, ...]] = None
    cycle: Optional[tuple[str, ...]] = None

    def __bool__(self) -> bool:
        return self.acyclic


@dataclass(frozen=True)
class Matching:
    """A matching on the cover relations of a host poset."""

    host: FinitePoset
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        covers = self.host.covers()
        seen: set[str] = set()
        for a, b in self.pairs:
            if (a, b) not in covers:
                raise MatchingError(f"pair ({a!r}, {b!r}) is not a cover relation")
            if a in seen or b in seen:
                raise MatchingError(f"cell matched twice near ({a!r}, {b!r})")
            seen.add(a)
            seen.add(b)

    def critical_cells(self) -> frozenset[str]:
        matched = {x for pair in self.pairs for x in pair}
        return frozenset(x for x in self.host.elements if x not in matched)

    def is_acyclic(self) -> AcyclicityReport:
        """Topological order of the modified Hasse digraph, or a cycle."""
        succ: dict[str, list[str]] = {x: [] for x in self.host.elements}
        pairset = self.pairs
        for a, b in self.host.covers():
            if (a, b) in pairset:
                succ[a].append(b)  # matched edges point up
            else:
                succ[b].append(a)  # unmatched cover edges point down
        order: list[str] = []
        state: dict[str, int] = {}
        for root in sorted(succ):
            if state.get(root):
                continue
            stack: list[tuple[str, int]] = [(root, 0)]
            path: list[str] = [root]
            state[root] = 1
            while stack:
                node, i = stack.pop()
                if i < len(succ[node]):
                    stack.append((node, i + 1))
                    nxt = succ[node][i]
                    s = state.get(nxt, 0)
                    if s == 1:
                        k = path.index(nxt)
                        return AcyclicityReport(
                            False, None, tuple(path[k:] + [nxt])
                        )
                    if s == 0:
                        state[nxt] = 1
                        path.append(nxt)
                        stack.append((nxt, 0))
                else:
                    state[node] = 2
                    order.append(node)
                    path.pop()
        order.reverse()
        return AcyclicityReport(True, tuple(order), None)

    def dual(self) -> "Matching":
        """The same pairs on the dual poset."""
        return Matching(self.host.dual(), frozenset((b, a) for a, b in self.pairs))

    def serialize(self) -> str:
        lines = [f"({a} -> {b})" for a, b in sorted(self.pairs)]
        return "\n".join(lines)


def patchwork(f: PosetMap, per_fiber: dict[str, Matching]) -> Matching:
    """Union of acyclic matchings on the discrete fibers f^{-1}(q).

    Each local matching must live on the induced subposet of its preimage
    and be acyclic.  The union is returned as a matching on the source,
    and its acyclicity is re-verified rather than inherited.
    """
    source = f.source
    all_pairs: set[tuple[str, str]] = set()
    seen_cells: set[str] = set()
    for q, local in per_fiber.items():
        pre = f.preimage(q)
        if not set(local.host.elements) <= pre:
            raise MatchingError(f"matching for {q!r} leaves its fiber")
        if not local.is_acyclic():
            raise MatchingError(f"matching for {q!r} is not acyclic")
        for a, b in local.pairs:
            if a in seen_cells or b in seen_cells:
                raise MatchingError("fibers overlap")
            seen_cells.add(a)
            seen_cells.add(b)
            all_pairs.add((a, b))
    out = Matching(source, frozenset(all_pairs))
    report = out.is_acyclic()
    if not report:
        raise AssertionError(f"patchwork produced a cycle: {report.cycle}")
    return out


# -- collapsing a shellable ball ---------------------------------------------


def matching_from_shelling(
    complex_poset: FinitePoset,
    order: ShellingOrder | Iterable[str],
    vertex: str,
) -> Matching:
    """Collapse a shellable ball onto one vertex of its first cell.

    Greedy elementary collapses, processing free faces of the most
    recently shelled cells first: at each step remove a pair (tau, sigma)
    where sigma is the unique cell above tau.  On a shellable ball this
    terminates with exactly the chosen vertex left over; if the greedy
    order ever jams, that is reported as a defect rather than patched
    over.
    """
    cells = list(order.cells if isinstance(order, ShellingOrder) else order)
    if vertex not in complex_poset:
        raise MatchingError(f"unknown vertex {vertex!r}")
    if cells and not complex_poset.leq(vertex, cells[0]):
        raise MatchingError("vertex must lie in the first maximal cell")
    birth: dict[str, int] = {}
    for i, c in enumerate(cells):
        for x in complex_poset.below(c):
            if x not in birth:
                birth[x] = i
    if set(birth) != set(complex_poset.elements):
        raise MatchingError("order does not cover the complex")
    heights = complex_poset.heights()
    covers = complex_poset.covers()

    import heapq

    alive: set[str] = set(complex_poset.elements)
    strict_above = {
        x: [y for y in complex_poset.above(x) if y != x]
        for x in complex_poset.elements
    }
    strict_below = {
        x: [y for y in complex_poset.below(x) if y != x]
        for x in complex_poset.elements
    }
    updeg = {x: len(strict_above[x]) for x in complex_poset.elements}
    pairs: list[tuple[str, str]] = []

    def only_above(tau: str) -> Optional[str]:
        for y in strict_above[tau]:
            if y in alive:
                return y
        return None

    def push_candidate(heap: list, tau: str) -> None:
        sigma = only_above(tau)
        if sigma is not None:
            # larger birth and higher cells first, then lexicographic
            heapq.heappush(heap, (-birth[sigma], -heights[sigma], sigma, tau))

    heap: list = []
    for x in complex_poset.elements:
        if x != vertex and updeg[x] == 1:
            push_candidate(heap, x)

    def remove(cell: str) -> None:
        alive.discard(cell)
        for x in strict_below[cell]:
            if x in alive:
                updeg[x] -= 1
                if updeg[x] == 1 and x != vertex:
                    push_candidate(heap, x)

    while len(alive) > 1:
        found = False
        while heap:
            _, _, sigma, tau = heapq.heappop(heap)
            if tau not in alive or sigma not in alive or updeg[tau] != 1:
                continue
            if only_above(tau) != sigma or (tau, sigma) not in covers:
                continue
            pairs.append((tau, sigma))
            remove(sigma)
            remove(tau)
            found = True
            break
        if not found:
            raise MatchingError(
                f"greedy collapse jammed with {len(alive)} cells alive; "
                f"the order is not usable as a collapsing scheme"
            )

    if alive != {vertex}:
        raise MatchingError(f"collapse ended at {sorted(alive)} instead of the vertex")
    out = Matching(complex_poset, frozenset(pairs))
    report = out.is_acyclic()
    if not report:
        raise AssertionError(f"collapse matching has a cycle: {report.cycle}")
    if out.critical_cells() != frozenset({vertex}):
        raise AssertionError("collapse matching has extra critical cells")
    return out


def collapse_ball(
    system: CovectorSystem, shelled: Sequence[str]
) -> tuple[Matching, str]:
    """Collapse the ball L(Q) of the covector sphere onto one vertex.

    The topes of Q are given by id in shelling order.  The ball is the
    ideal below them without the zero vector, and the vertex is the least
    minimal cell below the first tope.  Returns the collapse and the vertex.
    """
    if not shelled:
        raise MatchingError("the ball has no tope to collapse")
    poset = system.covector_poset()
    ball = poset.subposet(poset.order_ideal(shelled) - {str(system.zero)})
    vertex = min(x for x in ball.minimal_elements() if ball.leq(x, shelled[0]))
    return matching_from_shelling(ball, ShellingOrder(tuple(shelled)), vertex), vertex


# -- the matchings with prescribed critical subcomplexes ----------------------


def matching_convex_critical(
    system: CovectorSystem, q: Iterable[SignVector]
) -> Matching:
    """An acyclic matching on the dual covector ball whose critical cells
    are exactly the dual subcomplex of a convex tope set.

    Collapses the ball generated by the complementary topes to a vertex,
    dualizes, and matches that vertex with the top dual cell.
    """
    qset = frozenset(q)
    if not qset:
        raise MatchingError("Q must be nonempty")
    ball = system.covector_poset().dual()
    topes = system.topes()
    rest = topes - qset
    if not rest:
        out = Matching(ball, frozenset())
    else:
        # a Q-first extension of the tope poset at a base in Q, reversed,
        # is an extension of the tope poset at the opposite base in which
        # the complement comes first; its prefix shells the ball L(T\Q)
        base = min(qset, key=str)
        try:
            ext = convex_first_extension(system, base, qset)
        except NotConvexError:
            raise MatchingError("Q must be convex") from None
        shell_order = [str(t) for t in reversed(ext) if t in rest]
        collapse, vertex = collapse_ball(system, shell_order)
        dual_pairs = frozenset((b, a) for a, b in collapse.pairs)
        zero_id = str(system.zero)
        out = Matching(ball, dual_pairs | {(vertex, zero_id)})
    report = out.is_acyclic()
    if not report:
        raise AssertionError(f"convex-critical matching has a cycle: {report.cycle}")
    want = frozenset(str(c) for c in dual_subcomplex(system, qset))
    got = out.critical_cells()
    if got != want:
        raise AssertionError(
            f"critical set mismatch: extra {sorted(got - want)[:4]}, "
            f"missing {sorted(want - got)[:4]}"
        )
    return out


def matching_salvetti_fiber(
    strat: FiberStratification, target_cell: str | SalvettiCell
) -> Matching:
    """An acyclic matching on the stratified fiber over (0, B') whose
    critical cells are exactly the fiber over a smaller cell of the
    localized poset.

    Built stratum by stratum: the bottom stratum is the dual ball with a
    convex-critical matching; each later stratum is an isomorphic copy of
    a contraction's dual ball, matched through the isomorphism induced by
    restriction; the patchwork map glues along the tope string.
    """
    loc = strat.loc
    a = loc.target_cell(target_cell)
    system = loc.system
    keep = [lab for lab in system.ground if lab in loc.flat]
    top_id = cell_id(loc.localized.zero, strat.base_tope)
    if not loc.target.poset.leq(a.id, top_id):
        raise MatchingError(f"{a.id} does not lie below {top_id}")
    sigma_a = a.face

    fiber = strat.fiber
    string = strat.tope_string

    # host for the patchwork: fiber -> the tope string as a chain
    chain = FinitePoset.chain([f"t{i}" for i in range(len(string))])
    ideal_sets = [
        loc.source.poset.below(cell_id(system.zero, t)) for t in string
    ]
    stratum_of: dict[str, str] = {}
    for cid in fiber.elements:
        i = next(k for k, ideal in enumerate(ideal_sets) if cid in ideal)
        stratum_of[cid] = f"t{i}"
    f = PosetMap(fiber, chain, stratum_of)

    per_fiber: dict[str, Matching] = {}

    # stratum 0: the full dual ball, critical part the fiber of rho_X over sigma_a
    q0 = frozenset(
        t for t in system.topes() if sigma_a.leq(t.restrict(keep))
    )
    m0 = matching_convex_critical(system, q0)
    t0 = string[0]
    lift0 = {
        str(c): cell_id(c, c.compose(t0)) for c in system.covectors
    }
    pairs0 = frozenset((lift0[x], lift0[y]) for x, y in m0.pairs)
    n0 = fiber.subposet(strat.strata[0])
    per_fiber["t0"] = Matching(n0, pairs0)

    # later strata: copies of contraction balls through the restriction iso,
    # all matched by the one convex-critical matching of the localization
    qi = frozenset(t for t in loc.localized.topes() if sigma_a.leq(t))
    mi = matching_convex_critical(loc.localized, qi)
    for i in range(1, len(string)):
        e = next(iter(strat.separators[i - 1]))
        ei = system.ground.index(e)
        stratum_cells = [
            c for c in system.covectors if not (c.support_mask >> ei & 1)
        ]
        iso: dict[str, SignVector] = {}
        for c in stratum_cells:
            key = str(c.restrict(keep))
            if key in iso:
                raise AssertionError("restriction is not injective on the stratum")
            iso[key] = c
        if set(iso) != {str(c) for c in loc.localized.covectors}:
            raise AssertionError("restriction is not onto the localization")
        ti = string[i]
        pairs_i = frozenset(
            (cell_id(iso[x], iso[x].compose(ti)), cell_id(iso[y], iso[y].compose(ti)))
            for x, y in mi.pairs
        )
        ni = fiber.subposet(strat.strata[i])
        per_fiber[f"t{i}"] = Matching(ni, pairs_i)

    out = patchwork(f, per_fiber)
    want = frozenset(loc.fiber(a.id).elements)
    got = out.critical_cells()
    if got != want:
        raise AssertionError(
            f"fiber matching critical set mismatch: extra {sorted(got - want)[:4]}, "
            f"missing {sorted(want - got)[:4]}"
        )
    return out


@dataclass(frozen=True)
class MorseCertificate:
    """Evidence that a subcomplex is a deformation retract of its host."""

    matching: Matching
    topological_order: tuple[str, ...]
    critical: frozenset[str]
    subcomplex_is_ideal: bool

    @property
    def ok(self) -> bool:
        return self.subcomplex_is_ideal


def morse_reduction_certificate(
    host: FinitePoset, subcomplex: Iterable[str], matching: Matching
) -> MorseCertificate:
    """Certify host collapses onto subcomplex through the matching:
    acyclicity, critical set equal to the subcomplex, subcomplex an ideal."""
    gamma = frozenset(subcomplex)
    if matching.host is not host and set(matching.host.elements) != set(host.elements):
        raise MatchingError("matching lives on a different poset")
    report = matching.is_acyclic()
    if not report:
        raise MatchingError(f"matching has a cycle: {report.cycle}")
    crit = matching.critical_cells()
    if crit != gamma:
        raise MatchingError(
            f"critical cells differ from the subcomplex: "
            f"extra {sorted(crit - gamma)[:4]}, missing {sorted(gamma - crit)[:4]}"
        )
    ideal = host.is_ideal(gamma)
    return MorseCertificate(matching, report.topological_order, crit, ideal)
