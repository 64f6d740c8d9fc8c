"""Tope posets, convexity, and shellings of the covector sphere.

The reduced covector poset is the face poset of a regular cell
decomposition of a sphere, and every linear extension of a tope poset
orders its maximal cells as a shelling.  Convex tope sets are order
ideals of tope posets, which is what produces shellable balls and, later,
the matchings with prescribed critical subcomplexes.  No tope poset is
built: a shelling order walks the covers of T(B) over the tope graph,
the tope across each facet of each tope, which is built once per system
and kept on it, the tope across the facet F of T being the composition
F o (-T).  A call computes only the separators from its base.  The
all-pairs T(B), and the graph composed afresh per call, are the tests'
oracles.

Everything here is in the numbering of the covector poset: a tope is an
element number, a set of topes (a halfspace, a convex set, the Q of the
dual subcomplex) is a mask, and a shelling order is a tuple of element
numbers.  Sign-vector text is parsed and rendered only
by the command line.

The convex hull of Q is one pass over the topes, keeping those that agree
with every sign the topes of Q share; the halfspaces of those signs are
the tests' oracle for it.  The sphere poset is built once per system,
for the shelling check and the command line's ball collapse, a ball L(Q)
being its order ideal below Q; the balls of the convex-critical
matchings are collapsed on the covector poset's own covers instead
(`omkit.morse`).

The shelling check recurses into cell boundaries, and each boundary is
an order ideal of the complex, so it is searched on the complex's own
covers, heights and masks, with no poset built per boundary; the same
search on a subposet per boundary is the tests' oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from .matroids import CovectorSystem
from .posets import FinitePoset, PosetError, bits, mask_of
from .signs import compose_masks, separator_masks


class NotATopeError(ValueError):
    pass


def _require_topes(system: CovectorSystem, q: int) -> int:
    """The mask of all topes, once every element of q is checked to be one."""
    poset = system.covector_poset()
    topes = system.topes()
    if q & ~topes:
        x = bits(q & ~topes)[0]
        if x >= len(poset.names):
            raise NotATopeError(f"{x} is not a covector")
        raise NotATopeError(f"{poset.names[x]!r} is a covector but not a tope")
    return topes


# -- convexity ---------------------------------------------------------------


def convex_hull(system: CovectorSystem, q: int) -> int:
    """Intersection of all halfspaces containing the set: the topes that
    agree with every sign the topes of Q share (none when Q is empty)."""
    topes = _require_topes(system, q)
    vectors = system.vectors()
    plus = minus = -1
    for t in bits(q):
        plus &= vectors[t][0]
        minus &= vectors[t][1]
    return mask_of(
        t for t in bits(topes) if not plus & ~vectors[t][0] and not minus & ~vectors[t][1]
    )


def is_convex(system: CovectorSystem, q: int) -> bool:
    """Convexity: the set is its own convex hull."""
    return convex_hull(system, q) == q


# -- subcomplexes of the covector sphere --------------------------------------


def dual_subcomplex(system: CovectorSystem, q: int) -> int:
    """The mask of covectors all of whose topes lie in Q (a subcomplex of
    the dual)."""
    outside = _require_topes(system, q) & ~q
    poset = system.covector_poset()
    return poset.members & ~poset.order_ideal(outside)


def sphere_poset(system: CovectorSystem) -> FinitePoset:
    """Face poset of the covector sphere (zero vector removed), built once
    per system; its order ideals, the balls L(Q), inherit its covers."""

    def build():
        poset = system.covector_poset()
        zero = system.numbering().get((0, 0))
        return poset.subposet(poset.members if zero is None else poset.members & ~(1 << zero))

    return system.memo(("sphere",), build)


# -- shellings ---------------------------------------------------------------


@dataclass(frozen=True)
class ShellingReport:
    ok: bool
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _tope_graph(system: CovectorSystem) -> dict[int, tuple[int, ...]]:
    """Each tope's neighbours, the tope across each of its facets in
    facet order, built once per system and kept on it.  The tope across
    the facet F of T is the composition F o (-T); a `NotATopeError` names
    the first facet, by tope and facet, across which lies no tope."""

    def build():
        poset, vectors, number = system.covector_poset(), system.vectors(), system.numbering()
        order = bits(_require_topes(system, 0))
        every = set(order)
        graph = {}
        for t in order:
            tp, tm = vectors[t]
            across = []
            for f in poset.lower_covers(t):
                across.append(number.get(compose_masks(*vectors[f], tm, tp), -1))
            if not every.issuperset(across):
                f = next(f for f, u in zip(poset.lower_covers(t), across) if u not in every)
                raise NotATopeError(f"no tope lies across the facet {poset.names[f]} of the tope {poset.names[t]}")
            graph[t] = tuple(across)
        return graph

    return system.memo(("tope graph",), build)


def shelling_order_from_extension(
    system: CovectorSystem, base: int, prefix: int = 0
) -> tuple[int, ...]:
    """Order the sphere's maximal cells by a linear extension of the tope
    poset T(B) at base B: a least-first Kahn walk over its covers, the
    tope u across a facet of t covering t when S(B, t) lies in S(B, u)
    (Edelman 1984; Bjorner, Edelman and Ziegler 1990).  The topes across
    the facets are read off the system's one tope graph (`_tope_graph`),
    so a call computes only the separators from its base.

    A nonzero prefix comes first; it must be an order ideal of T(B), as
    every convex set containing the base is.
    """
    topes = _require_topes(system, 1 << base)
    prefix = prefix or 1 << base
    poset, vectors = system.covector_poset(), system.vectors()
    if prefix & ~topes:
        unknown = [poset.names[x] if x < len(poset.names) else x for x in bits(prefix & ~topes)[:4]]
        raise PosetError(f"unknown elements: {unknown}")
    graph = _tope_graph(system)
    bp, bm = vectors[base]
    sep = {t: separator_masks(bp, bm, *vectors[t]) for t in graph}
    upper: dict[int, list[int]] = {t: [] for t in graph}
    waiting = dict.fromkeys(graph, 0)  # each tope's lower covers not yet placed
    for t, across in graph.items():
        st = sep[t]
        for u in across:
            if not st & ~sep[u]:
                if prefix >> u & 1 and not prefix >> t & 1:
                    raise PosetError("the given set is not an order ideal")
                upper[t].append(u)
                waiting[u] += 1
    ready = sorted((not prefix >> t & 1, t) for t, n in waiting.items() if not n)
    order: list[int] = []
    while ready:
        _, t = heapq.heappop(ready)
        order.append(t)
        for u in upper[t]:
            waiting[u] -= 1
            if not waiting[u]:
                heapq.heappush(ready, (not prefix >> u & 1, u))
    return tuple(order)


def verify_shelling(complex_poset: FinitePoset, order: Sequence[int]) -> ShellingReport:
    """Check the shelling conditions on a pure regular complex.

    Condition (i) is checked for each cell in order, and conditions (ii)
    and (iii) recursively on the cell boundaries, down to dimension 0.
    """
    cells = list(order)
    dims = complex_poset.heights()
    maximal = complex_poset.maximal_elements()
    if mask_of(cells) != maximal or len(cells) != maximal.bit_count():
        return ShellingReport(False, "order is not a permutation of the maximal cells")
    if not cells:
        return ShellingReport(True)  # the empty complex, as in _exists_shelling_with_prefix
    d = dims[cells[0]]
    if any(dims[c] != d for c in bits(maximal)):
        return ShellingReport(False, "complex is not pure")
    if d == 0:
        return ShellingReport(True)
    union = 0
    for j, c in enumerate(cells):
        bad = _step_failure(complex_poset, dims, c, union, j)
        if bad is not None:
            return ShellingReport(False, bad)
        union |= _boundary(complex_poset, c)
    return ShellingReport(True)


def _boundary(complex_poset: FinitePoset, c: int) -> int:
    return complex_poset.below(c) ^ 1 << c


def _step_failure(
    complex_poset: FinitePoset,
    dims: dict[int, int],
    c: int,
    union: int,
    position: int,
) -> Optional[str]:
    """Why cell c cannot come at the given (0-based) position of a shelling
    whose earlier boundaries cover union; None when it can.

    The first cell's boundary must be shellable (iii); each later cell
    meets the union in a pure complex of one dimension less (i), which
    must start a shelling of its boundary (ii).
    """
    boundary = _boundary(complex_poset, c)
    facets = 0
    if position > 0:
        inter = boundary & union
        bad = _purity_failure(complex_poset, inter, dims, dims[c] - 1)
        if bad is not None:
            return f"condition (i) fails at position {position + 1}: {bad}"
        facets = mask_of(x for x in bits(inter) if dims[x] == dims[c] - 1)
    if not _exists_shelling_with_prefix(complex_poset, c, facets):
        if position == 0:
            return "condition (iii) fails: first boundary not shellable"
        return (
            f"condition (ii) fails at position {position + 1}: no shelling "
            f"of the boundary starts with the shared facets"
        )
    return None


def _purity_failure(
    complex_poset: FinitePoset,
    subset: int,
    dims: dict[int, int],
    want: int,
) -> Optional[str]:
    """None when the subset is nonempty and pure of the wanted dimension."""
    if not subset:
        return "intersection is empty"
    covered = 0
    for x in bits(subset):
        covered |= complex_poset.below(x) ^ 1 << x
    maximal = bits(subset & ~covered)
    if all(dims[x] == want for x in maximal):
        return None
    off = next(x for x in maximal if dims[x] != want)
    return f"maximal cell {complex_poset.names[off]} has dimension {dims[off]}, wanted {want}"


def _exists_shelling_with_prefix(complex_poset: FinitePoset, cell: int, prefix: int) -> bool:
    """Backtracking search for a shelling of the boundary of a cell whose
    first cells are the given set.

    The boundary is an order ideal of the host, so it has the host's
    covers, heights and masks: its maximal cells are the cell's lower
    covers, and the search runs on the host itself, building no poset.
    The search on a subposet per boundary is the tests' oracle.
    """
    dims = complex_poset.heights()
    maximal = complex_poset.lower_covers(cell)
    if not maximal:
        return not prefix
    d = dims[maximal[0]]
    if any(dims[c] != d for c in maximal):
        return False
    if d == 0:
        return True
    target = len(maximal)
    prefix_size = prefix.bit_count()

    def search(chosen: list[int], union: int, pool: set[int]) -> bool:
        if len(chosen) == target:
            return True
        stage = [c for c in sorted(pool) if prefix >> c & 1] if len(chosen) < prefix_size else sorted(pool)
        for c in stage:
            if _step_failure(complex_poset, dims, c, union, len(chosen)) is None:
                chosen.append(c)
                pool.discard(c)
                if search(chosen, union | _boundary(complex_poset, c), pool):
                    return True
                pool.add(c)
                chosen.pop()
        return False

    return search([], 0, set(maximal))
