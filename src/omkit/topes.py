"""Tope posets, convexity, and shellings of the covector sphere.

The reduced covector poset is the face poset of a regular cell
decomposition of a sphere, and every linear extension of a tope poset
orders its maximal cells as a shelling.  Convex tope sets are order
ideals of tope posets, which is what produces shellable balls and, later,
the matchings with prescribed critical subcomplexes.  Tope posets,
subcomplexes and shellings are in the numbering of the covector poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .matroids import CovectorSystem
from .posets import FinitePoset, bits, mask_of
from .signs import SignVector, separator_masks


class NotATopeError(ValueError):
    pass


class NotConvexError(ValueError):
    pass


def _require_tope(system: CovectorSystem, t: SignVector) -> None:
    if t not in system.topes():
        raise NotATopeError(f"{t} is not a tope")


def dist(t: SignVector, r: SignVector) -> int:
    """Number of separating elements."""
    return bin(t.separator_mask(r)).count("1")


def halfspace(system: CovectorSystem, label: str, sign: int) -> frozenset[SignVector]:
    """Topes on the given side of one element."""
    if label not in system.ground:
        raise ValueError(f"unknown label {label!r}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    i = system.ground.index(label)
    mask_attr = "plus" if sign > 0 else "minus"
    return frozenset(
        t for t in system.topes() if getattr(t, mask_attr) >> i & 1
    )


def tope_poset(system: CovectorSystem, base: SignVector) -> FinitePoset:
    """Topes ordered by containment of separators from a base tope."""
    _require_tope(system, base)
    order = system.covector_poset()
    vectors = system.vectors()
    seps = [(t, base.separator_mask(vectors[t])) for t in bits(order.maximal_elements())]
    below = {t: mask_of(r for r, sr in seps if not sr & ~st) for t, st in seps}
    return FinitePoset(order.names, below, _validated=True)


# -- convexity ---------------------------------------------------------------


def convex_hull(system: CovectorSystem, q: Iterable[SignVector]) -> frozenset[SignVector]:
    """Intersection of all halfspaces containing the set."""
    qset = frozenset(q)
    topes = system.topes()
    for t in qset:
        _require_tope(system, t)
    if not qset:
        return frozenset()
    hull = set(topes)
    for i, lab in enumerate(system.ground):
        for attr in ("plus", "minus"):
            side = frozenset(t for t in topes if getattr(t, attr) >> i & 1)
            if qset <= side:
                hull &= side
    return frozenset(hull)


def _is_convex_betweenness(
    system: CovectorSystem, qset: frozenset[SignVector]
) -> bool:
    # T, R in Q and dist(T,W) + dist(W,R) = dist(T,R) forces W in Q.  For
    # topes S(T,R) is the symmetric difference of S(T,W) and S(W,R), so W
    # lies between T and R exactly when S(T,W) is a subset of S(T,R).
    outside = [(w.plus, w.minus) for w in system.topes() if w not in qset]
    for t in qset:
        to_outside = [separator_masks(t.plus, t.minus, p, m) for p, m in outside]
        for r in qset:
            s = t.separator_mask(r)
            if any(not (sw & ~s) for sw in to_outside):
                return False
    return True


def is_convex(system: CovectorSystem, q: Iterable[SignVector]) -> bool:
    """Convexity, computed both as a halfspace fixpoint and through the
    betweenness criterion; the two must agree."""
    qset = frozenset(q)
    via_hull = convex_hull(system, qset) == qset if qset else True
    via_between = _is_convex_betweenness(system, qset)
    if via_hull != via_between:
        raise AssertionError(
            f"convexity criteria disagree on {sorted(map(str, qset))}"
        )
    return via_hull


def all_convex_tope_sets(system: CovectorSystem) -> list[frozenset[SignVector]]:
    """All nonempty convex tope sets: every intersection of halfspaces."""
    topes = frozenset(system.topes())
    sides = []
    for i in range(len(system.ground)):
        sides.append(frozenset(t for t in topes if t.plus >> i & 1))
        sides.append(frozenset(t for t in topes if t.minus >> i & 1))
    out = {topes}
    frontier = [topes]
    while frontier:
        nxt = []
        for cur in frontier:
            for s in sides:
                cut = cur & s
                if cut and cut not in out:
                    out.add(cut)
                    nxt.append(cut)
        frontier = nxt
    return sorted(out, key=lambda s: (len(s), sorted(map(str, s))))


def convex_first_extension(
    system: CovectorSystem, base: SignVector, q: Iterable[SignVector]
) -> list[int]:
    """A linear extension of the tope poset at base with Q as a prefix.

    Q must be convex and contain the base; convexity makes Q an order
    ideal of the tope poset, so the ideal-first extension applies.
    """
    qset = frozenset(q)
    if base not in qset:
        raise ValueError("base tope must belong to Q")
    if not is_convex(system, qset):
        raise NotConvexError("Q is not convex")
    tp = tope_poset(system, base)
    ideal = system.mask(qset)
    if not tp.is_ideal(ideal):
        raise AssertionError("convex set is not an ideal of the tope poset")
    return tp.linear_extension_ideal_first(ideal)


# -- subcomplexes of the covector sphere --------------------------------------


def subcomplex_LQ(system: CovectorSystem, q: Iterable[SignVector]) -> int:
    """The mask of covectors below some tope of Q (an order ideal)."""
    qset = frozenset(q)
    for t in qset:
        _require_tope(system, t)
    return system.covector_poset().order_ideal(system.mask(qset))


def dual_subcomplex(system: CovectorSystem, q: Iterable[SignVector]) -> int:
    """The mask of covectors all of whose topes lie in Q (a subcomplex of
    the dual)."""
    qset = frozenset(q)
    for t in qset:
        _require_tope(system, t)
    poset = system.covector_poset()
    topes = poset.maximal_elements()
    outside = topes & ~system.mask(qset)
    out = mask_of(x for x in poset.elements if not poset.above(x) & outside)
    # the complementary description must agree
    if out != poset.members & ~subcomplex_LQ(system, system.topes() - qset):
        raise AssertionError("dual subcomplex identities disagree")
    return out


def sphere_poset(system: CovectorSystem) -> FinitePoset:
    """Face poset of the covector sphere (zero vector removed)."""
    poset = system.covector_poset()
    zero = system.numbering().get((0, 0))
    return poset.subposet(poset.members if zero is None else poset.members & ~(1 << zero))


# -- shellings ---------------------------------------------------------------


@dataclass(frozen=True)
class ShellingOrder:
    """An ordering of the maximal cells of a pure regular complex."""

    cells: tuple[int, ...]


@dataclass(frozen=True)
class ShellingReport:
    ok: bool
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def shelling_order_from_extension(
    system: CovectorSystem,
    base: SignVector,
    prefix: Optional[Iterable[SignVector]] = None,
) -> ShellingOrder:
    """Order the sphere's maximal cells by a linear extension of the tope
    poset at base; optionally with a convex prefix first."""
    _require_tope(system, base)
    tp = tope_poset(system, base)
    ideal = system.mask(prefix if prefix is not None else []) or system.mask([base])
    return ShellingOrder(tuple(tp.linear_extension_ideal_first(ideal)))


def verify_shelling(
    complex_poset: FinitePoset,
    order: Sequence[int] | ShellingOrder,
    depth: int,
) -> ShellingReport:
    """Check the shelling conditions on a pure regular complex.

    Condition (i) is checked exactly for each cell in order; conditions
    (ii) and (iii) are checked recursively while depth > 0 (depth at least
    the complex dimension gives the full check).
    """
    cells = list(order.cells if isinstance(order, ShellingOrder) else order)
    dims = complex_poset.heights()
    maximal = complex_poset.maximal_elements()
    if mask_of(cells) != maximal or len(cells) != maximal.bit_count():
        return ShellingReport(False, "order is not a permutation of the maximal cells")
    d = dims[cells[0]]
    if any(dims[c] != d for c in bits(maximal)):
        return ShellingReport(False, "complex is not pure")
    return _verify_shelling_inner(complex_poset, dims, cells, depth)


def _boundary(complex_poset: FinitePoset, c: int) -> int:
    return complex_poset.below(c) ^ 1 << c


def _verify_shelling_inner(
    complex_poset: FinitePoset,
    dims: dict[int, int],
    cells: list[int],
    depth: int,
) -> ShellingReport:
    d = dims[cells[0]]
    if d == 0:
        return ShellingReport(True)
    union = 0
    for j, c in enumerate(cells):
        boundary = _boundary(complex_poset, c)
        if j > 0:
            inter = boundary & union
            bad = _purity_failure(complex_poset, inter, dims, d - 1)
            if bad is not None:
                return ShellingReport(False, f"condition (i) fails at position {j + 1}: {bad}")
            if depth > 0:
                sub = complex_poset.subposet(boundary)
                prefix = mask_of(x for x in bits(inter) if dims[x] == d - 1)
                if not _exists_shelling_with_prefix(sub, prefix, depth - 1):
                    return ShellingReport(
                        False,
                        f"condition (ii) fails at position {j + 1}: no shelling "
                        f"of the boundary starts with the shared facets",
                    )
        elif depth > 0:
            sub = complex_poset.subposet(boundary)
            if not _exists_shelling_with_prefix(sub, 0, depth - 1):
                return ShellingReport(False, "condition (iii) fails: first boundary not shellable")
        union |= boundary
    return ShellingReport(True)


def _purity_failure(
    complex_poset: FinitePoset,
    subset: int,
    dims: dict[int, int],
    want: int,
) -> Optional[str]:
    """None when the subset is nonempty and pure of the wanted dimension."""
    if not subset:
        return "intersection is empty"
    maximal = [x for x in bits(subset) if complex_poset.above(x) & subset == 1 << x]
    if all(dims[x] == want for x in maximal):
        return None
    off = next(x for x in maximal if dims[x] != want)
    return f"maximal cell {complex_poset.names[off]} has dimension {dims[off]}, wanted {want}"


def _exists_shelling_with_prefix(
    complex_poset: FinitePoset, prefix: int, depth: int
) -> bool:
    """Backtracking search for a shelling whose first cells are the given set."""
    dims = complex_poset.heights()
    maximal = bits(complex_poset.maximal_elements())
    if not maximal:
        return not prefix
    d = dims[maximal[0]]
    if any(dims[c] != d for c in maximal):
        return False
    if d == 0:
        return True
    boundaries = {c: _boundary(complex_poset, c) for c in maximal}

    def ok_step(c: int, union: int, first: bool) -> bool:
        if first:
            if depth > 0:
                sub = complex_poset.subposet(boundaries[c])
                return _exists_shelling_with_prefix(sub, 0, depth - 1)
            return True
        inter = boundaries[c] & union
        if _purity_failure(complex_poset, inter, dims, d - 1) is not None:
            return False
        if depth > 0:
            sub = complex_poset.subposet(boundaries[c])
            pre = mask_of(x for x in bits(inter) if dims[x] == d - 1)
            return _exists_shelling_with_prefix(sub, pre, depth - 1)
        return True

    target = len(maximal)
    prefix_size = prefix.bit_count()

    def search(chosen: list[int], union: int, pool: set[int]) -> bool:
        if len(chosen) == target:
            return True
        stage = [c for c in sorted(pool) if prefix >> c & 1] if len(chosen) < prefix_size else sorted(pool)
        for c in stage:
            if ok_step(c, union, not chosen):
                chosen.append(c)
                pool.discard(c)
                if search(chosen, union | boundaries[c], pool):
                    return True
                pool.add(c)
                chosen.pop()
        return False

    return search([], 0, set(maximal))
