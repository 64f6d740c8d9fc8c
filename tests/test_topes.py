import itertools
import random

import pytest

from omkit.posets import FinitePoset
from omkit.topes import (
    NotATopeError,
    ShellingOrder,
    all_convex_tope_sets,
    convex_first_extension,
    convex_hull,
    dist,
    dual_subcomplex,
    halfspace,
    is_convex,
    shelling_order_from_extension,
    sphere_poset,
    subcomplex_LQ,
    tope_poset,
    verify_shelling,
)


def fiber_topes(system, flat, base_text):
    loc, _ = system.localization(flat)
    keep = [lab for lab in system.ground if lab in flat]
    base = loc.vector(base_text)
    return frozenset(t for t in system.topes() if t.restrict(keep) == base)


def test_dist_extremes(five_planes):
    topes = sorted(five_planes.topes(), key=str)
    for t in topes[:5]:
        assert dist(t, t) == 0
        assert dist(t, t.opposite()) == len(five_planes.ground)


def test_rank1_tope_poset(rank1):
    plus = rank1.vector("+")
    tp = tope_poset(rank1, plus)
    assert {(tp.names[a], tp.names[b]) for a, b in tp.covers()} == {("+", "-")}


def test_tope_poset_requires_tope(five_planes):
    with pytest.raises(NotATopeError):
        tope_poset(five_planes, five_planes.zero)


def test_fiber_tope_distances(five_planes):
    q = fiber_topes(five_planes, frozenset({"H1", "H2", "H3"}), "+++")
    assert len(q) == 3
    # anchor the string at an end tope: distance 2 to the other end
    ends = [t for t in q if max(len(t.separator(r)) for r in q) == 2]
    base = sorted(ends, key=str)[0]
    t0, t1, t2 = sorted(q, key=lambda t: len(t.separator(base)))
    assert dist(t0, t1) + dist(t1, t2) == dist(t0, t2)
    assert t0.separator(t2) == {"H4", "H5"}
    assert t1.separator(t2) in ({"H5"}, {"H4"})


def test_halfspace(five_planes):
    pos = halfspace(five_planes, "H1", 1)
    neg = halfspace(five_planes, "H1", -1)
    assert len(pos) == len(neg)
    assert pos | neg == five_planes.topes()  # H1 is not a loop
    assert pos & neg == frozenset()


def test_convexity_trivial_cases(five_planes):
    topes = five_planes.topes()
    assert is_convex(five_planes, topes)
    single = {sorted(topes, key=str)[0]}
    assert is_convex(five_planes, single)
    assert convex_hull(five_planes, single) == frozenset(single)


def test_fiber_topes_convex(five_planes):
    loc, _ = five_planes.localization({"H1", "H2", "H3"})
    for base in sorted(loc.topes(), key=str):
        q = fiber_topes(five_planes, frozenset({"H1", "H2", "H3"}), str(base))
        assert is_convex(five_planes, q)


def test_all_localization_fibers_convex_and_match_dual_subcomplex(five_planes):
    # over every cell of the localization: the fiber topes are convex and
    # the dual subcomplex they generate is exactly the covector fiber
    x = frozenset({"H1", "H2", "H3"})
    keep = [lab for lab in five_planes.ground if lab in x]
    loc, _ = five_planes.localization(x)
    topes = five_planes.topes()
    for sigma in sorted(loc.covectors, key=str):
        q = frozenset(t for t in topes if sigma.leq(t.restrict(keep)))
        assert is_convex(five_planes, q)
        if q:
            fiber = {
                c for c in five_planes.covectors if sigma.leq(c.restrict(keep))
            }
            assert dual_subcomplex(five_planes, q) == five_planes.mask(fiber)


def test_convexity_both_ways_on_random_subsets(five_planes):
    rng = random.Random(7)
    topes = sorted(five_planes.topes(), key=str)
    for _ in range(120):
        size = rng.randint(1, 6)
        q = frozenset(rng.sample(topes, size))
        is_convex(five_planes, q)  # raises if the two criteria disagree


def test_convex_sets_enumeration_matches_definition(uniform23):
    # exhaustively against the definition on the small member
    topes = sorted(uniform23.topes(), key=str)
    by_def = set()
    for r in range(1, len(topes) + 1):
        for combo in itertools.combinations(topes, r):
            q = frozenset(combo)
            if convex_hull(uniform23, q) == q:
                by_def.add(q)
    assert set(all_convex_tope_sets(uniform23)) == by_def


def test_convex_first_extension(five_planes):
    x = frozenset({"H1", "H2", "H3"})
    q = fiber_topes(five_planes, x, "+++")
    # an end tope of the fiber string works as the base
    ends = [t for t in q if max(len(t.separator(r)) for r in q) == 2]
    base = sorted(ends, key=str)[0]
    vectors = five_planes.vectors()
    order = [vectors[t] for t in convex_first_extension(five_planes, base, q)]
    assert frozenset(order[: len(q)]) == q
    assert order[0] == base
    with pytest.raises(ValueError):
        convex_first_extension(five_planes, sorted(five_planes.topes() - q, key=str)[0], q)


def test_convex_first_extension_trivial(five_planes):
    topes = five_planes.topes()
    base = sorted(topes, key=str)[0]
    order = convex_first_extension(five_planes, base, {base})
    assert five_planes.vectors()[order[0]] == base
    order2 = convex_first_extension(five_planes, base, topes)
    assert len(order2) == len(topes)


def test_rank1_shelling(rank1):
    base = rank1.vector("+")
    order = shelling_order_from_extension(rank1, base)
    poset = sphere_poset(rank1)
    assert verify_shelling(poset, order, depth=1).ok


def test_uniform23_shellings_all_extensions(uniform23):
    poset = sphere_poset(uniform23)
    for base in sorted(uniform23.topes(), key=str):
        order = shelling_order_from_extension(uniform23, base)
        assert verify_shelling(poset, order, depth=2).ok


def test_five_planes_shelling_full_depth(five_planes):
    poset = sphere_poset(five_planes)
    for base in sorted(five_planes.topes(), key=str)[:4]:
        order = shelling_order_from_extension(five_planes, base)
        assert verify_shelling(poset, order, depth=3).ok


def square_complex():
    # boundary of a square: 4 vertices, 4 edges
    elements = ["v1", "v2", "v3", "v4", "e12", "e23", "e34", "e41"]
    covers = [
        ("v1", "e12"), ("v2", "e12"),
        ("v2", "e23"), ("v3", "e23"),
        ("v3", "e34"), ("v4", "e34"),
        ("v4", "e41"), ("v1", "e41"),
    ]
    return FinitePoset.from_covers(elements, covers)


def shelling(poset, *cells):
    """A ShellingOrder of named cells."""
    return ShellingOrder(tuple(poset.names.index(c) for c in cells))


def test_square_shelling_orders():
    sq = square_complex()
    good = shelling(sq, "e12", "e23", "e34", "e41")
    assert verify_shelling(sq, good, depth=1).ok
    bad = shelling(sq, "e12", "e34", "e23", "e41")
    report = verify_shelling(sq, bad, depth=1)
    assert not report.ok
    assert "position 2" in report.witness
    assert "empty" in report.witness


def test_condition_two_failure_detected():
    # two squares glued along a pair of opposite edges form an annulus:
    # the second cell meets the first in a pure one-dimensional set, so
    # condition (i) holds, but its boundary admits no shelling starting
    # with two non-adjacent edges, so condition (ii) must fail
    elements = [
        "v1", "v2", "v3", "v4",
        "e12", "e23", "e34", "e41", "a23", "a41",
        "f", "h",
    ]
    covers = [
        ("v1", "e12"), ("v2", "e12"),
        ("v2", "e23"), ("v3", "e23"),
        ("v3", "e34"), ("v4", "e34"),
        ("v4", "e41"), ("v1", "e41"),
        ("v2", "a23"), ("v3", "a23"),
        ("v4", "a41"), ("v1", "a41"),
        ("e12", "f"), ("e23", "f"), ("e34", "f"), ("e41", "f"),
        ("e12", "h"), ("a23", "h"), ("e34", "h"), ("a41", "h"),
    ]
    annulus = FinitePoset.from_covers(elements, covers)
    shallow = verify_shelling(annulus, shelling(annulus, "h", "f"), depth=0)
    assert shallow.ok  # condition (i) alone cannot see the problem
    deep = verify_shelling(annulus, shelling(annulus, "h", "f"), depth=2)
    assert not deep.ok
    assert "condition (ii)" in deep.witness


def test_zero_dimensional_complex_shelling(rank1):
    points = FinitePoset.antichain(("p", "q"))
    assert verify_shelling(points, shelling(points, "p", "q"), depth=5).ok


def test_shelling_detects_non_ideal_swap(five_planes):
    base = sorted(five_planes.topes(), key=str)[0]
    order = list(shelling_order_from_extension(five_planes, base).cells)
    # move the last tope (the opposite of the base) to the front: breaks (i)
    broken = [order[-1]] + order[:-1]
    report = verify_shelling(sphere_poset(five_planes), broken, depth=0)
    assert not report.ok


def test_tope_poset_graded_with_single_flip_covers(all_corpus):
    for name, system in all_corpus.items():
        if len(system.topes()) > 24:
            continue
        for base in sorted(system.topes(), key=str)[:3]:
            tp = tope_poset(system, base)
            vectors = system.vectors()
            for r, t in tp.covers():
                tr, tt = vectors[r], vectors[t]
                assert dist(base, tt) == dist(base, tr) + 1, name
                assert dist(tr, tt) == 1, name


def test_subcomplexes(five_planes, braid3):
    # both ideals against their all-pairs definitions on every convex set
    for system in (five_planes, braid3):
        covs, topes = system.covectors, system.topes()
        for q in all_convex_tope_sets(system):
            lq = {c for c in covs if any(c.leq(t) for t in q)}
            assert subcomplex_LQ(system, q) == system.mask(lq)
            dual = {c for c in covs if all(t in q for t in topes if c.leq(t))}
            assert dual_subcomplex(system, q) == system.mask(dual)
    topes = five_planes.topes()
    everything = five_planes.mask(five_planes.covectors)
    assert subcomplex_LQ(five_planes, topes) == everything
    assert dual_subcomplex(five_planes, topes) == everything
    assert dual_subcomplex(five_planes, frozenset()) == 0
    x = frozenset({"H1", "H2", "H3"})
    q = fiber_topes(five_planes, x, "+++")
    keep = [lab for lab in five_planes.ground if lab in x]
    # the dual subcomplex of the fiber topes is the covector-level fiber
    got = dual_subcomplex(five_planes, q)
    base = five_planes.restriction(x).vector("+++")
    fiber = {
        c for c in five_planes.covectors if base.leq(c.restrict(keep))
    }
    assert got == five_planes.mask(fiber)

