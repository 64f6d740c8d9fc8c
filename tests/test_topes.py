import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import sign_vectors
from omkit.corpus import CORPUS_NAMES
from omkit import posets
from omkit.posets import FinitePoset, PosetError, bits, mask_of
from omkit.signs import separator_masks
from omkit.topes import (
    NotATopeError,
    ShellingReport,
    convex_hull,
    dual_subcomplex,
    is_convex,
    shelling_order_from_extension,
    sphere_poset,
    verify_shelling,
)
from poset_builders import antichain, cover_pairs, from_below, from_covers
from side_lemmas import (
    all_convex_tope_sets,
    dual_by_complement,
    halfspace,
    is_convex_betweenness,
    linear_extension_ideal_first,
    shelling_by_subposets,
    shelling_order_by_composition,
    subcomplex_LQ,
    tope_poset,
)
from sign_vector import SignVector


def fiber_topes(system, flat, base_text):
    """The mask of the topes restricting to the given tope of the flat."""
    base = SignVector.from_string(base_text, system.labels(flat))
    vectors = sign_vectors(system)
    return mask_of(t for t in bits(system.topes()) if vectors[t].restrict(flat) == base)


def all_topes(system):
    """The mask of all topes."""
    return system.covector_poset().maximal_elements()


def dist(system, t, r):
    """Number of elements separating two topes, given by number."""
    vectors = system.vectors()
    return separator_masks(*vectors[t], *vectors[r]).bit_count()


def test_dist_extremes(five_planes):
    # the distance from the base is the height in its tope poset: 0 at
    # the base, the size of the ground set at the opposite tope
    vectors = five_planes.vectors()
    number = five_planes.numbering()
    for t in bits(all_topes(five_planes))[:5]:
        heights = tope_poset(five_planes, t).heights()
        assert heights[t] == dist(five_planes, t, t) == 0
        assert heights[number[vectors[t][::-1]]] == len(five_planes.ground)


def test_rank1_tope_poset(rank1):
    plus = rank1.covector_poset().names.index("+")
    tp = tope_poset(rank1, plus)
    assert {(tp.names[a], tp.names[b]) for a, b in cover_pairs(tp)} == {("+", "-")}


def test_tope_poset_requires_tope(five_planes):
    with pytest.raises(NotATopeError, match="'00000' is a covector but not a tope"):
        tope_poset(five_planes, five_planes.numbering()[0, 0])


def test_fiber_tope_distances(five_planes):
    q = bits(fiber_topes(five_planes, five_planes.label_mask({"H1", "H2", "H3"}), "+++"))
    assert len(q) == 3
    # anchor the string at an end tope: distance 2 to the other end
    ends = [t for t in q if max(dist(five_planes, t, r) for r in q) == 2]
    base = ends[0]
    t0, t1, t2 = sorted(q, key=lambda t: dist(five_planes, t, base))
    assert dist(five_planes, t0, t1) + dist(five_planes, t1, t2) == dist(five_planes, t0, t2)
    vectors = five_planes.vectors()
    h4, h5 = five_planes.label_mask({"H4"}), five_planes.label_mask({"H5"})
    assert separator_masks(*vectors[t0], *vectors[t2]) == h4 | h5
    assert separator_masks(*vectors[t1], *vectors[t2]) in (h4, h5)


def test_halfspace(five_planes):
    pos = halfspace(five_planes, "H1", 1)
    neg = halfspace(five_planes, "H1", -1)
    assert pos.bit_count() == neg.bit_count()
    assert pos | neg == all_topes(five_planes)  # H1 is not a loop
    assert pos & neg == 0
    vectors = sign_vectors(five_planes)
    assert all(vectors[t].sign("H1") == 1 for t in bits(pos))


def test_convexity_trivial_cases(five_planes):
    topes = all_topes(five_planes)
    assert is_convex(five_planes, topes)
    assert is_convex(five_planes, 0)
    single = topes & -topes
    assert is_convex(five_planes, single)
    assert convex_hull(five_planes, single) == single
    with pytest.raises(NotATopeError):
        is_convex(five_planes, single | 1 << five_planes.numbering()[0, 0])


def test_fiber_topes_convex(five_planes):
    loc, _ = five_planes.localization(five_planes.label_mask({"H1", "H2", "H3"}))
    for base in loc.covector_poset().names_of(loc.topes()):
        q = fiber_topes(five_planes, five_planes.label_mask({"H1", "H2", "H3"}), base)
        assert is_convex(five_planes, q)


def test_all_localization_fibers_convex_and_match_dual_subcomplex(five_planes):
    # over every cell of the localization: the fiber topes are convex and
    # the dual subcomplex they generate is exactly the covector fiber
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc, _ = five_planes.localization(x)
    covs = sign_vectors(five_planes)
    topes = bits(five_planes.topes())
    for sigma in sign_vectors(loc):
        q = mask_of(t for t in topes if sigma.leq(covs[t].restrict(x)))
        assert is_convex(five_planes, q)
        if q:
            fiber = mask_of(c for c, v in enumerate(covs) if sigma.leq(v.restrict(x)))
            assert dual_subcomplex(five_planes, q) == fiber


def test_convexity_both_ways_on_every_subset(rank1, boolean3, uniform23):
    # the hull criterion against betweenness, on every set of topes
    for system in (rank1, boolean3, uniform23):
        topes = bits(all_topes(system))
        for r in range(len(topes) + 1):
            for combo in itertools.combinations(topes, r):
                q = mask_of(combo)
                assert is_convex(system, q) == is_convex_betweenness(system, q), bits(q)


def test_convexity_both_ways_on_random_subsets(braid3, five_planes, non_pappus):
    rng = random.Random(7)
    for system in (braid3, five_planes, non_pappus):
        topes = bits(all_topes(system))
        for _ in range(120):
            q = mask_of(rng.sample(topes, rng.randint(1, 6)))
            assert is_convex(system, q) == is_convex_betweenness(system, q), bits(q)
        # and hulls of random pairs, so that convex sets are met as well
        for _ in range(20):
            q = convex_hull(system, mask_of(rng.sample(topes, 2)))
            assert is_convex(system, q) and is_convex_betweenness(system, q)


@given(st.sampled_from(CORPUS_NAMES), st.integers(0, (1 << 56) - 1))
@example("non-pappus", 0)
@example("braid3", (1 << 24) - 2)  # all topes but one: not convex
@settings(max_examples=150, deadline=None)
def test_hull_is_the_halfspaces_of_the_shared_signs(all_corpus, name, pick):
    # bit k of pick puts tope k (in numbering order) into Q
    system = all_corpus[name]
    vectors = system.vectors()
    q = mask_of(t for k, t in enumerate(bits(all_topes(system))) if pick >> k & 1)
    hull = all_topes(system)
    for i, label in enumerate(system.ground):
        for sign, side in ((1, 0), (-1, 1)):
            if all(vectors[t][side] >> i & 1 for t in bits(q)):
                hull &= halfspace(system, label, sign)
    assert convex_hull(system, q) == hull
    assert is_convex(system, q) == is_convex_betweenness(system, q)


def test_convex_sets_enumeration_matches_definition(uniform23):
    # exhaustively against the definition on the small member, with the
    # halfspaces rebuilt from sign vectors: the enumeration builds on
    # `halfspace`, so it is not trusted here
    vectors = sign_vectors(uniform23)
    topes = bits(all_topes(uniform23))
    sides = [
        mask_of(t for t in topes if vectors[t].sign(lab) == s)
        for lab in uniform23.ground for s in (1, -1)
    ]
    by_def = set()
    for r in range(1, len(topes) + 1):
        for combo in itertools.combinations(topes, r):
            q = mask_of(combo)
            hull = all_topes(uniform23)
            for side in sides:
                if not q & ~side:
                    hull &= side
            assert convex_hull(uniform23, q) == hull
            if hull == q:
                by_def.add(q)
    convex = all_convex_tope_sets(uniform23)
    assert set(convex) == by_def
    names = uniform23.covector_poset().names_of
    assert convex == sorted(convex, key=lambda q: (q.bit_count(), sorted(names(q))))


def test_shelling_order_puts_a_convex_prefix_first(uniform23, five_planes):
    # every convex set, at every base inside it, comes first in a linear
    # extension of the tope poset; at a base outside it is no ideal
    for system in (uniform23, five_planes):
        topes = all_topes(system)
        for q in all_convex_tope_sets(system):
            for base in bits(topes):
                if not q >> base & 1:
                    with pytest.raises(PosetError):
                        shelling_order_from_extension(system, base, q)
                    continue
                order = shelling_order_from_extension(system, base, q)
                assert order[0] == base
                assert mask_of(order[: q.bit_count()]) == q
                assert mask_of(order) == topes and len(order) == topes.bit_count()
                position = {t: i for i, t in enumerate(order)}
                tp = tope_poset(system, base)
                assert all(position[a] < position[b] for a, b in cover_pairs(tp))


def test_shelling_order_walks_the_covers_of_the_all_pairs_tope_poset(all_corpus, a4):
    # the order walked over T(B)'s covers is the oracle's least-first
    # extension of the all-pairs T(B): with no prefix, the whole tope set,
    # and convex sets at a base inside them; at a base outside, both refuse
    for name, system in {**all_corpus, "A4": a4}.items():
        topes = all_topes(system)
        number, vectors = system.numbering(), system.vectors()
        others = bits(topes)[:: max(1, topes.bit_count() // 4)]
        for base in bits(topes)[:: max(1, topes.bit_count() // 12)]:
            tp = tope_poset(system, base)
            opposite = number[vectors[base][::-1]]
            inside = [convex_hull(system, 1 << base | 1 << t) for t in others]
            for q in [0, topes] + inside:
                want = tuple(linear_extension_ideal_first(tp, q or 1 << base))
                assert shelling_order_from_extension(system, base, q) == want, (name, base, q)
            for t in others:
                if t == base:
                    continue
                q = convex_hull(system, 1 << t | 1 << opposite)
                assert not q >> base & 1
                with pytest.raises(PosetError, match="not an order ideal"):
                    linear_extension_ideal_first(tp, q)
                with pytest.raises(PosetError, match="not an order ideal"):
                    shelling_order_from_extension(system, base, q)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_kept_tope_graph_walks_as_the_graph_built_per_call(all_corpus, np14_extension, a4, data):
    # the order walked over the tope graph kept on the system is the one
    # walked over a graph composed afresh per call, at random bases with
    # convex prefixes (halfspaces that contain the base), random tope
    # sets and sets with a covector that is no tope; what one refuses,
    # the other refuses with the same message
    systems = [*all_corpus.values(), *(step.result.extended for step in np14_extension.steps), a4]
    system = data.draw(st.sampled_from(systems))
    topes = bits(all_topes(system))
    base = data.draw(st.sampled_from(topes + [system.numbering()[0, 0], len(system)]))
    kind = data.draw(st.sampled_from(["halfspaces", "halfspaces", "topes", "covectors"]))
    if kind == "halfspaces" and base in topes:
        p, m = system.vectors()[base]
        labels = data.draw(st.sets(st.sampled_from(system.ground)))
        prefix = all_topes(system)
        for label in labels:
            bit = 1 << system.ground.index(label)
            prefix &= halfspace(system, label, 1 if p & bit else -1) if (p | m) & bit else prefix
    else:
        pool = topes if kind == "topes" else range(len(system))
        prefix = mask_of(data.draw(st.lists(st.sampled_from(pool), max_size=6)))

    def outcome(order_of):
        try:
            return order_of(system, base, prefix)
        except (NotATopeError, PosetError) as e:
            return type(e), str(e)

    assert outcome(shelling_order_from_extension) == outcome(shelling_order_by_composition)


def test_convex_first_extension(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    q = fiber_topes(five_planes, x, "+++")
    # an end tope of the fiber string works as the base
    ends = [t for t in bits(q) if max(dist(five_planes, t, r) for r in bits(q)) == 2]
    base = min(ends)  # numbers follow the sign texts
    order = shelling_order_from_extension(five_planes, base, q)
    assert mask_of(order[: q.bit_count()]) == q
    assert order[0] == base
    outside = bits(all_topes(five_planes) & ~q)[0]
    with pytest.raises(ValueError):
        shelling_order_from_extension(five_planes, outside, q)


def test_convex_first_extension_trivial(five_planes):
    topes = all_topes(five_planes)
    base = bits(topes)[0]
    order = shelling_order_from_extension(five_planes, base, 1 << base)
    assert order[0] == base
    order2 = shelling_order_from_extension(five_planes, base, topes)
    assert len(order2) == topes.bit_count()


def test_rank1_shelling(rank1):
    base = rank1.covector_poset().names.index("+")
    order = shelling_order_from_extension(rank1, base)
    poset = sphere_poset(rank1)
    assert verify_shelling(poset, order).ok


def test_uniform23_shellings_all_extensions(uniform23):
    poset = sphere_poset(uniform23)
    for base in bits(all_topes(uniform23)):
        order = shelling_order_from_extension(uniform23, base)
        assert verify_shelling(poset, order).ok


def test_five_planes_shelling_full_depth(five_planes):
    poset = sphere_poset(five_planes)
    for base in bits(all_topes(five_planes))[:4]:
        order = shelling_order_from_extension(five_planes, base)
        assert verify_shelling(poset, order).ok


def square_complex():
    # boundary of a square: 4 vertices, 4 edges
    elements = ["v1", "v2", "v3", "v4", "e12", "e23", "e34", "e41"]
    covers = [
        ("v1", "e12"), ("v2", "e12"),
        ("v2", "e23"), ("v3", "e23"),
        ("v3", "e34"), ("v4", "e34"),
        ("v4", "e41"), ("v1", "e41"),
    ]
    return from_covers(elements, covers)


def shelling(poset, *cells):
    """An order of named cells."""
    return tuple(poset.names.index(c) for c in cells)


def test_square_shelling_orders():
    sq = square_complex()
    good = shelling(sq, "e12", "e23", "e34", "e41")
    assert verify_shelling(sq, good).ok
    bad = shelling(sq, "e12", "e34", "e23", "e41")
    report = verify_shelling(sq, bad)
    assert not report.ok
    assert "position 2" in report.witness
    assert "empty" in report.witness


def annulus_complex():
    # two squares glued along a pair of opposite edges
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
    return from_covers(elements, covers)


def test_condition_two_failure_detected():
    # on the annulus the second cell meets the first in a pure
    # one-dimensional set, so condition (i) holds, but its boundary admits
    # no shelling starting with two non-adjacent edges, so condition (ii)
    # must fail
    annulus = annulus_complex()
    report = verify_shelling(annulus, shelling(annulus, "h", "f"))
    assert not report.ok
    assert report.witness == (
        "condition (ii) fails at position 2: no shelling of the boundary starts with the shared facets"
    )


def test_zero_dimensional_complex_shelling(rank1):
    points = antichain(("p", "q"))
    assert verify_shelling(points, shelling(points, "p", "q")).ok
    # the empty complex has the empty shelling; a nonempty one does not
    assert verify_shelling(from_below([], {}), []) == ShellingReport(True)
    assert not verify_shelling(points, ()).ok


def test_shelling_detects_non_ideal_swap(five_planes):
    base = bits(all_topes(five_planes))[0]
    order = list(shelling_order_from_extension(five_planes, base))
    # move the last tope (the opposite of the base) to the front: breaks (i)
    broken = [order[-1]] + order[:-1]
    report = verify_shelling(sphere_poset(five_planes), broken)
    assert not report.ok
    assert report.witness.startswith("condition (i) fails at position ")


def perturbed_orders(order, rng):
    """The order, its reverse, six random transpositions of it and one
    shuffle."""
    out = [tuple(order), tuple(reversed(order))]
    for _ in range(6):
        swapped = list(order)
        i, j = rng.sample(range(len(order)), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        out.append(tuple(swapped))
    out.append(tuple(rng.sample(order, len(order))))
    return out


def test_shelling_check_equals_the_subposet_oracle(all_corpus):
    # every boundary searched on the host's covers gives the report of the
    # search on a subposet per boundary, verdict and witness
    verdicts = set()
    for name, system in all_corpus.items():
        sphere = sphere_poset(system)
        rng = random.Random(name)
        for base in bits(system.topes()):
            for order in perturbed_orders(shelling_order_from_extension(system, base), rng):
                got = verify_shelling(sphere, order)
                assert got == shelling_by_subposets(sphere, order), (name, base, order)
                verdicts.add(got.ok)
    assert verdicts == {True, False}
    for poset in (square_complex(), annulus_complex(), antichain(("p", "q")), from_below([], {})):
        maximal = bits(poset.maximal_elements())
        for order in [*itertools.permutations(maximal), maximal[:1]]:
            assert verify_shelling(poset, order) == shelling_by_subposets(poset, order), (poset.names, order)


def test_shelling_check_builds_no_poset_once_the_sphere_is_built(monkeypatch, non_pappus):
    # each boundary is an order ideal of the sphere, searched on its covers
    order = shelling_order_from_extension(non_pappus, bits(non_pappus.topes())[0])
    sphere = sphere_poset(non_pappus)
    calls = []
    real_pass, real_subposet = posets._cover_pass, FinitePoset.subposet
    monkeypatch.setattr(posets, "_cover_pass", lambda *a: calls.append("_cover_pass") or real_pass(*a))
    monkeypatch.setattr(FinitePoset, "subposet", lambda *a: calls.append("subposet") or real_subposet(*a))
    assert verify_shelling(sphere, order).ok
    assert calls == []


def test_tope_poset_graded_with_single_flip_covers(all_corpus):
    for name, system in all_corpus.items():
        if system.topes().bit_count() > 24:
            continue
        for base in bits(all_topes(system))[:3]:
            tp = tope_poset(system, base)
            for r, t in cover_pairs(tp):
                assert dist(system, base, t) == dist(system, base, r) + 1, name
                assert dist(system, r, t) == 1, name


def test_subcomplexes(five_planes, braid3):
    # both ideals against their all-pairs definitions on every convex set
    for system in (five_planes, braid3):
        covs = sign_vectors(system)
        topes = [covs[t] for t in bits(system.topes())]
        for q in all_convex_tope_sets(system):
            inside = [covs[t] for t in bits(q)]
            lq = mask_of(i for i, c in enumerate(covs) if any(c.leq(t) for t in inside))
            assert subcomplex_LQ(system, q) == lq
            dual = mask_of(
                i for i, c in enumerate(covs) if all(t in inside for t in topes if c.leq(t))
            )
            assert dual_subcomplex(system, q) == dual == dual_by_complement(system, q)
    topes = all_topes(five_planes)
    everything = five_planes.covector_poset().members
    assert subcomplex_LQ(five_planes, topes) == everything
    assert dual_subcomplex(five_planes, topes) == everything
    assert dual_subcomplex(five_planes, 0) == 0
    with pytest.raises(NotATopeError):
        subcomplex_LQ(five_planes, everything)
    x = five_planes.label_mask({"H1", "H2", "H3"})
    q = fiber_topes(five_planes, x, "+++")
    # the dual subcomplex of the fiber topes is the covector-level fiber
    got = dual_subcomplex(five_planes, q)
    base = SignVector.from_string("+++", five_planes.labels(x))
    fiber = mask_of(c for c, v in enumerate(sign_vectors(five_planes)) if base.leq(v.restrict(x)))
    assert got == fiber

