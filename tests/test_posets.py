import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from omkit.posets import FinitePoset, PosetError, SimplicialComplexRecord, _cover_pass, bits, mask_of
from omkit.corpus import corpus
from omkit.lattices import build_lattice
from omkit.topes import sphere_poset
from poset_builders import PosetMap, antichain, chain_poset, cover_pairs, from_below, from_covers, order_pairs
from poset_oracle import checked_above, peeled_heights, scanned_covers
from side_lemmas import is_ideal, lattice_poset, linear_extension_ideal_first
from simplicial_oracle import from_facets


def chain_abc():
    return chain_poset(("a", "b", "c"))


def vee():
    # a < c, b < c
    return from_covers(("a", "b", "c"), [("a", "c"), ("b", "c")])


def named(poset, pairs):
    """Integer pairs of a poset, by name."""
    return {(poset.names[x], poset.names[y]) for x, y in pairs}


def mask(poset, names):
    return mask_of(poset.names.index(n) for n in names)


def test_construction_rejects_bad_relations():
    with pytest.raises(PosetError, match=r"antisymmetry fails at 'a': \['a', 'b'\]"):
        from_covers(("a", "b"), [("a", "b"), ("b", "a")])


def test_elements_are_numbered_in_name_order():
    p = from_covers(("c", "a", "b"), [("c", "a")])
    assert p.names == ("a", "b", "c")
    assert p.elements == (0, 1, 2)
    assert p.leq(2, 0)
    with pytest.raises(PosetError):
        from_covers(("a",), [("a", "zz")])


def test_covers_chain_antichain_simplex():
    p = chain_abc()
    assert named(p, cover_pairs(p)) == {("a", "b"), ("b", "c")}
    assert cover_pairs(antichain(("a", "b"))) == frozenset()
    edge = from_covers(("v1", "v2", "e"), [("v1", "e"), ("v2", "e")])
    assert named(edge, cover_pairs(edge)) == {("v1", "e"), ("v2", "e")}
    assert all(edge.is_cover(x, y) for x, y in cover_pairs(edge))
    assert not edge.is_cover(edge.names.index("e"), edge.names.index("v1"))


def test_order_ideal():
    p = chain_abc()
    assert p.order_ideal(mask(p, {"b"})) == mask(p, {"a", "b"})
    assert p.order_ideal(p.maximal_elements()) == p.members
    assert p.order_ideal(0) == 0
    with pytest.raises(PosetError):
        p.order_ideal(1 << 5)


def brute_force_extensions_with_ideal_first(poset, ideal):
    for perm in itertools.permutations(poset.elements):
        ok = all(
            perm.index(x) < perm.index(y)
            for x in poset.elements
            for y in poset.elements
            if x != y and poset.leq(x, y)
        )
        if ok and all(
            perm.index(i) < perm.index(o)
            for i in ideal
            for o in set(poset.elements) - set(ideal)
        ):
            yield list(perm)


def extension(poset, ideal):
    """The oracle linear_extension_ideal_first on names."""
    out = linear_extension_ideal_first(poset, mask(poset, ideal))
    return [poset.names[x] for x in out]


def test_linear_extension_ideal_first():
    assert extension(chain_abc(), {"a"}) == ["a", "b", "c"]
    anti = antichain(("a", "b"))
    assert extension(anti, {"b"}) == ["b", "a"]
    p = vee()
    got = linear_extension_ideal_first(p, mask(p, {"a", "b"}))
    ideal = {p.names.index("a"), p.names.index("b")}
    assert got in list(brute_force_extensions_with_ideal_first(p, ideal))
    assert extension(p, {"a", "b"}) == ["a", "b", "c"]  # lexicographic tie-break
    with pytest.raises(PosetError):
        extension(p, {"c"})


def test_linear_extension_parts_are_extensions():
    p = vee()
    for ideal in (set(), {"a"}, {"a", "b"}, {"a", "b", "c"}):
        out = linear_extension_ideal_first(p, mask(p, ideal))
        head, tail = out[: len(ideal)], out[len(ideal):]
        assert {p.names[x] for x in head} == ideal
        for part in (head, tail):
            for i, x in enumerate(part):
                for y in part[i + 1:]:
                    assert not p.leq(y, x)


def faces_by_size(complex_record):
    return Counter(len(f) for f in complex_record.faces)


def test_order_complex():
    p = chain_poset(("a", "b"))
    faces = set(p.order_complex().faces)
    assert frozenset({p.names.index("a"), p.names.index("b")}) in faces
    anti = antichain(("a", "b"))
    assert faces_by_size(anti.order_complex()) == {1: 2}


def test_order_complex_counts_match_brute_force():
    # chains counted directly from the relation, for a small mixed poset
    p = from_covers(
        ("a", "b", "c", "d"), [("a", "c"), ("b", "c"), ("a", "d"), ("c", "d"), ("b", "d")]
    )
    count = faces_by_size(p.order_complex())
    brute = {}
    elems = p.elements
    for r in range(1, len(elems) + 1):
        total = 0
        for combo in itertools.combinations(elems, r):
            if all(
                p.leq(x, y) or p.leq(y, x) for x, y in itertools.combinations(combo, 2)
            ):
                total += 1
        if total:
            brute[r] = total
    assert count == brute


def test_order_complex_of_reduced_rank1_sphere(rank1):
    poset = sphere_poset(rank1)
    assert faces_by_size(poset.order_complex()) == {1: 2}  # two points


def test_face_list_must_be_closed_under_subsets():
    with pytest.raises(ValueError, match=r"missing \['b'\]"):
        SimplicialComplexRecord("ab", [frozenset("a"), frozenset("ab")])
    with pytest.raises(ValueError, match="unknown vertices"):
        SimplicialComplexRecord("a", [frozenset("b")])


def test_from_facets_is_the_face_poset():
    # every face, named by its sorted vertices, over the faces one vertex smaller
    facets = [["b", "a", "c"], ["c", "d"], ["a", "b"], ["e"], ["d", "c"]]
    faces = {frozenset(f) for facet in facets for k in (1, 2, 3) for f in itertools.combinations(facet, k)}
    name = {f: ",".join(sorted(f)) for f in faces}
    covers = [(name[f - {v}], name[f]) for f in faces if len(f) > 1 for v in f]
    expect = from_covers(name.values(), covers)
    poset = from_facets(facets)
    assert poset.names == expect.names == ("a", "a,b", "a,b,c", "a,c", "b", "b,c", "c", "c,d", "d", "e")
    assert order_pairs(poset) == order_pairs(expect)
    assert len(from_facets([])) == 0


def test_poset_fiber():
    p = chain_abc()
    ident = PosetMap(p, p, {x: x for x in p.elements})
    assert ident.fiber(p.names.index("b")).members == mask(p, {"a", "b"})
    single = antichain(("q",))
    const = PosetMap(p, single, {x: 0 for x in p.elements})
    assert const.fiber(0).members == p.members


def test_poset_fiber_of_zero_map(rank1):
    # z sends a covector (in the dual order) to its zero set
    lat = build_lattice(rank1)
    zero_set = {i: lat.index[rank1.zero_set(i)] for i in range(len(rank1))}
    zmap = PosetMap(rank1.covector_poset().dual(), lattice_poset(lat), zero_set)
    atom = zmap.target.names.index("e1")
    fib = zmap.fiber(atom)
    assert fib.names_of(fib.members) == ["+", "-", "0"]
    reduced = [x for x in fib.elements if fib.names[x] != "0"]
    assert len(reduced) == 2


def test_dual():
    p = chain_abc()
    d = p.dual()
    assert named(d, cover_pairs(d)) == {("c", "b"), ("b", "a")}
    anti = antichain(("a", "b"))
    assert order_pairs(anti.dual()) == order_pairs(anti)
    assert order_pairs(d.dual()) == order_pairs(p)


def test_dual_involution_on_corpus_poset(five_planes):
    poset = five_planes.covector_poset()
    assert order_pairs(poset.dual().dual()) == order_pairs(poset)


def test_poset_map_validates():
    p = chain_abc()
    anti = antichain(("x", "y"))
    with pytest.raises(PosetError):
        PosetMap(p, anti, {0: 0, 1: 1, 2: 0})  # a -> x, b -> y, c -> x


# -- the cover pass against the per-pair scans -----------------------------


def oracle_skipping_cover(poset):
    """The first cover that skips a height, by (height, element) of its
    top, and its highest such bottom, from the oracle covers and heights."""
    heights = peeled_heights(poset)
    skips = [
        (heights[y], y, heights[x], x)
        for x, y in scanned_covers(poset)
        if heights[x] != heights[y] - 1
    ]
    if not skips:
        return None
    y = min(skips)[1]
    return max((hx, x) for _, yy, hx, x in skips if yy == y)[1], y


def assert_matches_the_oracles(poset):
    covers = scanned_covers(poset)
    assert cover_pairs(poset) == covers
    assert poset.heights() == peeled_heights(poset)
    for y in poset.elements:
        assert poset.lower_covers(y) == tuple(sorted(x for x, yy in covers if yy == y))
    assert poset.skipping_cover() == oracle_skipping_cover(poset)


@st.composite
def relations(draw):
    """Names and below masks: an arbitrary relation, the transitive
    closure of a DAG on shuffled numbers, or such a closure with one pair
    added or taken away."""
    n = draw(st.integers(0, 7))
    names = tuple(f"e{i}" for i in range(n))
    members = draw(st.lists(st.sampled_from(range(n)), unique=True)) if n else []
    kind = draw(st.sampled_from(("relation", "closure", "corrupted")))
    if kind == "relation":
        return names, {y: draw(st.sampled_from([mask_of(s) for s in powerset(members)])) for y in members}
    order = draw(st.permutations(members))
    below = {y: 0 for y in members}
    for j, y in enumerate(order):
        for x in order[:j]:
            if draw(st.booleans()):
                below[y] |= below[x] | 1 << x
    if kind == "corrupted" and members:
        y, x = draw(st.sampled_from(members)), draw(st.sampled_from(members))
        below[y] ^= 1 << x
    return names, below


def powerset(items):
    return [c for r in range(len(items) + 1) for c in itertools.combinations(items, r)]


@settings(max_examples=400, deadline=None)
@given(relations(), st.data())
def test_cover_pass_agrees_with_the_pair_scan(relation, data):
    names, below = relation
    lo = [0] * len(names)
    for y, m in below.items():
        lo[y] = m | 1 << y
    try:
        above = checked_above(names, below)
    except PosetError:
        assert _cover_pass(lo, below) is None
        return
    assert _cover_pass(lo, below) is not None
    poset = from_below(names, below)
    assert [poset.dual().below(x) for x in poset.elements] == [above[x] for x in poset.elements]
    assert_matches_the_oracles(poset)
    assert_matches_the_oracles(poset.dual())
    # an order ideal inherits its covers and heights; any other subposet
    # runs the cover pass
    picked = mask_of(data.draw(st.lists(st.sampled_from(poset.elements), unique=True))) if len(poset) else 0
    for sub in (poset.order_ideal(picked), picked):
        assert_matches_the_oracles(poset.subposet(sub))
        assert_matches_the_oracles(poset.subposet(sub).dual())


@settings(max_examples=300, deadline=None)
@given(relations(), st.data())
def test_covers_first_is_the_mask_build(relation, data):
    names, below = relation
    try:
        poset = from_below(names, below)
    except PosetError:
        return
    # renumbered onto its members, walked by height, ties in a drawn order
    members = poset.elements
    new = {x: i for i, x in enumerate(members)}
    heights = poset.heights()
    walk = sorted(data.draw(st.permutations(members)), key=heights.__getitem__)
    covers = {new[y]: tuple(new[x] for x in poset.lower_covers(y)) for y in walk}
    walked = FinitePoset.from_covers([names[x] for x in members], covers)
    assert [walked.lower_covers(i) for i in walked.elements] == [
        tuple(new[x] for x in poset.lower_covers(y)) for y in members
    ]
    assert list(walked.heights().values()) == [heights[y] for y in members]
    assert walked.skipping_cover() == (
        None if poset.skipping_cover() is None else tuple(new[x] for x in poset.skipping_cover())
    )
    assert [walked.below(i) for i in walked.elements] == [
        mask_of(new[x] for x in bits(poset.below(y))) for y in members
    ]
    assert [walked.dual().below(i) for i in walked.elements] == [
        mask_of(new[x] for x in bits(poset.dual().below(y))) for y in members
    ]


@pytest.mark.parametrize(
    "covers, message",
    [
        ({0: (), 1: (2,), 2: (1,)}, "the cover 'c' of 'b' is not walked before it"),
        ({0: (0,), 1: (), 2: ()}, "the cover 'a' of 'a' is not walked before it"),
        ({0: (), 1: (), 2: (1, 0)}, "the covers of 'c' are not increasing: 'b', 'a'"),
        ({0: (), 1: (), 2: (0, 0)}, "the covers of 'c' are not increasing: 'a', 'a'"),
        ({0: (), 1: (), 2: (-1,)}, "a cover of 'c' has no name: -1"),
        ({0: (), 1: (), 2: (3,)}, "a cover of 'c' has no name: 3"),
        ({0: (), 1: (), 3: ()}, "element 3 has no name"),
        ({0: (), 2: ()}, "'b' is not walked"),
        ({0: (), 1: (0,), 2: (0, 1)}, "'a' is no cover of 'c': it lies below 'b'"),
    ],
    ids=["cycle", "loop", "decreasing", "repeated", "negative", "unknown", "unnamed", "unwalked", "implied"],
)
def test_covers_first_refuses_what_is_no_cover_relation(covers, message):
    with pytest.raises(PosetError, match=re.escape(message)):
        FinitePoset.from_covers(("a", "b", "c"), covers)


def test_skipping_cover_names_the_first_top_and_its_highest_bottom():
    assert chain_abc().skipping_cover() is None
    # s, at height 3, covers r at height 2 and skips over n and t, at
    # heights 1 and 0: n is named
    tower = [("p", "q"), ("q", "r"), ("r", "s"), ("t", "s"), ("m", "n"), ("n", "s")]
    p = from_covers("mnpqrst", tower)
    assert [p.names[x] for x in p.skipping_cover()] == ["n", "s"]
    # c, at height 2, skips over d, and comes before s
    q = from_covers("abcdmnpqrst", tower + [("a", "b"), ("b", "c"), ("d", "c")])
    assert [q.names[x] for x in q.skipping_cover()] == ["d", "c"]


def test_a_subposet_that_is_no_ideal_finds_its_own_covers(five_planes):
    # an ideal below some topes, without zero: a ball of the sphere
    poset = five_planes.covector_poset()
    zero = 1 << five_planes.numbering()[0, 0]
    ball = poset.subposet(poset.order_ideal(mask_of(bits(five_planes.topes())[:3])) & ~zero)
    assert not is_ideal(poset, ball.members)
    assert ball.heights() == {x: h - 1 for x, h in poset.heights().items() if x in ball}
    assert_matches_the_oracles(ball)
