import itertools
from collections import Counter

import pytest

from omkit.posets import FinitePoset, PosetError, SimplicialComplexRecord, mask_of
from omkit.corpus import corpus
from omkit.lattices import build_lattice
from omkit.topes import sphere_poset
from poset_builders import PosetMap, antichain, chain_poset, from_covers, order_pairs
from side_lemmas import lattice_poset
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
    with pytest.raises(PosetError, match=r"transitivity fails at \('b', 'c'\)"):
        FinitePoset(("a", "b", "c"), {0: 0, 1: 0b001, 2: 0b010})
    with pytest.raises(PosetError):
        FinitePoset(("b", "a"), {0: 0, 1: 0})  # names out of order
    with pytest.raises(PosetError):
        FinitePoset(("a", "b"), {0: 0b10})  # b is no element


def test_elements_are_numbered_in_name_order():
    p = from_covers(("c", "a", "b"), [("c", "a")])
    assert p.names == ("a", "b", "c")
    assert p.elements == (0, 1, 2)
    assert p.leq(2, 0)
    with pytest.raises(PosetError):
        from_covers(("a",), [("a", "zz")])


def test_covers_chain_antichain_simplex():
    p = chain_abc()
    assert named(p, p.covers()) == {("a", "b"), ("b", "c")}
    assert antichain(("a", "b")).covers() == frozenset()
    edge = from_covers(("v1", "v2", "e"), [("v1", "e"), ("v2", "e")])
    assert named(edge, edge.covers()) == {("v1", "e"), ("v2", "e")}
    assert all(edge.is_cover(x, y) for x, y in edge.covers())
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
    """linear_extension_ideal_first on names."""
    out = poset.linear_extension_ideal_first(mask(poset, ideal))
    return [poset.names[x] for x in out]


def test_linear_extension_ideal_first():
    assert extension(chain_abc(), {"a"}) == ["a", "b", "c"]
    anti = antichain(("a", "b"))
    assert extension(anti, {"b"}) == ["b", "a"]
    p = vee()
    got = p.linear_extension_ideal_first(mask(p, {"a", "b"}))
    ideal = {p.names.index("a"), p.names.index("b")}
    assert got in list(brute_force_extensions_with_ideal_first(p, ideal))
    assert extension(p, {"a", "b"}) == ["a", "b", "c"]  # lexicographic tie-break
    with pytest.raises(PosetError):
        extension(p, {"c"})


def test_linear_extension_parts_are_extensions():
    p = vee()
    for ideal in (set(), {"a"}, {"a", "b"}, {"a", "b", "c"}):
        out = p.linear_extension_ideal_first(mask(p, ideal))
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
    assert named(d, d.covers()) == {("c", "b"), ("b", "a")}
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
