import itertools

import pytest

from omkit.posets import FinitePoset, PosetError, PosetMap
from omkit.corpus import corpus
from omkit.topes import sphere_poset


def chain_abc():
    return FinitePoset.chain(("a", "b", "c"))


def vee():
    # a < c, b < c
    return FinitePoset(("a", "b", "c"), [("a", "c"), ("b", "c")])


def test_construction_rejects_bad_relations():
    with pytest.raises(PosetError):
        FinitePoset(("a", "b"), [("a", "b"), ("b", "a")])  # antisymmetry
    with pytest.raises(PosetError):
        FinitePoset(("a", "b", "c"), [("a", "b"), ("b", "c")])  # transitivity


def test_covers_chain_antichain_simplex():
    assert chain_abc().covers() == {("a", "b"), ("b", "c")}
    assert FinitePoset.antichain(("a", "b")).covers() == frozenset()
    edge = FinitePoset(("v1", "v2", "e"), [("v1", "e"), ("v2", "e")])
    assert edge.covers() == {("v1", "e"), ("v2", "e")}


def test_order_ideal():
    p = chain_abc()
    assert p.order_ideal({"b"}) == {"a", "b"}
    assert p.order_ideal(p.maximal_elements()) == set(p.elements)
    assert p.order_ideal(set()) == frozenset()
    with pytest.raises(PosetError):
        p.order_ideal({"zz"})


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


def test_linear_extension_ideal_first():
    assert chain_abc().linear_extension_ideal_first({"a"}) == ["a", "b", "c"]
    anti = FinitePoset.antichain(("a", "b"))
    assert anti.linear_extension_ideal_first({"b"}) == ["b", "a"]
    p = vee()
    got = p.linear_extension_ideal_first({"a", "b"})
    assert got in list(brute_force_extensions_with_ideal_first(p, {"a", "b"}))
    assert got == ["a", "b", "c"]  # lexicographic tie-break
    with pytest.raises(PosetError):
        p.linear_extension_ideal_first({"c"})


def test_linear_extension_parts_are_extensions():
    p = vee()
    for ideal in (set(), {"a"}, {"a", "b"}, {"a", "b", "c"}):
        out = p.linear_extension_ideal_first(ideal)
        head, tail = out[: len(ideal)], out[len(ideal):]
        assert set(head) == ideal
        for part in (head, tail):
            for i, x in enumerate(part):
                for y in part[i + 1:]:
                    assert not p.lt(y, x)


def test_order_complex():
    p = FinitePoset.chain(("a", "b"))
    faces = set(p.order_complex().faces)
    assert frozenset({"a", "b"}) in faces
    anti = FinitePoset.antichain(("a", "b"))
    assert anti.order_complex().f_vector() == (2,)


def test_order_complex_counts_match_brute_force():
    # chains counted directly from the relation, for a small mixed poset
    p = FinitePoset(
        ("a", "b", "c", "d"), [("a", "c"), ("b", "c"), ("a", "d"), ("c", "d"), ("b", "d")]
    )
    faces = p.order_complex().by_dimension()
    count = {d: len(fs) for d, fs in faces.items()}
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
            brute[r - 1] = total
    assert count == brute


def test_order_complex_of_reduced_rank1_sphere(rank1):
    poset = sphere_poset(rank1)
    assert poset.order_complex().f_vector() == (2,)  # two points


def test_poset_fiber():
    p = chain_abc()
    ident = PosetMap(p, p, {x: x for x in p.elements})
    assert set(ident.fiber("b").elements) == {"a", "b"}
    single = FinitePoset.antichain(("q",))
    const = PosetMap(p, single, {x: "q" for x in p.elements})
    assert set(const.fiber("q").elements) == set(p.elements)


def test_poset_fiber_of_zero_map(rank1):
    zmap = rank1.big_face_lattice_map()
    atom = "e1"
    fib = zmap.fiber(atom)
    assert set(fib.elements) == {"+", "-", "0"}
    reduced = [x for x in fib.elements if x != "0"]
    assert len(reduced) == 2


def test_dual():
    p = chain_abc()
    d = p.dual()
    assert d.covers() == {("c", "b"), ("b", "a")}
    anti = FinitePoset.antichain(("a", "b"))
    assert anti.dual().pairs() == anti.pairs()
    assert d.dual().pairs() == p.pairs()


def test_dual_involution_on_corpus_poset(five_planes):
    poset = five_planes.covector_poset()
    assert poset.dual().dual().pairs() == poset.pairs()


def test_poset_map_validates():
    p = chain_abc()
    anti = FinitePoset.antichain(("x", "y"))
    with pytest.raises(PosetError):
        PosetMap(p, anti, {"a": "x", "b": "y", "c": "x"})
