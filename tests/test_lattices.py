import itertools
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import b3_arrangement, braid_arrangement
from omkit.cli import parse_flat
from omkit.lattices import GeometricLattice, build_lattice
from omkit.matroids import (
    CovectorSystem,
    DegenerateArrangementError,
    NotAFlatError,
    RationalArrangement,
    flat_id,
    from_arrangement,
)
from poset_builders import cover_pairs, image
from side_lemmas import (
    brylawski_iso,
    interval_modular_chain,
    join,
    lattice_poset,
    lattice_refusal,
    rank3_modular_coatom_test,
    scan_join,
    scan_mobius,
    scan_ranks,
)


def _poly_product(*factors):
    # multiply polynomials given as coefficient tuples, low degree first
    out = (1,)
    for f in factors:
        new = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] += a * b
        out = tuple(new)
    return out


def test_flat_ids(five_planes):
    ground = five_planes.ground
    assert flat_id(0, ground) == "{}"
    assert flat_id(0b00101, ground) == "H1,H3"
    assert parse_flat("H3, H1", five_planes) == 0b00101
    assert parse_flat("{}", five_planes) == 0
    with pytest.raises(ValueError, match=r"unknown labels: \['H9'\]"):
        parse_flat("H1,H9", five_planes)


def test_flats_are_numbered_by_id(all_corpus):
    for name, system in all_corpus.items():
        lat = build_lattice(system)
        assert list(lat.names) == sorted(flat_id(f, system.ground) for f in lat.flats), name
        assert all(lat.names[lat.index[f]] == flat_id(f, system.ground) for f in lat.flats)
        assert lattice_poset(lat).names == lat.names
        # flats are listed by size, ties by number
        assert list(lat.flats) == sorted(lat.flats, key=lambda f: (f.bit_count(), lat.index[f]))


def test_the_lattice_is_built_once_per_system(all_corpus):
    for name, system in all_corpus.items():
        fresh = CovectorSystem(system.ground, system.vectors())
        lat = build_lattice(fresh)
        assert build_lattice(fresh) is lat, name
        assert lat.flats == build_lattice(system).flats, name


def test_rank1_lattice(rank1):
    lat = build_lattice(rank1)
    assert lat.flats == (0, 1)
    assert lat.whitney() == (1, 1)


def test_boolean3_lattice(boolean3):
    lat = build_lattice(boolean3)
    assert len(lat.flats) == 8  # full subset lattice on three atoms
    assert lat.whitney() == (1, 3, 3, 1)
    chain = lat.is_supersolvable()
    assert chain is not None


def test_five_planes_rank2_flats(five_planes):
    lat = build_lattice(five_planes)
    got = {flat_id(f, five_planes.ground) for f in lat.flats_of_rank(2)}
    assert got == {"H1,H2,H3", "H1,H4,H5", "H2,H4", "H2,H5", "H3,H4", "H3,H5"}


def test_five_planes_whitney_factorization(five_planes):
    lat = build_lattice(five_planes)
    # supersolvable with exponents 1, 2, 2
    assert lat.whitney() == _poly_product((1, 1), (1, 2), (1, 2)) == (1, 5, 8, 4)


def test_modularity(five_planes):
    lat = build_lattice(five_planes)
    flat = five_planes.label_mask
    assert lat.is_modular_flat(flat({"H1", "H2", "H3"})).ok
    x = flat({"H2", "H4"})
    check = lat.is_modular_flat(x)
    assert not check.ok
    z, y = check.witness
    assert not z & ~y
    assert join(lat, z, x & y) != join(lat, z, x) & y
    assert lat.is_modular_flat(0).ok
    assert lat.is_modular_flat(flat(five_planes.ground)).ok
    with pytest.raises(NotAFlatError, match="H1,H4 is not a flat"):
        lat.is_modular_flat(flat({"H1", "H4"}))


def test_rank3_criterion_matches_definition(five_planes, braid3, non_pappus):
    for system in (five_planes, braid3, non_pappus):
        lat = build_lattice(system)
        for x in lat.flats_of_rank(2):
            assert rank3_modular_coatom_test(lat, x) == lat.is_modular_flat(x).ok


def test_rank3_criterion_specific_cases(five_planes):
    lat = build_lattice(five_planes)
    flat = five_planes.label_mask
    assert rank3_modular_coatom_test(lat, flat({"H1", "H2", "H3"}))
    assert rank3_modular_coatom_test(lat, flat({"H1", "H4", "H5"}))
    assert not rank3_modular_coatom_test(lat, flat({"H2", "H4"}))


def test_supersolvable_five_planes(five_planes):
    lat = build_lattice(five_planes)
    chain = lat.is_supersolvable()
    ids = [flat_id(f, five_planes.ground) for f in chain]
    assert ids == ["{}", "H1", "H1,H2,H3", "H1,H2,H3,H4,H5"]
    sizes = [(b & ~a).bit_count() for a, b in zip(chain, chain[1:])]
    assert all(s >= 1 for s in sizes)
    assert sum(sizes) == len(five_planes.ground)


def test_not_supersolvable(non_pappus):
    lat = build_lattice(non_pappus)
    assert lat.is_supersolvable() is None


def test_uniform_rank3_not_supersolvable():
    # six generic planes (moment-curve normals): every rank-2 flat is a
    # pair, so no line can meet all others
    forms = [(1, t, t * t) for t in range(1, 7)]
    system = from_arrangement(
        RationalArrangement(tuple(f"e{t}" for t in range(1, 7)), forms)
    )
    lat = build_lattice(system)
    assert lat.rank() == 3
    assert all(f.bit_count() == 2 for f in lat.flats_of_rank(2))
    assert lat.is_supersolvable() is None


def relabelled_a4():
    """A_4 with the rows of `braid_arrangement(5)` in another order,
    relabelled H1 to H10 in that order."""
    arr = braid_arrangement(5)
    rows = [arr.forms[i] for i in (1, 9, 4, 6, 2, 8, 3, 0, 7, 5)]
    return from_arrangement(RationalArrangement(arr.labels, rows))


def test_the_chain_search_skips_a_non_modular_flat_below_the_top():
    # the first rank-2 candidate below the chain's rank-3 flat is the
    # line H1,H2, which is not modular; a search that checks modularity
    # only among the coatoms of the whole lattice would take it
    system = relabelled_a4()
    lat = build_lattice(system)
    chain = lat.is_supersolvable()
    assert [flat_id(f, system.ground) for f in chain] == [
        "{}",
        "H1",
        "H1,H5,H9",
        "H1,H2,H5,H6,H7,H9",
        "H1,H2,H3,H4,H5,H6,H7,H8,H9,H10",
    ]
    line = system.label_mask({"H1", "H2"})
    below = (f for f in lat.flats_of_rank(2) if not f & ~chain[3])
    assert min(below, key=lat.index.__getitem__) == line
    assert not lat.is_modular_flat(line).ok


def assert_the_chain_is_the_interval_search(system):
    lat = build_lattice(system)
    chain = lat.is_supersolvable()
    assert chain == interval_modular_chain(lat), system.ground
    assert chain is None or all(lat.is_modular_flat(f).ok for f in chain)


def test_the_chain_is_the_interval_search(all_corpus, np14_extension, a4):
    """The chain checked once per flat over the whole lattice is the
    chain of the search inside intervals with its whole-chain re-check:
    on the corpus, every step of the non-pappus loop (np14 last), A_4,
    the relabelled A_4 and B_3."""
    systems = [*all_corpus.values(), *(step.result.extended for step in np14_extension.steps)]
    systems += [a4, relabelled_a4(), from_arrangement(b3_arrangement())]
    for system in systems:
        assert_the_chain_is_the_interval_search(system)


def brute_force_supersolvable(lat):
    modular = {f for f in lat.flats if lat.is_modular_flat(f).ok}
    r = lat.rank()
    for chain in itertools.permutations(
        [f for f in lat.flats if 0 < lat.rank_of[f] < r], r - 1
    ):
        flats = [0, *chain, (1 << len(lat.ground)) - 1]
        if all(a != b and not a & ~b for a, b in zip(flats, flats[1:])) and all(
            lat.rank_of[f] == i for i, f in enumerate(flats)
        ):
            if all(f in modular for f in flats):
                return True
    return False


def test_supersolvable_against_brute_force(all_corpus):
    for name, system in all_corpus.items():
        lat = build_lattice(system)
        assert (lat.is_supersolvable() is not None) == brute_force_supersolvable(lat), name


def test_brylawski_iso(five_planes):
    lat = build_lattice(five_planes)
    x = five_planes.label_mask({"H1", "H2", "H3"})
    y = five_planes.label_mask({"H4"})
    p_x, s_y = brylawski_iso(lat, x, y)
    # [Y, X v Y] is the interval from H4 up to everything
    assert len(p_x.source) == len(p_x.target)
    bottom = p_x.target.names.index("{}")
    atoms_above = [
        f
        for f in p_x.target.elements
        if f != bottom and (bottom, f) in cover_pairs(p_x.target)
    ]
    assert len(atoms_above) == 3  # the interval below X has three atoms
    # degenerate cases are identities
    p_id, s_id = brylawski_iso(lat, x, x)
    assert all(p_id.assignment[e] == e for e in p_id.source.elements)
    p0, s0 = brylawski_iso(lat, x, 0)
    assert all(p0.assignment[e] == e for e in p0.source.elements)


def test_brylawski_requires_modular(five_planes):
    lat = build_lattice(five_planes)
    with pytest.raises(ValueError, match="H2,H4 is not modular; witness Z="):
        brylawski_iso(lat, five_planes.label_mask({"H2", "H4"}), five_planes.label_mask({"H1"}))


def test_brylawski_bijective_everywhere(five_planes):
    lat = build_lattice(five_planes)
    for x in lat.flats:
        if not lat.is_modular_flat(x).ok:
            continue
        for y in lat.flats:
            p_x, s_y = brylawski_iso(lat, x, y)
            assert image(p_x) == p_x.target.members
            assert image(s_y) == s_y.target.members


def test_zaslavsky_on_corpus(all_corpus):
    for name, system in all_corpus.items():
        lat = build_lattice(system)
        assert sum(lat.whitney()) == system.topes().bit_count(), name


def assert_join_is_the_scan(lat):
    for a in lat.flats:
        for b in lat.flats:
            assert join(lat, a, b) == scan_join(lat.flats, a, b), (a, b)


def test_join_is_the_scan_on_the_corpus_and_a4(all_corpus):
    a4 = from_arrangement(braid_arrangement(5))
    for system in [*all_corpus.values(), a4]:
        assert_join_is_the_scan(build_lattice(system))
    assert len(build_lattice(a4).flats) == 52  # the partitions of five points


@st.composite
def six_form_arrangements(draw):
    """Six pairwise independent integer forms on R^3, entries in [-2, 2]."""
    entry = st.integers(min_value=-2, max_value=2)
    forms = draw(st.lists(st.tuples(entry, entry, entry), min_size=6, max_size=6))
    try:
        return RationalArrangement(tuple(f"h{i + 1}" for i in range(6)), forms)
    except DegenerateArrangementError:
        assume(False)


@given(six_form_arrangements())
@settings(max_examples=30, deadline=None)
def test_join_is_the_scan_on_six_form_arrangements(arrangement):
    assert_join_is_the_scan(build_lattice(from_arrangement(arrangement)))


@given(six_form_arrangements())
@settings(max_examples=30, deadline=None)
def test_the_chain_is_the_interval_search_on_six_form_arrangements(arrangement):
    assert_the_chain_is_the_interval_search(from_arrangement(arrangement))


@st.composite
def families_with_bottom_and_top(draw):
    """A ground of at most five labels and a family of its subsets that
    holds the empty set and the ground, closed under intersection unless
    the draw says otherwise."""
    n = draw(st.integers(min_value=0, max_value=5))
    full = (1 << n) - 1
    family = {0, full} | set(draw(st.lists(st.integers(min_value=0, max_value=full), max_size=8)))
    close = draw(st.booleans())
    while close:
        meets = {x & y for x in family for y in family}
        close = not meets <= family
        family |= meets
    return tuple("abcde"[:n]), family


# the pentagon: {} < a < a,b < a,b,c and {} < c < a,b,c, not semimodular at a, c
@example((("a", "b", "c"), {0, 0b001, 0b011, 0b100, 0b111}))
# a,b ^ b,c = b is missing
@example((("a", "b", "c"), {0, 0b011, 0b110, 0b111}))
@given(families_with_bottom_and_top())
@settings(max_examples=300, deadline=None)
def test_join_table_is_the_scan_and_semimodularity_is_checked(ground_family):
    """The one-pass constructor against the scans: the first missing meet
    is refused before the first semimodularity failure, and a lattice it
    builds has the scan's ranks, Moebius values, Whitney numbers and joins."""
    ground, family = ground_family
    refusal = lattice_refusal(ground, family)
    if refusal is None:
        lat = GeometricLattice(ground, family)
        flats = sorted(family, key=lambda f: (f.bit_count(), flat_id(f, ground)))
        assert lat.flats == tuple(flats)
        rank, mob = scan_ranks(flats), scan_mobius(flats)
        assert lat.rank_of == rank
        assert lat.mobius == mob
        whitney = [0] * (rank[(1 << len(ground)) - 1] + 1)
        for f in flats:
            whitney[rank[f]] += abs(mob[f])
        assert lat.whitney() == tuple(whitney)
        assert_join_is_the_scan(lat)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            GeometricLattice(ground, family)
