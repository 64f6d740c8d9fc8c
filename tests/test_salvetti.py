import io
import random
import sys

import pytest

import omkit.salvetti
from conftest import sign_vectors
from omkit import posets
from omkit.cli import main
from omkit.corpus import CORPUS_NAMES, corpus
from omkit.homology import quasi_fibration_certify
from omkit.lattices import GeometricLattice, build_lattice
from omkit.matroids import CovectorSystem, NotAFlatError
from omkit.morse import check_patchwork
from omkit.omfile import format_system
from omkit.salvetti import SalvettiPoset, salvetti_localization, stratify_fiber
from omkit.posets import FinitePoset, PosetError, bits, mask_of
from omkit.signs import compose_masks
from omkit.topes import sphere_poset
from poset_builders import PosetMap, from_below, order_pairs
from side_lemmas import (
    direct_salvetti_below,
    fiber_poset,
    fiber_rank2_model,
    fibers_by_cover_gather,
    fibers_by_preimage_sums,
    is_ideal,
    localization_section,
    localization_square_commutes,
    principal_ideal_iso,
    tope_poset,
)


def tope_numbers(system):
    """The topes by number, which is their sign-text order."""
    return bits(system.covector_poset().maximal_elements())


def anchor_numbers(system, x):
    """The covectors (by number) whose zero set is the flat x."""
    return [c for c in range(len(system)) if system.zero_set(c) == x]


def definition_order(system):
    """The Salvetti order straight from its definition, over all pairs of
    cells: (sigma, T) <= (tau, R) iff sigma >= tau and sigma o R = T."""
    covs = sign_vectors(system)
    topes = [t for t in covs if not any(t != d and t.leq(d) for d in covs)]
    cells = [(c, t) for t in topes for c in covs if c.leq(t)]
    return frozenset(
        (f"({sigma};{t})", f"({tau};{r})")
        for sigma, t in cells
        for tau, r in cells
        if tau.leq(sigma) and sigma.compose(r) == t
    )


def named(poset, pairs):
    return {(poset.names[x], poset.names[y]) for x, y in pairs}


def test_salvetti_order_matches_definition(all_corpus, five_planes):
    for name, system in all_corpus.items():
        poset = SalvettiPoset(system).poset
        assert named(poset, order_pairs(poset)) == definition_order(system), name
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    assert named(loc.target.poset, order_pairs(loc.target.poset)) == definition_order(loc.localized)


def definition_rank(covs):
    """Length of a longest chain, by scanning every pair of covectors."""
    best = {}
    for c in sorted(covs, key=lambda c: bin(c.support_mask).count("1")):
        best[c] = max((best[d] + 1 for d in best if d != c and d.leq(c)), default=0)
    return max(best.values(), default=0)


def test_covector_poset_is_built_once_and_its_views_match_definition(all_corpus):
    # the ROADMAP 4(b) probe is no covector system, but it is a poset
    probe = CovectorSystem.from_strings("abc", ["000", "+++", "---", "++0"])
    for name, system in [*all_corpus.items(), ("4(b) probe", probe)]:
        # the text form, the axiom check, the lattice and localization need no order
        fresh = CovectorSystem(system.ground, system.vectors())
        format_system(fresh)
        fresh.check_axioms()
        build_lattice(fresh)
        for flat in {fresh.zero_set(c) for c in range(len(fresh))}:
            fresh.localization(flat)
        assert fresh._poset is None, name
        poset = system.covector_poset()
        assert system.covector_poset() is poset, name
        covs = sign_vectors(system)
        order = {(str(a), str(b)) for a in covs for b in covs if a.leq(b)}
        assert named(poset, order_pairs(poset)) == order, name
        assert named(poset, order_pairs(poset.dual())) == {(b, a) for a, b in order}, name
        zero = "0" * len(system.ground)
        sphere = {(a, b) for a, b in order if zero not in (a, b)}
        assert named(poset, order_pairs(sphere_poset(system))) == sphere, name
        topes = mask_of(
            i for i, c in enumerate(covs) if not any(c != d and c.leq(d) for d in covs)
        )
        assert system.topes() == topes, name
        assert system.rank() == definition_rank(covs), name
        nonzero = [c for c in covs if c.support_mask]
        cocircuits = mask_of(
            i
            for i, c in enumerate(covs)
            if c.support_mask and not any(d != c and d.leq(c) for d in nonzero)
        )
        assert system.cocircuits() == cocircuits, name
    assert probe.rank() == 2
    assert probe.covector_poset().names_of(probe.cocircuits()) == ["++0", "---"]


def assert_numbered_by_name(poset):
    """Element order is the sorted order of the element names."""
    named = [poset.names[x] for x in poset.elements]
    assert named == sorted(named)
    assert len(set(named)) == len(named)


def induced(pairs, mask):
    """The relation restricted to a mask, from the relation alone."""
    return {(x, y) for x, y in pairs if mask >> x & 1 and mask >> y & 1}


def assert_views_match_relation(poset):
    """subposet and order_ideal against their definitions from pairs()."""
    pairs = order_pairs(poset)
    for step in (2, 3):
        mask = mask_of(poset.elements[::step])
        sub = poset.subposet(mask)
        assert sub.members == mask
        assert order_pairs(sub) == induced(pairs, mask)
        assert_numbered_by_name(sub)
        ideal = {x for x, y in pairs if mask >> y & 1}
        assert poset.order_ideal(mask) == mask_of(ideal)


def test_numbering_follows_names_on_the_corpus(all_corpus):
    for name, system in all_corpus.items():
        base = bits(system.covector_poset().maximal_elements())[0]
        salv = SalvettiPoset(system)
        names = system.covector_poset().names
        assert [f"({names[c]};{names[t]})" for c, t in salv.keys] == list(salv.poset.names), name
        assert all(salv.index[key] == k for k, key in enumerate(salv.keys)), name
        for poset in (system.covector_poset(), salv.poset, tope_poset(system, base)):
            assert_numbered_by_name(poset)
            assert_views_match_relation(poset)
        assert [str(v) for v in sign_vectors(system)] == list(system.covector_poset().names)


def test_numbering_follows_names_on_the_localization(five_planes):
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    for poset in (loc.source.poset, loc.target.poset):
        assert_numbered_by_name(poset)
        assert_views_match_relation(poset)
    # rho and the cell map as reference poset maps, which check that they
    # are order preserving
    rho = PosetMap(five_planes.covector_poset(), loc.localized.covector_poset(), dict(enumerate(loc.rho)))
    cells = PosetMap(loc.source.poset, loc.target.poset, dict(enumerate(loc.cells)))
    for pmap in (cells, rho):
        source_pairs, target_pairs = order_pairs(pmap.source), order_pairs(pmap.target)
        for q in pmap.target.elements:
            over = mask_of(x for x in pmap.source.elements if (pmap(x), q) in target_pairs)
            fiber = pmap.fiber(q)
            assert fiber.members == over
            assert order_pairs(fiber) == induced(source_pairs, over)
            assert_numbered_by_name(fiber)
            if pmap is cells:
                assert mask_of(loc.fiber(q)) == over
                assert order_pairs(fiber_poset(loc, q)) == order_pairs(fiber)


def test_salvetti_refuses_a_composition_outside_the_system():
    # the opposite of ++0 is missing, so ++0 o --- = ++- is no covector
    system = CovectorSystem.from_strings("abc", ["000", "+++", "---", "++0"])
    with pytest.raises(ValueError, match=r"composition \+\+0 o --- = \+\+- is not a covector"):
        SalvettiPoset(system)


def test_salvetti_ideals_are_the_direct_loop(all_corpus, np14, a4):
    for name, system in [*all_corpus.items(), ("np14", np14), ("A4", a4)]:
        salv = SalvettiPoset(system)
        direct = direct_salvetti_below(system)
        assert len(direct) == len(salv), name
        for k in range(len(salv)):
            assert salv.poset.below(k) == direct[k], (name, salv.poset.names[k])
        # covers first: the covers, heights and gradedness the mask build
        # finds, and the masks derived from them
        masked = from_below(salv.poset.names, direct)
        poset = salv.poset
        assert [poset.lower_covers(k) for k in poset.elements] == [masked.lower_covers(k) for k in masked.elements], name
        assert poset.heights() == masked.heights(), name
        assert poset.skipping_cover() is masked.skipping_cover() is None, name
        assert [poset.dual().below(k) for k in poset.elements] == [
            masked.dual().below(k) for k in masked.elements
        ], name


def modular_coatoms(system):
    lat = build_lattice(system)
    return [x for x in lat.flats if lat.rank_of[x] == lat.rank() - 1 and lat.is_modular_flat(x).ok]


def ideal_mismatch(salv):
    """The first cell whose `ideal` is not the cells its mask holds, or None."""
    return next((k for k in range(len(salv)) if salv.ideal(k) != bits(salv.poset.below(k))), None)


REAL_IDEAL = SalvettiPoset.ideal


def ideal_composing_backwards(self, cell):
    """A broken `ideal`: the tope of the cell on H read as R o H."""
    (g, r), vectors, number = self.keys[cell], self.system.vectors(), self.system.numbering()
    up = bits(self.system.covector_poset().dual().below(g))
    return [self.index.get((h, number.get(compose_masks(*vectors[r], *vectors[h])))) for h in up]


def ideal_strictly_above(self, cell):
    """A broken `ideal`: only the H > G, so without the cell itself."""
    return [k for k in REAL_IDEAL(self, cell) if self.keys[k][0] != self.keys[cell][0]]


def test_the_sign_rule_reads_the_order_the_masks_hold(all_corpus, np14, a4):
    # the (H, H o R) for H >= G are the cells below (G, R), on each Salvetti
    # poset and on its target at each modular coatom
    for name, system in (
        ("sec3", all_corpus["sec3-arrangement"]), ("braid3", all_corpus["braid3"]), ("np14", np14), ("A4", a4)
    ):
        coatoms = modular_coatoms(system)
        assert coatoms, name
        for salv in [SalvettiPoset(system)] + [SalvettiPoset(system.localization(x)[0]) for x in coatoms]:
            assert ideal_mismatch(salv) is None, name


@pytest.mark.parametrize("mutant", [ideal_composing_backwards, ideal_strictly_above], ids=["r-o-h", "h-above-g"])
def test_the_sign_rule_oracle_refuses_a_broken_ideal(monkeypatch, braid3, mutant):
    monkeypatch.setattr(SalvettiPoset, "ideal", mutant)
    assert ideal_mismatch(SalvettiPoset(braid3)) is not None
    assert ideal_mismatch(SalvettiPoset(braid3.localization(modular_coatoms(braid3)[0])[0])) is not None


def upper_covers_patched(monkeypatch, system, edit):
    """Patch the upper covers the Salvetti build reads off the system's
    dual covector poset: covector g gets `edit(g, its upper covers)`."""
    dual = system.covector_poset().dual()
    real = FinitePoset.lower_covers

    def lower_covers(self, y):
        return edit(y, real(self, y)) if self is dual else real(self, y)

    monkeypatch.setattr(FinitePoset, "lower_covers", lower_covers)
    return dual


def test_salvetti_refuses_a_minimal_cell_that_is_no_tope_pair(monkeypatch, braid3):
    # a cell (G, R) with G != R that loses its covers is minimal
    lost = next(g for g in braid3.covector_poset().elements if not braid3.topes() >> g & 1)
    upper_covers_patched(monkeypatch, braid3, lambda g, ups: () if g == lost else ups)
    with pytest.raises(AssertionError, match=r"minimal cells are not the \(T, T\)"):
        SalvettiPoset(braid3)


def test_salvetti_refuses_a_maximal_cell_off_the_zero_vector(monkeypatch, braid3):
    # a cell (G, R) with G != 0 that is no other cell's cover is maximal:
    # here (T, T), for a tope T no covector has as an upper cover
    tope = bits(braid3.topes())[0]
    upper_covers_patched(monkeypatch, braid3, lambda g, ups: tuple(u for u in ups if u != tope))
    with pytest.raises(AssertionError, match=r"maximal cells are not the \(0, T\)"):
        SalvettiPoset(braid3)


MODULAR_COATOMS = [
    ("sec3-arrangement", "H1,H2,H3"),
    ("braid3", "12,13,23"),
    ("np14", "L1,L4,L6,g1,g2,g3,g4,g5"),
    ("a4", "H1,H2,H3,H5,H6,H8"),
]


def coatom_localization(name, flat, request):
    system = corpus(name) if name in CORPUS_NAMES else request.getfixturevalue(name)
    return salvetti_localization(system, mask_of(system.ground.index(a) for a in flat.split(",")))


@pytest.mark.parametrize("name, flat", MODULAR_COATOMS)
def test_fibers_are_the_sums_of_the_preimages_below(name, flat, request):
    # each fiber read off the preimages over the target ideal below its
    # cell, the preimage masks gathered along the target covers, and the
    # union of the preimages of the target cells below it, read off the
    # target's masks, are one set
    loc = coatom_localization(name, flat, request)
    fibers = tuple(mask_of(loc.fiber(q)) for q in range(len(loc.target)))
    assert fibers == fibers_by_cover_gather(loc) == fibers_by_preimage_sums(loc)


@pytest.mark.parametrize("name, flat", MODULAR_COATOMS[:3])
def test_each_pair_reads_its_cells_off_the_order_the_masks_hold(name, flat, request):
    # the pairs, each pair's ambient (the least maximal cell above its upper
    # cell) and minimal cell (the least minimal cell below its lower cell),
    # and the minimal cells ranked, all read off the target's masks; and a
    # sample draws from the pairs in the order the masks list them
    loc = coatom_localization(name, flat, request)
    cert = quasi_fibration_certify(loc.system, loc.flat)
    poset = cert.loc.target.poset
    tops, bottoms = bits(poset.maximal_elements()), poset.minimal_elements()
    listing = [(a, b) for b in poset.elements for a in bits(poset.below(b))]
    assert cert.sample is None and [(p.lower, p.upper) for p in cert.pairs] == sorted(listing)
    for p in cert.pairs:
        assert p.ambient == next(m for m in tops if poset.leq(p.upper, m)), (p.lower, p.upper)
        assert p.minimal == bits(poset.below(p.lower) & bottoms)[0], (p.lower, p.upper)
    assert [m for m, _rank in cert.graph_ranks] == bits(bottoms)
    sampled = quasi_fibration_certify(loc.system, loc.flat, 24)
    assert [(p.lower, p.upper) for p in sampled.pairs] == sorted(random.Random(0).sample(listing, 24))


@pytest.mark.parametrize("name, flat", MODULAR_COATOMS)
def test_fibers_inherit_covers_and_heights(name, flat, request, monkeypatch):
    loc = coatom_localization(name, flat, request)

    def no_pass(*_):
        raise AssertionError("an order ideal ran the cover pass")

    # each fiber is an order ideal, so it inherits without a second pass
    with monkeypatch.context() as patch:
        patch.setattr(posets, "_cover_pass", no_pass)
        fibers = [fiber_poset(loc, q) for q in loc.target.poset.elements]
        inherited = [
            (fib.heights(), [fib.lower_covers(x) for x in fib.elements], fib.skipping_cover())
            for fib in fibers
        ]
    # the certificates read that off the localization's order check
    assert all(is_ideal(loc.source.poset, fib.members) for fib in fibers)
    for fib, got in zip(fibers, inherited):
        fresh = from_below(fib.names, {x: fib.below(x) for x in fib.elements})
        assert got == (fresh.heights(), [fresh.lower_covers(x) for x in fresh.elements], None)


# boolean3 without ++-, +00, -+-, -+0, --0 and 00-: +0-, -0- and 0+-
# compose with +++ to no covector.  The direct loop meets 0+- first, above
# the face 0+0 of +++, and the lower-numbered +0- only above 000, the last
# face
FIRST_FAILURE_NOT_LOWEST = (
    "000 +++ ++0 +-+ +-- +-0 +0+ +0- -++ --+ --- -0+ -0- -00 0++ 0+- 0+0 0-+ 0-- 0-0 00+"
).split()


@pytest.mark.parametrize(
    "covectors, message",
    [
        (["000", "+++", "---", "++0"], "composition ++0 o --- = ++- is not a covector"),
        (FIRST_FAILURE_NOT_LOWEST, "composition 0+- o +++ = ++- is not a covector"),
    ],
    ids=["roadmap-4-probe", "first-failure-not-lowest"],
)
def test_salvetti_refuses_the_first_composition_of_the_direct_loop(covectors, message):
    system = CovectorSystem.from_strings("abc", covectors)
    with pytest.raises(ValueError) as direct:
        direct_salvetti_below(system)
    with pytest.raises(ValueError) as built:
        SalvettiPoset(system)
    assert str(built.value) == str(direct.value) == message


def test_rank1_salvetti_is_a_circle(rank1):
    s = SalvettiPoset(rank1)
    assert len(s) == 4
    dims = sorted(s.poset.heights().values())
    assert dims == [0, 0, 1, 1]
    # Euler characteristic zero
    assert sum((-1) ** d for d in dims) == 0


def test_five_planes_salvetti_counts(five_planes):
    s = SalvettiPoset(five_planes)
    assert len(s) == 148
    assert s.poset.height() == five_planes.rank()


def test_salvetti_pure(all_corpus):
    # every maximal chain of the Salvetti poset has length equal to the rank
    for name, system in all_corpus.items():
        if len(system) > 200:
            continue
        s = SalvettiPoset(system)
        heights = s.poset.heights()
        up_heights = s.poset.dual().heights()
        for cid in s.poset.elements:
            assert heights[cid] + up_heights[cid] == system.rank(), (name, cid)
        dims = list(heights.values())
        assert max(dims) == system.rank(), name
        assert sum((-1) ** d for d in dims) == 0, name


def test_cell_ids_round_trip(all_corpus):
    # every cell id parses back to its cell through the command line's
    # parser, also without the parentheses and with surrounding blanks
    from omkit.cli import _cell

    for name, system in all_corpus.items():
        s = SalvettiPoset(system)
        for k in s.poset.elements:
            cid = s.poset.names[k]
            assert _cell(s, cid) == k, (name, cid)
            assert _cell(s, f"  {cid[1:-1]} ") == k, (name, cid)


def test_localization_map(five_planes):
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    assert len(loc.target) == 24
    assert len(loc.cells) == len(loc.source)
    assert mask_of(loc.cells) == loc.target.poset.members
    # a cell number outside the target raises; it does not wrap around
    for cell in (-1, len(loc.target)):
        with pytest.raises(PosetError, match="unknown target cell"):
            loc.fiber(cell)
    with pytest.raises(NotAFlatError):
        salvetti_localization(five_planes, five_planes.label_mask({"H1", "H4"}))


def swap_two_topes(system, rho):
    """rho with the images of two topes exchanged: the first tope and the
    first one with a different image."""
    topes = tope_numbers(system)
    a = topes[0]
    b = next(t for t in topes if rho[t] != rho[a])
    out = list(rho)
    out[a], out[b] = rho[b], rho[a]
    return out


def flatten_one_face(system, rho):
    """rho with the first covector that is no tope and restricts to a
    nonzero covector sent to the localization's zero covector instead."""
    topes = system.covector_poset().maximal_elements()
    zero = rho[system.numbering()[0, 0]]
    f = next(c for c in range(len(system)) if not topes >> c & 1 and rho[c] != zero)
    out = list(rho)
    out[f] = zero
    return out


@pytest.mark.parametrize(
    "mutate, message",
    [
        (swap_two_topes, r"sends cell \([-+0]+;[-+]+\) to \([-+0]+;[-+]+\), which is not a cell"),
        (flatten_one_face, r"not order preserving: \([-+0]+;[-+]+\) <= \([-+0]+;[-+]+\) but"),
    ],
    ids=["swapped-topes", "flattened-face"],
)
def test_localization_refuses_a_broken_projection(five_planes, monkeypatch, mutate, message):
    real = CovectorSystem.localization

    def broken(self, flat):
        localized, rho = real(self, flat)
        return localized, tuple(mutate(self, rho))

    monkeypatch.setattr(CovectorSystem, "localization", broken)
    with pytest.raises(ValueError, match=message):
        salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))


def test_the_order_check_refuses_a_wrong_tope(five_planes, monkeypatch):
    # the tope half of the sign rule: with H o R read as R o H, a cover whose
    # image (H, H o R) <= (G, R) has H o R != R is refused
    real = omkit.salvetti.compose_masks
    monkeypatch.setattr(omkit.salvetti, "compose_masks", lambda p1, m1, p2, m2: real(p2, m2, p1, m1))
    with pytest.raises(ValueError, match=r"not order preserving: \([-+0]+;[-+]+\) <= \([-+0]+;[-+]+\) but"):
        salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))


@pytest.mark.parametrize("name, flat", MODULAR_COATOMS[:3])
def test_the_order_check_names_the_first_cover_the_masks_refuse(name, flat, request, monkeypatch):
    # a flattened face breaks the face half; the witness is the first source
    # cover, cell by cell, whose image the target's masks put outside
    loc = coatom_localization(name, flat, request)
    rho = tuple(flatten_one_face(loc.system, loc.rho))
    source, target = loc.source, loc.target
    cells = [target.index[rho[f], rho[t]] for f, t in source.keys]
    k, x = next((k, x) for k, q in enumerate(cells) for x in source.covers[k] if not target.poset.leq(cells[x], q))
    names = source.poset.names
    expected = (
        f"localization is not order preserving: {names[x]} <= {names[k]} "
        f"but {target.poset.names[cells[x]]} !<= {target.poset.names[cells[k]]}"
    )
    monkeypatch.setattr(CovectorSystem, "localization", lambda self, flat: (loc.localized, rho))
    with pytest.raises(ValueError) as refused:
        salvetti_localization(loc.system, loc.flat)
    assert str(refused.value) == expected


def test_certify_fiber_and_stratify_derive_no_salvetti_mask(monkeypatch, braid3, np14):
    # the Salvetti order is read by the sign rule and along the covers, so
    # no Salvetti poset derives its masks; `morse --construction fiber` is
    # the one command that does, the source's, for the fiber subposet its
    # glued matching lives on
    derived = []
    real = posets._Unmasked.__getattr__

    def spy(self, name):
        if name == "_below" and self.names[0].startswith("("):
            derived.append(len(self.names))
        return real(self, name)

    monkeypatch.setattr(posets._Unmasked, "__getattr__", spy)
    for system, flat in ((braid3, "12,13,23"), (np14, "L1,L4,L6,g1,g2,g3,g4,g5")):
        localized, _rho = system.localization(system.label_mask(flat.split(",")))
        tope = localized.names()[bits(localized.topes())[0]]
        cell, source = f"({tope};{tope})", len(SalvettiPoset(system))
        for argv, masks in (
            (["certify-qf", "--flat", flat], []),
            (["fiber", "--flat", flat, "--cell", cell], []),
            (["stratify", "--flat", flat, f"--tope={tope}"], []),
            (["morse", "--construction", "fiber", "--flat", flat, "--cell", cell, f"--tope={tope}"], [source]),
        ):
            derived.clear()
            monkeypatch.setattr(sys, "stdin", io.StringIO(format_system(system)))
            assert main(argv) == 0, argv
            assert derived == masks, argv


def test_localization_builds_no_source_poset(five_planes, braid3):
    # the order check reads the source covers, so neither the source's
    # FinitePoset nor any of its masks is built
    for system, flat in ((five_planes, {"H1", "H2", "H3"}), (braid3, {"12", "13", "23"})):
        assert salvetti_localization(system, system.label_mask(flat)).source._poset is None


def test_localization_identity_flat(five_planes):
    loc = salvetti_localization(five_planes, five_planes.label_mask(five_planes.ground))
    assert loc.cells == tuple(loc.source.poset.elements)
    assert loc.preimages == tuple((c,) for c in loc.source.poset.elements)
    fibers = tuple(mask_of(loc.fiber(q)) for q in loc.target.poset.elements)
    assert fibers == tuple(loc.source.poset.below(c) for c in loc.source.poset.elements)


def test_sections_of_localization(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    anchors = anchor_numbers(five_planes, x)
    assert len(anchors) == 2
    for alpha in anchors:
        section = localization_section(loc, alpha)  # raises if not order preserving or not a section
        assert len(section.assignment) == len(loc.target)


def test_fibers_connected(five_planes, braid3):
    from simplicial_oracle import betti_numbers

    for system, flat in (
        (five_planes, {"H1", "H2", "H3"}),
        (braid3, {"12", "13", "23"}),
    ):
        loc = salvetti_localization(system, system.label_mask(flat))
        for cid in loc.target.poset.elements:
            assert betti_numbers(fiber_poset(loc, cid))[0] == 1


def test_principal_ideal_isomorphism(five_planes, rank1):
    for system in (five_planes, rank1):
        s = SalvettiPoset(system)
        for tope in tope_numbers(system)[:3]:
            to_dual, from_dual = principal_ideal_iso(s, tope)
            assert len(to_dual.source) == len(system)


def test_localization_square(five_planes):
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    for tope in tope_numbers(five_planes):
        assert localization_square_commutes(loc, tope)


def test_fiber_of_minimal_cell_contains_it(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    for cid in bits(loc.target.poset.minimal_elements()):
        lifted = localization_section(loc, anchor_numbers(five_planes, x)[0]).assignment[cid]
        assert lifted in loc.fiber(cid)


def test_maximal_fiber_is_union_of_tope_ideals(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    bp = tope_numbers(loc.localized)[0]
    base = sign_vectors(loc.localized)[bp]
    zero, zero_loc = five_planes.numbering()[0, 0], loc.localized.numbering()[0, 0]
    fiber = fiber_poset(loc, loc.target.index[zero_loc, bp])
    vectors = sign_vectors(five_planes)
    over = [t for t in tope_numbers(five_planes) if vectors[t].restrict(x) == base]
    union = 0
    for t in over:
        union |= loc.source.poset.below(loc.source.index[zero, t])
    assert fiber.members == union
    assert set(fiber.names_of(fiber.members)) == {
        f"({c};{c.compose(vectors[t])})" for t in over for c in vectors
    }


def test_stratification(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    vectors = sign_vectors(five_planes)
    for bp in tope_numbers(loc.localized):
        strat = stratify_fiber(loc, bp)
        assert len(strat.tope_string) == 3
        # consecutive topes of the string differ in exactly the separator bit
        assert [s.bit_count() for s in strat.separators] == [1, 1]
        for sep, (a, b) in zip(strat.separators, zip(strat.tope_string, strat.tope_string[1:])):
            assert vectors[a].separator_mask(vectors[b]) == sep
        assert all(loc.rho[t] == bp for t in strat.tope_string)
        strata = [mask_of(lift) for lift in check_patchwork(strat)]
        assert strata[0].bit_count() == len(five_planes)
        for i, sep in enumerate(strat.separators):
            e = five_planes.ground[sep.bit_length() - 1]
            vanish = sum(1 for c in vectors if c.sign(e) == 0)
            assert strata[i + 1].bit_count() == vanish
        # strata partition the fiber
        total = sum(s.bit_count() for s in strata)
        assert total == len(loc.fiber(strat.top))


def test_section_lifts_are_string_ends(five_planes):
    # iota_alpha(B') and iota_beta(B') are the two end topes of the string
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    vectors = sign_vectors(five_planes)
    anchors = [vectors[c] for c in anchor_numbers(five_planes, x)]
    for bp in tope_numbers(loc.localized):
        base = sign_vectors(loc.localized)[bp]
        strat = stratify_fiber(loc, bp)
        string = strat.tope_string
        lifts = set()
        for alpha in anchors:
            plus, minus = alpha.plus, alpha.minus
            for j, i in enumerate(bits(x)):
                bit = 1 << i
                if base.plus >> j & 1:
                    plus |= bit
                elif base.minus >> j & 1:
                    minus |= bit
            lifts.add(
                next(t for t in string if (vectors[t].plus, vectors[t].minus) == (plus, minus))
            )
        assert lifts == {string[0], string[-1]}


def test_strata_are_contraction_balls(five_planes):
    # N_0 is the whole dual ball; each later stratum is order-isomorphic to
    # the dual of the covectors vanishing on its separator element, via
    # forgetting the tope coordinate
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    system = five_planes
    covs = sign_vectors(system)
    zero = system.numbering()[0, 0]
    for bp in tope_numbers(loc.localized):
        strat = stratify_fiber(loc, bp)
        used = 0
        for i, lift in enumerate(check_patchwork(strat)):
            # stratum i off the source's masks: the ideal below (0, T_i)
            # less the strata before it
            stratum = loc.source.poset.below(loc.source.index[zero, strat.tope_string[i]]) & ~used
            used |= stratum
            t_i = covs[strat.tope_string[i]]
            faces = {}
            for cid in bits(stratum):
                face, tope = (covs[c] for c in loc.source.keys[cid])
                assert tope == face.compose(t_i)
                faces[cid] = face
            # the lift of stratum i sends each covector to its cell
            lifted = set(lift)
            assert lifted == set(bits(stratum))
            vectors = covs if i == 0 else sign_vectors(loc.localized)
            for c, cid in zip(vectors, lift, strict=True):
                face = faces[cid] if i == 0 else faces[cid].restrict(x)
                assert face == c
            if i == 0:
                want = set(covs)
            else:
                e = system.ground[strat.separators[i - 1].bit_length() - 1]
                want = {c for c in covs if c.sign(e) == 0}
            assert set(faces.values()) == want
            # order within the stratum is the dual covector order
            sub = loc.source.poset.subposet(stratum)
            for a in bits(stratum):
                for b in bits(stratum):
                    assert sub.leq(a, b) == faces[b].leq(faces[a])


def test_stratification_refuses_bad_flats(five_planes, braid3):
    from omkit.salvetti import StratificationError

    loc = salvetti_localization(five_planes, five_planes.label_mask({"H2", "H4"}))
    bp = tope_numbers(loc.localized)[0]
    with pytest.raises(StratificationError):
        stratify_fiber(loc, bp)  # not modular
    loc1 = salvetti_localization(five_planes, five_planes.label_mask({"H1"}))
    bp1 = tope_numbers(loc1.localized)[0]
    with pytest.raises(StratificationError):
        stratify_fiber(loc1, bp1)  # corank 2, not 1


def test_each_flat_is_decided_modular_once_per_lattice(monkeypatch):
    # the certificate and the stratification of every ambient read the
    # decisions the chain search made; a fresh copy has no lattice yet
    system = corpus("braid3")
    scanned = []
    real = GeometricLattice._first_nonmodular_pair
    monkeypatch.setattr(GeometricLattice, "_first_nonmodular_pair", lambda lat, x: scanned.append(x) or real(lat, x))
    lat = build_lattice(system)
    chain = lat.is_supersolvable()
    assert scanned and len(scanned) == len(set(scanned))
    before = list(scanned)
    coatom = chain[-2]
    assert quasi_fibration_certify(system, coatom).ok
    assert lat.is_modular_flat(coatom).ok
    assert scanned == before
    # a refusal keeps its witness
    line = system.label_mask({"12", "34"})
    refused = lat.is_modular_flat(line)
    assert not refused.ok and lat.is_modular_flat(line) == refused
    assert scanned.count(line) == 1


def test_fiber_cells_have_low_dimension(five_planes):
    # over a modular corank-one flat the covector-level fiber is a string
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc_system = five_planes.restriction(x)
    lat = build_lattice(five_planes)
    loc_vectors = sign_vectors(loc_system)
    for bp in bits(loc_system.topes()):
        for c in sign_vectors(five_planes):
            if c.restrict(x) == loc_vectors[bp]:
                assert lat.rank_of[c.zero_mask] <= 1


def test_rank2_model_of_fiber(five_planes, braid3):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    bp = tope_numbers(loc.localized)[0]
    model, mapping = fiber_rank2_model(loc, bp)
    assert model.check_axioms().ok
    assert model.rank() == 2
    # the fiber covectors correspond to the model's covectors positive on g
    assert set(mapping) == {c for c, r in enumerate(loc.rho) if r == bp}
    g = model.label_mask({"g"})
    positive = {y for y, (p, _) in enumerate(model.vectors()) if p & g}
    assert set(mapping.values()) == positive
    # fiber string: three topes and two one-dimensional cells
    topes = model.covector_poset().maximal_elements()
    assert sum(1 for y in positive if topes >> y & 1) == 3
    locb = salvetti_localization(braid3, braid3.label_mask({"12", "13", "23"}))
    for bpb in tope_numbers(locb.localized):
        model_b, _ = fiber_rank2_model(locb, bpb)
        assert model_b.check_axioms().ok
        assert model_b.rank() == 2


def test_rank2_string_model_small(rank1):
    # rank-2 system on two elements: every fiber string has two topes
    from omkit.matroids import RationalArrangement, from_arrangement

    r22 = from_arrangement(RationalArrangement(("e1", "e2"), [(1, 0), (0, 1)]))
    loc = salvetti_localization(r22, r22.label_mask({"e1"}))
    for bp in tope_numbers(loc.localized):
        strat = stratify_fiber(loc, bp)
        assert len(strat.tope_string) == 2
