import pytest
from hypothesis import given, settings, strategies as st

from omkit import posets
from omkit.corpus import corpus
from omkit.matroids import CovectorSystem
from omkit.homology import chain_complex, graph_rank
from omkit.morse import (
    Matching,
    MatchingError,
    MorseCertificate,
    collapse_ball,
    local_matchings,
    matching_convex_critical,
    matching_from_shelling,
    matching_salvetti_fiber,
    morse_reduction_certificate,
)
from omkit.posets import bits, mask_of
from omkit.salvetti import salvetti_localization, stratify_fiber
from omkit.signs import separator_masks
from omkit.topes import dual_subcomplex, shelling_order_from_extension, sphere_poset
from poset_builders import chain_poset, cover_pairs, from_covers
from side_lemmas import all_convex_tope_sets, dual_matching, kahn_acyclic, matched_digraph


def square_boundary():
    elements = ["v1", "v2", "v3", "v4", "e12", "e23", "e34", "e41"]
    covers = [
        ("v1", "e12"), ("v2", "e12"),
        ("v2", "e23"), ("v3", "e23"),
        ("v3", "e34"), ("v4", "e34"),
        ("v4", "e41"), ("v1", "e41"),
    ]
    return from_covers(elements, covers)


def square_disk():
    # one 2-cell glued onto the square boundary
    sq = square_boundary()
    elements = list(sq.names) + ["f"]
    covers = [(sq.names[a], sq.names[b]) for a, b in cover_pairs(sq)]
    covers += [("e12", "f"), ("e23", "f"), ("e34", "f"), ("e41", "f")]
    return from_covers(elements, covers)


def pairs(poset, named):
    """Named pairs as element pairs."""
    return frozenset((poset.names.index(a), poset.names.index(b)) for a, b in named)


def names(poset, mask):
    return set(poset.names_of(mask))


def all_topes(system):
    """The mask of all topes."""
    return system.covector_poset().maximal_elements()


def first_tope(system):
    topes = all_topes(system)
    return topes & -topes


def test_empty_matching_acyclic():
    sq = square_boundary()
    m = Matching(sq, frozenset())
    assert m.cycle() is None
    assert m.critical_cells() == sq.members


def test_two_pair_matching_acyclic():
    sq = square_boundary()
    m = Matching(sq, pairs(sq, {("v1", "e12"), ("v2", "e23")}))
    assert m.cycle() is None
    assert kahn_acyclic(m)
    assert names(sq, m.critical_cells()) == {"v3", "v4", "e34", "e41"}


def test_clockwise_matching_cyclic():
    sq = square_boundary()
    m = Matching(
        sq,
        pairs(sq, {("v1", "e12"), ("v2", "e23"), ("v3", "e34"), ("v4", "e41")}),
    )
    cycle = m.cycle()
    assert not kahn_acyclic(m)
    # eight steps around the square, from its least cell
    assert [sq.names[x] for x in cycle] == ["e12", "v2", "e23", "v3", "e34", "v4", "e41", "v1", "e12"]
    succ = matched_digraph(m)
    assert all(b in succ[a] for a, b in zip(cycle, cycle[1:]))
    # the certificate returns the cycle as its witness, and raises nothing
    cert = morse_reduction_certificate(m, 0)
    assert cert.cycle == cycle and cert.critical is None and not cert.ok


def _matchings(draw_covers):
    """Disjoint cover pairs of a host, drawn in order and kept while they
    touch no cell already matched."""
    pairs, seen = set(), set()
    for a, b in draw_covers:
        if a not in seen and b not in seen:
            pairs.add((a, b))
            seen |= {a, b}
    return frozenset(pairs)


def fiber_hosts(name, flat):
    """The fibers over every target cell of a golden localization."""
    system = corpus(name)
    loc = salvetti_localization(system, mask_of(system.ground.index(a) for a in flat.split(",")))
    return {f"{name} fiber {loc.target.poset.names[q]}": loc.fiber(q) for q in loc.target.poset.elements}


HOSTS = {
    "square": square_boundary(),
    **{name: sphere_poset(corpus(name)) for name in ("rank1", "boolean3", "uniform-2-3")},
}

# the fibers over every cell of both golden localizations and two dual
# covector balls, each host drawn on its own
LAYERED_HOSTS = {
    **{f"{name} dual ball": corpus(name).covector_poset().dual() for name in ("uniform-2-3", "sec3-arrangement")},
    **fiber_hosts("sec3-arrangement", "H1,H2,H3"),
    **fiber_hosts("braid3", "12,13,23"),
}


def check_cycle_against_kahn(host, data):
    """A random matching on the host has a cycle exactly when Kahn's sort
    jams, and the cycle is a closed walk of the matched digraph."""
    covers = sorted(cover_pairs(host))  # none on the rank1 sphere, two points
    drawn = data.draw(st.lists(st.sampled_from(covers), unique=True)) if covers else []
    m = Matching(host, _matchings(drawn))
    cycle = m.cycle()
    assert (cycle is None) == kahn_acyclic(m)
    if cycle is not None:
        succ = matched_digraph(m)
        assert cycle[0] == cycle[-1] and len(cycle) > 2
        assert all(b in succ[a] for a, b in zip(cycle, cycle[1:]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(HOSTS)), st.data())
def test_cycle_agrees_with_kahn(name, data):
    check_cycle_against_kahn(HOSTS[name], data)


@pytest.mark.parametrize("name", sorted(LAYERED_HOSTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cycle_agrees_with_kahn_on_fibers_and_dual_balls(name, data):
    check_cycle_against_kahn(LAYERED_HOSTS[name], data)


def test_cycle_refuses_a_host_that_is_not_graded():
    # d < c skips a height, so a cycle need not stay between two heights
    host = from_covers("abcd", [("a", "b"), ("b", "c"), ("d", "c")])
    m = Matching(host, pairs(host, {("a", "b")}))
    with pytest.raises(MatchingError, match=r"host is not graded: the cover 'd' < 'c' skips a height"):
        m.cycle()


def test_matching_validation():
    sq = square_boundary()
    with pytest.raises(MatchingError, match=r"pair \('v1', 'e23'\) is not a cover relation"):
        Matching(sq, pairs(sq, {("v1", "e23")}))
    with pytest.raises(MatchingError, match="cell matched twice near"):
        Matching(sq, pairs(sq, {("v1", "e12"), ("v1", "e41")}))


def test_perfect_matching_no_critical():
    chain = chain_poset(("a", "b"))
    m = Matching(chain, pairs(chain, {("a", "b")}))
    assert m.critical_cells() == 0


def test_dual_matching_equivalence(five_planes):
    m = matching_convex_critical(five_planes, first_tope(five_planes))
    dual = dual_matching(m)
    assert (dual.cycle() is None) == (m.cycle() is None)
    assert dual.critical_cells() == m.critical_cells()


def test_matching_from_shelling_edge():
    edge = from_covers(
        ("v1", "v2", "e"), [("v1", "e"), ("v2", "e")]
    )
    m = matching_from_shelling(edge, (edge.names.index("e"),), edge.names.index("v1"))
    assert m.pairs == pairs(edge, {("v2", "e")})
    assert names(edge, m.critical_cells()) == {"v1"}


def test_matching_from_shelling_square_disk():
    disk = square_disk()
    m = matching_from_shelling(disk, (disk.names.index("f"),), disk.names.index("v1"))
    assert names(disk, m.critical_cells()) == {"v1"}
    assert len(m.pairs) == 4  # (9 - 1) / 2 cells paired
    assert morse_reduction_certificate(m, m.critical_cells()).ok


def test_matching_from_shelling_rejects_outside_vertex():
    disk = square_disk()
    with pytest.raises(MatchingError):
        matching_from_shelling(disk, (disk.names.index("f"),), len(disk.names))


def test_convex_critical_trivial(five_planes):
    m = matching_convex_critical(five_planes, all_topes(five_planes))
    assert m.pairs == frozenset()
    assert m.critical_cells() == five_planes.covector_poset().members


def test_convex_critical_all_instances(five_planes, uniform23):
    for system in (uniform23, five_planes):
        for q in all_convex_tope_sets(system):
            m = matching_convex_critical(system, q)
            assert kahn_acyclic(m)
            assert m.critical_cells() == dual_subcomplex(system, q)


def test_convex_critical_path_of_three(uniform23):
    # two adjacent topes leave a path of three cells critical
    vectors = uniform23.vectors()
    topes = bits(all_topes(uniform23))
    pair = next(
        1 << t | 1 << r
        for t in topes
        for r in topes
        if separator_masks(*vectors[t], *vectors[r]).bit_count() == 1
    )
    m = matching_convex_critical(uniform23, pair)
    assert m.critical_cells().bit_count() == 3


def test_convex_critical_refuses_non_convex(uniform23):
    # a tope and its opposite: every other tope lies between them
    t = bits(all_topes(uniform23))[0]
    far = 1 << uniform23.numbering()[uniform23.vectors()[t][::-1]]
    with pytest.raises(MatchingError, match="Q must be convex"):
        matching_convex_critical(uniform23, 1 << t | far)


def fresh(system: CovectorSystem) -> CovectorSystem:
    """A copy of a shared fixture with nothing cached on it yet."""
    return CovectorSystem(system.ground, system.vectors())


def test_convex_critical_checks_convexity_once(monkeypatch, five_planes):
    import omkit.morse
    import omkit.topes

    five_planes = fresh(five_planes)

    seen = []
    real = omkit.topes.is_convex

    def counting(system, q):
        seen.append(q)
        return real(system, q)

    # wherever it is looked up from
    monkeypatch.setattr(omkit.topes, "is_convex", counting)
    monkeypatch.setattr(omkit.morse, "is_convex", counting)
    q = first_tope(five_planes)
    matching_convex_critical(five_planes, q)
    assert seen == [q]


def test_convex_critical_refuses_a_convex_set_that_is_no_ideal(monkeypatch, uniform23):
    # a convex set is an ideal of the tope poset at each of its topes;
    # if the poset says otherwise an invariant broke, which is no input error;
    # the shelling order is asked for at the opposite base, where Q is none
    import omkit.morse

    real = omkit.morse.shelling_order_from_extension

    def opposite_base(system, base, prefix=0):
        return real(system, system.numbering()[system.vectors()[base][::-1]], prefix)

    monkeypatch.setattr(omkit.morse, "shelling_order_from_extension", opposite_base)
    system = fresh(uniform23)
    with pytest.raises(AssertionError, match="not an ideal of the tope poset"):
        matching_convex_critical(system, first_tope(system))


def test_fiber_matchings_exhaustive(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    cells = loc.target.poset.elements
    max_cells = bits(loc.target.poset.maximal_elements())
    for a in cells:
        for top in max_cells:
            if not loc.target.poset.leq(a, top):
                continue
            bp = loc.target.keys[top][1]
            m = matching_salvetti_fiber(stratify_fiber(loc, bp), a)
            assert kahn_acyclic(m)
            assert m.critical_cells() == loc.fiber(a).members


def test_fiber_matching_maximal_cell_is_empty(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    top = bits(loc.target.poset.maximal_elements())[0]
    bp = loc.target.keys[top][1]
    m = matching_salvetti_fiber(stratify_fiber(loc, bp), top)
    assert m.pairs == frozenset()


def test_fiber_matching_minimal_cell_graph(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    bottom = bits(loc.target.poset.minimal_elements())[0]
    tope = loc.target.keys[bottom][1]
    m = matching_salvetti_fiber(stratify_fiber(loc, tope), bottom)
    assert m.critical_cells() == loc.fibers[bottom]
    assert graph_rank(chain_complex(loc.source, loc.fibers[bottom])) == 2


def test_morse_certificate(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    loc = salvetti_localization(five_planes, x)
    top = bits(loc.target.poset.maximal_elements())[0]
    bottom = bits(loc.target.poset.minimal_elements())[0]
    bp = loc.target.keys[top][1]
    host_fiber = loc.fiber(top)
    if loc.target.poset.leq(bottom, top):
        m = matching_salvetti_fiber(stratify_fiber(loc, bp), bottom)
        cert = morse_reduction_certificate(m, loc.fibers[bottom])
        assert cert.ok
        # drop one pair: the critical claim fails with a witness, not an error
        short = Matching(m.host, frozenset(sorted(m.pairs)[1:]))
        cert = morse_reduction_certificate(short, loc.fibers[bottom])
        assert not cert.ok and cert.cycle is None
        assert cert.critical.startswith("extra [") and cert.critical.endswith("missing []")
        assert cert.witnesses(host_fiber.names) == [cert.critical]
        cyclic = MorseCertificate((bottom, top, bottom), None)
        names = host_fiber.names
        assert cyclic.witnesses(names) == [f"cycle {[names[bottom], names[top], names[bottom]]}"]


def test_certificate_trivial_full_complex():
    sq = square_boundary()
    m = Matching(sq, frozenset())
    cert = morse_reduction_certificate(m, sq.members)
    assert cert.ok
    # a pair inside the subcomplex leaves two of its cells uncritical
    m = Matching(sq, pairs(sq, {("v1", "e12")}))
    cert = morse_reduction_certificate(m, sq.members)
    assert cert.critical == "extra [], missing ['e12', 'v1']" and cert.cycle is None
    # critical cells that are no subcomplex: e41 lost its face v1
    cert = morse_reduction_certificate(m, m.critical_cells())
    assert cert.critical == "not an ideal: e41 has faces ['v1'] outside" and not cert.ok


def test_collapse_ball_runs_no_cover_pass_once_the_sphere_is_built(monkeypatch):
    # the ball is an order ideal of the one cached sphere, so it inherits
    # the sphere's covers and heights; a fresh copy has no sphere yet
    braid3 = corpus("braid3")
    system = CovectorSystem(braid3.ground, braid3.vectors())
    order = shelling_order_from_extension(system, bits(system.topes())[0])
    calls = []
    real = posets._cover_pass
    monkeypatch.setattr(posets, "_cover_pass", lambda *a: calls.append(a) or real(*a))
    sphere = sphere_poset(system)
    assert len(calls) == 1
    calls.clear()
    for k in (1, len(order) // 2, len(order) - 1):
        matching, vertex = collapse_ball(system, order[:k])
        assert matching.host.members == sphere.order_ideal(mask_of(order[:k]))
        assert matching.critical_cells() == 1 << vertex
    assert sphere_poset(system) is sphere
    assert calls == []


def test_the_certificate_builds_no_sphere_or_ball_poset(monkeypatch):
    # an exhaustive certificate runs one cover pass per system, for the
    # covector posets of the system and of its localization, and
    # collapses every ball on their covers, with no subposet; the tope
    # graph is kept on the system, so a shelling order after the
    # certificate's composes nothing
    import omkit.topes
    from omkit import matroids
    from omkit.homology import quasi_fibration_certify

    passes, subposets, compositions = [], [], []
    real_pass, real_sub, real_compose = posets._cover_pass, posets.FinitePoset.subposet, omkit.topes.compose_masks
    for module in (posets, matroids):
        monkeypatch.setattr(module, "_cover_pass", lambda *a: passes.append(a) or real_pass(*a))
    monkeypatch.setattr(posets.FinitePoset, "subposet", lambda self, mask: subposets.append(mask) or real_sub(self, mask))
    monkeypatch.setattr(omkit.topes, "compose_masks", lambda *a: compositions.append(a) or real_compose(*a))
    for name, flat in (("braid3", "12,13,23"), ("sec3-arrangement", "H1,H2,H3")):
        system = fresh(corpus(name))
        passes.clear()
        compositions.clear()
        assert quasi_fibration_certify(system, system.label_mask(flat.split(",")), None).ok
        assert len(passes) == 2 and subposets == [] and compositions
        compositions.clear()
        shelling_order_from_extension(system, bits(system.topes())[-1])
        assert compositions == []


# -- the fiber certificate by the patchwork theorem ----------------------------


def certified_cells(cert):
    """Each cell of a certificate's pairs with its ambient, and the
    certificate the pair evidence holds for it."""
    out = {}
    for p in cert.pairs:
        for cell, own in ((p.lower, p.lower_matching), (p.upper, p.upper_matching), (p.minimal, p.link)):
            out[cell, p.ambient] = own
    return out


def patchwork_runs(five_planes, braid3, a4, np14_extension):
    """(system, flat, sample): sec3, braid3 and A_4 exhaustive, np14 sampled."""
    return [
        (five_planes, five_planes.label_mask({"H1", "H2", "H3"}), None),
        (braid3, braid3.label_mask({"12", "13", "23"}), None),
        (a4, a4.label_mask("H1,H2,H3,H5,H6,H8".split(",")), None),
        (np14_extension.final, np14_extension.chain[-2], 24),
    ]


def test_the_patchwork_certificate_is_the_glued_certificate(monkeypatch, five_planes, braid3, a4, np14_extension):
    # the oracle: the glued matching, walked whole, has the same critical
    # set, the fiber, and the same verdict as every certified pair; and a
    # passing pair reads its critical set off the gathered digits alone,
    # never off the lifted masks that name a witness
    import omkit.morse
    from omkit.homology import quasi_fibration_certify

    real, named = omkit.morse._critical_claim, []
    monkeypatch.setattr(omkit.morse, "_critical_claim", lambda *args: named.append(args) or real(*args))
    for system, flat, sample in patchwork_runs(five_planes, braid3, a4, np14_extension):
        named.clear()
        cert = quasi_fibration_certify(system, flat, sample)
        assert cert.ok and named == []
        loc, strats = cert.loc, {}
        for (cell, amb), own in certified_cells(cert).items():
            if amb not in strats:
                strats[amb] = stratify_fiber(loc, loc.target.keys[amb][1])
            glued = matching_salvetti_fiber(strats[amb], cell)
            assert glued.critical_cells() == loc.fibers[cell]
            assert morse_reduction_certificate(glued, loc.fibers[cell]) == own


def test_the_cover_count_collapse_is_the_mask_count_collapse(monkeypatch, five_planes, braid3, a4, np14_extension):
    # every convex-critical ball the certificates build, collapsed on the
    # covector poset's covers, collapses to the same pairs as its own
    # subposet does by counting every alive cell above a cell; the ball's
    # maximal cells, by birth, are its shelling order
    import omkit.morse
    from omkit.homology import quasi_fibration_certify
    from side_lemmas import matching_from_shelling_by_masks

    real = omkit.morse._collapse
    balls = []

    def both(poset, birth, vertex):
        pairs = real(poset, birth, vertex)
        ball = poset.subposet(mask_of(birth))
        order = sorted(bits(ball.maximal_elements()), key=birth.get)
        assert frozenset(pairs) == matching_from_shelling_by_masks(ball, order, vertex).pairs
        balls.append(ball)
        return pairs

    monkeypatch.setattr(omkit.morse, "_collapse", both)
    for system, flat, sample in patchwork_runs(five_planes, braid3, a4, np14_extension):
        balls.clear()
        assert quasi_fibration_certify(fresh(system), flat, sample).ok
        assert balls


def test_the_local_critical_sets_are_the_face_up_sets(five_planes, braid3, a4, np14_extension):
    # the two local matchings of a face G are critical exactly on the
    # covectors F with rho F >= G on the system and with F >= G on the
    # localized system, as `local_matchings` argues: 134 faces in all
    faces = 0
    for system, flat, _ in patchwork_runs(five_planes, braid3, a4, np14_extension):
        loc = salvetti_localization(system, flat)
        order = loc.localized.covector_poset()
        cell_over = {}
        for cell, (face, _) in enumerate(loc.target.keys):
            cell_over.setdefault(face, cell)
        for face, cell in cell_over.items():
            m0, mi = local_matchings(loc, cell)
            assert m0.critical_cells() == mask_of(f for f, g in enumerate(loc.rho) if order.leq(face, g))
            assert mi.critical_cells() == order.dual().below(face)
        faces += len(cell_over)
    assert faces == 134


def sec3_stratification(system=None):
    """The stratified fiber of the first ambient of sec3 at H1,H2,H3: a
    string of three topes."""
    system = system or corpus("sec3-arrangement")
    loc = salvetti_localization(system, system.label_mask({"H1", "H2", "H3"}))
    amb = bits(loc.target.poset.maximal_elements())[0]
    return stratify_fiber(loc, loc.target.keys[amb][1])


def certify_with(monkeypatch, change):
    """The sec3 certificate, with `change` applied to each stratification."""
    import importlib

    from omkit.homology import quasi_fibration_certify

    module = importlib.import_module("omkit.homology")
    real = module.stratify_fiber
    monkeypatch.setattr(module, "stratify_fiber", lambda loc, base: change(real(loc, base)))
    system = corpus("sec3-arrangement")
    return quasi_fibration_certify(system, system.label_mask({"H1", "H2", "H3"}))


def test_patchwork_refuses_a_reordered_tope_string(monkeypatch):
    from dataclasses import replace

    from omkit.morse import check_patchwork

    def reordered(strat):
        # topes 1 and 2 traded with their separators: the strata still
        # cover the fiber
        t, sep = strat.tope_string, strat.separators
        return replace(strat, tope_string=(t[0], t[2], t[1]), separators=(sep[1], sep[0]))

    strat = sec3_stratification()
    lifts = check_patchwork(strat)
    # stratum 1 is now the ideal below the old T_2 less stratum 0, larger
    # than the old stratum 2 the faces of its separator lift onto
    source, zero = strat.loc.source, strat.loc.system.numbering()[0, 0]
    below = [source.poset.below(source.index[zero, t]) for t in strat.tope_string]
    assert (below[2] & ~below[0]).bit_count() > len(lifts[2])
    with pytest.raises(MatchingError, match="lift 1 is no isomorphism of its ball onto stratum 1"):
        check_patchwork(reordered(strat))
    with pytest.raises(MatchingError, match="lift 1 is no isomorphism of its ball onto stratum 1"):
        certify_with(monkeypatch, reordered)


def test_patchwork_refuses_traded_separators(monkeypatch):
    # the topes in order but their separators traded: each later stratum
    # is as large as its ball, but lies over the faces zero at the other
    # separator
    from dataclasses import replace

    from omkit.morse import check_patchwork

    def traded(strat):
        return replace(strat, separators=strat.separators[::-1])

    with pytest.raises(MatchingError, match="lift 1 is no isomorphism of its ball onto stratum 1"):
        check_patchwork(traded(sec3_stratification()))
    with pytest.raises(MatchingError, match="lift 1 is no isomorphism of its ball onto stratum 1"):
        certify_with(monkeypatch, traded)


def test_patchwork_refuses_another_fibers_string():
    # the tope string of the second ambient under the first: its strata
    # are as many cells as the fiber's, and lift onto the right faces,
    # but lie outside it
    from dataclasses import replace

    from omkit.morse import check_patchwork

    strat = sec3_stratification()
    loc = strat.loc
    amb = bits(loc.target.poset.maximal_elements())[1]
    other = stratify_fiber(loc, loc.target.keys[amb][1])
    assert sum(map(len, check_patchwork(other))) == loc.fibers[strat.top].bit_count()
    with pytest.raises(MatchingError, match="the strata do not cover the fiber"):
        check_patchwork(replace(strat, tope_string=other.tope_string, separators=other.separators))


def test_patchwork_refuses_a_string_short_of_its_last_tope(monkeypatch):
    # the string without its last tope and separator: each stratum still
    # lifts onto its faces, but the strata miss the last one
    from dataclasses import replace

    from omkit.morse import check_patchwork

    def short(strat):
        return replace(strat, tope_string=strat.tope_string[:-1], separators=strat.separators[:-1])

    with pytest.raises(MatchingError, match="the strata do not cover the fiber"):
        check_patchwork(short(sec3_stratification()))
    with pytest.raises(MatchingError, match="the strata do not cover the fiber"):
        certify_with(monkeypatch, short)


def test_the_restriction_must_be_an_isomorphism_on_its_covers(monkeypatch):
    # rho with two covectors zero at the separator traded is still a
    # bijection onto the localized covectors, but no isomorphism; the check
    # is kept on the system, so each run reads a fresh one
    import importlib
    from dataclasses import replace

    from omkit.homology import quasi_fibration_certify
    from omkit.salvetti import restriction_iso

    strat = sec3_stratification()
    loc, sep = strat.loc, strat.separators[0]
    iso = restriction_iso(loc, sep)
    zero = loc.localized.numbering()[0, 0]
    tope = bits(loc.localized.topes())[0]

    def traded(loc):
        rho = list(loc.rho)
        rho[iso[zero]], rho[iso[tope]] = rho[iso[tope]], rho[iso[zero]]
        return replace(loc, rho=tuple(rho))

    system = corpus("sec3-arrangement")
    bad = traded(salvetti_localization(system, loc.flat))
    with pytest.raises(AssertionError, match="restriction does not send the covers of"):
        restriction_iso(bad, sep)
    module = importlib.import_module("omkit.homology")
    real = module.salvetti_localization
    monkeypatch.setattr(module, "salvetti_localization", lambda system, flat: traded(real(system, flat)))
    system = corpus("sec3-arrangement")
    with pytest.raises(AssertionError, match="restriction does not send the covers of"):
        quasi_fibration_certify(system, loc.flat)


def test_a_fiber_off_by_one_cell_fails_as_the_glued_matching_does(five_planes):
    # the claimed fiber with its last cell dropped, with one more cell of
    # the ambient fiber, and with one cell outside it: each fails with the
    # glued matching's own witness, and at the ambient's own cell, whose
    # fiber the strata must cover, the patchwork check refuses it
    from dataclasses import replace

    from omkit.morse import certify_fibers

    strat = sec3_stratification(five_planes)
    loc = strat.loc
    fiber = loc.fibers[strat.top]
    outside = bits(loc.source.poset.members & ~fiber)[0]
    for cell in bits(loc.target.poset.below(strat.top)):
        sub = loc.fibers[cell]
        inside = bits(fiber & ~sub)
        for wrong in (sub ^ 1 << (sub.bit_length() - 1), sub | 1 << outside, *(sub | 1 << x for x in inside[:1])):
            fibers = (*loc.fibers[:cell], wrong, *loc.fibers[cell + 1:])
            planted = replace(strat, loc=replace(loc, fibers=fibers))
            if cell == strat.top:
                with pytest.raises(MatchingError, match="the strata do not cover the fiber"):
                    certify_fibers(planted, [cell])
                continue
            mine = certify_fibers(planted, [cell])[cell]
            glued = morse_reduction_certificate(matching_salvetti_fiber(strat, cell), wrong)
            assert mine == glued and mine.critical.startswith("extra [")


def test_a_cyclic_local_matching_fails_its_pairs_with_a_lifted_cycle(monkeypatch):
    # the localization of sec3 at H1,H2,H3 has rank two; its local
    # matchings made cyclic, each pair fails with a cycle of the glued
    # matching's digraph, lifted from the cyclic one, least cell first
    import omkit.morse
    from omkit.homology import quasi_fibration_certify
    from side_lemmas import matched_digraph
    from test_cli import cyclic_ball_matching

    real = omkit.morse.matching_convex_critical
    monkeypatch.setattr(
        omkit.morse,
        "matching_convex_critical",
        lambda system, q: cyclic_ball_matching(system, q) if system.rank() == 2 else real(system, q),
    )
    system = corpus("sec3-arrangement")
    cert = quasi_fibration_certify(system, system.label_mask({"H1", "H2", "H3"}))
    assert cert.failed_pairs == cert.pairs
    loc, strats = cert.loc, {}
    for (cell, amb), own in certified_cells(cert).items():
        if amb not in strats:
            strats[amb] = stratify_fiber(loc, loc.target.keys[amb][1])
        glued = matching_salvetti_fiber(strats[amb], cell)
        succ = matched_digraph(glued)
        cycle = own.cycle
        assert glued.cycle() is not None and cycle[0] == cycle[-1] == min(cycle)
        assert all(y in succ[x] for x, y in zip(cycle, cycle[1:]))
        assert own.critical == morse_reduction_certificate(glued, loc.fibers[cell]).critical
